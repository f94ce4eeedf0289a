import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcn_resilience import payment_sim as ps
from pcn_resilience.graph_model import (MAX_SAT, graph_from_dict, remove_channels,
                                        remove_nodes)
from pcn_resilience.topology_metrics import generate_reference

from oracles import (augmenting_path_max_flow, balance_caps, channels,
                     reference_balances, reference_route, route_of)
from test_graph_model import explicit_channels, make_graph

VOLS = ps.VolumeModel(volumes=(1000, 5000, 20000))


def two_node_channel(capacity=100_000):
    return graph_from_dict({
        "nodes": [{"pub_key": "a"}, {"pub_key": "b"}],
        "edges": [{"channel_id": "c0", "node1_pub": "a", "node2_pub": "b",
                   "capacity": capacity}],
    })


class TestRoutePayment:
    def test_direct_payment_shifts_balances(self):
        g = two_node_channel()
        out = ps.route_payment(g, ps.PaymentSpec("a", "b", 40_000), apply=True)
        assert out.success and route_of(g, out.slots) == (["a", "b"], ["c0"])
        e = channels(g)["c0"]
        assert e.balance_ab == 60_000
        assert e.balance_ba == 140_000
        assert e.balance_ab + e.balance_ba == 2 * e.capacity

    def test_no_fee_on_direct_hop(self):
        # every payment on one channel is direct, so nobody forwards
        g = two_node_channel()
        out = ps.route_payment(g, ps.PaymentSpec("a", "b", 40_000))
        assert out.slots.tolist() == [0]
        vols = ps.VolumeModel(volumes=(40_000,))
        assert ps.fee_gain(g, "a", 10, vols) == ps.fee_gain(g, "b", 10, vols) == 0

    def test_insufficient_balance_fails(self):
        g = two_node_channel(capacity=10_000)
        out = ps.route_payment(g, ps.PaymentSpec("a", "b", 20_000))
        assert not out.success and out.slots.tolist() == []

    def test_unknown_endpoint(self):
        g = two_node_channel()
        with pytest.raises(KeyError) as exc:
            ps.route_payment(g, ps.PaymentSpec("a", "zz", 1))
        assert exc.value.args == ("unknown payment endpoint zz",)
        with pytest.raises(KeyError) as exc:
            ps.route_payment(g, ps.PaymentSpec("yy", "zz", 1))
        assert exc.value.args == ("unknown payment endpoint yy",)

    @pytest.mark.parametrize("source, target, amount, message", [
        ("a", "a", 1, "source and target must differ"),
        ("a", "b", 0, "amount must be positive"),
        ("a", "b", -5, "amount must be positive"),
    ], ids=["same-endpoint", "zero-amount", "negative-amount"])
    def test_bad_spec_is_named(self, source, target, amount, message):
        with pytest.raises(ValueError, match=message):
            ps.PaymentSpec(source, target, amount)

    def test_forwarding_fee_arithmetic(self):
        # a - h - b with default policy: 1000 msat + 1 ppm on 50,000 sat
        g = make_graph(["a", "h", "b"], [("a", "h"), ("h", "b")],
                       capacity=100_000)
        out = ps.route_payment(g, ps.PaymentSpec("a", "b", 50_000))
        assert route_of(g, out.slots) == (["a", "h", "b"], ["c0", "c1"])
        # h forwards every a -> b and b -> a payment, at 1050 msat either
        # way; on sides of 10**6, 8 payments of 50,000 never run dry
        g = make_graph(["a", "h", "b"], [("a", "h"), ("h", "b")],
                       capacity=10**6)
        vols = ps.VolumeModel(volumes=(50_000,))
        specs = ps.sample_specs(g.ids, 8, vols, random.Random(1))
        through = sum({s.source, s.target} == {"a", "b"} for s in specs)
        assert through > 0
        assert ps.fee_gain(g, "h", 8, vols, seed=1) == 1050 * through / 8

    def test_tie_break_prefers_smallest_node_sequence(self):
        # two 2-hop routes a-m1-b and a-m2-b: m1 < m2 wins
        g = make_graph(["a", "b", "m1", "m2"],
                       [("a", "m1"), ("m1", "b"), ("a", "m2"), ("m2", "b")],
                       capacity=100_000)
        out = ps.route_payment(g, ps.PaymentSpec("a", "b", 1000))
        assert route_of(g, out.slots)[0] == ["a", "m1", "b"]

    def test_routes_around_drained_direction(self):
        g = make_graph(["a", "h", "b"], [("a", "h"), ("h", "b")],
                       capacity=50_000)
        ps.route_payment(g, ps.PaymentSpec("a", "b", 50_000), apply=True)
        # a's outbound on a-h is now empty; next payment must fail
        out = ps.route_payment(g, ps.PaymentSpec("a", "b", 1000))
        assert not out.success
        # but b -> a now has extra headroom through h
        back = ps.route_payment(g, ps.PaymentSpec("b", "a", 60_000))
        assert back.success


# Ids whose lexicographic order differs from their numeric order, so a
# tie-break by position instead of by id shows up.
ROUTE_IDS = ["n0", "n1", "n10", "n2", "n9", "a", "Z"]


@st.composite
def routing_cases(draw):
    """A small graph with parallel channels, tied shortest paths and
    explicit balances, plus a sequence of read and write payments. Small
    balances make the amount filter matter; each side draws its own base
    fee and rate, small or up to the u32 bound, so the rate term of a fee
    is often non-zero and a fee read from the wrong side shows."""
    ids = draw(st.lists(st.sampled_from(ROUTE_IDS), min_size=2, max_size=7,
                        unique=True))
    pair = st.tuples(st.sampled_from(ids), st.sampled_from(ids)).filter(
        lambda p: p[0] != p[1])
    fee = st.integers(0, 3) | st.integers(0, 2**32 - 1)
    policy = st.fixed_dictionaries({"fee_base_msat": fee,
                                    "fee_rate_milli_msat": fee})
    drawn = draw(st.lists(
        st.tuples(pair, st.integers(0, 12), st.integers(0, 12), policy, policy),
        max_size=14))
    # channel ids out of insertion order exercise the smallest-id rule
    cids = draw(st.permutations([f"ch{i}" for i in range(len(drawn))]))
    g = graph_from_dict({
        "nodes": [{"pub_key": v} for v in ids],
        "edges": [{"channel_id": cid, "node1_pub": a, "node2_pub": b,
                   "capacity": ab + ba + 1, "node1_balance": ab,
                   "node2_balance": ba, "node1_policy": policy_ab,
                   "node2_policy": policy_ba}
                  for cid, ((a, b), ab, ba, policy_ab, policy_ba)
                  in zip(cids, drawn)],
    }, balance_model="explicit")
    payments = draw(st.lists(
        st.tuples(pair, st.integers(1, 10), st.booleans(), st.booleans()),
        max_size=20))
    # a repeat pays the previous spec again, so a write is often followed
    # by a payment of the same amount, whose usable arcs the write changed
    cases = []
    for (s, t), amount, apply, repeat in payments:
        spec = cases[-1][0] if repeat and cases else ps.PaymentSpec(s, t, amount)
        cases.append((spec, apply))
    return g, cases


@settings(max_examples=200, deadline=None)
@given(routing_cases())
def test_route_payment_matches_reference_route(case):
    g, payments = case
    state = reference_balances(g)
    for spec, apply in payments:
        assert ps.route_payment(g, spec, apply=apply).slots.tolist() == \
            reference_route(g, spec, state, apply=apply)
        assert reference_balances(g) == state


@st.composite
def grid_routing_cases(draw):
    """A grid of 9 to 150 nodes, some of its links missing or doubled by a
    parallel channel and a few diagonals added, with shuffled node and
    channel ids and balances of 0 to 4 per side; then payments of mixed
    amounts, about a third of them stateful. Paths run to dozens of hops,
    so the bidirectional search grows each side by turns and meets midway."""
    rows = draw(st.integers(3, 10))
    cols = draw(st.integers(3, 150 // rows))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = rows * cols
    ids = [f"n{i}" for i in rng.sample(range(n), n)]
    links = [(v, v + 1) for v in range(n) if (v + 1) % cols]
    links += [(v, v + cols) for v in range(n - cols)]
    links += [(v, v + cols + 1) for v in range(n - cols)
              if (v + 1) % cols and rng.random() < 0.1]
    links = [link for link in links if rng.random() < 0.9]
    links += rng.sample(links, len(links) // 5)
    cids = rng.sample(range(len(links)), len(links))
    g = graph_from_dict({
        "nodes": [{"pub_key": v} for v in ids],
        "edges": [{"channel_id": f"ch{cid}", "node1_pub": ids[a],
                   "node2_pub": ids[b], "capacity": 8,
                   "node1_balance": rng.randint(0, 4),
                   "node2_balance": rng.randint(0, 4),
                   "node1_policy": {"fee_base_msat": rng.randint(0, 9),
                                    "fee_rate_milli_msat": rng.randint(0, 999)}}
                  for cid, (a, b) in zip(cids, links)],
    }, balance_model="explicit")
    payments = []
    for _ in range(draw(st.integers(1, 40))):
        s, t = rng.sample(ids, 2)
        payments.append((ps.PaymentSpec(s, t, rng.choice((1, 1, 2, 3, 4))),
                         rng.random() < 0.3))
    return g, payments


@settings(max_examples=60, deadline=None)
@given(grid_routing_cases())
def test_route_payment_matches_reference_route_on_grids(case):
    g, payments = case
    state = reference_balances(g)
    for spec, apply in payments:
        assert ps.route_payment(g, spec, apply=apply).slots.tolist() == \
            reference_route(g, spec, state, apply=apply)
    assert reference_balances(g) == state


class TestChannelView:
    def test_parallel_channels_use_smallest_channel_id(self):
        # "c10" sorts before "c9", so the relay sends on that channel
        g = graph_from_dict({
            "nodes": [{"pub_key": v} for v in "ahb"],
            "edges": [
                {"channel_id": "c0", "node1_pub": "a", "node2_pub": "h",
                 "capacity": 200},
                {"channel_id": "c9", "node1_pub": "h", "node2_pub": "b",
                 "capacity": 100, "node1_policy": {"fee_base_msat": 9}},
                {"channel_id": "c10", "node1_pub": "h", "node2_pub": "b",
                 "capacity": 100, "node1_policy": {"fee_base_msat": 10}},
            ]})
        out = ps.route_payment(g, ps.PaymentSpec("a", "b", 60), apply=True)
        assert route_of(g, out.slots) == (["a", "h", "b"], ["c0", "c10"])
        assert reference_balances(g)["c10"] == (40, 160)
        assert reference_balances(g)["c9"] == (100, 100)
        # c10 no longer carries 60 from h, so the next payment takes c9
        out = ps.route_payment(g, ps.PaymentSpec("a", "b", 60), apply=True)
        assert route_of(g, out.slots) == (["a", "h", "b"], ["c0", "c9"])

    def test_max_flow_follows_routed_balances(self):
        g = make_graph(["a", "h", "b", "c"],
                       [("a", "h"), ("h", "b"), ("a", "c"), ("c", "b")],
                       capacity=50_000)
        assert ps.max_flow(g, "a", "b") == 100_000
        spec = ps.PaymentSpec("a", "b", 30_000)
        out = ps.route_payment(g, spec, apply=True)
        assert route_of(g, out.slots)[0] == ["a", "c", "b"]
        for s, t in (("a", "b"), ("b", "a"), ("h", "c")):
            assert ps.max_flow(g, s, t) == \
                augmenting_path_max_flow(balance_caps(g), s, t)
        assert ps.max_flow(g, "a", "b") == 70_000

    def test_reads_reuse_one_view_and_writes_update_it(self):
        g = make_graph(["a", "h", "b"], [("a", "h"), ("h", "b")],
                       capacity=50_000)
        view = g.channel_view()
        ps.route_payment(g, ps.PaymentSpec("a", "b", 1))
        ps.route_payment(g, ps.PaymentSpec("b", "a", 1))
        assert g.channel_view() is view
        ps.route_payment(g, ps.PaymentSpec("a", "b", 20_000), apply=True)
        assert g.channel_view() is view
        arc_balance = {(g.ids[u], g.ids[v]): int(bal) for u, v, bal
                       in zip(view.src, view.dst,
                              g.balance_digraph()[view.slot])}
        assert arc_balance == {("a", "h"): 30_000, ("h", "a"): 70_000,
                               ("h", "b"): 30_000, ("b", "h"): 70_000}

    def test_copies_share_the_view_and_subgraphs_build_their_own(self):
        # the view holds no balances, so a copy reuses it; a subgraph has
        # other arcs and needs its own
        g = make_graph(["a", "h", "b", "x"], [("a", "h"), ("h", "b"), ("b", "x")],
                       capacity=50_000)
        view = g.channel_view()
        copied = g.copy()
        reduced = remove_nodes(g, ["x"])
        trimmed = remove_channels(g, ["c2"])
        assert copied.channel_view() is view
        assert reduced.channel_view() is not view
        assert trimmed.channel_view() is not view
        for h in (copied, reduced, trimmed):
            ps.route_payment(h, ps.PaymentSpec("a", "b", 50_000), apply=True)
        assert reference_balances(g) == {"c0": (50_000, 50_000),
                                         "c1": (50_000, 50_000),
                                         "c2": (50_000, 50_000)}
        assert ps.route_payment(g, ps.PaymentSpec("a", "b", 50_000)).success
        assert ps.max_flow(g, "a", "b") == 50_000


def test_fee_past_int64_is_exact():
    # BOLT 7's largest fee fields on a hop carrying the whole bitcoin supply
    rate = 2**32 - 1
    g = graph_from_dict({
        "nodes": [{"pub_key": v} for v in "ahb"],
        "edges": [
            {"channel_id": "c0", "node1_pub": "a", "node2_pub": "h",
             "capacity": MAX_SAT},
            {"channel_id": "c1", "node1_pub": "h", "node2_pub": "b",
             "capacity": MAX_SAT,
             "node1_policy": {"fee_base_msat": rate, "fee_rate_milli_msat": rate}},
        ]})
    fee = rate + MAX_SAT * rate // 1000
    assert fee > 2**63
    # fee_gain alone prices a hop: h forwards the seed's one a -> b payment
    # on c1, and no b -> a payment, which it would forward on c0
    volumes = ps.VolumeModel(volumes=(MAX_SAT,))
    pairs = [(spec.source, spec.target)
             for spec in ps.sample_specs(g.ids, 4, volumes, random.Random(2))]
    assert pairs.count(("a", "b")) == 1 and ("b", "a") not in pairs
    assert ps.fee_gain(g, "h", 4, volumes, seed=2) == \
        fee * pairs.count(("a", "b")) / 4
    out = ps.route_payment(g, ps.PaymentSpec("a", "b", MAX_SAT), apply=True)
    assert route_of(g, out.slots) == (["a", "h", "b"], ["c0", "c1"])
    assert reference_balances(g) == {"c0": (0, 2 * MAX_SAT),
                                     "c1": (0, 2 * MAX_SAT)}


def success_ratio(g, attempts, seed):
    """Fraction of `attempts` seeded random payments that find a route."""
    specs = ps.sample_specs(g.ids, attempts, VOLS, random.Random(seed))
    outcomes = ps.evaluate_payments(g, specs)
    return sum(o.success for o in outcomes) / attempts


class TestSuccessRatio:
    def test_all_payments_fit(self):
        nodes = list("abcd")
        pairs = [(x, y) for i, x in enumerate(nodes) for y in nodes[i + 1:]]
        g = make_graph(nodes, pairs, capacity=10**6)
        assert success_ratio(g, 50, seed=0) == 1.0

    def test_all_volumes_too_large(self):
        g = make_graph(list("abc"), [("a", "b"), ("b", "c")], capacity=10)
        assert success_ratio(g, 50, seed=0) == 0.0

    def test_determinism(self):
        g = make_graph(list("abcde"),
                       [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")],
                       capacity=8000)
        r1 = success_ratio(g, 200, seed=5)
        r2 = success_ratio(g, 200, seed=5)
        assert r1 == r2

    def test_stateless_mode_leaves_graph_untouched(self):
        g = make_graph(list("abc"), [("a", "b"), ("b", "c")], capacity=50_000)
        before = reference_balances(g)
        success_ratio(g, 100, seed=1)
        assert reference_balances(g) == before

    def test_pairs_then_volumes_share_one_draw(self):
        # a spec's endpoints are the pair sample_pairs draws, and its
        # volume is drawn right after them
        nodes = [f"n{i}" for i in range(7)]
        specs = ps.sample_specs(nodes, 30, VOLS, random.Random(3))
        rng = random.Random(3)
        for spec in specs:
            [pair] = ps.sample_pairs(nodes, 1, rng)
            assert (spec.source, spec.target, spec.amount) == \
                (*pair, VOLS.sample(rng))


# nine unit channels funded one way; a maximum s-t flow of 2 needs the
# second unit to cancel the first one's arc a -> b
CANCELLING_PATHS = ["sa", "ab", "bt", "sc", "cd", "db", "ae", "ef", "ft"]


class TestMaxFlow:
    def test_bottleneck_path(self):
        g = graph_from_dict({
            "nodes": [{"pub_key": k} for k in "abcd"],
            "edges": [
                {"channel_id": "c0", "node1_pub": "a", "node2_pub": "b", "capacity": 5},
                {"channel_id": "c1", "node1_pub": "b", "node2_pub": "c", "capacity": 3},
                {"channel_id": "c2", "node1_pub": "c", "node2_pub": "d", "capacity": 7},
            ],
        })
        assert ps.max_flow(g, "a", "d") == 3

    def test_bad_endpoints_are_named(self):
        g = two_node_channel()
        with pytest.raises(KeyError, match="unknown max-flow endpoint") as exc:
            ps.max_flow(g, "a", "zz")
        assert exc.value.args == ("unknown max-flow endpoint zz",)
        with pytest.raises(KeyError) as exc:
            ps.max_flow(g, "yy", "zz")
        assert exc.value.args == ("unknown max-flow endpoint yy",)
        with pytest.raises(ValueError, match="max-flow endpoints must differ"):
            ps.max_flow(g, "a", "a")

    def test_parallel_paths_add(self):
        g = graph_from_dict({
            "nodes": [{"pub_key": k} for k in ["s", "t", "u", "v"]],
            "edges": [
                {"channel_id": "c0", "node1_pub": "s", "node2_pub": "u", "capacity": 4},
                {"channel_id": "c1", "node1_pub": "u", "node2_pub": "t", "capacity": 4},
                {"channel_id": "c2", "node1_pub": "s", "node2_pub": "v", "capacity": 6},
                {"channel_id": "c3", "node1_pub": "v", "node2_pub": "t", "capacity": 6},
            ],
        })
        assert ps.max_flow(g, "s", "t") == 10

    def test_second_unit_cancels_the_first_path(self):
        # the shortest path s-a-b-t takes a-b's only unit; the second unit
        # of flow, s-c-d-b-a-e-f-t, crosses a-b backwards, so it exists
        # only if pushing along a-b credits b->a
        g = explicit_channels([(f"c{i}", x, y, 1, 0)
                               for i, (x, y) in enumerate(CANCELLING_PATHS)])
        assert ps.max_flow(g, "s", "t") == 2
        assert ps.max_flow(g, "s", "t") == \
            augmenting_path_max_flow(balance_caps(g), "s", "t")

    def test_disconnected_is_zero(self):
        g = make_graph(["a", "b", "x", "y"], [("a", "b"), ("x", "y")])
        assert ps.max_flow(g, "a", "x") == 0

    def test_matches_augmenting_path_oracle(self):
        rng = random.Random(3)
        for _ in range(25):
            n = rng.randint(3, 10)
            nodes = [f"n{i}" for i in range(n)]
            edges = []
            for i, a in enumerate(nodes):
                for b in nodes[i + 1:]:
                    if rng.random() < 0.4:
                        edges.append({
                            "channel_id": f"c{len(edges)}",
                            "node1_pub": a, "node2_pub": b,
                            "capacity": rng.randint(1, 20)})
            g = graph_from_dict({
                "nodes": [{"pub_key": v} for v in nodes], "edges": edges})
            s, t = nodes[0], nodes[-1]
            assert ps.max_flow(g, s, t) == \
                augmenting_path_max_flow(balance_caps(g), s, t)

    # Amounts past int32: an arc of 2**31 or more, and a residual (an arc
    # plus the flow on its reverse) past 2**31, stay exact in int64.
    def test_channel_past_int32_matches_oracle(self):
        g = two_node_channel(capacity=3_000_000_000)
        assert ps.max_flow(g, "a", "b") == 3_000_000_000
        assert ps.max_flow(g, "b", "a") == \
            augmenting_path_max_flow(balance_caps(g), "b", "a")

    def test_parallel_channels_summed_past_int32_match_oracle(self):
        g = explicit_channels([("c0", "a", "b", 1_200_000_000, 5),
                               ("c1", "b", "a", 7, 1_200_000_000),
                               ("c2", "b", "c", 2_500_000_000, 0)])
        caps = balance_caps(g)
        assert caps[("a", "b")] > 2**31
        for s, t in (("a", "b"), ("a", "c"), ("b", "a"), ("c", "a")):
            assert ps.max_flow(g, s, t) == augmenting_path_max_flow(caps, s, t)
        assert ps.max_flow(g, "a", "c") == 2_400_000_000

    def test_residual_past_int32_matches_oracle(self):
        # once s-a-b-t is saturated, the longer path s-d-e-b-a-f-g-t needs
        # the residual b->a = 1 + (2**31 - 1), past int32.
        big = 2**31 - 1
        g = explicit_channels([
            ("sa", "s", "a", big, 0), ("ab", "a", "b", big, 1),
            ("bt", "b", "t", big, 0), ("sd", "s", "d", 1000, 0),
            ("de", "d", "e", 1000, 0), ("eb", "e", "b", 1000, 0),
            ("af", "a", "f", 1000, 0), ("fg", "f", "g", 1000, 0),
            ("gt", "g", "t", 1000, 0)])
        assert ps.max_flow(g, "s", "t") == big + 1000
        assert ps.max_flow(g, "s", "t") == \
            augmenting_path_max_flow(balance_caps(g), "s", "t")

    def test_channel_at_the_supply_cap_is_one_arc(self):
        # 21M BTC in one channel is one arc, not a chain of split pieces
        g = two_node_channel(capacity=MAX_SAT)
        tracemalloc.start()
        try:
            assert ps.max_flow(g, "a", "b") == MAX_SAT
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024

    def test_parallel_channels_past_int64_sum_exactly(self):
        # 4,400 channels at the supply cap carry more than 2**63 - 1
        # together: the flow and the endpoint bound must not wrap in int64
        g = graph_from_dict({
            "nodes": [{"pub_key": "a"}, {"pub_key": "b"}],
            "edges": [{"channel_id": f"c{i}", "node1_pub": "a",
                       "node2_pub": "b", "capacity": MAX_SAT}
                      for i in range(4400)]})
        flow = ps.max_flow(g, "a", "b")
        assert flow == 4400 * MAX_SAT > 2**63
        assert type(flow) is int


# balances at the int32 limit and at the supply cap, and their neighbours
FLOW_BALANCES = [0, 1, 2, 2**31 - 1, 2**31, 2**31 + 1,
                 MAX_SAT // 2, MAX_SAT - 1, MAX_SAT]


@st.composite
def flow_cases(draw):
    """Explicit-balance graphs with parallel and antiparallel channels and
    zero sides, and a terminal pair. Some hold the channels of
    `CANCELLING_PATHS` on relabelled nodes, in a shuffled order, with s and
    t as the terminals."""
    planted = draw(st.booleans())
    ids = [f"v{i}" for i in range(draw(
        st.integers(8, 10) if planted else st.integers(2, 7)))]
    pair = st.tuples(st.sampled_from(ids), st.sampled_from(ids)).filter(
        lambda p: p[0] != p[1])
    balance = st.one_of(st.sampled_from(FLOW_BALANCES), st.integers(0, 20))
    edges = []
    if planted:
        name = dict(zip("sabcdeft", draw(st.permutations(ids))))
        for x, y in draw(st.permutations(CANCELLING_PATHS)):
            edges.append({"channel_id": f"c{len(edges)}", "node1_pub": name[x],
                          "node2_pub": name[y], "capacity": 1,
                          "node1_balance": 1, "node2_balance": 0})
    for (a, b), ab, ba in draw(st.lists(st.tuples(pair, balance, balance),
                                        max_size=14)):
        capacity = max(1, ab + ba)
        if capacity > MAX_SAT:
            # sides past the cap together: both hold the whole capacity
            ab = ba = capacity = max(ab, ba)
        edges.append({"channel_id": f"c{len(edges)}", "node1_pub": a,
                      "node2_pub": b, "capacity": capacity,
                      "node1_balance": ab, "node2_balance": ba})
    g = graph_from_dict({"nodes": [{"pub_key": v} for v in ids],
                         "edges": edges}, balance_model="explicit")
    return g, (name["s"], name["t"]) if planted else draw(pair)


@settings(max_examples=300, deadline=None)
@given(flow_cases())
def test_max_flow_matches_augmenting_path_oracle(case):
    g, (s, t) = case
    assert ps.max_flow(g, s, t) == augmenting_path_max_flow(
        balance_caps(g), s, t)


class TestAverageMaxFlow:
    def test_symmetric_balance_view(self):
        g = make_graph(list("abcde"),
                       [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")],
                       capacity=50)
        rng = random.Random(4)
        pairs = ps.sample_pairs(g.ids, 30, rng)
        fwd = ps.evaluate_flows(g, pairs)
        rev = ps.evaluate_flows(g, [(t, s) for s, t in pairs])
        assert fwd == rev

    def test_determinism(self):
        g = generate_reference("erdos-renyi", 20, 40, seed=2)
        flows = [ps.evaluate_flows(g, ps.sample_pairs(g.ids, 50, random.Random(7)))
                 for _ in range(2)]
        assert flows[0] == flows[1]

    def test_cross_cut_pairs_contribute_zero(self):
        g = make_graph(["a", "b", "x", "y"], [("a", "b"), ("x", "y")], capacity=9)
        flows = ps.evaluate_flows(g, [("a", "x"), ("a", "b"), ("y", "b")])
        assert flows == [0, 9, 0]


class TestFeeGain:
    def test_hub_off_path_earns_nothing(self):
        g = make_graph(["a", "b", "lonely"], [("a", "b")], capacity=10**6)
        assert ps.fee_gain(g, "lonely", 50, VOLS, seed=0) == 0.0

    def test_line_hub_gain_until_exhaustion(self):
        g = make_graph(["a", "h", "b"], [("a", "h"), ("h", "b")],
                       capacity=100_000)
        state = g.copy()
        routes = []
        for i in range(4):
            out = ps.route_payment(state, ps.PaymentSpec("a", "b", 50_000),
                                   apply=True)
            routes.append(route_of(g, out.slots)[0])
        # capacity supports two a->b payments of 50k, which h forwards, then
        # the route is dry
        assert routes == [["a", "h", "b"]] * 2 + [[]] * 2

    def test_determinism(self):
        g = make_graph(list("abcd"), [("a", "b"), ("b", "c"), ("c", "d")],
                       capacity=40_000)
        assert ps.fee_gain(g, "b", 100, VOLS, seed=3) == \
               ps.fee_gain(g, "b", 100, VOLS, seed=3)

    def test_unknown_hub(self):
        g = make_graph(["a", "b"], [("a", "b")])
        with pytest.raises(KeyError):
            ps.fee_gain(g, "zz", 10, VOLS, seed=0)


class TestVolumeModel:
    def test_load(self, tmp_path):
        f = tmp_path / "vols.txt"
        f.write_text("100\n200\n\n300\n")
        vm = ps.load_volumes(f)
        assert vm.volumes == (100, 200, 300)

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            ps.VolumeModel(volumes=())

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            ps.VolumeModel(volumes=(5, 0))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_channel_conservation_under_payment_sequences(seed):
    rng = random.Random(seed)
    nodes = [f"n{i}" for i in range(6)]
    pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]
             if rng.random() < 0.5]
    if not pairs:
        return
    g = make_graph(nodes, pairs, capacity=10_000)
    totals = {cid: e.balance_ab + e.balance_ba for cid, e in channels(g).items()}
    for _ in range(15):
        s, t = rng.sample(nodes, 2)
        amount = rng.randint(1, 12_000)
        before = g.balance.copy()
        out = ps.route_payment(g, ps.PaymentSpec(s, t, amount), apply=True)
        if out.success:
            # the arcs chain from s to t, each head the next arc's tail, and
            # each held the amount before the payment
            tails, heads = g.ends.flat[out.slots], g.ends.flat[out.slots ^ 1]
            assert tails[0] == g.index[s] and heads[-1] == g.index[t]
            assert (heads[:-1] == tails[1:]).all()
            assert (before.flat[out.slots] >= amount).all()
        else:
            assert (g.balance == before).all()
    assert {cid: e.balance_ab + e.balance_ba
            for cid, e in channels(g).items()} == totals
