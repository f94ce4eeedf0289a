import gc
import json
import os
import re
import tracemalloc
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcn_resilience import attack_engine as ae
from pcn_resilience import payment_sim as ps
from pcn_resilience import powerlaw_fit as pf
from pcn_resilience import topology_metrics as tm
from pcn_resilience.graph_model import (BALANCE_MODELS, MAX_SAT, PcnGraph,
                                        SnapshotError, ValidationError,
                                        _ranges, _seed_value, component_labels,
                                        graph_from_dict,
                                        induced_subgraph,
                                        largest_connected_component,
                                        load_snapshot, remove_channels,
                                        remove_nodes)

from oracles import channels, union_find_components

DATA = Path(__file__).parent / "data"
FIXTURE = DATA / "fixture_snapshot.json"


def make_graph(nodes, pairs, capacity=100):
    """Tiny graph builder for tests: pairs are (a, b) tuples."""
    return graph_from_dict({
        "nodes": [{"pub_key": n} for n in nodes],
        "edges": [
            {"channel_id": f"c{i}", "node1_pub": a, "node2_pub": b,
             "capacity": capacity}
            for i, (a, b) in enumerate(pairs)
        ],
    })


class TestLoadSnapshot:
    def test_three_node_fixture(self):
        g = load_snapshot(FIXTURE)
        assert g.node_count == 3
        assert g.edge_count == 3
        caps = sorted(e.capacity for e in channels(g).values())
        assert caps == [75000, 100000, 125000]
        for e in channels(g).values():
            assert e.balance_ab == e.balance_ba == e.capacity

    @pytest.mark.parametrize("collecting", [True, False])
    def test_restores_the_callers_gc_state(self, tmp_path, collecting):
        # the cyclic collector is paused while a snapshot is read, and left
        # as the caller had it, also when the snapshot is rejected
        unreadable, invalid = tmp_path / "bad.json", tmp_path / "loop.json"
        unreadable.write_text("{")
        invalid.write_text(json.dumps({
            "nodes": [{"pub_key": "a"}],
            "edges": [{"channel_id": "c", "node1_pub": "a", "node2_pub": "a",
                       "capacity": 1}]}))
        was = gc.isenabled()
        try:
            (gc.enable if collecting else gc.disable)()
            load_snapshot(FIXTURE)
            assert gc.isenabled() is collecting
            for path, error in ((unreadable, SnapshotError),
                                (invalid, ValidationError)):
                with pytest.raises(error):
                    load_snapshot(path)
                assert gc.isenabled() is collecting
        finally:
            (gc.enable if was else gc.disable)()

    def test_half_split(self):
        g = load_snapshot(FIXTURE, balance_model="half-split")
        for e in channels(g).values():
            assert e.balance_ab == e.capacity // 2

    def test_empty_graph(self):
        g = graph_from_dict({"nodes": [], "edges": []})
        assert g.node_count == 0 and g.edge_count == 0

    def test_dangling_endpoint_names_channel(self):
        with pytest.raises(ValidationError, match="chX"):
            graph_from_dict({
                "nodes": [{"pub_key": "a"}],
                "edges": [{"channel_id": "chX", "node1_pub": "a",
                           "node2_pub": "ghost", "capacity": 5}],
            })

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError, match="self-loop"):
            graph_from_dict({
                "nodes": [{"pub_key": "a"}],
                "edges": [{"channel_id": "c", "node1_pub": "a",
                           "node2_pub": "a", "capacity": 5}],
            })

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValidationError, match="capacity"):
            graph_from_dict({
                "nodes": [{"pub_key": "a"}, {"pub_key": "b"}],
                "edges": [{"channel_id": "c", "node1_pub": "a",
                           "node2_pub": "b", "capacity": 0}],
            })

    @pytest.mark.parametrize("data, message", [
        ({"nodes": [{"pub_key": "a"}, {"pub_key": "a"}]},
         "duplicate node key a"),
        ({"nodes": [{"pub_key": "a"}, {"pub_key": "b"}],
          "edges": [{"channel_id": "c", "node1_pub": "a", "node2_pub": "b",
                     "capacity": 5}] * 2}, "duplicate channel_id c"),
    ], ids=["node-key", "channel-id"])
    def test_duplicate_key_is_named(self, data, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            graph_from_dict(data)

    def test_unknown_balance_model_is_named(self):
        with pytest.raises(ValueError, match="^unknown balance model 'even'$"):
            graph_from_dict({"nodes": [], "edges": []}, balance_model="even")

    def test_malformed_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(SnapshotError):
            load_snapshot(bad)

    @pytest.mark.parametrize("content", [
        b"[" * 200000 + b"]" * 200000, b"\xff\xfe{}",
    ], ids=["too-deep", "not-utf-8"])
    def test_unreadable_json_names_the_file(self, tmp_path, content):
        path = tmp_path / "odd.json"
        path.write_bytes(content)
        with pytest.raises(SnapshotError,
                           match=re.escape(f"cannot read snapshot {path}:")):
            load_snapshot(path)

    def test_default_fee_policy(self):
        g = load_snapshot(FIXTURE)
        e = channels(g)["ch3"]  # no policies in the fixture
        assert e.fee_ab == e.fee_ba == (1000, 1)

    def test_round_trip(self, tmp_path):
        g = load_snapshot(FIXTURE)
        out = tmp_path / "snap.json"
        out.write_text(json.dumps(g.to_snapshot_dict()))
        g2 = load_snapshot(out, balance_model="explicit")
        assert g2.ids == g.ids
        assert set(channels(g2)) == set(channels(g))
        for cid, e in channels(g).items():
            e2 = channels(g2)[cid]
            assert (e2.a, e2.b, e2.capacity) == (e.a, e.b, e.capacity)
            assert (e2.balance_ab, e2.balance_ba) == (e.balance_ab, e.balance_ba)
            assert e2.fee_ab == e.fee_ab and e2.fee_ba == e.fee_ba


def _edge(**fields):
    rec = {"channel_id": "c0", "node1_pub": "a", "node2_pub": "b",
           "capacity": 10}
    rec.update(fields)
    return {"nodes": [{"pub_key": "a"}, {"pub_key": "b"}], "edges": [rec]}


class TestRecordTypes:
    """Wrongly typed records raise a snapshot error, never a TypeError or
    AttributeError from deep inside ingest."""

    @pytest.mark.parametrize("data", [
        [], "nodes", {"nodes": 5}, {"nodes": ["x"]}, {"nodes": [None]},
        {"nodes": [{"pub_key": "a"}], "edges": {"c0": {}}},
        {"nodes": [{"pub_key": "a"}], "edges": 7},
        {"nodes": [{"pub_key": "a"}], "edges": ["c0"]},
        _edge(node1_policy="cheap"), _edge(node2_policy=[1, 2]),
    ], ids=["list", "string", "nodes-int", "node-string", "node-null",
            "edges-dict", "edges-int", "edge-string", "policy-string",
            "policy-list"])
    def test_wrong_container_is_snapshot_error(self, data):
        with pytest.raises(SnapshotError):
            graph_from_dict(data)

    @pytest.mark.parametrize("data", [
        {"nodes": [{"pub_key": ["a"]}]}, {"nodes": [{"pub_key": 5}]},
        _edge(node1_pub=["a"]), _edge(node2_pub={"k": "b"}),
        _edge(capacity=float("inf")), _edge(capacity=[10]),
        _edge(node1_policy={"fee_base_msat": [1]}),
        _edge(node2_policy={"fee_rate_milli_msat": "x"}),
    ], ids=["pub-key-list", "pub-key-int", "endpoint-list", "endpoint-dict",
            "capacity-inf", "capacity-list", "base-fee-list", "fee-rate-text"])
    def test_wrong_field_is_validation_error(self, data):
        with pytest.raises(ValidationError):
            graph_from_dict(data)

    @pytest.mark.parametrize("cid", [None, True, False, {}, [], 1.5, ""],
                             ids=["null", "true", "false", "object", "list",
                                  "float", "empty"])
    def test_channel_id_not_a_string_or_integer_is_missing(self, cid):
        with pytest.raises(ValidationError, match="without channel_id"):
            graph_from_dict(_edge(channel_id=cid))

    def test_integer_channel_id_is_its_decimal_string(self):
        assert graph_from_dict(_edge(channel_id=70)).channel_ids.tolist() == ["70"]

    def test_explicit_balance_overflow(self):
        with pytest.raises(ValidationError):
            graph_from_dict(_edge(node1_balance=float("inf"), node2_balance=1),
                            balance_model="explicit")

    @pytest.mark.parametrize("data, message", [
        (_edge(capacity=1.5), "c0 has missing or bad capacity"),
        (_edge(capacity=True), "c0 has missing or bad capacity"),
        (_edge(capacity=10.0), "c0 has missing or bad capacity"),
        (_edge(capacity="1.5"), "c0 has missing or bad capacity"),
        (_edge(node1_balance=2.7, node2_balance=1), "c0 lacks explicit balances"),
        (_edge(node1_balance=1, node2_balance=False),
         "c0 lacks explicit balances"),
        (_edge(node1_balance=1, node2_balance=1,
               node1_policy={"fee_base_msat": 1.9}), "bad fee policy"),
        (_edge(node1_balance=1, node2_balance=1,
               node2_policy={"fee_rate_milli_msat": True}), "bad fee policy"),
    ], ids=["capacity-float", "capacity-bool", "capacity-whole-float",
            "capacity-decimal-text", "balance-float", "balance-bool",
            "base-fee-float", "fee-rate-bool"])
    def test_non_integer_number_is_validation_error(self, data, message):
        # each used to load truncated: 1.5 and true as 1, 2.7 as 2
        with pytest.raises(ValidationError, match=message):
            graph_from_dict(data, balance_model="explicit")

    def test_integer_fields_read_json_integers_and_integer_strings(self):
        g = graph_from_dict(_edge(capacity="10", node1_balance="4",
                                  node2_balance=6,
                                  node1_policy={"fee_base_msat": "7",
                                                "fee_rate_milli_msat": 3}),
                            balance_model="explicit")
        e = channels(g)["c0"]
        assert (e.capacity, e.balance_ab, e.balance_ba) == (10, 4, 6)
        assert e.fee_ab == (7, 3)
        assert all(type(x) is int for x in (e.capacity, e.balance_ab,
                                             *e.fee_ab))


class TestAmountBounds:
    """Amounts above the bitcoin supply would overflow the int64 view."""

    def test_capacity_above_supply_rejected(self):
        graph_from_dict(_edge(capacity=MAX_SAT))
        with pytest.raises(ValidationError, match="c0"):
            graph_from_dict(_edge(capacity=MAX_SAT + 1))
        with pytest.raises(ValidationError, match="c0"):
            graph_from_dict(_edge(capacity=10**20))

    def test_explicit_balance_above_supply_rejected(self):
        with pytest.raises(ValidationError, match="c0"):
            graph_from_dict(_edge(capacity=5, node1_balance=10**20,
                                  node2_balance=0), balance_model="explicit")

    def test_explicit_balances_above_capacity_rejected(self):
        with pytest.raises(ValidationError,
                           match="c0 has balances 9 \\+ 9 above its capacity 5"):
            graph_from_dict(_edge(capacity=5, node1_balance=9, node2_balance=9),
                            balance_model="explicit")
        with pytest.raises(ValidationError, match="c0"):
            graph_from_dict(_edge(capacity=5, node1_balance=5, node2_balance=1),
                            balance_model="explicit")
        # a split below the capacity (in-flight funds, reserves) is legal,
        # and so is the capacity-both-ways state `to_snapshot_dict` writes
        for ab, ba in ((2, 2), (5, 0), (5, 5)):
            e = channels(graph_from_dict(_edge(capacity=5, node1_balance=ab,
                                               node2_balance=ba),
                                         balance_model="explicit"))["c0"]
            assert (e.balance_ab, e.balance_ba) == (ab, ba)


    def test_fee_fields_above_u32_rejected(self):
        bound = 2**32 - 1
        graph_from_dict(_edge(node1_policy={"fee_base_msat": bound,
                                            "fee_rate_milli_msat": bound}))
        graph_from_dict(_edge(node2_policy={"fee_base_msat": 0,
                                            "fee_rate_milli_msat": 0}))
        for side, policy in (("node2_policy", {"fee_base_msat": bound + 1}),
                             ("node2_policy", {"fee_rate_milli_msat": 10**30}),
                             ("node1_policy", {"fee_base_msat": -1}),
                             ("node2_policy", {"fee_rate_milli_msat": "-5"})):
            with pytest.raises(ValidationError, match=(
                    f"^channel c0 has a fee field outside 0..{bound}$")):
                graph_from_dict(_edge(**{side: policy}))


_json = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.floats()
    | st.sampled_from(["", "a", "b", "c0", "1"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["x", "fee_base_msat"]), inner, max_size=2),
    max_leaves=6)
_node = st.fixed_dictionaries(
    {}, optional={"pub_key": _json | st.sampled_from(["a", "b"])})
_edge_rec = st.fixed_dictionaries({}, optional={
    key: _json for key in ("channel_id", "node1_pub", "node2_pub", "capacity",
                           "node1_balance", "node2_balance",
                           "node1_policy", "node2_policy")})


@settings(max_examples=300, deadline=None)
@given(st.fixed_dictionaries({}, optional={
           "nodes": st.lists(_node | _json, max_size=3) | _json,
           "edges": st.lists(_edge_rec | _json, max_size=3) | _json}),
       st.sampled_from(BALANCE_MODELS))
def test_any_snapshot_loads_or_raises_snapshot_error(data, balance_model):
    try:
        graph_from_dict(data, balance_model=balance_model)
    except (SnapshotError, ValidationError):
        pass


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(-50, 50), st.integers(0, 6)), max_size=8),
       st.booleans())
@example([], True)
@example([(2**52, 3), (7, 0), (-1, 2)], True)  # exact up to 2^53
def test_ranges_lay_each_range_end_to_end(rows, float_starts):
    # float starts as _zeta_sum's
    starts = np.array([s for s, _ in rows], dtype=float if float_starts else int)
    counts = np.array([c for _, c in rows], dtype=np.int64)
    got = _ranges(starts, counts)
    assert got.tolist() == [s + i for s, c in rows for i in range(c)]
    assert got.dtype == starts.dtype


def seeded_entry_points():
    """(name, run) for every library call that draws from a seeded stream;
    run(seed) returns a value to compare with `==`."""
    ba = tm.generate_reference("barabasi-albert", 60, 180, seed=1)
    degrees = sorted(ba.degrees().values())
    fit = pf.fit_power_law(degrees)

    def plan(kind, **settings):
        return lambda seed: ae.plan_targets(
            ba, ae.Strategy(kind, seed=seed, **settings), limit=10)

    def reference(kind):
        return lambda seed: tm.generate_reference(kind, 40, 80, seed).ends.tolist()
    return [
        ("random", plan("random")),
        ("parallel-paths", plan("parallel-paths", payment_samples=30)),
        ("ranked-min-cut", plan("ranked-min-cut", cut_samples=10)),
        ("sampled-betweenness", lambda seed: tm.betweenness_centrality(
            ba, sample_sources=5, seed=seed)),
        ("execute_attack", lambda seed: ae.execute_attack(
            ba, [["n0"]], [("count", 1)],
            ae.MetricParams(attempts=20, flow_rounds=3, hub="n1"), seed=seed)),
        ("fee_gain", lambda seed: ps.fee_gain(ba, "n0", 30, ps.UNIT_VOLUMES,
                                              seed=seed)),
        ("erdos-renyi", reference("erdos-renyi")),
        ("barabasi-albert", reference("barabasi-albert")),
        ("random_failure_experiment", lambda seed: tm.random_failure_experiment(
            ba, [5, 20], runs=3, seed=seed)),
        ("goodness_of_fit", lambda seed: pf.goodness_of_fit(
            degrees, fit, synthetic_runs=3, seed=seed)),
    ]


SEEDED = seeded_entry_points()


@pytest.mark.parametrize("run", [run for _, run in SEEDED],
                         ids=[name for name, _ in SEEDED])
class TestOneSeedRule:
    def test_negative_seed_is_named(self, run):
        # random.Random would seed -1 as 1
        with pytest.raises(ValueError,
                           match=r"^seed -1 is not a non-negative integer$"):
            run(-1)

    def test_numpy_seed_is_its_int(self, run):
        assert run(np.int64(3)) == run(3)


@pytest.mark.parametrize("seed", [3.0, "3", {"seed": 3}, None, -4,
                                  np.int64(-2)])
def test_seed_value_refuses_what_is_not_a_non_negative_integer(seed):
    with pytest.raises(ValueError) as info:
        _seed_value(seed)
    assert str(info.value) == f"seed {seed!r} is not a non-negative integer"


@pytest.mark.parametrize("seed", [0, 7, 2**70, np.int64(3), np.uint8(5)])
def test_seed_value_is_an_int(seed):
    value = _seed_value(seed)
    assert type(value) is int and value == seed


class TestComponents:
    def test_two_triangles_and_square(self):
        g = make_graph(
            list("abcdefghij"),
            [("a", "b"), ("b", "c"), ("c", "a"),
             ("d", "e"), ("e", "f"), ("f", "d"),
             ("g", "h"), ("h", "i"), ("i", "j"), ("j", "g")])
        lcc = largest_connected_component(g)
        assert lcc.ids == ["g", "h", "i", "j"]

    def test_connected_graph_is_identity(self):
        g = make_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        lcc = largest_connected_component(g)
        assert lcc.ids == g.ids
        assert set(channels(lcc)) == set(channels(g))

    def test_tie_break_smallest_member(self):
        g = make_graph(["a", "b", "x", "y"], [("a", "b"), ("x", "y")])
        assert largest_connected_component(g).ids == ["a", "b"]

    def test_empty(self):
        assert largest_connected_component(PcnGraph()).node_count == 0

    def test_sizes_sum_to_node_count(self):
        g = make_graph(list("abcdefg"),
                       [("a", "b"), ("c", "d"), ("d", "e")])
        labels = component_labels(g.node_count, *g.ends.T)
        assert labels.tolist() == [0, 0, 2, 2, 2, 5, 6]
        assert np.bincount(labels).sum() == g.node_count

    def test_against_union_find(self):
        g = make_graph(list("abcdefgh"),
                       [("a", "b"), ("b", "c"), ("d", "e"), ("f", "g")])
        ours = sorted(sorted(c) for c in components(g))
        oracle = sorted(sorted(c) for c in union_find_components(
            g.ids, [(e.a, e.b) for e in channels(g).values()]))
        assert ours == oracle


def components(g):
    """The classes of `component_labels` as sets of ids, sorted by (size
    desc, smallest id)."""
    classes = {}
    for v, label in zip(g.ids, component_labels(g.node_count, *g.ends.T).tolist()):
        classes.setdefault(label, set()).add(v)
    return sorted(classes.values(), key=lambda c: (-len(c), min(c)))


def test_simple_view_is_cached_per_graph():
    g = make_graph(["a", "b", "c"], [("a", "b"), ("b", "a"), ("b", "c")])
    view = g.simple_graph()
    assert g.simple_graph() is view
    assert view.capacity.tolist() == [200, 200, 100, 100]
    for other in (g.copy(), largest_connected_component(g),
                  remove_nodes(g, ["c"])):
        assert other.simple_graph() is not view


def explicit_channels(channels):
    """Graph from (channel_id, a, b, balance_ab, balance_ba) tuples."""
    nodes = sorted({v for _, a, b, _, _ in channels for v in (a, b)})
    return graph_from_dict({
        "nodes": [{"pub_key": v} for v in nodes],
        "edges": [{"channel_id": cid, "node1_pub": a, "node2_pub": b,
                   "capacity": ab + ba, "node1_balance": ab, "node2_balance": ba}
                  for cid, a, b, ab, ba in channels],
    }, balance_model="explicit")


class TestBalanceDigraph:
    def test_parallel_channels_stay_separate_arcs(self):
        g = explicit_channels([("c0", "b", "a", 7, 3), ("c1", "a", "b", 5, 2),
                               ("c2", "b", "c", 4, 0)])
        arcs, view = g.balance_digraph(), g.channel_view()
        assert [(g.ids[u], g.ids[v], arcs[y]) for u, v, y in zip(
            view.src.tolist(), view.dst.tolist(), view.slot.tolist())] == [
            ("a", "b", 3), ("a", "b", 5), ("b", "a", 7), ("b", "a", 2),
            ("b", "c", 4), ("c", "b", 0)]

    def test_read_only_view_of_the_balance_column(self):
        g = explicit_channels([("c0", "a", "b", MAX_SAT, 0)])
        arcs = g.balance_digraph()
        assert arcs.dtype == np.int64
        assert arcs.tolist() == [MAX_SAT, 0]
        with pytest.raises(ValueError):
            arcs[0] = 0
        g.shift([0], 5)
        assert arcs.tolist() == [MAX_SAT - 5, 5]


class TestRemoveNodes:
    def test_star_center(self):
        leaves = [f"l{i}" for i in range(5)]
        g = make_graph(["hub"] + leaves, [("hub", l) for l in leaves])
        g2 = remove_nodes(g, ["hub"])
        assert g2.node_count == 5 and g2.edge_count == 0

    def test_remove_nothing(self):
        g = make_graph(["a", "b"], [("a", "b")])
        g2 = remove_nodes(g, [])
        assert g2.ids == g.ids and set(channels(g2)) == set(channels(g))

    def test_input_not_modified(self):
        g = make_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        remove_nodes(g, ["b"])
        assert g.node_count == 3 and g.edge_count == 2

    def test_unknown_target(self):
        g = make_graph(["a", "b"], [("a", "b")])
        with pytest.raises(KeyError, match="zz"):
            remove_nodes(g, ["zz"])

    def test_unknown_targets_are_named_once_in_order(self):
        g = make_graph(["a", "b"], [("a", "b")])
        with pytest.raises(KeyError) as caught:
            remove_nodes(g, ["zz", "a", "c", "zz"])
        assert caught.value.args == ("unknown nodes: ['c', 'zz']",)

    def test_articulation_point_splits(self):
        # path of two triangles joined through 'c'
        g = make_graph(list("abcde"),
                       [("a", "b"), ("b", "c"), ("a", "c"),
                        ("c", "d"), ("d", "e"), ("c", "e")])
        g2 = remove_nodes(g, ["c"])
        assert components(g2) == [{"a", "b"}, {"d", "e"}]


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_remove_nodes_composes_over_disjoint_sets(data):
    nodes = [f"n{i}" for i in range(8)]
    pairs = data.draw(st.lists(
        st.tuples(st.sampled_from(nodes), st.sampled_from(nodes))
        .filter(lambda p: p[0] != p[1]),
        max_size=12))
    g = make_graph(nodes, pairs)
    removable = data.draw(st.sets(st.sampled_from(nodes), max_size=6))
    removable = sorted(removable)
    split = data.draw(st.integers(0, len(removable)))
    a, b = removable[:split], removable[split:]
    combined = remove_nodes(g, a + b)
    stepwise = remove_nodes(remove_nodes(g, a), b)
    assert combined.ids == stepwise.ids
    assert set(channels(combined)) == set(channels(stepwise))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_views_and_snapshots_follow_the_channel_id_order(data):
    # ids c0..c15 in a shuffled record order, so that their string order
    # (c10 before c2) is not the record order; parallel channels share ends
    nodes = [f"n{i}" for i in range(8)]
    pairs = data.draw(st.lists(
        st.tuples(st.sampled_from(nodes), st.sampled_from(nodes))
        .filter(lambda p: p[0] != p[1]),
        max_size=12))
    if pairs:
        pairs += data.draw(st.lists(st.sampled_from(pairs), max_size=4))
    ids = data.draw(st.permutations(range(len(pairs))))
    g = graph_from_dict({
        "nodes": [{"pub_key": n} for n in nodes],
        "edges": [{"channel_id": f"c{i}", "node1_pub": a, "node2_pub": b,
                   "capacity": 100 + i} for i, (a, b) in zip(ids, pairs)]})
    g.channel_view()  # built, so that the copy shares it
    sub = remove_nodes(g, data.draw(st.sets(st.sampled_from(nodes))))
    dropped = data.draw(st.sets(st.sampled_from(g.channel_ids.tolist())
                                if pairs else st.nothing()))
    for h in (g, sub, largest_connected_component(sub),
              remove_channels(g, dropped), g.copy()):
        view = h.channel_view()
        c, side = view.slot >> 1, view.slot & 1
        arcs = list(zip(h.ends[c, side].tolist(), h.ends[c, 1 - side].tolist(),
                        h.channel_ids[c].tolist()))
        assert arcs == sorted(arcs)
        edges = h.to_snapshot_dict()["edges"]
        assert [e["channel_id"] for e in edges] == sorted(h.channel_ids.tolist())
        assert all(e["capacity"] == 100 + int(e["channel_id"][1:]) for e in edges)


@st.composite
def grouped_graphs(draw):
    """Graphs of up to 16 nodes, possibly none, in groups whose channels
    (parallel ones among them) stay inside the group, so groups of equal
    size often give components of equal size. Node records run in a
    shuffled order. Also a set of nodes to remove."""
    sizes = draw(st.lists(st.integers(1, 4), max_size=4))
    if sizes and draw(st.booleans()):
        sizes = [sizes[0]] * len(sizes)
    ids = draw(st.permutations([f"v{i}" for i in range(sum(sizes))]))
    pairs, start = [], 0
    for size in sizes:
        group = ids[start:start + size]
        start += size
        if size < 2:
            continue
        if draw(st.booleans()):
            pairs += list(zip(group, group[1:]))
        pair = st.tuples(st.sampled_from(group), st.sampled_from(group)).filter(
            lambda p: p[0] != p[1])
        pairs += draw(st.lists(pair, max_size=size))
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=3))
    pairs = draw(st.permutations(pairs))
    targets = draw(st.sets(st.sampled_from(ids))) if ids else set()
    return make_graph(ids, pairs), pairs, targets


@settings(max_examples=300, deadline=None)
@given(grouped_graphs())
def test_components_and_removal_match_networkx_and_union_find(case):
    g, pairs, targets = case
    ref = nx.Graph()
    ref.add_nodes_from(g.ids)
    ref.add_edges_from(pairs)
    comps = sorted(nx.connected_components(ref), key=lambda c: (-len(c), min(c)))
    largest = comps[0] if comps else set()
    assert ae.reachability(g) == len(largest)
    lcc = largest_connected_component(g)
    assert lcc.ids == sorted(largest)
    assert channels(lcc) == {cid: e for cid, e in channels(g).items()
                             if e.a in largest}

    rest = set(g.ids) - targets
    sub = remove_nodes(g, targets)
    assert sub.ids == sorted(rest)
    assert channels(sub) == {cid: e for cid, e in channels(g).items()
                             if e.a in rest and e.b in rest}
    alive = np.array([v in rest for v in g.ids], dtype=bool)
    assert induced_subgraph(g, alive).to_snapshot_dict() == sub.to_snapshot_dict()
    # the recorded node order is masked, not recorded again
    assert [sub.ids[i] for i in sub.node_order] == [
        g.ids[i] for i in g.node_order if g.ids[i] in rest]
    sizes = [len(c) for c in union_find_components(
        rest, [p for p in pairs if set(p) <= rest])]
    assert ae.reachability(sub) == max(sizes, default=0)


def test_node_order_is_the_iteration_order_of_the_validation_set():
    ids = [f"{i:x}{'z' * i}" for i in range(40)]
    g = make_graph(ids[::-1], [(ids[0], ids[1])])
    assert g.ids == sorted(ids)
    assert [g.ids[i] for i in g.node_order] == list(set(ids[::-1]))
    assert not g.node_order.flags.writeable
    assert g.copy().node_order is g.node_order
    assert (PcnGraph(ids=["a", "b"]).node_order == [0, 1]).all()


def test_loaded_id_strings_are_not_objects_of_the_parse_tree(tmp_path):
    # each would keep a page of the freed tree's memory
    path = tmp_path / "snap.json"
    ids = [f"02{i:064x}" for i in range(30)]
    path.write_text(json.dumps({
        "nodes": [{"pub_key": v} for v in ids],
        "edges": [{"channel_id": f"{700000 + i}x{i}", "node1_pub": a,
                   "node2_pub": b, "capacity": "1000"}
                  for i, (a, b) in enumerate(zip(ids, ids[1:]))]}))
    tracemalloc.start(20)
    try:
        g = load_snapshot(path)
        strings = [*g.ids, *g.channel_ids.tolist()]
        tracebacks = [tracemalloc.get_object_traceback(s) for s in strings]
    finally:
        tracemalloc.stop()
    assert g.ids == ids and len(strings) == 59
    decoder = os.path.join("json", "decoder.py")
    assert all(tb is not None for tb in tracebacks)
    assert not [s for s, tb in zip(strings, tracebacks)
                if any(frame.filename.endswith(decoder) for frame in tb)]
