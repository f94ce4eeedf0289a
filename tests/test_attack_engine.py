import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcn_resilience import attack_engine as ae
from pcn_resilience import payment_sim as ps
from pcn_resilience.graph_model import (MAX_SAT, graph_from_dict,
                                        largest_connected_component,
                                        remove_channels, remove_nodes)
from pcn_resilience.topology_metrics import generate_reference

from oracles import (augmenting_path_max_flow, balance_caps, channels,
                     reference_balances, reference_drain,
                     reference_largest_component, reference_min_cut,
                     reference_remove_nodes, reference_route, route_of)
from test_graph_model import explicit_channels, make_graph


def fig3_fixture():
    """Target node A with outbound balances 3, 8, 10 and an attacker channel
    E-A with 21 on E's side."""
    return graph_from_dict({
        "nodes": [{"pub_key": k} for k in ["A", "B", "C", "D", "E"]],
        "edges": [
            {"channel_id": "ab", "node1_pub": "A", "node2_pub": "B",
             "capacity": 10, "node1_balance": 3, "node2_balance": 7},
            {"channel_id": "ac", "node1_pub": "A", "node2_pub": "C",
             "capacity": 12, "node1_balance": 8, "node2_balance": 4},
            {"channel_id": "ad", "node1_pub": "A", "node2_pub": "D",
             "capacity": 16, "node1_balance": 10, "node2_balance": 6},
            {"channel_id": "ea", "node1_pub": "E", "node2_pub": "A",
             "capacity": 21, "node1_balance": 21, "node2_balance": 0},
        ],
    }, balance_model="explicit")


def barbell_fixture(cluster=5, bridge_capacity=10, cluster_capacity=1000):
    """Two dense clusters joined by a single bridge channel."""
    left = [f"l{i}" for i in range(cluster)]
    right = [f"r{i}" for i in range(cluster)]
    edges = []
    for side in (left, right):
        for i, a in enumerate(side):
            for b in side[i + 1:]:
                edges.append({"channel_id": f"c{len(edges)}", "node1_pub": a,
                              "node2_pub": b, "capacity": cluster_capacity})
    edges.append({"channel_id": "bridge", "node1_pub": left[0],
                  "node2_pub": right[0], "capacity": bridge_capacity})
    return graph_from_dict({
        "nodes": [{"pub_key": v} for v in left + right], "edges": edges})


class TestAdvantage:
    def test_no_change(self):
        assert ae.advantage(675, 675) == 0.0

    def test_total_collapse(self):
        assert ae.advantage(1000, 0) == 1.0

    def test_relative_decrease(self):
        assert ae.advantage(675, 67.5) == pytest.approx(0.9)

    def test_zero_baseline_is_error(self):
        # an undefined advantage is None, for a zero or an absent baseline
        assert ae.advantage(0, 5) is None
        assert ae.advantage(None, 5) is None


class TestReachability:
    def test_connected(self):
        g = generate_reference("erdos-renyi", 10, 30, seed=0)
        assert ae.reachability(g) <= 10

    def test_two_components(self):
        g = make_graph(list("abcdefghij"),
                       [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"),
                        ("e", "f"), ("g", "h"), ("h", "i"), ("i", "j")])
        assert ae.reachability(g) == 6

    def test_empty(self):
        from pcn_resilience.graph_model import PcnGraph
        assert ae.reachability(PcnGraph()) == 0


class TestExhaustChannel:
    def test_drain_and_credit(self):
        g = make_graph(["a", "b"], [("a", "b")], capacity=10)
        g2 = ae.exhaust_channel(g, "c0", "ab")
        e = channels(g2)["c0"]
        assert (e.balance_ab, e.balance_ba) == (0, 20)
        # input untouched
        assert channels(g)["c0"].balance_ab == 10

    def test_idempotent_on_empty_direction(self):
        g = make_graph(["a", "b"], [("a", "b")], capacity=10)
        g2 = ae.exhaust_channel(ae.exhaust_channel(g, "c0", "ab"), "c0", "ab")
        e = channels(g2)["c0"]
        assert (e.balance_ab, e.balance_ba) == (0, 20)

    def test_unknown_channel(self):
        g = make_graph(["a", "b"], [("a", "b")])
        with pytest.raises(KeyError):
            ae.exhaust_channel(g, "nope", "ab")

    def test_bad_direction(self):
        g = make_graph(["a", "b"], [("a", "b")])
        with pytest.raises(ValueError, match="direction must be 'ab' or 'ba'"):
            ae.exhaust_channel(g, "c0", "both")

    def test_fig3_exhaustion_pattern(self):
        g = fig3_fixture()
        for cid in ("ab", "ac", "ad"):
            g = ae.exhaust_channel(g, cid, "ab")
        records = channels(g)
        assert [records[c].balance_ab for c in ("ab", "ac", "ad")] == [0, 0, 0]
        assert [records[c].balance_ba for c in ("ab", "ac", "ad")] == [10, 12, 16]


class TestIsolateNode:
    def test_fig3_cost(self):
        g = fig3_fixture()
        g2, cost = ae.isolate_node(g, "A")
        assert cost == 21
        assert "A" not in g2.index
        assert "ab" not in channels(g2)

    def test_exhaust_node_channels_keeps_node(self):
        g = ae.exhaust_node_channels(fig3_fixture(), "A")
        assert "A" in g.index
        assert ae.isolation_cost(g, "A") == 0
        assert [channels(g)[c].balance_ba for c in ("ab", "ac", "ad")] == [10, 12, 16]

    def test_cost_sums_outbound_balances(self):
        g = explicit_channels([("c0", "b", "a", 7, 3), ("c1", "a", "b", 5, 2),
                               ("c2", "b", "c", 4, 0)])
        assert {v: ae.isolation_cost(g, v) for v in g.ids} == {
            "a": 8, "b": 13, "c": 0}

    def test_unknown_node_is_named(self):
        g = fig3_fixture()
        for attack in (ae.isolation_cost, ae.isolate_node,
                       ae.exhaust_node_channels):
            with pytest.raises(KeyError, match="unknown node ghost"):
                attack(g, "ghost")

    def test_isolated_node_without_channels(self):
        g = make_graph(["a", "b", "x"], [("a", "b")])
        g2, cost = ae.isolate_node(g, "x")
        assert cost == 0 and "x" not in g2.index

    def test_no_payment_routes_through_isolated_node(self):
        g = make_graph(["a", "h", "b", "c"],
                       [("a", "h"), ("h", "b"), ("a", "c"), ("c", "b")],
                       capacity=10_000)
        g2, _ = ae.isolate_node(g, "h")
        rng = random.Random(0)
        specs = ps.sample_specs(g2.ids, 50, ps.UNIT_VOLUMES, rng)
        for out in ps.evaluate_payments(g2, specs):
            assert "h" not in route_of(g2, out.slots)[0]


class TestPlanTargets:
    def test_star_degree(self):
        leaves = [f"l{i}" for i in range(5)]
        g = make_graph(["hub"] + leaves, [("hub", l) for l in leaves])
        plan = ae.plan_targets(g, ae.Strategy("degree"), limit=1)
        assert plan[0] == "hub"

    def test_isolation_cost_recorded(self):
        g = fig3_fixture()
        plan = ae.plan_targets(g, ae.Strategy("degree"), limit=1)
        assert plan == ["A"]
        assert ae.isolation_cost(g, "A") == 21

    def test_node_cost_exact_past_2_53(self):
        # five channels at the supply cap and one satoshi: the sum is odd
        # and above 2**53, so a float64 sum would round it
        leaves = [(f"c{i}", "hub", f"l{i}", MAX_SAT, 0) for i in range(5)]
        g = explicit_channels(leaves + [("c5", "hub", "l5", 1, 0)])
        [target] = ae.plan_targets(g, ae.Strategy("degree"), limit=1)
        cost = ae.isolation_cost(g, target)
        assert target == "hub" and cost == 5 * MAX_SAT + 1
        assert float(cost) != cost
        rep = attack(g, [target], ("budget", 6 * MAX_SAT),
                     ae.MetricParams(attempts=5, flow_rounds=1))
        assert rep.spent == 5 * MAX_SAT + 1 and rep.removed == 1

    def test_betweenness_order(self):
        g = make_graph(list("abcd"), [("a", "b"), ("b", "c"), ("c", "d")])
        plan = ae.plan_targets(g, ae.Strategy("betweenness"), limit=4)
        assert set(plan[:2]) == {"b", "c"}

    def test_random_is_seeded_shuffle(self):
        g = make_graph(list("abcdef"), [("a", "b"), ("c", "d"), ("e", "f")])
        p1 = ae.plan_targets(g, ae.Strategy("random", seed=3), limit=6)
        p2 = ae.plan_targets(g, ae.Strategy("random", seed=3), limit=6)
        assert p1 == p2

    def test_mincut_finds_bridge(self):
        g = barbell_fixture()
        plan = ae.plan_targets(
            g, ae.Strategy("ranked-min-cut", cut_samples=100, seed=1),
            limit=3)
        assert plan[0] == ("bridge",)
        assert ae._price(g, plan[0]) == 10

    def test_parallel_paths_ranks_interior(self):
        g = make_graph(list("abcd"), [("a", "b"), ("b", "c"), ("c", "d")],
                       capacity=10**6)
        plan = ae.plan_targets(
            g, ae.Strategy("parallel-paths", payment_samples=200, seed=0),
            limit=4)
        top2 = set(plan[:2])
        assert top2 == {"b", "c"}

    def test_parallel_paths_excludes_hub(self):
        g = make_graph(list("abcd"), [("a", "b"), ("b", "c"), ("c", "d")],
                       capacity=10**6)
        plan = ae.plan_targets(
            g, ae.Strategy("parallel-paths", payment_samples=200, seed=0,
                           hub="b"),
            limit=4)
        assert "b" not in plan

    def test_parallel_paths_skips_payments_to_and_from_the_hub(self):
        # seed 63 draws d->a, which c and b forward, a->c and c->a, which b
        # forwards, b->d, which c forwards, and four that nobody forwards.
        # Without a hub: b 3, c 2, a 0, d 0. With the hub at a, only b->d
        # counts: c 1, b 0, d 0; counting the payments a sends would give
        # b 2, c 2, and those it receives b 1, c 1, both ranked b, c, d.
        g = make_graph(list("abcd"), [("a", "b"), ("b", "c"), ("c", "d")],
                       capacity=10**6)
        specs = ps.sample_specs(g.ids, 8, ps.UNIT_VOLUMES, random.Random(63))
        assert [(spec.source, spec.target) for spec in specs] == [
            ("d", "c"), ("d", "a"), ("a", "b"), ("a", "c"), ("b", "c"),
            ("c", "a"), ("b", "d"), ("c", "d")]
        assert ae.plan_targets(g, ae.Strategy(
            "parallel-paths", payment_samples=8, seed=63, hub="a"),
            limit=4) == ["c", "b", "d"]
        assert ae.plan_targets(g, ae.Strategy(
            "parallel-paths", payment_samples=8, seed=63),
            limit=4) == ["b", "c", "a", "d"]

    def test_limit_below_one(self):
        g = make_graph(["a", "b"], [("a", "b")])
        with pytest.raises(ValueError, match="limit must be >= 1"):
            ae.plan_targets(g, ae.Strategy("degree"), limit=0)

    def test_strategy_is_hashable(self):
        assert {ae.Strategy("degree"), ae.Strategy("degree")} == {
            ae.Strategy("degree")}
        assert len({ae.Strategy("random", seed=1), ae.Strategy("random")}) == 2

    def test_a_dict_is_not_a_seed(self):
        # a dict lands in the seed field, where it is refused, not read as settings
        g = make_graph(list("abcdef"), [("a", "b"), ("c", "d"), ("e", "f")])
        with pytest.raises(ValueError, match=r"^seed \{'seed': 3\} is not"):
            ae.plan_targets(g, ae.Strategy("random", {"seed": 3}), 5)

    def test_missing_params(self):
        with pytest.raises(ValueError):
            ae.Strategy("ranked-min-cut")
        with pytest.raises(ValueError):
            ae.Strategy("parallel-paths")
        with pytest.raises(ValueError):
            ae.Strategy("nonsense")


def reference_ranked_cuts(g, cut_samples, seed):
    """`_rank_min_cuts` with every cut taken from the networkx oracle."""
    pairs = ps.sample_pairs(g.ids, cut_samples, random.Random(seed))
    occurrences = {}
    for s, t in pairs:
        cut = reference_min_cut(g, s, t)
        if cut is not None:
            occurrences[cut] = occurrences.get(cut, 0) + 1
    return sorted(occurrences, key=lambda c: (-occurrences[c], c))


def ranked_cuts(g, cut_samples, seed):
    return ae._rank_min_cuts(
        g, ae.Strategy("ranked-min-cut", cut_samples=cut_samples, seed=seed))


# Small capacities tie many cuts; the large ones pass int32, alone or with
# a parallel channel or the flow on the reverse arc, up to the supply cap.
CUT_CAPACITIES = [1, 2, 3, 2**30 - 1, 2**30, 3 * 2**30 + 7, MAX_SAT]


@st.composite
def cut_cases(draw):
    """Graphs with parallel channels, several components and tied cuts."""
    ids = [f"v{i}" for i in range(draw(st.integers(2, 8)))]
    pair = st.tuples(st.sampled_from(ids), st.sampled_from(ids)).filter(
        lambda p: p[0] != p[1])
    channels = draw(st.lists(st.tuples(pair, st.sampled_from(CUT_CAPACITIES)),
                             max_size=16))
    cids = draw(st.permutations([f"ch{i}" for i in range(len(channels))]))
    g = graph_from_dict({
        "nodes": [{"pub_key": v} for v in ids],
        "edges": [{"channel_id": cid, "node1_pub": a, "node2_pub": b,
                   "capacity": capacity}
                  for cid, ((a, b), capacity) in zip(cids, channels)]})
    return g, draw(st.integers(1, 12)), draw(st.integers(0, 99))


@settings(max_examples=200, deadline=None)
@given(cut_cases())
def test_rank_min_cuts_matches_reference_min_cut(case):
    g, cut_samples, seed = case
    assert ranked_cuts(g, cut_samples, seed) == \
        reference_ranked_cuts(g, cut_samples, seed)


def test_min_cut_across_parallel_channels_past_int32():
    # the bridge is two parallel channels summing to 3 * 2**30; cutting
    # around one cluster node costs three channels of 2**32
    snapshot = barbell_fixture(cluster=4, bridge_capacity=2**30,
                               cluster_capacity=2**32).to_snapshot_dict()
    snapshot["edges"].append({"channel_id": "bridge2", "node1_pub": "r0",
                              "node2_pub": "l0", "capacity": 2**31})
    g = graph_from_dict(snapshot)
    cuts = ranked_cuts(g, 60, 5)
    assert ("bridge", "bridge2") in cuts
    assert cuts == reference_ranked_cuts(g, 60, 5)


def test_min_cut_of_a_channel_at_the_supply_cap():
    # 21M BTC in one channel is one arc each way, not a chain of pieces
    g = graph_from_dict({
        "nodes": [{"pub_key": "a"}, {"pub_key": "b"}],
        "edges": [{"channel_id": "c0", "node1_pub": "a", "node2_pub": "b",
                   "capacity": MAX_SAT}]})
    strategy = ae.Strategy("ranked-min-cut", cut_samples=3)
    tracemalloc.start()
    try:
        plan = ae.plan_targets(g, strategy, limit=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert plan == [("c0",)] and ae._price(g, plan[0]) == MAX_SAT
    assert peak < 256 * 1024


def attack(g, plan, constraint, params, seed=0, griefing=False):
    """The single report of one plan under one constraint."""
    [report] = ae.execute_attack(g, [plan], [constraint], params, seed=seed,
                                 griefing=griefing)
    return report


class TestExecuteAttack:
    def metric_params(self):
        return ae.MetricParams(attempts=100, flow_rounds=20)

    def test_zero_removals_zero_deltas(self):
        g = generate_reference("erdos-renyi", 30, 90, seed=0)
        plan = ae.plan_targets(g, ae.Strategy("degree"), limit=5)
        rep = attack(g, plan, ("count", 0), self.metric_params(), seed=1)
        assert rep.delta_s == rep.delta_r == rep.delta_F == 0.0
        assert rep.spent == 0 and rep.removed == 0

    def test_unknown_constraint_kind(self):
        g = make_graph(["a", "b"], [("a", "b")])
        with pytest.raises(ValueError, match="constraint must be"):
            ae.execute_attack(g, [["a"]], [("nodes", 1)], self.metric_params())

    def test_budget_too_small_removes_nothing(self):
        g = generate_reference("erdos-renyi", 30, 90, seed=0)
        plan = ae.plan_targets(g, ae.Strategy("degree"), limit=5)
        rep = attack(g, plan, ("budget", 0), self.metric_params(), seed=1)
        assert rep.spent == 0 and rep.removed == 0
        assert rep.delta_r == 0.0

    def test_count_mode_removes_first_n(self):
        g = generate_reference("erdos-renyi", 30, 90, seed=0)
        plan = ae.plan_targets(g, ae.Strategy("degree"), limit=10)
        rep = attack(g, plan, ("count", 4), self.metric_params(), seed=1)
        assert rep.removed == 4
        assert rep.a_posteriori.r <= rep.a_priori.r

    def test_budget_mode_skips_unaffordable(self):
        g = barbell_fixture()
        plan = ae.plan_targets(
            g, ae.Strategy("ranked-min-cut", cut_samples=100, seed=1),
            limit=5)
        budget = ae._price(g, plan[0])
        rep = attack(g, plan, ("budget", budget), self.metric_params(), seed=1)
        assert rep.spent <= budget
        assert rep.removed >= 1
        assert rep.delta_r == pytest.approx(0.5)

    def test_griefing_makes_targets_free(self):
        g = generate_reference("erdos-renyi", 30, 90, seed=0)
        plan = ae.plan_targets(g, ae.Strategy("degree"), limit=3)
        rep = attack(g, plan, ("budget", 0), self.metric_params(), seed=1,
                     griefing=True)
        assert rep.removed == 3 and rep.spent == 0

    def test_plan_priced_on_the_graph_it_runs_on(self):
        g = generate_reference("erdos-renyi", 30, 90, seed=0)
        plan = ae.plan_targets(g, ae.Strategy("degree"), limit=3)
        # the same ids with other channels, each at a capacity of its own
        snapshot = generate_reference("erdos-renyi", 30, 90,
                                      seed=5).to_snapshot_dict()
        for i, edge in enumerate(snapshot["edges"]):
            edge["capacity"] = 100 + i
        other = graph_from_dict(snapshot)
        assert [ae.isolation_cost(g, v) for v in plan] != \
            [ae.isolation_cost(other, v) for v in plan]
        fresh = ae.plan_targets(other, ae.Strategy("degree"), limit=3)
        reports = ae.execute_attack(other, [fresh, plan], [("count", 3)],
                                    self.metric_params())
        assert [rep.spent for rep in reports] == [
            sum(ae.isolation_cost(other, v) for v in targets)
            for targets in (fresh, plan)]

    def test_removed_node_is_stale(self):
        g = generate_reference("erdos-renyi", 30, 90, seed=0)
        plan = ae.plan_targets(g, ae.Strategy("degree"), limit=3)
        gone = plan[0]
        with pytest.raises(KeyError, match=f"^'unknown node {gone}'$"):
            attack(remove_nodes(g, [gone]), plan, ("count", 1),
                   self.metric_params())

    def test_removed_cut_channel_is_stale(self):
        g = barbell_fixture()
        plan = ae.plan_targets(
            g, ae.Strategy("ranked-min-cut", cut_samples=100, seed=1),
            limit=3)
        assert plan[0] == ("bridge",)
        with pytest.raises(KeyError, match="^'unknown channel bridge'$"):
            attack(remove_channels(g, {"bridge"}), plan, ("count", 1),
                   self.metric_params())

    def test_cut_priced_where_it_runs(self):
        # a path a-b-c-d whose first channel grows from 10 to 1000 sat: the
        # c0 cut no longer fits a budget of 500, the other two cost 100
        def path(c0):
            return graph_from_dict({
                "nodes": [{"pub_key": v} for v in "abcd"],
                "edges": [{"channel_id": f"c{i}", "node1_pub": "abcd"[i],
                           "node2_pub": "abcd"[i + 1], "capacity": cap}
                          for i, cap in enumerate((c0, 50, 50))]})
        plan = ae.plan_targets(path(10), ae.Strategy(
            "ranked-min-cut", cut_samples=20), limit=5)
        assert sorted(plan) == [("c0",), ("c1",), ("c2",)]
        rep = attack(path(1000), plan, ("budget", 500), self.metric_params())
        assert rep.spent == 100 and rep.removed == 2

    def test_delta_r_monotone_along_plan(self):
        g = generate_reference("barabasi-albert", 60, 120, seed=2)
        plan = ae.plan_targets(g, ae.Strategy("degree"), limit=12)
        deltas = [rep.delta_r for rep in ae.execute_attack(
            g, [plan], [("count", n) for n in (0, 3, 6, 12)],
            self.metric_params(), seed=3)]
        assert deltas == sorted(deltas)
        assert all(0 <= d <= 1 for d in deltas)

    def test_determinism(self):
        g = generate_reference("erdos-renyi", 30, 90, seed=0)
        plan = ae.plan_targets(g, ae.Strategy("betweenness"), limit=5)
        r1 = ae.execute_attack(g, [plan], [("count", 3)], self.metric_params(),
                               seed=4)
        r2 = ae.execute_attack(g, [plan], [("count", 3)], self.metric_params(),
                               seed=4)
        assert r1 == r2

    def test_hub_fee_metrics_present(self):
        g = make_graph(list("abcd"), [("a", "b"), ("b", "c"), ("c", "d")],
                       capacity=10**6)
        params = ae.MetricParams(attempts=50, flow_rounds=10, hub="b")
        plan = ae.plan_targets(g, ae.Strategy("degree"), limit=1)
        rep = attack(g, plan, ("count", 0), params, seed=0)
        assert rep.a_priori.g_bar is not None

    def test_hub_left_alone_earns_nothing(self):
        g = make_graph(list("abcd"), [("a", "b"), ("b", "c"), ("c", "d")],
                       capacity=10**6)
        params = ae.MetricParams(attempts=50, flow_rounds=10, hub="b")
        plan = ae.plan_targets(g, ae.Strategy(
            "parallel-paths", payment_samples=50, hub="b"), limit=4)
        rep = attack(g, plan, ("count", 3), params)
        assert rep.a_posteriori.g_bar == 0.0 < rep.a_priori.g_bar
        assert rep.delta_g == 1.0

    def test_unknown_hub_rejected(self):
        g = make_graph(list("abcd"), [("a", "b"), ("b", "c"), ("c", "d")])
        plan = ae.plan_targets(g, ae.Strategy("degree"), limit=1)
        params = ae.MetricParams(attempts=5, flow_rounds=1, hub="nosuchnode")
        with pytest.raises(KeyError, match="unknown hub nosuchnode"):
            attack(g, plan, ("count", 1), params)

    def test_removed_hub_earns_nothing(self):
        g = make_graph(list("abcd"), [("a", "b"), ("b", "c"), ("c", "d")],
                       capacity=10**6)
        params = ae.MetricParams(attempts=50, flow_rounds=10, hub="b")
        plan = ae.plan_targets(g, ae.Strategy("degree"), limit=1)
        assert plan == ["b"]
        rep = attack(g, plan, ("count", 1), params)
        assert rep.a_posteriori.g_bar == 0.0 < rep.a_priori.g_bar

    def test_zero_a_priori_metric_gives_undefined_deltas(self):
        # two components: every sampled pair crosses them or is blocked
        g = make_graph(list("abcd"), [("a", "b"), ("c", "d")], capacity=1)
        plan = ae.plan_targets(g, ae.Strategy("degree"), limit=1)
        params = ae.MetricParams(attempts=5, flow_rounds=1,
                                 volumes=ps.VolumeModel((2,)))
        rep = attack(g, plan, ("count", 1), params)
        assert rep.a_priori.s == rep.a_priori.F_bar == 0
        assert rep.delta_s is None and rep.delta_F is None
        assert rep.delta_r == 0.0


class TestSweep:
    """One call covers every (plan, constraint) pair, plan-major, and
    measures the unattacked graph once."""

    def plans(self, g):
        return [ae.plan_targets(g, ae.Strategy(kind, seed=1), limit=8)
                for kind in ("degree", "random")] + [ae.plan_targets(
                    g, ae.Strategy("ranked-min-cut", cut_samples=20, seed=1),
                    limit=8)]

    def test_each_row_equals_a_single_call(self):
        g = generate_reference("barabasi-albert", 60, 120, seed=2)
        params = ae.MetricParams(attempts=40, flow_rounds=8, hub="n3")
        plans = self.plans(g)
        budgets = [("budget", b) for b in (0, 50_000, 500_000, 10**9)]
        rows = ae.execute_attack(g, plans, budgets, params, seed=5)
        assert len(rows) == len(plans) * len(budgets)
        singles = [attack(g, plan, budget, params, seed=5)
                   for plan in plans for budget in budgets]
        assert rows == singles
        assert any(row.removed for row in rows)

    def counting_measure(self, monkeypatch) -> list:
        calls = []
        measure = ae._measure

        def counting(*args):
            calls.append(args[0])
            return measure(*args)
        monkeypatch.setattr(ae, "_measure", counting)
        return calls

    def test_measures_before_once(self, monkeypatch):
        # and each distinct surviving graph once: the count-0 rows remove
        # nothing and reuse the a-priori metrics
        g = generate_reference("barabasi-albert", 60, 120, seed=2)
        calls = self.counting_measure(monkeypatch)
        plans = self.plans(g)
        counts = [("count", n) for n in (0, 2, 5)]
        rows = ae.execute_attack(g, plans, counts,
                                 ae.MetricParams(attempts=20, flow_rounds=4))
        assert len(rows) == len(plans) * len(counts)
        distinct = {frozenset(plan[:n]) for plan in plans
                    for _, n in counts} - {frozenset()}
        assert len(calls) == 1 + len(distinct) == 1 + 2 * len(plans)
        assert calls[0] is g
        assert all(row.a_posteriori == row.a_priori
                   for row in rows[::len(counts)])

    def test_rows_removing_the_same_targets_share_a_measurement(
            self, monkeypatch):
        # a plan of 10 targets picks the same ones under count 10 and 30
        g = generate_reference("barabasi-albert", 60, 120, seed=2)
        plan = ae.plan_targets(g, ae.Strategy("degree"), limit=10)
        assert len(plan) == 10
        params = ae.MetricParams(attempts=30, flow_rounds=6, hub="n3")
        counts = [("count", 10), ("count", 30)]
        singles = [attack(g, plan, count, params, seed=4) for count in counts]
        calls = self.counting_measure(monkeypatch)
        rows = ae.execute_attack(g, [plan], counts, params, seed=4)
        assert rows == singles
        assert len(calls) == 2  # the a-priori graph and the survivor


class TestSingleRemoval:
    """execute_attack removes every chosen target at once; its report must
    equal removing them one at a time and measuring the result."""

    def stepwise_report(self, g, chosen, params, seed, spent):
        rng = random.Random(seed)
        specs = ps.sample_specs(g.ids, params.attempts, params.volumes, rng)
        pairs = ps.sample_pairs(g.ids, params.flow_rounds, rng)
        current = g
        for v in chosen:
            current = remove_nodes(current, [v])
        before = ae._measure(g, specs, pairs, params, seed)
        after = ae._measure(current, specs, pairs, params, seed)
        return ae.SimReport(
            a_priori=before, a_posteriori=after,
            delta_s=ae.advantage(before.s, after.s),
            delta_r=ae.advantage(before.r, after.r),
            delta_F=ae.advantage(before.F_bar, after.F_bar),
            delta_g=(ae.advantage(before.g_bar, after.g_bar)
                     if before.g_bar else None),
            spent=spent, removed=len(chosen))

    def test_budget_plan_skipping_a_middle_target(self):
        g = generate_reference("barabasi-albert", 60, 120, seed=2)
        ranked = ae.plan_targets(g, ae.Strategy("degree"), limit=8)
        cheap, dear, cheapest, rest = ranked[1], ranked[0], ranked[-1], ranked[2]
        cost = {v: ae.isolation_cost(g, v) for v in ranked}
        assert cost[dear] > cost[cheapest] > 0
        plan = [cheap, dear, cheapest, rest]
        budget = cost[cheap] + cost[cheapest]
        params = ae.MetricParams(attempts=60, flow_rounds=10)
        rep = attack(g, plan, ("budget", budget), params, seed=3)
        assert rep == self.stepwise_report(
            g, [cheap, cheapest], params, seed=3, spent=budget)
        assert rep.removed == 2

    def test_count_plan(self):
        g = generate_reference("barabasi-albert", 60, 120, seed=2)
        plan = ae.plan_targets(g, ae.Strategy("betweenness"), limit=10)
        params = ae.MetricParams(attempts=60, flow_rounds=10, hub="n0")
        rep = attack(g, plan, ("count", 6), params, seed=4)
        chosen = plan[:6]
        assert rep == self.stepwise_report(
            g, chosen, params, seed=4,
            spent=sum(ae.isolation_cost(g, v) for v in chosen))


# ids whose lexicographic order differs from their insertion order
DERIVED_IDS = ["n0", "n1", "n10", "n2", "a", "Z"]


@st.composite
def derived_cases(draw):
    """Small graphs with parallel channels, explicit balances, and numeric
    channel ids shuffled against record order."""
    ids = draw(st.lists(st.sampled_from(DERIVED_IDS), min_size=2, max_size=6,
                        unique=True))
    pair = st.tuples(st.sampled_from(ids), st.sampled_from(ids)).filter(
        lambda p: p[0] != p[1])
    channels = draw(st.lists(st.tuples(pair, st.integers(0, 9),
                                       st.integers(0, 9), st.integers(0, 3)),
                             max_size=14))
    cids = draw(st.permutations([str(i) for i in range(len(channels))]))
    return graph_from_dict({
        "nodes": [{"pub_key": v} for v in ids],
        "edges": [{"channel_id": cid, "node1_pub": a, "node2_pub": b,
                   "capacity": ab + ba + fee + 1, "node1_balance": ab,
                   "node2_balance": ba,
                   "node1_policy": {"fee_base_msat": fee,
                                    "fee_rate_milli_msat": 100 * fee},
                   "node2_policy": {"fee_base_msat": 3 - fee}}
                  for cid, ((a, b), ab, ba, fee) in zip(cids, channels)],
    }, balance_model="explicit")


def observed(g):
    """Everything a derived graph, or a max flow, could change in `g` by
    mistake."""
    view = g.simple_graph()
    return (g.to_snapshot_dict(), g.balance_digraph().tolist(), dict(g.index),
            g.node_order.tolist(),
            [column.tolist() for column in (view.rows, view.indices,
                                            view.capacity, view.indptr)])


@settings(max_examples=150, deadline=None)
@given(derived_cases(), st.data())
def test_derived_graphs_never_alias_their_source(g, data):
    before = observed(g)
    source = before[0]
    nodes = g.ids
    targets = data.draw(st.sets(st.sampled_from(nodes)))
    v = data.draw(st.sampled_from(nodes))
    cases = [
        (g.copy, source),
        (lambda: remove_nodes(g, targets),
         reference_remove_nodes(source, targets)),
        (lambda: largest_connected_component(g),
         reference_largest_component(source)),
        (lambda: ae.exhaust_node_channels(g, v),
         reference_drain(source, {(e["channel_id"], v)
                                  for e in source["edges"]})),
    ]
    if source["edges"]:
        e = data.draw(st.sampled_from(source["edges"]))
        side = data.draw(st.sampled_from(["node1", "node2"]))
        direction = "ab" if side == "node1" else "ba"
        cases.append((lambda: ae.exhaust_channel(g, e["channel_id"], direction),
                      reference_drain(source, {(e["channel_id"],
                                                e[side + "_pub"])})))
    for derive, want in cases:
        result = derive()
        assert result.to_snapshot_dict() == want
        # a write to the result must not reach the source
        result.shift(2 * np.arange(result.edge_count), result.balance[:, 0])
        assert observed(g) == before

    volumes = ps.VolumeModel((1, 3, 5))
    specs = ps.sample_specs(g.ids, 12, volumes, random.Random(7))
    state, records, earned = reference_balances(g), channels(g), 0
    for spec in specs:
        path, taken = route_of(g, reference_route(g, spec, state, apply=True))
        # v earns on the arcs it forwards on, by its side's policy
        for hop, cid in zip(path[1:-1], taken[1:]):
            e = records[cid]
            if hop == v:
                base, rate = e.fee_ab if hop == e.a else e.fee_ba
                earned += base + spec.amount * rate // 1000
    assert ps.fee_gain(g, v, 12, volumes, seed=7) == earned / 12
    assert observed(g) == before

    # max flows and min cuts push through copies of the balances
    for s in nodes:
        for t in nodes:
            if s != t:
                assert ps.max_flow(g, s, t) == augmenting_path_max_flow(
                    balance_caps(g), s, t)
    ranked_cuts(g, 4, 0)
    assert observed(g) == before
