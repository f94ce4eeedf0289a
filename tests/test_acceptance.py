"""End-to-end acceptance suite.

Each test covers one release criterion and prints a single PASS/FAIL line.
The full module is slower than the unit suite (several minutes); criteria
with randomized inputs use frozen seeds so outcomes are reproducible.
"""

import json
import math
import random

import networkx as nx
import numpy as np

from pcn_resilience import attack_engine as ae
from pcn_resilience import payment_sim as ps
from pcn_resilience import powerlaw_fit as pl
from pcn_resilience import topology_metrics as tm
from pcn_resilience.cli import main as cli_main
from pcn_resilience.graph_model import connected_components, graph_from_dict
from pcn_resilience.payment_sim import VolumeModel

from oracles import (augmenting_path_max_flow, brute_betweenness,
                     brute_transitivity, reference_simple_graph,
                     union_find_components)


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _grid_snapshot(nodes, pairs, capacity=100, balances=None):
    return graph_from_dict({
        "nodes": [{"pub_key": v} for v in nodes],
        "edges": [
            {"channel_id": f"c{i}", "node1_pub": a, "node2_pub": b,
             "capacity": capacity}
            for i, (a, b) in enumerate(pairs)
        ],
    })


def test_criterion_1_smallworld_formula():
    s, gamma, lam = tm.smallworld_from_measures(0.085, 2.92, 0.005, 3.45)
    _verdict(1, "small-world formula", 19.0 <= s <= 21.0, f"S={s:.3f}")


def test_criterion_2_reference_graph_regime():
    diam_ok, avg_ok, cpd_ok = True, True, True
    for seed in range(10):
        er = tm.generate_reference("erdos-renyi", 2400, 13941, seed=seed)
        diameter, avg = tm.distance_stats(er)
        cpd = tm.central_point_dominance(er, sample_sources=400, seed=seed)
        diam_ok &= 5 <= diameter <= 7
        avg_ok &= 3.30 <= avg <= 3.60
        cpd_ok &= cpd < 0.02
    ba = tm.generate_reference("barabasi-albert", 2400, 12000, seed=0)
    ba_cpd = tm.central_point_dominance(ba, sample_sources=400, seed=0)
    ok = diam_ok and avg_ok and cpd_ok and ba_cpd > 0.05
    _verdict(2, "reference-graph regime", ok,
             f"diam={diam_ok} avg={avg_ok} er_cpd={cpd_ok} ba_cpd={ba_cpd:.3f}")


def _hub_and_spoke(core=200, leaves=300, seed=0):
    """Connected 200-node core plus 300 degree-1 leaves."""
    rng = random.Random(seed)
    core_nodes = [f"h{i}" for i in range(core)]
    pairs = [(core_nodes[i], core_nodes[(i + 1) % core]) for i in range(core)]
    pairs += [tuple(sorted(rng.sample(core_nodes, 2))) for _ in range(core)]
    nodes = list(core_nodes)
    for i in range(leaves):
        leaf = f"leaf{i}"
        nodes.append(leaf)
        pairs.append((rng.choice(core_nodes), leaf))
    return _grid_snapshot(nodes, pairs)


def test_criterion_3_random_failure_robustness():
    er = tm.generate_reference("erdos-renyi", 2400, 13941, seed=0)
    er_mean = tm.random_failure_experiment(er, [50], runs=100, seed=0)[50]
    spoke = _hub_and_spoke()
    spoke_mean = tm.random_failure_experiment(spoke, [50], runs=100, seed=0)[50]
    ok = er_mean <= 1.1 and spoke_mean > 3.0
    _verdict(3, "random-failure robustness", ok,
             f"er_mean={er_mean:.3f} hub_spoke_mean={spoke_mean:.2f}")


def test_criterion_4_powerlaw_recovery():
    alphas, passed = [], 0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        data = pl.sample_discrete_power_law(2.5, 5, 10_000, rng)
        fit = pl.fit_power_law(data)
        alphas.append(fit.alpha)
        gof = pl.goodness_of_fit(data, fit, synthetic_runs=500, seed=seed)
        passed += gof.p_value > 0.1
    median_alpha = float(np.median(alphas))

    rejected = 0
    for seed in range(20):
        rng = np.random.default_rng(2000 + seed)
        data = np.ceil(rng.exponential(scale=5.0, size=2000)).astype(int)
        fit = pl.fit_power_law(data)
        gof = pl.goodness_of_fit(data, fit, synthetic_runs=500, seed=seed)
        rejected += gof.reject
    ok = (2.4 <= median_alpha <= 2.6 and passed >= 17 and rejected >= 17)
    _verdict(4, "power-law recovery", ok,
             f"median_alpha={median_alpha:.4f} pl_pass={passed}/20 "
             f"exp_reject={rejected}/20")


def test_criterion_5_oracle_equivalence():
    rng = random.Random(1234)
    instances = 0
    ok = True
    while instances < 220:
        n = rng.randint(2, 8)
        nodes = [f"n{i}" for i in range(n)]
        pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]
                 if rng.random() < 0.45]
        if not pairs:
            continue
        instances += 1
        adj = {v: set() for v in nodes}
        for a, b in pairs:
            adj[a].add(b)
            adj[b].add(a)
        caps = {p: rng.randint(1, 20) for p in pairs}
        g = graph_from_dict({
            "nodes": [{"pub_key": v} for v in nodes],
            "edges": [{"channel_id": f"c{i}", "node1_pub": a, "node2_pub": b,
                       "capacity": caps[(a, b)]}
                      for i, (a, b) in enumerate(pairs)],
        })
        # components (exact)
        ok &= (len(connected_components(g))
               == len(union_find_components(nodes, pairs)))
        # transitivity and betweenness (<= 1e-9 relative)
        ok &= math.isclose(tm.transitivity(g), brute_transitivity(nodes, adj),
                           rel_tol=1e-9, abs_tol=1e-12)
        if n >= 3:
            fast = tm.betweenness_centrality(g)
            brute = brute_betweenness(nodes, adj)
            ok &= all(math.isclose(fast[v], brute[v], rel_tol=1e-9,
                                   abs_tol=1e-12) for v in nodes)
        # max flow and min cut between a random reachable-or-not pair (exact)
        s, t = rng.sample(nodes, 2)
        flow_caps = {}
        for e in g.edges.values():
            flow_caps[(e.a, e.b)] = flow_caps.get((e.a, e.b), 0) + e.balance_ab
            flow_caps[(e.b, e.a)] = flow_caps.get((e.b, e.a), 0) + e.balance_ba
        oracle_flow = augmenting_path_max_flow(flow_caps, s, t)
        ok &= ps.max_flow(g, s, t) == oracle_flow
        cut_value, _ = nx.minimum_cut(reference_simple_graph(g), s, t)
        ok &= cut_value == oracle_flow
    _verdict(5, "oracle equivalence", ok, f"{instances} instances")


def test_criterion_6_attack_strategy_ordering():
    params = ae.MetricParams(attempts=400, flow_rounds=25)
    wins_r = wins_s = 0
    seeds = range(20)
    for seed in seeds:
        g = tm.generate_reference("barabasi-albert", 500, 1500, seed=seed)
        plans = [ae.plan_targets(g, ae.Strategy(kind=kind,
                                                params={"seed": seed}),
                                 limit=50)
                 for kind in ("degree", "random")]
        degree, rand = ae.execute_attack(g, plans, [("count", 50)],
                                         metric_params=params, seed=seed)
        wins_r += degree.delta_r > rand.delta_r
        wins_s += degree.delta_s > rand.delta_s
    ok = wins_r >= 18 and wins_s >= 18
    _verdict(6, "attack-strategy ordering", ok,
             f"delta_r wins {wins_r}/20, delta_s wins {wins_s}/20")


def _acceptance_barbell(cluster=50, bridges=3, bridge_capacity=10,
                        cluster_capacity=1000):
    left = [f"l{i:02d}" for i in range(cluster)]
    right = [f"r{i:02d}" for i in range(cluster)]
    rng = random.Random(7)
    edges = []
    for side in (left, right):
        # ring plus random chords keeps each cluster dense and connected
        for i in range(cluster):
            edges.append((side[i], side[(i + 1) % cluster]))
        for _ in range(6 * cluster):
            a, b = rng.sample(side, 2)
            if (a, b) not in edges and (b, a) not in edges:
                edges.append((a, b))
    payload = [{"channel_id": f"c{i}", "node1_pub": a, "node2_pub": b,
                "capacity": cluster_capacity} for i, (a, b) in enumerate(edges)]
    for i in range(bridges):
        payload.append({"channel_id": f"bridge{i}", "node1_pub": left[i],
                        "node2_pub": right[i], "capacity": bridge_capacity})
    return graph_from_dict({
        "nodes": [{"pub_key": v} for v in left + right], "edges": payload})


def test_criterion_7_budget_efficiency():
    g = _acceptance_barbell()
    budget = 3 * 10  # the three bridge capacities
    params = ae.MetricParams(attempts=400, flow_rounds=25)
    kinds = ("ranked-min-cut", "degree")
    plans = [ae.plan_targets(g, ae.Strategy(
                kind=kind, params={"seed": 0, "cut_samples": 500}
                if kind == "ranked-min-cut" else {"seed": 0}), limit=50)
             for kind in kinds]
    reps = ae.execute_attack(g, plans, [("budget", budget)],
                             metric_params=params, seed=0)
    rerun = ae.execute_attack(g, plans, [("budget", budget)],
                              metric_params=params, seed=0)
    assert reps == rerun  # deterministic given seed
    results = {kind: rep.delta_r for kind, rep in zip(kinds, reps)}
    ok = results["ranked-min-cut"] >= 0.45 and results["degree"] < 0.1
    _verdict(7, "budget efficiency", ok,
             f"min-cut delta_r={results['ranked-min-cut']:.3f} "
             f"degree delta_r={results['degree']:.3f}")


def test_criterion_8_node_isolation_accounting():
    g = graph_from_dict({
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
    cost = ae.isolation_cost(g, "A")
    drained = ae.exhaust_node_channels(g, "A")
    outbound = [drained.edges[c].balance("A") for c in ("ab", "ac", "ad")]
    counterparts = [drained.edges["ab"].balance("B"),
                    drained.edges["ac"].balance("C"),
                    drained.edges["ad"].balance("D")]
    removed, cost2 = ae.isolate_node(g, "A")
    ok = (cost == cost2 == 21 and outbound == [0, 0, 0]
          and counterparts == [10, 12, 16] and "A" not in removed.nodes)
    _verdict(8, "node-isolation accounting", ok,
             f"cost={cost} counterparts={counterparts}")


def test_criterion_9_cli_determinism(tmp_path):
    g = tm.generate_reference("erdos-renyi", 40, 100, seed=3)
    snap = tmp_path / "snap.json"
    snap.write_text(json.dumps(g.to_snapshot_dict()))
    commands = {
        "analyze": ["analyze", "--snapshot", str(snap), "--seed", "5",
                    "--smallworld-runs", "2", "--gof-runs", "100"],
        "attack": ["attack", "--snapshot", str(snap), "--seed", "5",
                   "--strategy", "degree", "--n-sweep", "1:3",
                   "--attempts", "50", "--flow-rounds", "5", "--format", "csv"],
        "robustness": ["robustness", "--snapshot", str(snap), "--seed", "5",
                       "--failures", "2,5", "--reps", "20"],
    }
    ok = True
    for name, argv in commands.items():
        blobs = []
        for run in ("x", "y"):
            out = tmp_path / f"{name}_{run}"
            rc = cli_main(argv + ["--out", str(out)])
            ok &= rc == 0
            if out.is_dir():
                blobs.append({p.name: p.read_bytes() for p in out.iterdir()})
            else:
                blobs.append(out.read_bytes())
        ok &= blobs[0] == blobs[1]
    _verdict(9, "CLI determinism", ok)
