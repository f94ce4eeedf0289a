import importlib.util
import math
import random
import tracemalloc
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pcn_resilience import topology_metrics as tm
from pcn_resilience.attack_engine import Strategy, plan_targets
from pcn_resilience.graph_model import (MAX_SAT, graph_from_dict,
                                        largest_connected_component)

from oracles import (brute_betweenness, brute_transitivity, channels,
                     reference_components, reference_generator_edges,
                     reference_distances, reference_simple_graph,
                     union_find_components)
from test_graph_model import components, make_graph


def parallel_overflow_snapshot():
    """4,400 channels at the supply cap between a and b, whose summed
    capacity passes int64, and one channel b-c of 1,000 sat."""
    edges = [{"channel_id": f"ab{i}", "node1_pub": "a", "node2_pub": "b",
              "capacity": MAX_SAT} for i in range(4400)]
    edges.append({"channel_id": "bc", "node1_pub": "b", "node2_pub": "c",
                  "capacity": 1000})
    return {"nodes": [{"pub_key": v} for v in "abc"], "edges": edges}


def adjacency(g):
    adj = {v: set() for v in g.ids}
    for e in channels(g).values():
        adj[e.a].add(e.b)
        adj[e.b].add(e.a)
    return adj


def random_small_graph(rng, n=None):
    n = n or rng.randint(2, 8)
    nodes = [f"n{i}" for i in range(n)]
    pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]
             if rng.random() < 0.45]
    return make_graph(nodes, pairs)


class TestDegreeDistribution:
    def test_triangle(self):
        g = make_graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
        assert tm.degree_distribution(g) == {2: 3}

    def test_star(self):
        leaves = [f"l{i}" for i in range(5)]
        g = make_graph(["hub"] + leaves, [("hub", l) for l in leaves])
        assert tm.degree_distribution(g) == {5: 1, 1: 5}

    def test_parallel_channels_count(self):
        g = make_graph(["a", "b"], [("a", "b"), ("a", "b")])
        assert tm.degree_distribution(g) == {2: 2}

    def test_ba_graph_matches_recount(self):
        g = tm.generate_reference("barabasi-albert", 200, 400, seed=3)
        dist = tm.degree_distribution(g)
        assert sum(dist.values()) == 200
        recount = {}
        for v in g.ids:
            d = sum(1 for e in channels(g).values() if v in (e.a, e.b))
            recount[d] = recount.get(d, 0) + 1
        assert dist == recount


class TestBetweenness:
    def test_path_middle(self):
        g = make_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        bc = tm.betweenness_centrality(g)
        assert bc["b"] == pytest.approx(1.0)
        assert bc["a"] == bc["c"] == 0.0

    def test_star_center(self):
        leaves = [f"l{i}" for i in range(5)]
        g = make_graph(["hub"] + leaves, [("hub", l) for l in leaves])
        assert tm.betweenness_centrality(g)["hub"] == pytest.approx(1.0)

    def test_zero_sources_is_named(self):
        g = make_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        with pytest.raises(ValueError, match="at least one source"):
            tm.betweenness_centrality(g, sample_sources=0)

    def test_matches_bruteforce_on_small_graphs(self):
        rng = random.Random(11)
        for _ in range(30):
            g = random_small_graph(rng)
            got = tm.betweenness_centrality(g)
            want = brute_betweenness(g.ids, adjacency(g))
            for v in g.ids:
                assert got[v] == pytest.approx(want[v], abs=1e-9)


def same_floats(got, want):
    """Equal dicts in the same key order, values compared with == (NaN
    equal to NaN)."""
    return list(got) == list(want) and all(
        got[v] == want[v] or (math.isnan(got[v]) and math.isnan(want[v]))
        for v in want)


@st.composite
def betweenness_cases(draw):
    """Graphs with isolated nodes, several components and parallel
    channels, with a source count for exact mode or k in {1, 2, n - 1}."""
    nodes = [f"v{i}" for i in draw(st.permutations(range(draw(st.integers(0, 12)))))]
    pairs = []
    if len(nodes) >= 2:
        pair = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)).filter(
            lambda p: p[0] != p[1])
        pairs = draw(st.lists(pair, max_size=30))
    n = len(nodes)
    k = draw(st.sampled_from([None] + [k for k in (1, 2, n - 1) if 1 <= k < n]))
    return make_graph(nodes, pairs), k, draw(st.integers(0, 99))


@settings(max_examples=300, deadline=None)
@given(betweenness_cases())
def test_betweenness_matches_networkx_bit_for_bit(case):
    g, k, seed = case
    got = tm.betweenness_centrality(g, sample_sources=k, seed=seed)
    want = nx.betweenness_centrality(reference_simple_graph(g), k=k, seed=seed)
    assert same_floats(got, want)


@pytest.mark.parametrize("sample_sources", [None, 40])
def test_betweenness_matches_networkx_across_blocks(sample_sources):
    # several source blocks, odd path counts and components of unequal size
    g = tm.generate_reference("erdos-renyi", 150, 220, seed=4)
    got = tm.betweenness_centrality(g, sample_sources=sample_sources, seed=9)
    want = nx.betweenness_centrality(reference_simple_graph(g),
                                     k=sample_sources, seed=9)
    assert same_floats(got, want)


def test_betweenness_matches_networkx_on_levels_past_16_bits():
    # 8,000 spokes on three hubs, with leaves behind them: seen from a block
    # of 16 pivots, the spoke level holds more places than a 16-bit sort key
    # names, and its path counts of 1 to 3 make the sum order matter
    rng = random.Random(3)
    hubs = ["h0", "h1", "h2"]
    spokes = [f"s{i}" for i in range(8000)]
    leaves = [f"l{i}" for i in range(3000)]
    pairs = [(h, v) for v in spokes for h in rng.sample(hubs, rng.randint(1, 3))]
    pairs += [tuple(rng.sample(spokes, 2)) for _ in range(2000)]
    pairs += [(leaf, v) for leaf in leaves
              for v in rng.sample(spokes, rng.randint(1, 2))]
    g = make_graph(hubs + spokes + leaves, pairs)
    got = tm.betweenness_centrality(g, sample_sources=20, seed=1)
    want = nx.betweenness_centrality(reference_simple_graph(g), k=20, seed=1)
    assert same_floats(got, want)


@st.composite
def channel_graphs(draw):
    """Graphs with isolated nodes, several components and parallel
    channels, whose channel ids run in shuffled order and whose summed
    capacities pass int32."""
    nodes = [f"v{i}" for i in draw(st.permutations(range(draw(st.integers(1, 12)))))]
    pairs = []
    if len(nodes) >= 2:
        pair = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)).filter(
            lambda p: p[0] != p[1])
        pairs = draw(st.lists(pair, max_size=30))
    ids = draw(st.permutations(range(len(pairs))))
    caps = draw(st.lists(st.integers(1, 3 * 2**30), min_size=len(pairs),
                         max_size=len(pairs)))
    return graph_from_dict({
        "nodes": [{"pub_key": v} for v in nodes],
        "edges": [{"channel_id": f"c{i}", "node1_pub": a, "node2_pub": b,
                   "capacity": c}
                  for i, (a, b), c in zip(ids, pairs, caps)],
    })


@settings(max_examples=300, deadline=None)
@given(channel_graphs())
def test_simple_view_matches_reference_simple_graph(g):
    # the measures share the view and must leave its order as built
    got, want = tm.transitivity(g), nx.transitivity(reference_simple_graph(g))
    tm.distance_stats(g)
    tm.random_failure_experiment(g, [0], runs=1)
    view = g.simple_graph()
    ref = reference_simple_graph(g)
    assert g.ids == sorted(ref) and [g.ids[i] for i in g.node_order] == list(ref)
    for v in ref:
        row = slice(view.indptr[g.index[v]], view.indptr[g.index[v] + 1])
        assert [g.ids[w] for w in view.indices[row]] == list(ref.adj[v])
        assert view.capacity[row].tolist() == [
            ref[v][w]["capacity"] for w in ref.adj[v]]
    assert type(got) is type(want) and got == want
    assert components(g) == sorted(
        nx.connected_components(ref), key=lambda c: (-len(c), min(c)))


def perfbench_snapshot(*args):
    """`make_snapshot` of the benchmark's graph generator, imported read-only
    from its file."""
    path = Path(__file__).parents[1] / "perfbench" / "snapshot.py"
    spec = importlib.util.spec_from_file_location("perfbench_snapshot", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return graph_from_dict(module.make_snapshot(*args), balance_model="explicit")


def dense_leading_vector(ref, nodes):
    """Eigenvalues and the positive leading eigenvector, by node, of the
    capacity-weighted adjacency of `nodes` in the networkx projection."""
    order = sorted(nodes)
    w, vecs = np.linalg.eigh(nx.to_numpy_array(
        ref.subgraph(order), nodelist=order, weight="capacity"))
    return w, dict(zip(order, np.abs(vecs[:, -1])))


@st.composite
def bipartite_graphs(draw):
    """A star or an even ring, with random capacities: the spectrum of each
    is symmetric, so its leading eigenvalue has a negative twin."""
    k = draw(st.integers(1, 6))
    if draw(st.booleans()):
        nodes = ["hub"] + [f"l{i}" for i in range(k)]
        pairs = [("hub", leaf) for leaf in nodes[1:]]
    else:
        nodes = [f"r{i}" for i in range(2 * k + 2)]
        pairs = list(zip(nodes, nodes[1:] + nodes[:1]))
    caps = draw(st.lists(st.integers(1, 10**9), min_size=len(pairs),
                         max_size=len(pairs)))
    return graph_from_dict({
        "nodes": [{"pub_key": v} for v in nodes],
        "edges": [{"channel_id": f"c{i}", "node1_pub": a, "node2_pub": b,
                   "capacity": c} for i, ((a, b), c) in enumerate(zip(pairs, caps))],
    })


@settings(max_examples=300, deadline=None)
@given(st.one_of(channel_graphs(), bipartite_graphs()))
def test_eigenvector_matches_dense_eigensolver(g):
    # one-node, two-node, disconnected, parallel-channel and bipartite graphs
    ref = reference_simple_graph(g)
    largest = min(nx.connected_components(ref), key=lambda c: (-len(c), min(c)))
    w, want = dense_leading_vector(ref, largest)
    if len(w) > 1:
        assume(w[-1] - w[-2] >= 1e-3 * w[-1])
    got = tm.eigenvector_centrality(g)
    assert sorted(got) == sorted(largest)
    assert math.isclose(sum(x * x for x in got.values()), 1, rel_tol=1e-9)
    for v, x in got.items():
        assert x == pytest.approx(want[v], abs=1e-6)


class TestEigenvector:
    def test_ring_symmetry(self):
        nodes = [f"n{i}" for i in range(6)]
        pairs = [(nodes[i], nodes[(i + 1) % 6]) for i in range(6)]
        ev = tm.eigenvector_centrality(make_graph(nodes, pairs))
        vals = list(ev.values())
        assert max(vals) - min(vals) < 1e-6

    def test_two_nodes(self):
        g = make_graph(["a", "b"], [("a", "b")])
        ev = tm.eigenvector_centrality(g)
        assert ev["a"] == pytest.approx(1 / math.sqrt(2), abs=1e-6)
        assert ev["b"] == pytest.approx(1 / math.sqrt(2), abs=1e-6)

    def test_parallel_capacities_past_int64(self):
        # the a-b pair sums to 9.2e18 sat: a wrapped int64 sum made a
        # negative weight and scored a = -0.707
        ev = tm.eigenvector_centrality(graph_from_dict(parallel_overflow_snapshot()))
        assert min(ev.values()) > 0
        assert ev["a"] == pytest.approx(ev["b"], rel=1e-9)

    def test_weighted_matches_dense_eigensolver(self):
        g = graph_from_dict({
            "nodes": [{"pub_key": k} for k in "abcd"],
            "edges": [
                {"channel_id": "c0", "node1_pub": "a", "node2_pub": "b", "capacity": 5},
                {"channel_id": "c1", "node1_pub": "b", "node2_pub": "c", "capacity": 2},
                {"channel_id": "c2", "node1_pub": "c", "node2_pub": "d", "capacity": 7},
                {"channel_id": "c3", "node1_pub": "d", "node2_pub": "a", "capacity": 3},
            ],
        })
        got = tm.eigenvector_centrality(g)
        order = g.ids
        idx = {v: i for i, v in enumerate(order)}
        adj = np.zeros((4, 4))
        for e in channels(g).values():
            adj[idx[e.a], idx[e.b]] = e.capacity
            adj[idx[e.b], idx[e.a]] = e.capacity
        w, vecs = np.linalg.eigh(adj)
        lead = np.abs(vecs[:, np.argmax(w)])
        for v in order:
            assert got[v] == pytest.approx(lead[idx[v]], abs=1e-6)

    def test_nonconvergence_reports_iterations(self, monkeypatch):
        # on a path of three nodes ones/√n is no eigenvector: one step is
        # not enough
        g = make_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        monkeypatch.setattr(tm, "LANCZOS_STEPS", 1)
        with pytest.raises(tm.ConvergenceError) as err:
            tm.eigenvector_centrality(g)
        assert str(err.value) == (
            "eigenvector centrality did not converge within 1 Lanczos steps")

    def test_snapshot_with_a_one_percent_gap(self):
        # the leading eigenvalues of make_snapshot(500, 3, 159) lie 1% apart:
        # a power iteration of (A / max + I) did not converge in 1,000 steps
        g = perfbench_snapshot(500, 3, 159)
        ref = reference_simple_graph(g)
        w, want = dense_leading_vector(ref, max(nx.connected_components(ref), key=len))
        assert (w[-1] - w[-2]) / w[-1] < 0.011
        got = tm.eigenvector_centrality(g)
        assert sorted(got) == sorted(want)
        for v, x in got.items():
            assert x == pytest.approx(want[v], abs=1e-8)
        plan = plan_targets(g, Strategy("eigenvector"), limit=50)
        assert plan == sorted(
            want, key=lambda v: -want[v])[:50]

    def test_peak_memory_below_a_quarter_of_the_dense_matrix(self):
        g = tm.generate_reference("erdos-renyi", 2000, 6000, seed=0)
        g.simple_graph()
        tracemalloc.start()
        try:
            tm.eigenvector_centrality(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * g.node_count ** 2 / 4


class TestTransitivity:
    def test_triangle(self):
        g = make_graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
        assert tm.transitivity(g) == pytest.approx(1.0)

    def test_star_is_zero(self):
        leaves = [f"l{i}" for i in range(4)]
        g = make_graph(["hub"] + leaves, [("hub", l) for l in leaves])
        assert tm.transitivity(g) == 0.0

    def test_matches_triple_loop(self):
        rng = random.Random(5)
        for _ in range(10):
            g = random_small_graph(rng, n=12)
            assert tm.transitivity(g) == pytest.approx(
                brute_transitivity(g.ids, adjacency(g)), abs=1e-12)

    @pytest.mark.parametrize("kind, edges", [("erdos-renyi", 900),
                                             ("barabasi-albert", 450)])
    def test_matches_networkx_exactly(self, kind, edges):
        g = tm.generate_reference(kind, 150, edges, seed=3)
        assert tm.transitivity(g) == nx.transitivity(reference_simple_graph(g))

    def test_relabel_invariance(self):
        rng = random.Random(9)
        g = random_small_graph(rng, n=8)
        mapping = {v: f"x{ord(v[1])}" for v in g.ids}
        relabeled = make_graph(
            [mapping[v] for v in g.ids],
            [(mapping[e.a], mapping[e.b]) for e in channels(g).values()])
        assert tm.transitivity(g) == pytest.approx(tm.transitivity(relabeled))


class TestDistances:
    def test_path_of_four(self):
        g = make_graph(list("abcd"), [("a", "b"), ("b", "c"), ("c", "d")])
        diameter, avg = tm.distance_stats(g)
        assert diameter == 3
        assert avg == pytest.approx(10 / 6)

    def test_complete_k5(self):
        nodes = list("abcde")
        pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]
        assert tm.distance_stats(make_graph(nodes, pairs)) == (1, 1.0)

    def test_single_node(self):
        g = graph_from_dict({"nodes": [{"pub_key": "a"}], "edges": []})
        assert tm.distance_stats(g) == (0, 0.0)

    def test_avg_bounded_by_diameter(self):
        rng = random.Random(2)
        for _ in range(10):
            g = largest_connected_component(random_small_graph(rng))
            if g.node_count < 2:
                continue
            diameter, avg = tm.distance_stats(g)
            assert 1 <= avg <= diameter <= g.node_count - 1


    def test_peak_memory_below_one_byte_per_pair(self):
        g = tm.generate_reference("erdos-renyi", 3000, 9000, seed=0)
        g.simple_graph()
        tracemalloc.start()
        try:
            tm.distance_stats(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < g.node_count ** 2


@st.composite
def split_graphs(draw):
    """Two groups of nodes whose channels, a parallel pair among them, stay
    inside their group, plus an isolated node; channel ids are shuffled."""
    groups = [[f"{name}{i}" for i in range(draw(st.integers(2, 9)))]
              for name in "pq"]
    pairs = []
    for group in groups:
        pair = st.tuples(st.sampled_from(group), st.sampled_from(group)).filter(
            lambda p: p[0] != p[1])
        pairs += draw(st.lists(pair, min_size=1, max_size=20))
    pairs.append(pairs[0])
    pairs = draw(st.permutations(pairs))
    return make_graph(groups[0] + groups[1] + ["z"], pairs)


@settings(max_examples=300, deadline=None)
@given(split_graphs())
def test_distance_stats_matches_reference_bfs(g):
    assert len(components(g)) >= 3
    assert tm.distance_stats(g) == reference_distances(g)


@pytest.mark.parametrize("block", [1, 63, 64, 65, None])
@pytest.mark.parametrize("n, seed", [(100, 0), (190, 1), (300, 2)])
def test_distance_stats_matches_reference_across_words(n, seed, block):
    # about one channel per node leaves a giant component, small ones and
    # isolated nodes, and "v7x" is an isolated node mid-order. A path of "w"
    # nodes then brings the linked nodes to 64q + block: the last 64-source
    # block holds 1, 63 or 64 sources, or with 65 one source after one more
    # full block. None keeps the linked nodes as the channels fall.
    rng = random.Random(seed)
    nodes = [f"v{i}" for i in range(n)]
    pairs = [tuple(rng.sample(nodes, 2)) for _ in range(n)]
    if block is not None:
        linked = len({v for pair in pairs for v in pair})
        # the smallest 64q past linked + 1, so that the path has a channel
        want_linked = 64 * -(-(linked + 2) // 64) + block
        path = [f"w{i}" for i in range(want_linked - linked)]
        nodes += path
        pairs += list(zip(path, path[1:]))
    g = make_graph(nodes + ["v7x"], pairs)
    if block is not None:
        degree = np.diff(g.simple_graph().indptr)
        assert np.count_nonzero(degree) == want_linked
    assert tm.distance_stats(g) == reference_distances(g)


class TestCentralPointDominance:
    def test_star(self):
        leaves = [f"l{i}" for i in range(5)]
        g = make_graph(["hub"] + leaves, [("hub", l) for l in leaves])
        assert tm.central_point_dominance(g) == pytest.approx(1.0)

    def test_cycle_all_equal(self):
        nodes = [f"n{i}" for i in range(6)]
        g = make_graph(nodes, [(nodes[i], nodes[(i + 1) % 6]) for i in range(6)])
        bc = tm.betweenness_centrality(g)
        want = brute_betweenness(g.ids, adjacency(g))
        assert max(bc.values()) - min(bc.values()) < 1e-12
        assert tm.central_point_dominance(g) == pytest.approx(max(want.values()))

    def test_one_pivot_is_an_error_not_nan(self):
        # one pivot leaves its own normalized betweenness NaN
        g = tm.generate_reference("barabasi-albert", 40, 80, seed=2)
        assert any(math.isnan(x) for x in tm.betweenness_centrality(
            g, sample_sources=1).values())
        with pytest.raises(ValueError, match="undefined"):
            tm.central_point_dominance(g, sample_sources=1)


class TestGenerateReference:
    def test_er_exact_edge_count(self):
        g = tm.generate_reference("erdos-renyi", 2400, 13941, seed=0)
        assert g.node_count == 2400
        assert g.edge_count == 13941

    def test_ba_edge_count(self):
        g = tm.generate_reference("barabasi-albert", 2400, 11975, seed=0)
        assert g.node_count == 2400
        assert abs(g.edge_count - 11975) < 200

    def test_determinism(self):
        a = tm.generate_reference("erdos-renyi", 100, 300, seed=7)
        b = tm.generate_reference("erdos-renyi", 100, 300, seed=7)
        assert sorted((e.a, e.b) for e in channels(a).values()) == \
               sorted((e.a, e.b) for e in channels(b).values())

    def test_infeasible(self):
        with pytest.raises(ValueError):
            tm.generate_reference("erdos-renyi", 4, 100, seed=0)
        with pytest.raises(ValueError):
            tm.generate_reference("banana", 10, 20, seed=0)

    @pytest.mark.parametrize("kind", ["erdos-renyi", "barabasi-albert"])
    def test_negative_edge_count_is_named(self, kind):
        # unchecked, erdos-renyi -1 draws 12 edges and barabasi-albert -5 runs as m = 1
        for edges in (-1, -5):
            with pytest.raises(ValueError, match=(
                    f"^the {kind} reference graph needs a non-negative edge "
                    f"count, not {edges}$")):
                tm.generate_reference(kind, 10, edges, seed=0)

    def test_zero_edges_keeps_its_meaning(self):
        assert tm.generate_reference("erdos-renyi", 10, 0, seed=0).edge_count == 0
        # barabasi-albert attaches by at least one edge: a star, then 8 more
        assert tm.generate_reference("barabasi-albert", 10, 0,
                                     seed=0).edge_count == 9


def reference_cases():
    """(kind, n, target_edges) on a grid, with n = 2, the complete graph
    (no random draw), barabasi-albert with m = n - 1, and powers of two,
    whose draws take one bit more than n - 1 needs."""
    for n in (2, 3, 5, 12, 40, 64, 150, 256):
        complete = n * (n - 1) // 2
        for edges in sorted({0, 1, n, 3 * n, complete - 1, complete}):
            if 0 <= edges <= complete:
                yield "erdos-renyi", n, edges
        for m in sorted({1, 2, 3, n - 1}):
            if 1 <= m < n:
                yield "barabasi-albert", n, m * n


@pytest.mark.parametrize("kind, n, target_edges", list(reference_cases()))
@pytest.mark.parametrize("seed", [0, 1, 29])
def test_generate_reference_matches_networkx(kind, n, target_edges, seed):
    g = tm.generate_reference(kind, n, target_edges, seed)
    m = target_edges if kind == "erdos-renyi" else max(1, round(target_edges / n))
    # channels in record order join node ints (u, v), u < v, of sorted edges
    label = [int(v[1:]) for v in g.ids]
    assert [(label[a], label[b]) for a, b in g.ends.tolist()] == \
        reference_generator_edges(kind, n, m, seed)
    assert g.channel_ids.tolist() == [f"ref{i}" for i in range(g.edge_count)]
    assert g.ids == sorted(f"n{i}" for i in range(n))


class TestSmallWorld:
    def test_er_against_itself_is_near_one(self):
        g = tm.generate_reference("erdos-renyi", 600, 3600, seed=4)
        lcc = largest_connected_component(g)
        s, gamma, lam = tm.smallworld_coefficient(
            lcc, tm.distance_stats(lcc)[1], reference_runs=3, seed=9)
        assert 0.5 < s < 2.0
        assert s == pytest.approx(gamma / lam)

    def test_watts_strogatz_like_is_large(self):
        import networkx as nx
        ws = nx.watts_strogatz_graph(1000, 10, 0.1, seed=5)
        g = make_graph([f"n{i}" for i in ws.nodes()],
                       [(f"n{u}", f"n{v}") for u, v in ws.edges()])
        lcc = largest_connected_component(g)
        s, *_ = tm.smallworld_coefficient(
            lcc, tm.distance_stats(lcc)[1], reference_runs=3, seed=1)
        assert s > 5

    @pytest.mark.parametrize("runs", [0, -2])
    def test_no_reference_run_is_named(self, runs):
        # an average over no run would divide by zero
        lcc = largest_connected_component(
            tm.generate_reference("erdos-renyi", 60, 180, seed=4))
        with pytest.raises(ValueError, match=(
                "^the small-world coefficient needs reference_runs >= 1, "
                f"not {runs}$")):
            tm.smallworld_coefficient(lcc, 2.5, runs, seed=0)

    def test_negative_smallworld_runs_are_named(self):
        # zero runs leave the coefficient out; a negative count is refused
        g = tm.generate_reference("erdos-renyi", 60, 180, seed=1)
        assert tm.metric_report(g, smallworld_runs=0).smallworld_S is None
        with pytest.raises(ValueError, match=(
                "^the small-world coefficient needs smallworld_runs >= 0, "
                "not -3$")):
            tm.metric_report(g, smallworld_runs=-3)

    def test_identity_s_lambda_gamma(self):
        s, gamma, lam = tm.smallworld_from_measures(0.085, 2.92, 0.005, 3.45)
        assert s * lam == pytest.approx(gamma)


class TestRandomFailures:
    def test_complete_graph_never_splits(self):
        nodes = [f"n{i}" for i in range(10)]
        pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]
        g = make_graph(nodes, pairs)
        result = tm.random_failure_experiment(g, [1, 4, 8], runs=20, seed=0)
        assert all(v == 1.0 for v in result.values())

    def test_zero_runs_is_named(self):
        g = make_graph(["a", "b"], [("a", "b")])
        with pytest.raises(ValueError, match="at least one run"):
            tm.random_failure_experiment(g, [1], runs=0, seed=0)

    def test_failure_count_too_large(self):
        g = make_graph(["a", "b"], [("a", "b")])
        with pytest.raises(ValueError):
            tm.random_failure_experiment(g, [2], runs=5, seed=0)

    def test_negative_failure_count_is_named_before_any_draw(self, monkeypatch):
        g = tm.generate_reference("erdos-renyi", 60, 180, seed=1)
        monkeypatch.setattr(random.Random, "sample", None)  # a draw fails
        with pytest.raises(ValueError, match="^failure count -2 is negative$"):
            tm.random_failure_experiment(g, [3, -2], runs=2)

    def test_matches_union_find_recount(self):
        g = tm.generate_reference("erdos-renyi", 60, 100, seed=13)
        ours = tm.random_failure_experiment(g, [5], runs=30, seed=3)[5]
        rng = random.Random(3)
        total = 0
        for _ in range(30):
            removed = set(rng.sample(g.ids, 5))
            rest = set(g.ids) - removed
            edges = [(e.a, e.b) for e in channels(g).values()
                     if e.a in rest and e.b in rest]
            total += len(union_find_components(rest, edges))
        assert ours == pytest.approx(total / 30)


@st.composite
def failure_cases(draw):
    """Graphs with isolated nodes and parallel channels, or paths whose
    node ids run in shuffled order, with failure counts 0, n - 1 and one
    drawn between them."""
    n = draw(st.integers(1, 14))
    nodes = [f"v{i}" for i in draw(st.permutations(range(n)))]
    if draw(st.booleans()):
        pairs = list(zip(nodes, nodes[1:]))
    else:
        pair = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)).filter(
            lambda p: p[0] != p[1])
        pairs = draw(st.lists(pair, max_size=30)) if n > 1 else []
    failures = sorted({0, n - 1, draw(st.integers(0, n - 1))})
    return make_graph(nodes, pairs), failures, draw(st.integers(0, 99))


def reference_failures(g, failures, runs, seed):
    """`random_failure_experiment` from the same draws, by BFS components."""
    rng, ids = random.Random(seed), g.ids
    edges = [(e.a, e.b) for e in channels(g).values()]
    result = {}
    for k in failures:
        total = 0
        for _ in range(runs):
            rest = set(ids) - set(rng.sample(ids, k))
            total += len(reference_components(
                rest, [(a, b) for a, b in edges if a in rest and b in rest]))
        result[k] = total / runs
    return result


@settings(max_examples=300, deadline=None)
@given(failure_cases())
def test_components_match_reference_components(case):
    g, failures, seed = case
    edges = [(e.a, e.b) for e in channels(g).values()]
    assert components(g) == reference_components(g.ids, edges)
    assert (tm.random_failure_experiment(g, failures, runs=3, seed=seed)
            == reference_failures(g, failures, 3, seed))


def test_components_of_long_permuted_paths():
    # ids in shuffled order along two long paths take many hooking rounds
    rng = random.Random(5)
    ids = [f"v{i}" for i in range(6000)]
    rng.shuffle(ids)
    g = make_graph(ids, list(zip(ids[:3999], ids[1:4000]))
                   + list(zip(ids[4000:-1], ids[4001:])))
    edges = [(e.a, e.b) for e in channels(g).values()]
    assert components(g) == reference_components(g.ids, edges)
    assert (tm.random_failure_experiment(g, [0, 10, 5999], runs=2, seed=1)
            == reference_failures(g, [0, 10, 5999], 2, 1))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_betweenness_property_small_graphs(seed):
    rng = random.Random(seed)
    g = random_small_graph(rng)
    got = tm.betweenness_centrality(g)
    want = brute_betweenness(g.ids, adjacency(g))
    for v in g.ids:
        assert got[v] == pytest.approx(want[v], abs=1e-9)
