"""Graph measures used to classify the network (distances, centrality,
clustering, small-world coefficient) plus reference random graphs.

Every measure here, the eigenvector included, reads the arcs of the
`SimpleView` (`PcnGraph.simple_graph()`), the undirected simple projection
with parallel channels collapsed and their capacities summed; none builds
an n × n matrix. The reference graphs replay networkx's generators.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, replace
from itertools import compress

import numpy as np

from .graph_model import (DEFAULT_BASE_FEE_MSAT, DEFAULT_RATE_PPM, PcnGraph,
                          _ranges, _seed_value, component_labels, graph_of_set,
                          largest_component, largest_connected_component)


class ConvergenceError(Exception):
    """Iterative computation failed to converge."""


@dataclass
class MetricReport:
    node_count: int
    edge_count: int
    diameter: int
    avg_distance: float
    clustering: float
    central_point_dominance: float
    smallworld_S: float | None = None
    gamma: float | None = None
    lambda_: float | None = None


def degree_distribution(g: PcnGraph) -> dict[int, int]:
    """Map degree -> node count. Parallel channels each count."""
    return dict(Counter(g.degrees().values()))


# Sources per Brandes block: a block runs its BFS levels together on flat
# (source, node) arrays. 16 measured fastest at 500 nodes.
BETWEENNESS_BLOCK = 16


def betweenness_centrality(g: PcnGraph, sample_sources: int | None = None,
                           seed: int = 0) -> dict[str, float]:
    """Normalized shortest-path betweenness on the simple projection.

    `sample_sources` switches to pivot sampling for large graphs; exact
    (all sources) when None. Brandes' algorithm, run over blocks of
    sources, that reproduces `networkx.betweenness_centrality` on the
    networkx form of the projection bit for bit: sources, pivots and the
    result in its node order (`PcnGraph.node_order`), neighbours in its
    adjacency order, and every floating-point sum taken in the same order.
    """
    if sample_sources is not None and sample_sources < 1:
        raise ValueError(f"betweenness needs at least one source, not {sample_sources}")
    view = g.simple_graph()
    n = g.node_count
    sampled = sample_sources is not None and sample_sources < n
    sources = g.node_order[random.Random(_seed_value(seed)).sample(
        range(n), sample_sources)] if sampled else g.node_order
    total = np.zeros(n)
    for lo in range(0, len(sources), BETWEENNESS_BLOCK):
        block = sources[lo:lo + BETWEENNESS_BLOCK]
        for row in _dependencies(view.indptr, view.indices, block):
            total += row
    if n > 2:
        total *= _betweenness_scale(n, sources if sampled else None)
    values = total.tolist()
    return {g.ids[i]: values[i] for i in g.node_order.tolist()}


def _dependencies(indptr: np.ndarray, indices: np.ndarray,
                  sources: np.ndarray) -> np.ndarray:
    """Brandes dependencies of every node on each source, one row per
    source, with a source's own entry 0.

    A block of sources is searched level by level at once; index
    ``b * n + v`` is node v as seen from the b-th source. Each level is
    discovered in networkx's BFS order (frontier order, then adjacency
    order), and ``pos`` is a node's place in its level. Path counts are
    sums of integers, exact in any order. The dependency of v sums its
    successors' terms by a bincount over the pairs sorted by the
    successor's place, last first: the order networkx pops its stack in.
    """
    n = len(indptr) - 1
    size = len(sources) * n  # every b * n + v is below it, inside int64
    degree = np.diff(indptr)
    seen = np.zeros(size, dtype=bool)
    first = np.full(size, np.iinfo(np.int64).max)
    pos = np.zeros(size, dtype=np.int64)
    sigma = np.zeros(size)
    delta = np.zeros(size)
    frontier = np.arange(len(sources)) * n + sources
    seen[frontier] = True
    pos[frontier] = np.arange(len(sources))
    sigma[frontier] = 1.0
    levels = []
    while frontier.size:
        node = frontier % n
        counts = degree[node]
        v = np.repeat(frontier, counts)
        # the neighbours of each frontier node, in adjacency order
        w = v - np.repeat(node, counts) + indices[_ranges(indptr[node], counts)]
        # an end not seen before this level is in the next: a shortest-path arc
        unseen = ~seen[w]
        v, w = v[unseen], w[unseen]
        seen_at = np.arange(w.size)
        np.minimum.at(first, w, seen_at)
        nxt = w[first[w] == seen_at]
        seen[nxt] = True
        pos[nxt] = np.arange(nxt.size)
        sigma[nxt] = np.bincount(pos[w], weights=sigma[v], minlength=nxt.size)
        levels.append((frontier, nxt, v, w))
        frontier = nxt
    for cur, nxt, v, w in reversed(levels):
        coeff = (1.0 + delta[nxt]) / sigma[nxt]
        wpos = pos[w]
        # the narrowest key type (numpy radix-sorts 8- and 16-bit keys);
        # pairs of one w may come in any order
        key = wpos.astype(np.min_scalar_type(nxt.size))
        order = np.argsort(key, kind="stable")[::-1]
        v, wpos = v[order], wpos[order]
        delta[cur] = np.bincount(pos[v], weights=sigma[v] * coeff[wpos],
                                 minlength=cur.size)
    delta[np.arange(len(sources)) * n + sources] = 0.0
    return delta.reshape(len(sources), n)


def _betweenness_scale(n: int, pivots: np.ndarray | None):
    """networkx 3.6's normalized `_rescale` for undirected node
    betweenness without endpoints, on n > 2 nodes from all sources or from
    `pivots`."""
    targets = n - 1
    if pivots is None:
        return 1 / (targets * (targets - 1))
    # a pivot is never its own target; NaN when k = 1 leaves no pairs
    k = len(pivots)
    scale = np.full(n, 1 / (k * (targets - 1)))
    scale[pivots] = 1 / ((k - 1) * (targets - 1)) if k > 1 else math.nan
    return scale


LANCZOS_STEPS = 300  # step cap; snapshots of 500 to 15,000 nodes need 23–40


def eigenvector_centrality(g: PcnGraph) -> dict[str, float]:
    """Leading eigenvector, positive with unit norm, of the capacity-weighted
    adjacency of the largest component: Lanczos over the `SimpleView` arcs
    from ones/√n on the component with full reorthogonalisation, until the
    top Ritz pair's residual β·|s| is ≤ 1e-10 of its value."""
    if not g.ids:
        raise ValueError("eigenvector centrality of an empty graph")
    # a start on one component keeps the whole Krylov space on it
    view, alive, n = g.simple_graph(), largest_component(g), g.node_count
    basis = np.empty((min(int(alive.sum()), LANCZOS_STEPS) + 1, n))
    basis[0] = alive / math.sqrt(alive.sum())
    tri = np.zeros((len(basis), len(basis)))  # the Lanczos tridiagonal
    for k in range(len(basis) - 1):
        w = np.bincount(view.rows, view.capacity * basis[k][view.indices], n)
        tri[k, k] = basis[k] @ w
        for _ in range(2):  # not in place: a graph without arcs gives int zeros
            w = w - basis[:k + 1].T @ (basis[:k + 1] @ w)
        tri[k, k + 1] = tri[k + 1, k] = beta = np.linalg.norm(w)
        theta, s = np.linalg.eigh(tri[:k + 1, :k + 1])
        if beta * abs(s[-1, -1]) <= 1e-10 * theta[-1]:
            x = basis[:k + 1].T @ s[:, -1]
            x /= math.copysign(np.linalg.norm(x), x.sum())
            return dict(zip(compress(g.ids, alive), x[alive].tolist()))
        basis[k + 1] = w / beta
    raise ConvergenceError(
        f"eigenvector centrality did not converge within {LANCZOS_STEPS} "
        "Lanczos steps")


def transitivity(g: PcnGraph) -> float:
    """3 * triangles / length-2 paths on the simple projection: the integer
    ratio trace(A³) / Σ d(d − 1), or the integer 0 without a triangle, as
    `networkx.transitivity` gives it; 0.0 for a graph without nodes.

    trace(A³) is six times the triangle count. Each neighbour pair is
    oriented from the endpoint of lower (degree, node) rank, so a node has
    few out-neighbours; a triangle is the one out-pair of its lowest node
    whose two ends are neighbours, looked up among the view's pair keys."""
    view = g.simple_graph()
    n = g.node_count
    if not n:
        return 0.0
    degree = np.diff(view.indptr)
    rank = np.empty(n, dtype=np.int64)
    rank[np.lexsort((np.arange(n), degree))] = np.arange(n)
    out = rank[view.rows] < rank[view.indices]
    head, tail = view.rows[out], view.indices[out]  # grouped by head, as rows are
    # pair each out-arc with the out-arcs after it in its head's row
    later = np.searchsorted(head, head, side="right") - np.arange(len(head)) - 1
    a = tail[np.repeat(np.arange(len(head)), later)]
    b = tail[_ranges(np.arange(1, len(head) + 1), later)]
    keys, query = view.keys, np.minimum(a, b)  # the two tails' pair key, in place
    query *= n
    query += np.maximum(a, b, out=a)
    at = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
    closed = 6 * int(np.count_nonzero(keys[at] == query))
    if closed == 0:
        return 0
    # Σ d(d − 1) <= n^3: inside int64 up to 2 million nodes
    return closed / int((degree * (degree - 1)).sum())


def distance_stats(g: PcnGraph) -> tuple[int, float]:
    """(diameter, average distance) over the ordered pairs of distinct
    nodes joined by a path, or (0, 0.0) without one: an exact BFS from
    every node, 64 sources at a time, bit-parallel (Then et al., "The More
    the Merrier", VLDB 2014). Each node holds one uint64 word, whose bit b
    marks the block's b-th source; a level ORs the frontier words of each
    node's neighbours together and keeps the bits not seen before, and
    their popcount is the number of pairs at that distance. Nodes without
    a neighbour are left out: they reach no node and none reaches them.
    The Python-int sum of distances is exact."""
    view = g.simple_graph()
    linked = view.indptr[1:] > view.indptr[:-1]
    n = int(np.count_nonzero(linked))
    row_starts = view.indptr[:-1][linked]
    neighbours = (np.cumsum(linked) - 1)[view.indices]  # renumbered
    diameter, total, pairs = 0, 0, 0
    for lo in range(0, n, 64):
        b = np.arange(min(64, n - lo))
        seen = np.zeros(n, dtype=np.uint64)
        seen[lo + b] = np.uint64(1) << b.astype(np.uint64)
        frontier = seen
        level = 0
        while True:
            frontier = np.bitwise_or.reduceat(frontier[neighbours], row_starts)
            frontier &= ~seen
            count = int(np.bitwise_count(frontier).sum())
            if not count:
                break
            level += 1
            total += level * count
            pairs += count
            seen |= frontier
        diameter = max(diameter, level)
    return diameter, total / pairs if pairs else 0.0


def central_point_dominance(g: PcnGraph, sample_sources: int | None = None,
                            seed: int = 0) -> float:
    """Maximum normalized betweenness over all nodes."""
    # one pivot leaves its own score NaN, and a max over a NaN is arbitrary
    if sample_sources == 1:
        raise ValueError("central point dominance needs at least two betweenness "
                         "sources, not 1: one leaves its own score undefined")
    return max(betweenness_centrality(g, sample_sources=sample_sources,
                                      seed=seed).values(), default=0.0)


def generate_reference(kind: str, n: int, target_edges: int, seed: int) -> PcnGraph:
    """Reference random graph with unit capacities.

    erdos-renyi: G(n, M) with exactly target_edges edges.
    barabasi-albert: attachment parameter m = round(target_edges / n); the
    resulting edge count is whatever preferential attachment produces.
    The graphs are those of networkx 3.6's `gnm_random_graph` and
    `barabasi_albert_graph`: the helpers below replay their random streams,
    making the same `random.Random(seed).choice` calls.
    """
    name = f"the {kind} reference graph"
    if n < 2:
        raise ValueError(f"{name} needs at least 2 nodes, not {n}")
    if target_edges < 0:
        raise ValueError(f"{name} needs a non-negative edge count, not {target_edges}")
    if kind == "erdos-renyi":
        if target_edges > n * (n - 1) // 2:
            raise ValueError(f"{name} on {n} nodes holds at most "
                             f"{n * (n - 1) // 2} edges, not {target_edges}")
        edges = _gnm_edges(n, target_edges, seed)
    elif kind == "barabasi-albert":
        m = max(1, round(target_edges / n))
        if m >= n:
            raise ValueError(f"{name} on {n} nodes attaches each new node "
                             f"by at most {n - 1} edges, not {m}")
        edges = _barabasi_albert_edges(n, m, seed)
    else:
        raise ValueError(f"unknown reference kind {kind!r}")

    g = graph_of_set({f"n{i}" for i in range(n)})
    node = np.array([g.index[f"n{i}"] for i in range(n)], dtype=np.int64)
    ends = node[edges]
    m = len(ends)
    return replace(g, channel_ids=np.array([f"ref{i}" for i in range(m)], dtype=object),
                   ends=ends, capacity=np.ones(m, dtype=np.int64),
                   balance=np.ones((m, 2), dtype=np.int64),
                   base_fee=np.full((m, 2), DEFAULT_BASE_FEE_MSAT),
                   fee_rate=np.full((m, 2), DEFAULT_RATE_PPM))


def _gnm_edges(n: int, m: int, seed: int) -> np.ndarray:
    """Edges (u, v), u < v, of `networkx.gnm_random_graph(n, m, seed)` as
    sorted (m, 2) rows.

    networkx draws u and v by `rng.choice(range(n))` and keeps the first m
    distinct pairs with u != v. A choice is CPython's `_randbelow`: the next
    32-bit Mersenne-Twister word shifted down to n.bit_length() bits, drawn
    again while it is >= n. `getrandbits(32 * k)` returns the next k words,
    the first in the lowest bits, so the words are read in bulk, batch after
    batch until enough pairs survive; words drawn past them are unused."""
    rng, shift = random.Random(_seed_value(seed)), 32 - n.bit_length()
    if m >= n * (n - 1) / 2:
        return np.column_stack(np.triu_indices(n, 1))
    drawn, batch = np.zeros(0, dtype=np.int64), 4 * m + 64
    while True:
        words = np.frombuffer(rng.getrandbits(32 * batch).to_bytes(
            4 * batch, "little"), dtype="<u4") >> shift
        drawn = np.concatenate((drawn, words[words < n]))
        u, v = drawn[:len(drawn) - 1:2], drawn[1::2]
        keys = np.minimum(u, v) * n + np.maximum(u, v)  # below n^2
        keys, first = np.unique(keys[u != v], return_index=True)
        if len(keys) >= m:
            keys = np.sort(keys[np.argsort(first)[:m]])
            return np.column_stack((keys // n, keys % n))
        batch *= 2


def _barabasi_albert_edges(n: int, m: int, seed: int) -> np.ndarray:
    """Edges (u, v), u < v, of `networkx.barabasi_albert_graph(n, m, seed)`
    as sorted rows: a star on 0..m, then each new node joins m distinct
    targets drawn from the list of edge endpoints, extended in the target
    set's order."""
    rng, edges = random.Random(_seed_value(seed)), [(0, v) for v in range(1, m + 1)]
    repeated = [0] * m + list(range(1, m + 1))
    for source in range(m + 1, n):
        targets = set()
        while len(targets) < m:
            targets.add(rng.choice(repeated))
        edges += [(t, source) for t in targets]
        repeated += [*targets] + [source] * m
    return np.array(sorted(edges), dtype=np.int64)


def smallworld_coefficient(lcc: PcnGraph, l_g: float, reference_runs: int,
                           seed: int):
    """(S, gamma, lambda) of a largest component with mean distance l_g
    against size-matched ER references: gamma = C_g/C_r and lambda =
    L_g/L_r, with C_r and L_r averaged over `reference_runs` graphs."""
    n = lcc.node_count
    if reference_runs < 1:
        raise ValueError("the small-world coefficient needs reference_runs "
                         f">= 1, not {reference_runs}")
    if n < 2:
        raise ValueError("the small-world coefficient needs a largest component "
                         f"of at least 2 nodes; it has {n}")
    m = len(lcc.simple_graph().keys)
    c_rs, l_rs = [], []
    for i in range(reference_runs):
        ref = generate_reference("erdos-renyi", n, m, seed=seed + i)
        c_rs.append(transitivity(ref))
        l_rs.append(distance_stats(largest_connected_component(ref))[1])
    c_r = sum(c_rs) / len(c_rs)
    l_r = sum(l_rs) / len(l_rs)
    if c_r == 0:
        raise ValueError(
            "reference clustering is zero across all runs; "
            "use a larger graph or more reference runs")
    return smallworld_from_measures(transitivity(lcc), l_g, c_r, l_r)


def smallworld_from_measures(c_g: float, l_g: float, c_r: float, l_r: float):
    """(S, gamma, lambda) from clustering coefficients and mean path lengths."""
    gamma = c_g / c_r
    lam = l_g / l_r
    return gamma / lam, gamma, lam


def random_failure_experiment(g: PcnGraph, failures: list[int], runs: int = 100,
                              seed: int = 0) -> dict[int, float]:
    """Mean connected-component count after removing k random nodes, for
    each k in `failures`, averaged over `runs` repetitions. The removed
    nodes of a run are `random.Random(seed).sample` of the sorted ids."""
    if runs < 1:
        raise ValueError(f"random failures need at least one run, not {runs}")
    if failures and min(failures) < 0:
        raise ValueError(f"failure count {min(failures)} is negative")
    n = g.node_count
    if failures and max(failures) >= n:
        raise ValueError(f"failure count {max(failures)} is not below the node count {n}")
    (u, v), nodes = g.simple_graph().pairs, np.arange(n)
    rng, result = random.Random(_seed_value(seed)), {}
    for k in failures:
        total = 0
        for _ in range(runs):
            alive = np.ones(n, dtype=bool)
            alive[rng.sample(range(n), k)] = False
            kept = alive[u] & alive[v]
            labels = component_labels(n, u[kept], v[kept])
            # each failed node is left a root of its own
            total += int(np.count_nonzero(labels == nodes)) - k
        result[k] = total / runs
    return result


def metric_report(g: PcnGraph, smallworld_runs: int = 0, seed: int = 0,
                  betweenness_sources: int | None = None) -> MetricReport:
    """Bundle the headline measures for one graph (computed on its largest
    connected component for the distance metrics)."""
    if smallworld_runs < 0:
        raise ValueError("the small-world coefficient needs smallworld_runs "
                         f">= 0, not {smallworld_runs}")
    lcc = largest_connected_component(g)
    diameter, avg = distance_stats(lcc)
    report = MetricReport(
        node_count=g.node_count,
        edge_count=g.edge_count,
        diameter=diameter,
        avg_distance=avg,
        clustering=transitivity(g),
        central_point_dominance=central_point_dominance(
            g, sample_sources=betweenness_sources, seed=seed),
    )
    if smallworld_runs > 0:
        sw = smallworld_coefficient(lcc, avg, smallworld_runs, seed)
        report.smallworld_S, report.gamma, report.lambda_ = sw
    return report
