"""Graph measures used to classify the network (distances, centrality,
clustering, small-world coefficient) plus reference random graphs.

All metrics here work on the undirected simple projection of the channel
graph, `PcnGraph.simple_graph()`: parallel channels are collapsed and their
capacities summed. networkx is imported only to generate reference graphs.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import asdict, dataclass, replace

import numpy as np
from scipy.sparse.csgraph import connected_components, shortest_path

from .graph_model import (DEFAULT_BASE_FEE_MSAT, DEFAULT_RATE_PPM, PcnGraph,
                          largest_connected_component)


class ConvergenceError(Exception):
    """Iterative computation failed to converge."""

    def __init__(self, msg, iterations):
        super().__init__(msg)
        self.iterations = iterations


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

    def to_dict(self) -> dict:
        d = asdict(self)
        d["lambda"] = d.pop("lambda_")
        if self.smallworld_S is None:
            for key in ("smallworld_S", "gamma", "lambda"):
                del d[key]
        return d

    # Table-style CSV row (node count, edge count, diameter, average
    # distance, central point dominance); column order is frozen.
    CSV_HEADER = "node_count,edge_count,diameter,avg_distance,central_point_dominance"

    def to_csv_row(self) -> str:
        return (
            f"{self.node_count},{self.edge_count},{self.diameter},"
            f"{self.avg_distance:.6g},{self.central_point_dominance:.6g}"
        )


def degree_distribution(g: PcnGraph) -> dict[int, int]:
    """Map degree -> node count. Parallel channels each count."""
    return dict(Counter(g.degrees().values()))


# Sources per Brandes block: a block runs its BFS levels together on flat
# (source, node) arrays. 16 measured fastest at 500 nodes.
BETWEENNESS_BLOCK = 16


def betweenness_centrality(g: PcnGraph, normalized: bool = True,
                           sample_sources: int | None = None,
                           seed: int = 0) -> dict[str, float]:
    """Shortest-path betweenness on the simple projection.

    `sample_sources` switches to pivot sampling for large graphs; exact
    (all sources) when None. Brandes' algorithm, run over blocks of
    sources, that reproduces `networkx.betweenness_centrality` on the
    networkx form of the projection bit for bit: sources, pivots and the
    result in its node order (`SimpleView.insertion`), neighbours in its
    adjacency order, and every floating-point sum taken in the same order.
    """
    if sample_sources is not None and sample_sources < 1:
        raise ValueError("betweenness needs at least one source")
    view = g.simple_graph()
    n = len(view.ids)
    sampled = sample_sources is not None and sample_sources < n
    sources = view.insertion[random.Random(seed).sample(
        range(n), sample_sources)] if sampled else view.insertion
    total = np.zeros(n)
    for lo in range(0, len(sources), BETWEENNESS_BLOCK):
        block = sources[lo:lo + BETWEENNESS_BLOCK]
        for row in _dependencies(view.indptr, view.indices, block):
            total += row
    if n > 2:
        total *= _betweenness_scale(n, sources if sampled else None,
                                    normalized)
    values = total.tolist()
    return {view.ids[i]: values[i] for i in view.insertion.tolist()}


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
    size = len(sources) * n
    degree = np.diff(indptr)
    dist = np.full(size, -1)
    first = np.full(size, np.iinfo(np.int64).max)
    pos = np.zeros(size, dtype=np.int64)
    sigma = np.zeros(size)
    delta = np.zeros(size)
    frontier = np.arange(len(sources)) * n + sources
    dist[frontier] = 0
    pos[frontier] = np.arange(len(sources))
    sigma[frontier] = 1.0
    levels = []
    while frontier.size:
        node = frontier % n
        counts = degree[node]
        v = np.repeat(frontier, counts)
        # the neighbours of each frontier node, in adjacency order
        offsets = np.arange(counts.sum()) + np.repeat(
            indptr[node] - (np.cumsum(counts) - counts), counts)
        w = v - np.repeat(node, counts) + indices[offsets]
        fresh = w[dist[w] < 0]
        seen_at = np.arange(fresh.size)
        np.minimum.at(first, fresh, seen_at)
        nxt = fresh[first[fresh] == seen_at]
        dist[nxt] = len(levels) + 1
        pos[nxt] = np.arange(nxt.size)
        on_path = dist[w] == len(levels) + 1
        v, w = v[on_path], w[on_path]
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


def _betweenness_scale(n: int, pivots: np.ndarray | None, normalized: bool):
    """networkx 3.6's `_rescale` for undirected node betweenness without
    endpoints, on n > 2 nodes from all sources or from `pivots`."""
    targets = n - 1
    if pivots is None:
        if normalized:
            return 1 / (targets * (targets - 1))
        return targets / (targets * 2)
    # a pivot is never its own target; NaN when k = 1 leaves no pairs
    k = len(pivots)
    if normalized:
        scale_source = 1 / ((k - 1) * (targets - 1)) if k > 1 else math.nan
        scale_nonsource = 1 / (k * (targets - 1))
    else:
        scale_source = targets / ((k - 1) * 2) if k > 1 else math.nan
        scale_nonsource = targets / (k * 2)
    scale = np.full(n, scale_nonsource)
    scale[pivots] = scale_source
    return scale


def eigenvector_centrality(g: PcnGraph, weighted: bool = False,
                           tol: float = 1e-8, max_iter: int = 1000) -> dict[str, float]:
    """Power iteration on the (optionally capacity-weighted) adjacency
    matrix of the largest component; unit Euclidean norm."""
    if not g.nodes:
        raise ValueError("eigenvector centrality of an empty graph")
    view = largest_connected_component(g).simple_graph()
    n = len(view.ids)
    adj = np.zeros((n, n))
    adj[view.rows, view.indices] = view.capacity if weighted else 1.0

    # diagonal shift breaks the +/- eigenvalue tie on bipartite graphs
    # without changing the eigenvectors
    scale = adj.max()
    if scale > 0:
        adj = adj / scale + np.eye(n)

    x = np.ones(n) / np.sqrt(n)
    for it in range(1, max_iter + 1):
        y = adj @ x
        norm = np.linalg.norm(y)
        if norm == 0:
            return dict(zip(view.ids, x.tolist()))
        y /= norm
        if np.max(np.abs(y - x)) < tol:
            return dict(zip(view.ids, y.tolist()))
        x = y
    raise ConvergenceError(
        f"power iteration did not converge within {max_iter} iterations", max_iter)


def transitivity(g: PcnGraph) -> float:
    """3 * triangles / length-2 paths on the simple projection: the integer
    ratio trace(A³) / Σ d(d − 1), or the integer 0 without a triangle, as
    `networkx.transitivity` gives it; 0.0 for a graph without nodes."""
    view = g.simple_graph()
    if not view.ids:
        return 0.0
    adj = view.adjacency
    closed = int((adj @ adj).multiply(adj).sum())
    if closed == 0:
        return 0
    degree = np.diff(view.indptr)
    return closed / int((degree * (degree - 1)).sum())


def distance_stats(g: PcnGraph, sample_pairs="exact", seed: int = 0) -> tuple[int, float]:
    """(diameter, average distance) over the graph, which should be a single
    connected component. The diameter is always exact; the average may be
    estimated over `sample_pairs` uniformly drawn pairs."""
    view = g.simple_graph()
    n = len(view.ids)
    if n <= 1:
        return 0, 0.0
    dist = shortest_path(view.adjacency, method="D", unweighted=True,
                         directed=False)
    finite = dist[np.isfinite(dist)]
    diameter = int(finite.max())
    if sample_pairs == "exact":
        off_diag = dist[~np.eye(n, dtype=bool)]
        off_diag = off_diag[np.isfinite(off_diag)]
        avg = float(off_diag.mean()) if off_diag.size else 0.0
    else:
        rng = random.Random(seed)
        total, count = 0.0, 0
        for _ in range(int(sample_pairs)):
            i = rng.randrange(n)
            j = rng.randrange(n - 1)
            if j >= i:
                j += 1
            d = dist[i, j]
            if np.isfinite(d):
                total += d
                count += 1
        avg = total / count if count else 0.0
    return diameter, avg


def central_point_dominance(g: PcnGraph, sample_sources: int | None = None,
                            seed: int = 0) -> float:
    """Maximum normalized betweenness over all nodes."""
    bc = betweenness_centrality(g, normalized=True,
                                sample_sources=sample_sources, seed=seed)
    return max(bc.values()) if bc else 0.0


def generate_reference(kind: str, n: int, target_edges: int, seed: int) -> PcnGraph:
    """Reference random graph with unit capacities.

    erdos-renyi: G(n, M) with exactly target_edges edges.
    barabasi-albert: attachment parameter m = round(target_edges / n); the
    resulting edge count is whatever preferential attachment produces.
    networkx's generators, and their random streams, define these graphs.
    """
    import networkx as nx

    if n < 2:
        raise ValueError("need n >= 2")
    if kind == "erdos-renyi":
        if target_edges > n * (n - 1) // 2:
            raise ValueError("target_edges exceeds the complete graph")
        sg = nx.gnm_random_graph(n, target_edges, seed=seed)
    elif kind == "barabasi-albert":
        m = max(1, round(target_edges / n))
        if m >= n:
            raise ValueError("attachment parameter m must be < n")
        sg = nx.barabasi_albert_graph(n, m, seed=seed)
    else:
        raise ValueError(f"unknown reference kind {kind!r}")

    g = PcnGraph(nodes={f"n{i}" for i in sg.nodes()})
    ends = np.array([(g.index[f"n{u}"], g.index[f"n{v}"])
                     for u, v in sorted(sg.edges())], dtype=np.int64).reshape(-1, 2)
    m = len(ends)
    return replace(g, channel_ids=np.array([f"ref{i}" for i in range(m)], dtype=object),
                   ends=ends, capacity=np.ones(m, dtype=np.int64),
                   balance=np.ones((m, 2), dtype=np.int64),
                   base_fee=np.full((m, 2), DEFAULT_BASE_FEE_MSAT),
                   fee_rate=np.full((m, 2), DEFAULT_RATE_PPM))


def smallworld_coefficient(g: PcnGraph, reference_runs: int = 10, seed: int = 0,
                           sample_pairs="exact"):
    """Small-world coefficient against size-matched ER references.

    Returns (S, gamma, lambda, C_g, C_r, L_g, L_r) where gamma = C_g/C_r and
    lambda = L_g/L_r; C_r and L_r are averaged over `reference_runs` graphs.
    """
    lcc = largest_connected_component(g)
    n = lcc.node_count
    m = len(lcc.simple_graph().indices) // 2
    c_g = transitivity(lcc)
    _, l_g = distance_stats(lcc, sample_pairs=sample_pairs, seed=seed)

    c_rs, l_rs = [], []
    for i in range(reference_runs):
        ref = generate_reference("erdos-renyi", n, m, seed=seed + i)
        ref_lcc = largest_connected_component(ref)
        c_rs.append(transitivity(ref))
        _, l_r = distance_stats(ref_lcc, sample_pairs=sample_pairs, seed=seed + i)
        l_rs.append(l_r)
    c_r = sum(c_rs) / len(c_rs)
    l_r = sum(l_rs) / len(l_rs)
    if c_r == 0:
        raise ValueError(
            "reference clustering is zero across all runs; "
            "use a larger graph or more reference runs")
    return smallworld_from_measures(c_g, l_g, c_r, l_r) + (c_g, c_r, l_g, l_r)


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
        raise ValueError("random failures need at least one run")
    if failures and max(failures) >= g.node_count:
        raise ValueError("failure count must be smaller than the node count")
    view = g.simple_graph()
    n, adj = len(view.ids), view.adjacency
    rng = random.Random(seed)
    result = {}
    for k in failures:
        total = 0
        for _ in range(runs):
            alive = np.ones(n, dtype=bool)
            alive[rng.sample(range(n), k)] = False
            total += connected_components(adj[alive][:, alive],
                                          directed=False)[0]
        result[k] = total / runs
    return result


def metric_report(g: PcnGraph, smallworld_runs: int = 0, seed: int = 0,
                  sample_pairs="exact",
                  betweenness_sources: int | None = None) -> MetricReport:
    """Bundle the headline measures for one graph (computed on its largest
    connected component for the distance metrics)."""
    lcc = largest_connected_component(g)
    diameter, avg = distance_stats(lcc, sample_pairs=sample_pairs, seed=seed)
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
        s, gamma, lam, *_ = smallworld_coefficient(
            g, reference_runs=smallworld_runs, seed=seed, sample_pairs=sample_pairs)
        report.smallworld_S = s
        report.gamma = gamma
        report.lambda_ = lam
    return report
