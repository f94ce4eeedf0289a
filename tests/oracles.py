"""Independent brute-force implementations used to cross-check the library.

These deliberately avoid the library's own algorithms: path enumeration by
DFS, a queue-based BFS for distances and for components, union-find for
components, a from-scratch augmenting path max-flow, networkx's
preflow-push for minimum cuts on the networkx form of the simple
projection, graph operations on snapshot dicts, a power-law fit that
searches one x_min candidate at a time, and networkx's random-graph
generators. Only usable on small graphs.
"""

import copy
import math
from collections import deque, namedtuple
from itertools import combinations

import numpy as np
from scipy.special import zeta

from pcn_resilience import powerlaw_fit as pl


def all_paths(adj, s, t, path=None, seen=None):
    """Every simple path s..t as node lists (DFS enumeration)."""
    path = (path or [s])
    seen = seen or {s}
    if s == t:
        yield list(path)
        return
    for w in adj.get(s, ()):
        if w not in seen:
            yield from all_paths(adj, w, t, path + [w], seen | {w})


def brute_betweenness(nodes, adj, normalized=True):
    """Betweenness by exhaustive enumeration of all simple paths."""
    nodes = sorted(nodes)
    score = {v: 0.0 for v in nodes}
    for s, t in combinations(nodes, 2):
        paths = list(all_paths(adj, s, t))
        if not paths:
            continue
        shortest = min(len(p) for p in paths)
        sps = [p for p in paths if len(p) == shortest]
        for v in nodes:
            if v in (s, t):
                continue
            through = sum(1 for p in sps if v in p)
            score[v] += through / len(sps)
    if normalized:
        n = len(nodes)
        if n > 2:
            scale = (n - 1) * (n - 2) / 2
            score = {v: c / scale for v, c in score.items()}
    return score


def brute_transitivity(nodes, adj):
    """3 * triangles / length-2 paths via triple loops."""
    nodes = sorted(nodes)
    triangles = 0
    for a, b, c in combinations(nodes, 3):
        if b in adj.get(a, ()) and c in adj.get(a, ()) and c in adj.get(b, ()):
            triangles += 1
    paths2 = 0
    for v in nodes:
        d = len(adj.get(v, ()))
        paths2 += d * (d - 1) // 2
    if paths2 == 0:
        return 0.0
    return 3 * triangles / paths2


class UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def union_find_components(nodes, edges):
    """List of component node-sets via union-find."""
    uf = UnionFind(nodes)
    for a, b in edges:
        uf.union(a, b)
    comps = {}
    for v in nodes:
        comps.setdefault(uf.find(v), set()).add(v)
    return list(comps.values())


def reference_components(nodes, edges):
    """Component node-sets by a queue-based BFS from each unseen node,
    sorted by (size desc, smallest member id)."""
    adj = {v: [] for v in nodes}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen, comps = set(), []
    for s in adj:
        if s in seen:
            continue
        seen.add(s)
        comp, queue = {s}, deque([s])
        while queue:
            for w in adj[queue.popleft()]:
                if w not in seen:
                    seen.add(w)
                    comp.add(w)
                    queue.append(w)
        comps.append(comp)
    return sorted(comps, key=lambda c: (-len(c), min(c)))


Channel = namedtuple("Channel", "channel_id a b capacity balance_ab balance_ba "
                                "fee_ab fee_ba")


def channels(g):
    """Channel id -> `Channel` record, in record order, read from the
    graph's columns. `a` and `b` are node ids, and `fee_ab` and `fee_ba`
    are the (base fee msat, rate ppm) of the arcs out of a and out of b."""
    return {cid: Channel(cid, g.ids[a], g.ids[b], capacity, balance_ab,
                         balance_ba, (base_ab, rate_ab), (base_ba, rate_ba))
            for cid, (a, b), capacity, (balance_ab, balance_ba),
            (base_ab, base_ba), (rate_ab, rate_ba) in zip(
                *(column.tolist() for column in (
                    g.channel_ids, g.ends, g.capacity, g.balance,
                    g.base_fee, g.fee_rate)))}


def balance_caps(g):
    """Summed balance per direction, the max-flow oracle's input."""
    caps = {}
    for e in channels(g).values():
        caps[(e.a, e.b)] = caps.get((e.a, e.b), 0) + e.balance_ab
        caps[(e.b, e.a)] = caps.get((e.b, e.a), 0) + e.balance_ba
    return caps


def augmenting_path_max_flow(capacities, s, t):
    """Edmonds-Karp on a dict {(u, v): capacity}."""
    residual = dict(capacities)
    for (u, v) in list(capacities):
        residual.setdefault((v, u), 0)
    flow = 0
    while True:
        # BFS for an augmenting path
        parent = {s: None}
        queue = [s]
        while queue and t not in parent:
            u = queue.pop(0)
            for (x, y), cap in residual.items():
                if x == u and cap > 0 and y not in parent:
                    parent[y] = u
                    queue.append(y)
        if t not in parent:
            return flow
        # bottleneck along the path
        path = []
        v = t
        while parent[v] is not None:
            path.append((parent[v], v))
            v = parent[v]
        push = min(residual[e] for e in path)
        for (u, v) in path:
            residual[(u, v)] -= push
            residual[(v, u)] += push
        flow += push


def reference_balances(g):
    """Each channel's (balance_ab, balance_ba): the state `reference_route`
    reads and shifts."""
    return {cid: (e.balance_ab, e.balance_ba) for cid, e in channels(g).items()}


def reference_route(g, spec, balances, apply=False):
    """Single-path routing rebuilt from scratch for every payment: for each
    node, the smallest-channel_id channel per neighbour with balance >=
    amount; a hop-count BFS toward the target over the reversed arcs; then
    the smallest next node id at each step. Returns the slots of the
    channels taken (2 × record position, plus 1 for a hop out of node2),
    empty on failure. Balances come from `balances` (see
    `reference_balances`), which `apply` shifts along the path; `g` gives
    only the channels."""
    from collections import deque

    if spec.source not in g.ids or spec.target not in g.ids:
        raise KeyError("unknown payment endpoint")
    records = channels(g)
    position = {cid: c for c, cid in enumerate(records)}
    adj = {v: {} for v in g.ids}
    for e in sorted(records.values(), key=lambda e: e.channel_id):
        balance_ab, balance_ba = balances[e.channel_id]
        if balance_ab >= spec.amount and e.b not in adj[e.a]:
            adj[e.a][e.b] = e
        if balance_ba >= spec.amount and e.a not in adj[e.b]:
            adj[e.b][e.a] = e
    reverse = {v: [] for v in adj}
    for u, nbrs in adj.items():
        for v in nbrs:
            reverse[v].append(u)
    dist = {spec.target: 0}
    queue = deque([spec.target])
    while queue:
        u = queue.popleft()
        for w in reverse[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    if spec.source not in dist:
        return []
    path = [spec.source]
    while path[-1] != spec.target:
        cur = path[-1]
        path.append(min(v for v in adj[cur] if dist.get(v, -1) == dist[cur] - 1))
    hops = [adj[u][v] for u, v in zip(path, path[1:])]
    if apply:
        for u, e in zip(path, hops):
            moved = spec.amount if u == e.a else -spec.amount
            balance_ab, balance_ba = balances[e.channel_id]
            balances[e.channel_id] = (balance_ab - moved, balance_ba + moved)
    return [2 * position[e.channel_id] + (u == e.b) for u, e in zip(path, hops)]


def route_of(g, slots):
    """The node ids a routed payment visited, source to target, and the ids
    of the channels it took, read off its slots; ([], []) for no arcs."""
    records = list(channels(g).values())
    hops = [(records[y // 2], y % 2) for y in np.asarray(slots).tolist()]
    path = [e.b if side else e.a for e, side in hops]
    path += [e.a if side else e.b for e, side in hops[-1:]]
    return path, [e.channel_id for e, _ in hops]


def reference_distances(g):
    """(diameter, average distance) over the ordered pairs of distinct
    nodes joined by a path, by a queue-based BFS from every node; (0, 0.0)
    when there are none."""
    adj = {v: set() for v in g.ids}
    for e in channels(g).values():
        adj[e.a].add(e.b)
        adj[e.b].add(e.a)
    dists = []
    for s in adj:
        dist, queue = {s: 0}, deque([s])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        dists += [d for v, d in dist.items() if v != s]
    return max(dists, default=0), sum(dists) / len(dists) if dists else 0.0


def reference_simple_graph(g):
    """The undirected simple projection as a networkx graph: parallel
    channels collapsed with capacities summed (edge attribute `capacity`),
    nodes in the graph's recorded `node_order` and neighbours in channel
    order."""
    import networkx as nx

    sg = nx.Graph()
    sg.add_nodes_from(g.ids[i] for i in g.node_order.tolist())
    for e in channels(g).values():
        if sg.has_edge(e.a, e.b):
            sg[e.a][e.b]["capacity"] += e.capacity
        else:
            sg.add_edge(e.a, e.b, capacity=e.capacity)
    return sg


def reference_min_cut(g, s, t):
    """The minimum s-t cut as networkx finds it on the simple projection
    (parallel channels summed): the sorted ids of the channels between
    the sink side and the rest, or None when t cannot be reached."""
    import networkx as nx

    sg = reference_simple_graph(g)
    if not nx.has_path(sg, s, t):
        return None
    _, (side_s, _) = nx.minimum_cut(sg, s, t, capacity="capacity")
    return tuple(sorted(e.channel_id for e in channels(g).values()
                        if (e.a in side_s) != (e.b in side_s)))


def reference_remove_nodes(snapshot, targets):
    """`remove_nodes` on a snapshot dict: the other nodes and the channels
    between them."""
    return {"nodes": [n for n in snapshot["nodes"] if n["pub_key"] not in targets],
            "edges": [e for e in snapshot["edges"]
                      if e["node1_pub"] not in targets
                      and e["node2_pub"] not in targets]}


def reference_largest_component(snapshot):
    """`largest_connected_component` on a snapshot dict (ties broken by the
    smallest member id), from union-find components."""
    nodes = {n["pub_key"] for n in snapshot["nodes"]}
    comps = union_find_components(
        nodes, [(e["node1_pub"], e["node2_pub"]) for e in snapshot["edges"]])
    keep = min(comps, key=lambda c: (-len(c), min(c)))
    return reference_remove_nodes(snapshot, nodes - keep)


def reference_drain(snapshot, sides):
    """A snapshot dict in which, for every (channel id, node) in `sides`,
    the node's balance on that channel has moved to the other side."""
    out = copy.deepcopy(snapshot)
    for e in out["edges"]:
        for src, dst in (("node1", "node2"), ("node2", "node1")):
            if (e["channel_id"], e[src + "_pub"]) in sides:
                e[dst + "_balance"] += e[src + "_balance"]
                e[src + "_balance"] = 0
    return out


def _reference_loglikelihood(alpha, x_min, n, log_sum):
    return -n * math.log(zeta(alpha, x_min)) - alpha * log_sum


def _reference_mle_alpha(x_min, n, log_sum):
    """Scalar golden-section maximization of the discrete log-likelihood
    over alpha in (1, 6]."""
    invphi = (math.sqrt(5) - 1) / 2
    a, b = pl.ALPHA_MIN, pl.ALPHA_MAX
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = _reference_loglikelihood(c, x_min, n, log_sum)
    fd = _reference_loglikelihood(d, x_min, n, log_sum)
    while b - a > pl.ALPHA_TOL:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = _reference_loglikelihood(c, x_min, n, log_sum)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = _reference_loglikelihood(d, x_min, n, log_sum)
    return (a + b) / 2


def _reference_ks_distance(tail, alpha, x_min):
    values, counts = np.unique(tail, return_counts=True)
    emp_cdf = np.cumsum(counts) / tail.size
    z0 = zeta(alpha, x_min)
    model_cdf = 1.0 - zeta(alpha, values + 1) / z0
    return float(np.max(np.abs(emp_cdf - model_cdf)))


def reference_fit_power_law(degrees):
    """`fit_power_law` one x_min candidate at a time: a scalar golden-section
    search and a KS distance from each candidate's own tail."""
    data = np.asarray(sorted(degrees), dtype=np.int64)
    if data.size == 0 or data.min() < 1:
        raise pl.FitError("need positive integer observations")
    if np.unique(data).size < 10:
        raise pl.FitError("need at least 10 distinct observations")

    if data.size >= 500:
        min_tail = max(pl.MIN_TAIL_LARGE, data.size // pl.MIN_TAIL_FRACTION)
    else:
        min_tail = pl.MIN_TAIL
    logs = np.log(data.astype(float))
    log_suffix = np.concatenate([np.cumsum(logs[::-1])[::-1], [0.0]])

    best = None
    for x_min in np.unique(data):
        lo = int(np.searchsorted(data, x_min, side="left"))
        tail = data[lo:]
        if tail.size < min_tail or np.unique(tail).size < 2:
            continue
        alpha = _reference_mle_alpha(int(x_min), tail.size, float(log_suffix[lo]))
        ks = _reference_ks_distance(tail, alpha, int(x_min))
        if best is None or ks < best.ks_distance:
            best = pl.FitResult(alpha=alpha, x_min=int(x_min),
                                ks_distance=ks, tail_count=int(tail.size))
    if best is None:
        raise pl.FitError("no x_min candidate leaves a usable tail")
    return best


def _reference_sample(alpha, x_min, size, rng):
    """Inverse-CDF sampling with the CDF table rebuilt on every call."""
    table_max = max(x_min + 1, 100_000)
    ks = np.arange(x_min, table_max + 1, dtype=float)
    pmf = ks ** (-alpha) / zeta(alpha, x_min)
    cdf = np.cumsum(pmf)
    u = rng.random(size)
    out = x_min + np.searchsorted(cdf, u, side="left")
    overflow = out > table_max
    if overflow.any():
        uu = u[overflow]
        out[overflow] = np.floor(
            (x_min - 0.5) * (1.0 - uu) ** (-1.0 / (alpha - 1.0)) + 0.5
        ).astype(np.int64)
    return out


def reference_goodness_of_fit(degrees, fit, synthetic_runs=1000, seed=0):
    """`goodness_of_fit` with every replicate refitted by
    `reference_fit_power_law`."""
    if synthetic_runs < 1:
        raise ValueError("goodness of fit needs synthetic_runs >= 1")
    data = np.asarray(sorted(degrees), dtype=np.int64)
    body = data[data < fit.x_min]
    n = data.size
    p_tail = (n - body.size) / n

    rng = np.random.default_rng(seed)
    at_least = 0
    for _ in range(synthetic_runs):
        n_tail = int(rng.binomial(n, p_tail))
        parts = []
        if n - n_tail > 0 and body.size > 0:
            parts.append(rng.choice(body, size=n - n_tail, replace=True))
        elif n - n_tail > 0:
            n_tail = n
        if n_tail > 0:
            parts.append(_reference_sample(fit.alpha, fit.x_min, n_tail, rng))
        synthetic = np.concatenate(parts)
        try:
            ks = reference_fit_power_law(synthetic).ks_distance
        except pl.FitError:
            ks = math.inf
        if ks >= fit.ks_distance:
            at_least += 1

    p_value = at_least / synthetic_runs
    warning = None
    if synthetic_runs < 100:
        warning = "fewer than 100 synthetic runs: p-value resolution is coarse"
    return pl.GofResult(p_value=p_value, synthetic_runs=synthetic_runs,
                        reject=p_value <= pl.REJECT_THRESHOLD, warning=warning)


def reference_generator_edges(kind, n, m, seed):
    """Sorted (u, v) edges, u < v, of networkx's `gnm_random_graph(n, m)`
    or `barabasi_albert_graph(n, m)` with `seed`."""
    import networkx as nx

    make = {"erdos-renyi": nx.gnm_random_graph,
            "barabasi-albert": nx.barabasi_albert_graph}[kind]
    return sorted(tuple(sorted(e)) for e in make(n, m, seed=seed).edges())
