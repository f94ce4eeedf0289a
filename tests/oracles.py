"""Independent brute-force implementations used to cross-check the library.

These deliberately avoid the library's own algorithms: path enumeration by
DFS, union-find for components, a from-scratch augmenting path max-flow,
and networkx's preflow-push for minimum cuts on the networkx form of the
simple projection. Only usable on small graphs.
"""

from itertools import combinations


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


def reference_route(g, spec, apply=False):
    """Single-path routing rebuilt from scratch for every payment: for each
    node, the smallest-channel_id channel per neighbour with balance >=
    amount; a hop-count BFS toward the target over the reversed arcs; then
    the smallest next node id at each step. Returns a PaymentOutcome and,
    with `apply`, shifts balances along the path."""
    from collections import deque

    from pcn_resilience.payment_sim import PaymentOutcome

    if spec.source not in g.nodes or spec.target not in g.nodes:
        raise KeyError("unknown payment endpoint")
    adj = {v: {} for v in g.nodes}
    for e in sorted(g.edges.values(), key=lambda e: e.channel_id):
        if e.balance_ab >= spec.amount and e.b not in adj[e.a]:
            adj[e.a][e.b] = e
        if e.balance_ba >= spec.amount and e.a not in adj[e.b]:
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
        return PaymentOutcome(success=False)
    path = [spec.source]
    while path[-1] != spec.target:
        cur = path[-1]
        path.append(min(v for v in adj[cur] if dist.get(v, -1) == dist[cur] - 1))
    per_hop = {hop: adj[hop][nxt].policy(hop).fee_msat(spec.amount)
               for hop, nxt in zip(path[1:-1], path[2:])}
    if apply:
        for u, v in zip(path, path[1:]):
            adj[u][v].shift(u, spec.amount)
    return PaymentOutcome(success=True, path=path,
                          fees_paid=sum(per_hop.values()), per_hop_fees=per_hop)


def reference_simple_graph(g):
    """The undirected simple projection as a networkx graph: parallel
    channels collapsed with capacities summed (edge attribute `capacity`),
    nodes in the node set's order and neighbours in channel order."""
    import networkx as nx

    sg = nx.Graph()
    sg.add_nodes_from(g.nodes)
    for e in g.edges.values():
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
    return tuple(sorted(e.channel_id for e in g.edges.values()
                        if (e.a in side_s) != (e.b in side_s)))
