"""Independent brute-force implementations used to cross-check the library.

These deliberately avoid the library's own algorithms: path enumeration by
DFS, a queue-based BFS for distances, union-find for components, a
from-scratch augmenting path max-flow, networkx's preflow-push for minimum
cuts on the networkx form of the simple projection, and graph operations
on snapshot dicts. Only usable on small graphs.
"""

import copy
from collections import deque
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


def reference_balances(g):
    """Each channel's (balance_ab, balance_ba): the state `reference_route`
    reads and shifts."""
    return {cid: (e.balance_ab, e.balance_ba) for cid, e in g.edges.items()}


def reference_route(g, spec, balances, apply=False):
    """Single-path routing rebuilt from scratch for every payment: for each
    node, the smallest-channel_id channel per neighbour with balance >=
    amount; a hop-count BFS toward the target over the reversed arcs; then
    the smallest next node id at each step. Returns a PaymentOutcome.
    Balances come from `balances` (see `reference_balances`), which `apply`
    shifts along the path; `g` gives only channels and fee policies."""
    from collections import deque

    from pcn_resilience.payment_sim import PaymentOutcome

    if spec.source not in g.nodes or spec.target not in g.nodes:
        raise KeyError("unknown payment endpoint")
    adj = {v: {} for v in g.nodes}
    for e in sorted(g.edges.values(), key=lambda e: e.channel_id):
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
        return PaymentOutcome(success=False)
    path = [spec.source]
    while path[-1] != spec.target:
        cur = path[-1]
        path.append(min(v for v in adj[cur] if dist.get(v, -1) == dist[cur] - 1))
    per_hop = {hop: adj[hop][nxt].policy(hop).fee_msat(spec.amount)
               for hop, nxt in zip(path[1:-1], path[2:])}
    if apply:
        for u, v in zip(path, path[1:]):
            e = adj[u][v]
            moved = spec.amount if u == e.a else -spec.amount
            balance_ab, balance_ba = balances[e.channel_id]
            balances[e.channel_id] = (balance_ab - moved, balance_ba + moved)
    return PaymentOutcome(success=True, path=path,
                          fees_paid=sum(per_hop.values()), per_hop_fees=per_hop)


def reference_distances(g):
    """(diameter, average distance) over the ordered pairs of distinct
    nodes joined by a path, by a queue-based BFS from every node; (0, 0.0)
    when there are none."""
    adj = {v: set() for v in g.nodes}
    for e in g.edges.values():
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
