"""Single-path payment simulation: routing, success ratio, maximum flow,
and hub fee gain.

Routing follows the deployed single-path scheme: directions with
insufficient balance are excluded, then a hop-count shortest path is taken
(ties broken by the lexicographically smallest node-id sequence, so runs
are deterministic). Fees are accounted per forwarding hop but never
deducted from channel balances.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field

from scipy.sparse.csgraph import maximum_flow

from .graph_model import ChannelEdge, PcnGraph


@dataclass(frozen=True)
class PaymentSpec:
    source: str
    target: str
    amount: int

    def __post_init__(self):
        if self.source == self.target:
            raise ValueError("source and target must differ")
        if self.amount <= 0:
            raise ValueError("amount must be positive")


@dataclass
class PaymentOutcome:
    success: bool
    path: list[str] = field(default_factory=list)
    fees_paid: int = 0
    per_hop_fees: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class VolumeModel:
    """Empirical pool of payment volumes (satoshi); draws are uniform."""

    volumes: tuple[int, ...]

    def __post_init__(self):
        if not self.volumes:
            raise ValueError("volume pool must be non-empty")
        if any(v <= 0 for v in self.volumes):
            raise ValueError("volumes must be positive")

    def sample(self, rng: random.Random) -> int:
        return self.volumes[rng.randrange(len(self.volumes))]


UNIT_VOLUMES = VolumeModel(volumes=(1,))


def load_volumes(path) -> VolumeModel:
    """Volume file: one positive integer (satoshi) per line."""
    vols = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line:
                vols.append(int(line))
    return VolumeModel(volumes=tuple(vols))


def _routable_adjacency(g: PcnGraph, amount: int) -> dict[str, dict[str, ChannelEdge]]:
    """For each node u: neighbor v -> channel to use for u->v at `amount`
    (smallest channel_id among those with sufficient balance)."""
    adj: dict[str, dict[str, ChannelEdge]] = {v: {} for v in g.nodes}
    for e in sorted(g.edges.values(), key=lambda e: e.channel_id):
        if e.balance_ab >= amount and e.b not in adj[e.a]:
            adj[e.a][e.b] = e
        if e.balance_ba >= amount and e.a not in adj[e.b]:
            adj[e.b][e.a] = e
    return adj


def _shortest_path(adj, source: str, target: str) -> list[str] | None:
    """Hop-count shortest path choosing the lexicographically smallest
    node-id sequence among all shortest paths."""
    # Distances toward the target over reversed arcs.
    dist = {target: 0}
    queue = deque([target])
    reverse: dict[str, list[str]] = {v: [] for v in adj}
    for u, nbrs in adj.items():
        for v in nbrs:
            reverse[v].append(u)
    while queue:
        u = queue.popleft()
        for w in reverse[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    if source not in dist:
        return None
    path = [source]
    cur = source
    while cur != target:
        nxt = min(v for v in adj[cur] if dist.get(v, -1) == dist[cur] - 1)
        path.append(nxt)
        cur = nxt
    return path


def route_payment(g: PcnGraph, spec: PaymentSpec, apply: bool = False) -> PaymentOutcome:
    """Route one payment. On success with `apply`, balances shift along the
    path (reverse direction credited, so per-channel funds are conserved)."""
    if spec.source not in g.nodes or spec.target not in g.nodes:
        raise KeyError("unknown payment endpoint")
    adj = _routable_adjacency(g, spec.amount)
    path = _shortest_path(adj, spec.source, spec.target)
    if path is None:
        return PaymentOutcome(success=False)

    per_hop: dict[str, int] = {}
    for i in range(1, len(path) - 1):
        hop = path[i]
        channel = adj[hop][path[i + 1]]
        per_hop[hop] = channel.policy(hop).fee_msat(spec.amount)
    if apply:
        for i in range(len(path) - 1):
            adj[path[i]][path[i + 1]].shift(path[i], spec.amount)
    return PaymentOutcome(success=True, path=path,
                          fees_paid=sum(per_hop.values()), per_hop_fees=per_hop)


def sample_specs(nodes, attempts: int, volumes: VolumeModel,
                 rng: random.Random) -> list[PaymentSpec]:
    """Uniform ordered endpoint pairs (s != t) with volumes drawn from the
    pool. `nodes` is sorted internally so sampling depends only on the set."""
    pool = sorted(nodes)
    if len(pool) < 2:
        raise ValueError("need at least two nodes to sample payments")
    specs = []
    for _ in range(attempts):
        s = pool[rng.randrange(len(pool))]
        t = pool[rng.randrange(len(pool))]
        while t == s:
            t = pool[rng.randrange(len(pool))]
        specs.append(PaymentSpec(source=s, target=t, amount=volumes.sample(rng)))
    return specs


def evaluate_payments(g: PcnGraph, specs, apply: bool = False) -> list[PaymentOutcome]:
    """Evaluate a fixed payment sequence; specs whose endpoints are missing
    from the graph count as failures (the graph may have been attacked)."""
    outcomes = []
    for spec in specs:
        if spec.source not in g.nodes or spec.target not in g.nodes:
            outcomes.append(PaymentOutcome(success=False))
        else:
            outcomes.append(route_payment(g, spec, apply=apply))
    return outcomes


def success_ratio(g: PcnGraph, attempts: int, volumes: VolumeModel,
                  seed: int = 0, apply: bool = False) -> float:
    """Fraction of `attempts` random payments that find a route."""
    rng = random.Random(seed)
    specs = sample_specs(g.nodes, attempts, volumes, rng)
    outcomes = evaluate_payments(g, specs, apply=apply)
    return sum(o.success for o in outcomes) / attempts


def max_flow(g: PcnGraph, s: str, t: str) -> int:
    """Exact maximum flow on the directed balance view (Dinic's algorithm)."""
    if s not in g.nodes or t not in g.nodes:
        raise KeyError("unknown max-flow endpoint")
    if s == t:
        raise ValueError("max-flow endpoints must differ")
    arcs, index = g.balance_digraph()
    return int(maximum_flow(arcs, index[s], index[t]).flow_value)


def sample_pairs(nodes, rounds: int, rng: random.Random) -> list[tuple[str, str]]:
    pool = sorted(nodes)
    if len(pool) < 2:
        raise ValueError("need at least two nodes")
    pairs = []
    for _ in range(rounds):
        s = pool[rng.randrange(len(pool))]
        t = pool[rng.randrange(len(pool))]
        while t == s:
            t = pool[rng.randrange(len(pool))]
        pairs.append((s, t))
    return pairs


def evaluate_flows(g: PcnGraph, pairs) -> list[int]:
    """Max flow per (s, t) pair; pairs touching removed nodes contribute 0."""
    flows = []
    for s, t in pairs:
        if s not in g.nodes or t not in g.nodes:
            flows.append(0)
        else:
            flows.append(max_flow(g, s, t))
    return flows


def average_max_flow(g: PcnGraph, rounds: int, seed: int = 0) -> float:
    """Mean max flow over `rounds` uniformly sampled ordered pairs."""
    rng = random.Random(seed)
    pairs = sample_pairs(g.nodes, rounds, rng)
    return sum(evaluate_flows(g, pairs)) / rounds


def fee_gain(g: PcnGraph, hub: str, payments: int, volumes: VolumeModel,
             seed: int = 0) -> float:
    """Average fee income (msat) earned by `hub` as a forwarding node over
    `payments` stateful payments (balances evolve between payments)."""
    if hub not in g.nodes:
        raise KeyError(f"unknown hub {hub}")
    state = g.copy()
    rng = random.Random(seed)
    specs = sample_specs(g.nodes, payments, volumes, rng)
    total = 0
    for spec in specs:
        outcome = route_payment(state, spec, apply=True)
        total += outcome.per_hop_fees.get(hub, 0)
    return total / payments
