"""Single-path payment simulation: payment and endpoint-pair sampling,
routing, maximum flow, and hub fee gain.

Routing follows the deployed single-path scheme: directions with
insufficient balance are excluded, then a hop-count shortest path is taken
(ties broken by the lexicographically smallest node-id sequence, so runs
are deterministic). Fees are accounted per forwarding hop but never
deducted from channel balances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .graph_model import PcnGraph


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
    with open(path, encoding="utf-8") as f:
        return VolumeModel(volumes=tuple(int(line) for line in f if line.strip()))


def _route_arcs(g: PcnGraph, source: int, target: int,
                amount: int) -> list[int] | None:
    """Arcs of the hop-count shortest path from `source` to `target` over
    arcs with balance >= `amount`, choosing the lexicographically smallest
    node-id sequence (then the smallest channel id per hop)."""
    view = g.channel_view()
    balance = g.balance.reshape(-1)
    dist = view.hops_to(target, balance, amount, stop=source)
    if dist[source] < 0:
        return None
    arcs = []
    cur = source
    for hops_left in range(int(dist[source]) - 1, -1, -1):
        lo, hi = view.indptr[cur], view.indptr[cur + 1]
        step = ((balance[view.slot[lo:hi]] >= amount)
                & (dist[view.dst[lo:hi]] == hops_left))
        x = int(lo + step.argmax())
        arcs.append(x)
        cur = int(view.dst[x])
    return arcs


def route_payment(g: PcnGraph, spec: PaymentSpec, apply: bool = False) -> PaymentOutcome:
    """Route one payment. On success with `apply`, balances shift along the
    path (reverse direction credited, so per-channel funds are conserved)."""
    if spec.source not in g.nodes or spec.target not in g.nodes:
        raise KeyError("unknown payment endpoint")
    view = g.channel_view()
    arcs = _route_arcs(g, view.index[spec.source], view.index[spec.target],
                       spec.amount)
    if arcs is None:
        return PaymentOutcome(success=False)

    path = [spec.source] + [view.ids[view.dst[x]] for x in arcs]
    per_hop = {hop: g.policy(view.slot[x]).fee_msat(spec.amount)
               for hop, x in zip(path[1:-1], arcs[1:])}
    if apply:
        g.shift(view.slot[arcs], spec.amount)
    return PaymentOutcome(success=True, path=path,
                          fees_paid=sum(per_hop.values()), per_hop_fees=per_hop)


def _pair_sampler(nodes, rng: random.Random):
    """A function drawing one uniform ordered endpoint pair (s != t) from
    `rng`. `nodes` is sorted so sampling depends only on the set."""
    pool = sorted(nodes)
    if len(pool) < 2:
        raise ValueError("need at least two nodes to sample endpoint pairs")

    def draw() -> tuple[str, str]:
        s = pool[rng.randrange(len(pool))]
        t = pool[rng.randrange(len(pool))]
        while t == s:
            t = pool[rng.randrange(len(pool))]
        return s, t
    return draw


def sample_specs(nodes, attempts: int, volumes: VolumeModel,
                 rng: random.Random) -> list[PaymentSpec]:
    """Uniform endpoint pairs, each followed by a volume drawn from the pool."""
    draw = _pair_sampler(nodes, rng)
    return [PaymentSpec(*draw(), amount=volumes.sample(rng))
            for _ in range(attempts)]


def sample_pairs(nodes, rounds: int, rng: random.Random) -> list[tuple[str, str]]:
    draw = _pair_sampler(nodes, rng)
    return [draw() for _ in range(rounds)]


def evaluate_payments(g: PcnGraph, specs, apply: bool = False) -> list[PaymentOutcome]:
    """Evaluate a fixed payment sequence; specs whose endpoints are missing
    from the graph count as failures (the graph may have been attacked)."""
    return [route_payment(g, spec, apply=apply)
            if spec.source in g.nodes and spec.target in g.nodes
            else PaymentOutcome(success=False) for spec in specs]


def max_flow(g: PcnGraph, s: str, t: str) -> int:
    """Exact maximum flow over the channels' arcs, each with its routable
    balance (Dinic's algorithm on an int64 copy; `ChannelView.max_flow`)."""
    if s not in g.nodes or t not in g.nodes:
        raise KeyError("unknown max-flow endpoint")
    if s == t:
        raise ValueError("max-flow endpoints must differ")
    return g.channel_view().max_flow(g.balance_digraph().copy(),
                                     g.index[s], g.index[t])


def evaluate_flows(g: PcnGraph, pairs) -> list[int]:
    """Max flow per (s, t) pair; pairs touching removed nodes contribute 0."""
    return [max_flow(g, s, t) if s in g.nodes and t in g.nodes else 0
            for s, t in pairs]


def fee_gain(g: PcnGraph, hub: str, payments: int, volumes: VolumeModel,
             seed: int = 0) -> float:
    """Average fee income (msat) earned by `hub` as a forwarding node over
    `payments` stateful payments (balances evolve between payments)."""
    if hub not in g.nodes:
        raise KeyError(f"unknown hub {hub}")
    state = g.copy()
    specs = sample_specs(g.nodes, payments, volumes, random.Random(seed))
    return sum(route_payment(state, spec, apply=True).per_hop_fees.get(hub, 0)
               for spec in specs) / payments
