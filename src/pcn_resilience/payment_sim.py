"""Single-path payment simulation: payment and endpoint-pair sampling,
routing, maximum flow, and hub fee gain.

Routing follows the deployed single-path scheme: directions with
insufficient balance are excluded, then a hop-count shortest path is taken
(ties broken by the lexicographically smallest node-id sequence, so runs
are deterministic). A routed payment is the arcs it took; only
`fee_gain` prices a hop, and fees are never deducted from balances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .graph_model import PcnGraph, _seed_value


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


@dataclass(frozen=True, eq=False)
class PaymentOutcome:
    """The slots (2c + side) of a payment's arcs from its source; empty on failure."""
    slots: np.ndarray

    @property
    def success(self) -> bool:
        return len(self.slots) > 0


_NO_ROUTE = PaymentOutcome(np.empty(0, dtype=np.int64))


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
    """Volume file: one positive integer (satoshi) per line, blank lines
    skipped. A bad line is named by the file and its line number."""
    try:
        with open(path, encoding="utf-8") as f:
            lines = [(n, line.strip()) for n, line in enumerate(f, 1) if line.strip()]
    except UnicodeDecodeError:
        raise ValueError(f"volume file {path} is not UTF-8") from None
    for number, text in lines:
        if not text.isdecimal() or int(text) == 0:
            raise ValueError(f"volume file {path} line {number} has {text!r}, "
                             "expected a positive integer")
    if not lines:
        raise ValueError(f"volume file {path} has no volumes")
    return VolumeModel(volumes=tuple(int(text) for _, text in lines))


def route_payment(g: PcnGraph, spec: PaymentSpec, apply: bool = False) -> PaymentOutcome:
    """Route one payment along the hop-count shortest path over the arcs
    with balance >= amount, choosing the lexicographically smallest node-id
    sequence (then the smallest channel id per hop): each hop takes the
    smallest view position out of its node among `shortest_path_arcs`.
    Returns the arcs taken, pricing none; with `apply`, balances shift along
    them (reverse direction credited, so per-channel funds are conserved)."""
    if unknown := [v for v in (spec.source, spec.target) if v not in g.index]:
        raise KeyError(f"unknown payment endpoint {unknown[0]}")
    view, cur, t = g.channel_view(), g.index[spec.source], g.index[spec.target]
    pos = view.shortest_path_arcs(g.balance.reshape(-1), cur, t, spec.amount)
    if pos is None:
        return _NO_ROUTE
    pos[::-1].sort()  # largest first, so `step` keeps each node's smallest
    step = dict(zip(view.src[pos].tolist(), pos.tolist()))
    arcs = []
    while cur != t:
        arcs.append(step[cur])
        cur = int(view.dst[arcs[-1]])
    slots = view.slot[arcs]
    if apply:
        g.shift(slots, spec.amount)
    return PaymentOutcome(slots)


def _pair_sampler(ids, rng: random.Random):
    """A function drawing one uniform ordered endpoint pair (s != t) from
    `rng` out of a graph's sorted `ids`."""
    if len(ids) < 2:
        raise ValueError("need at least two nodes to sample endpoint pairs")

    def draw() -> tuple[str, str]:
        s = t = ids[rng.randrange(len(ids))]
        while t == s:
            t = ids[rng.randrange(len(ids))]
        return s, t
    return draw


def sample_specs(ids, attempts: int, volumes: VolumeModel,
                 rng: random.Random) -> list[PaymentSpec]:
    """Uniform endpoint pairs, each followed by a volume drawn from the pool."""
    draw = _pair_sampler(ids, rng)
    return [PaymentSpec(*draw(), amount=volumes.sample(rng))
            for _ in range(attempts)]


def sample_pairs(ids, rounds: int, rng: random.Random) -> list[tuple[str, str]]:
    draw = _pair_sampler(ids, rng)
    return [draw() for _ in range(rounds)]


def evaluate_payments(g: PcnGraph, specs) -> list[PaymentOutcome]:
    """Route a fixed payment sequence read-only, one `route_payment` per spec;
    a spec with an endpoint missing from the (maybe attacked) graph fails."""
    return [route_payment(g, spec)
            if spec.source in g.index and spec.target in g.index
            else _NO_ROUTE for spec in specs]


def max_flow(g: PcnGraph, s: str, t: str) -> int:
    """Exact maximum flow over the channels' arcs, each with its routable
    balance (Dinic's algorithm on an int64 copy; `ChannelView.max_flow`)."""
    if unknown := [v for v in (s, t) if v not in g.index]:
        raise KeyError(f"unknown max-flow endpoint {unknown[0]}")
    if s == t:
        raise ValueError("max-flow endpoints must differ")
    return g.channel_view().max_flow(g.balance_digraph().copy(),
                                     g.index[s], g.index[t])


def evaluate_flows(g: PcnGraph, pairs) -> list[int]:
    """Max flow per (s, t) pair; pairs touching removed nodes contribute 0."""
    return [max_flow(g, s, t) if s in g.index and t in g.index else 0
            for s, t in pairs]


def fee_gain(g: PcnGraph, hub: str, payments: int, volumes: VolumeModel,
             seed: int = 0) -> float:
    """Average fee income (msat) earned by `hub` as a forwarding node over
    `payments` stateful payments (balances evolve between payments)."""
    if hub not in g.index:
        raise KeyError(f"unknown hub {hub}")
    state, h = g.copy(), g.index[hub]
    base, rate = g.base_fee.reshape(-1), g.fee_rate.reshape(-1)
    earned, rng = 0, random.Random(_seed_value(seed))
    for spec in sample_specs(g.ids, payments, volumes, rng):
        hops = route_payment(state, spec, apply=True).slots[1:]
        # the hub's fee on Python ints: a u32 rate times 21M BTC overflows int64
        for y in hops[g.ends.flat[hops] == h].tolist():
            earned += int(base[y]) + spec.amount * int(rate[y]) // 1000
    return earned / payments
