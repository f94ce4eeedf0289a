"""Attack operations (channel exhaustion, node isolation), target-selection
strategies, budget-constrained execution, and adversarial-advantage metrics.

Node targets carry an isolation cost equal to the node's total outbound
balance at planning time; cut targets carry the summed capacity of their
channels. Budget-mode execution skips unaffordable targets and only ever
removes complete cuts.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field

import numpy as np

from . import payment_sim
from .graph_model import (ChannelView, PcnGraph, connected_components,
                          remove_channels, remove_nodes)
from .payment_sim import VolumeModel, UNIT_VOLUMES
from .topology_metrics import betweenness_centrality, eigenvector_centrality

STRATEGY_KINDS = ("degree", "betweenness", "eigenvector",
                  "ranked-min-cut", "parallel-paths", "random")


class StalePlanError(Exception):
    """Plan costs no longer match the graph they are executed against."""


@dataclass(frozen=True)
class Strategy:
    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.kind == "ranked-min-cut" and self.params.get("cut_samples", 0) < 1:
            raise ValueError("ranked-min-cut requires cut_samples >= 1")
        if self.kind == "parallel-paths" and self.params.get("payment_samples", 0) < 1:
            raise ValueError("parallel-paths requires payment_samples >= 1")


@dataclass(frozen=True)
class NodeTarget:
    node: str
    isolation_cost: int


@dataclass(frozen=True)
class CutTarget:
    channel_ids: tuple[str, ...]
    cost: int


@dataclass
class AttackPlan:
    targets: list
    strategy: Strategy


@dataclass
class MetricBundle:
    s: float
    r: int
    F_bar: float
    g_bar: float | None = None

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


@dataclass
class SimReport:
    a_priori: MetricBundle
    a_posteriori: MetricBundle
    delta_s: float | None
    delta_r: float | None
    delta_F: float | None
    delta_g: float | None
    spent: int
    removed: int

    def to_dict(self) -> dict:
        d = {
            "a_priori": self.a_priori.to_dict(),
            "a_posteriori": self.a_posteriori.to_dict(),
            "advantage": {
                "delta_s": self.delta_s,
                "delta_r": self.delta_r,
                "delta_F": self.delta_F,
            },
            "spent": self.spent,
            "removed": self.removed,
        }
        if self.delta_g is not None:
            d["advantage"]["delta_g"] = self.delta_g
        return d


@dataclass(frozen=True)
class MetricParams:
    attempts: int = 1000
    flow_rounds: int = 100
    volumes: VolumeModel = UNIT_VOLUMES
    hub: str | None = None

    def __post_init__(self):
        if self.attempts < 1 or self.flow_rounds < 1:
            raise ValueError("attempts and flow rounds must be >= 1")


def advantage(m: float, m_prime: float) -> float:
    """Relative decrease |1 - m'/m| of a metric under attack."""
    if m == 0:
        raise ValueError("advantage is undefined for a zero a-priori metric")
    return abs(1.0 - m_prime / m)


def reachability(g: PcnGraph) -> int:
    """Size of the largest connected component."""
    comps = connected_components(g)
    return len(comps[0]) if comps else 0


def exhaust_channel(g: PcnGraph, channel_id: str, direction: str = "ab") -> PcnGraph:
    """New graph with the given channel direction drained to zero (the
    reverse direction is credited by the drained amount)."""
    if channel_id not in g.channel_index:
        raise KeyError(f"unknown channel {channel_id}")
    if direction not in ("ab", "ba"):
        raise ValueError("direction must be 'ab' or 'ba'")
    out = g.copy()
    slot = 2 * g.channel_index[channel_id] + (direction == "ba")
    out.shift([slot], out.balance.flat[slot])
    return out


def exhaust_node_channels(g: PcnGraph, v: str) -> PcnGraph:
    """New graph with every outbound balance of `v` drained (counterparties
    credited); the node and its channels stay in the graph."""
    if v not in g.nodes:
        raise KeyError(f"unknown node {v}")
    out = g.copy()
    slots = out.out_slots(v)
    out.shift(slots, out.balance.reshape(-1)[slots])
    return out


def isolation_cost(g: PcnGraph, v: str) -> int:
    """Funds an attacker needs to drain every outbound channel of `v`."""
    return g.outbound_balance(v)


def isolate_node(g: PcnGraph, v: str) -> tuple[PcnGraph, int]:
    """Remove `v` from the routable graph; the cost is the sum of its
    outbound balances."""
    if v not in g.nodes:
        raise KeyError(f"unknown node {v}")
    cost = isolation_cost(g, v)
    return remove_nodes(g, [v]), cost


def _rank_nodes(scores: dict[str, float]) -> list[str]:
    return sorted(scores, key=lambda v: (-scores[v], v))


def plan_targets(g: PcnGraph, strategy: Strategy, limit: int) -> AttackPlan:
    """Ordered target list of length <= limit for the given strategy."""
    if limit < 1:
        raise ValueError("limit must be >= 1")

    if strategy.kind == "degree":
        ranked = _rank_nodes(g.degrees())
    elif strategy.kind == "betweenness":
        ranked = _rank_nodes(betweenness_centrality(
            g, normalized=True,
            sample_sources=strategy.params.get("sample_sources"),
            seed=strategy.params.get("seed", 0)))
    elif strategy.kind == "eigenvector":
        scores = {v: 0.0 for v in g.nodes}
        scores.update(eigenvector_centrality(g, weighted=True))
        ranked = _rank_nodes(scores)
    elif strategy.kind == "random":
        ranked = sorted(g.nodes)
        random.Random(strategy.params.get("seed", 0)).shuffle(ranked)
    elif strategy.kind == "parallel-paths":
        ranked = _rank_parallel_paths(g, strategy)
    else:
        positions = g.channel_index
        targets = [CutTarget(channel_ids=cut, cost=sum(
                       g.capacity[[positions[c] for c in cut]].tolist()))
                   for cut in _rank_min_cuts(g, strategy)[:limit]]
        return AttackPlan(targets=targets, strategy=strategy)

    costs = g.outbound_balances()
    targets = [NodeTarget(node=v, isolation_cost=costs[v]) for v in ranked[:limit]]
    return AttackPlan(targets=targets, strategy=strategy)


def _rank_parallel_paths(g: PcnGraph, strategy: Strategy) -> list[str]:
    """Rank nodes by how often they forward simulated payments, excluding
    paths that touch the adversary's own hub."""
    params = strategy.params
    hub = params.get("hub")
    volumes = params.get("volumes", UNIT_VOLUMES)
    rng = random.Random(params.get("seed", 0))
    specs = payment_sim.sample_specs(g.nodes, params["payment_samples"], volumes, rng)
    counts = {v: 0 for v in g.nodes}
    for outcome in payment_sim.evaluate_payments(g, specs, apply=False):
        if not outcome.success or (hub is not None and hub in outcome.path):
            continue
        for v in outcome.path[1:-1]:
            counts[v] += 1
    if hub is not None:
        counts.pop(hub, None)
    return _rank_nodes(counts)


def _rank_min_cuts(g: PcnGraph, strategy: Strategy) -> list[tuple[str, ...]]:
    """Sample minimum (s, t)-cuts for random terminal pairs and rank the
    distinct cuts by occurrence count. A cut is the sorted ids of the
    channels between the sink side and the rest; pairs without a path
    are skipped."""
    params = strategy.params
    rng = random.Random(params.get("seed", 0))
    pairs = payment_sim.sample_pairs(g.nodes, params["cut_samples"], rng)
    view = g.channel_view()
    # a channel carries up to its capacity either way
    capacity = np.repeat(g.capacity, 2)
    order = g.channel_order
    channel_ids, (a, b) = g.channel_ids[order], g.ends[order].T

    occurrences: dict[tuple[str, ...], int] = {}
    for s, t in pairs:
        sink = _sink_side(view, capacity, g.index[s], g.index[t])
        if sink is None:
            continue
        key = tuple(channel_ids[sink[a] != sink[b]].tolist())
        occurrences[key] = occurrences.get(key, 0) + 1
    return sorted(occurrences, key=lambda c: (-occurrences[c], c))


def _sink_side(view: ChannelView, capacity: np.ndarray, s: int, t: int
               ) -> np.ndarray | None:
    """Mask of the nodes that reach `t` in the residual of a maximum s-t
    flow over arcs of the per-slot `capacity`, or None when no flow passes.
    Every maximum flow leaves the same set (the sink side of the minimum
    cut closest to t; Picard & Queyranne 1980), which is the one networkx's
    `minimum_cut` reports."""
    residual = capacity.copy()
    if view.max_flow(residual, s, t) == 0:
        return None
    return view.hops_to(t, residual, 1) >= 0


def _measure(g: PcnGraph, specs, flow_pairs, params: MetricParams,
             seed: int) -> MetricBundle:
    outcomes = payment_sim.evaluate_payments(g, specs, apply=False)
    s = sum(o.success for o in outcomes) / len(specs)
    flows = payment_sim.evaluate_flows(g, flow_pairs)
    f_bar = sum(flows) / len(flow_pairs)
    g_bar = None
    if params.hub is not None:
        # a removed hub, or one left alone, forwards nothing
        g_bar = (payment_sim.fee_gain(g, params.hub, params.attempts,
                                      params.volumes, seed=seed)
                 if params.hub in g.nodes and g.node_count > 1 else 0.0)
    return MetricBundle(s=s, r=reachability(g), F_bar=f_bar, g_bar=g_bar)


def _walk(plan: AttackPlan, constraint: tuple, griefing: bool
          ) -> tuple[tuple[frozenset, frozenset], int, int]:
    """The nodes and the channels `plan` removes under `constraint`, with
    the satoshi spent and the number of targets removed. Costs were fixed
    at planning time, so the walk only picks targets."""
    kind, value = constraint
    doomed_nodes: set[str] = set()
    doomed_channels: set[str] = set()
    spent = 0
    removed = 0
    budget = value if kind == "budget" else None
    for target in plan.targets:
        if kind == "count" and removed >= value:
            break
        cost = 0 if griefing and isinstance(target, NodeTarget) else (
            target.isolation_cost if isinstance(target, NodeTarget) else target.cost)
        if budget is not None and cost > budget - spent:
            continue
        if isinstance(target, NodeTarget):
            doomed_nodes.add(target.node)
        else:
            doomed_channels.update(target.channel_ids)
        spent += cost
        removed += 1
    return (frozenset(doomed_nodes), frozenset(doomed_channels)), spent, removed


def _delta(m: float | None, m_prime: float | None) -> float | None:
    """The advantage, or None where it is undefined (no or zero m)."""
    return advantage(m, m_prime) if m else None


def execute_attack(g: PcnGraph, plans: list[AttackPlan], constraints: list[tuple],
                   metric_params: MetricParams = MetricParams(),
                   seed: int = 0, griefing: bool = False) -> list[SimReport]:
    """One report per (plan, constraint), plan-major: walk the plan under a
    ('count', n) or ('budget', satoshi) constraint and measure the surviving
    graph against the a-priori metrics of `g`, which are measured once.
    Rows that remove the same nodes and channels share one measurement.

    Every measurement shares one sampled payment/flow sequence per seed;
    sequences hitting removed nodes count as failures (s) or zero (F_bar).
    A delta whose a-priori metric is zero is None.
    """
    if any(kind not in ("count", "budget") for kind, _ in constraints):
        raise ValueError("constraint must be ('count', n) or ('budget', satoshi)")

    # staleness check: planned node costs must match this graph
    costs = g.outbound_balances()
    for target in [t for plan in plans for t in plan.targets]:
        if isinstance(target, NodeTarget):
            if target.node not in g.nodes:
                raise StalePlanError(f"planned node {target.node} not in graph")
            if costs[target.node] != target.isolation_cost:
                raise StalePlanError(
                    f"isolation cost of {target.node} changed since planning")
        else:
            missing = [c for c in target.channel_ids if c not in g.channel_index]
            if missing:
                raise StalePlanError(f"planned channels missing: {missing}")
    if metric_params.hub is not None and metric_params.hub not in g.nodes:
        raise KeyError(f"unknown hub {metric_params.hub}")

    rng = random.Random(seed)
    specs = payment_sim.sample_specs(g.nodes, metric_params.attempts,
                                     metric_params.volumes, rng)
    flow_pairs = payment_sim.sample_pairs(g.nodes, metric_params.flow_rounds, rng)
    before = _measure(g, specs, flow_pairs, metric_params, seed)

    # the metrics of each distinct surviving graph, keyed by what it lacks
    measured = {(frozenset(), frozenset()): before}
    reports = []
    for plan in plans:
        for constraint in constraints:
            doomed, spent, removed = _walk(plan, constraint, griefing)
            if doomed not in measured:
                nodes, channels = doomed
                current = remove_nodes(g, nodes) if nodes else g
                if channels:
                    current = remove_channels(current, channels)
                measured[doomed] = _measure(current, specs, flow_pairs,
                                            metric_params, seed)
            after = measured[doomed]
            reports.append(SimReport(
                a_priori=before,
                a_posteriori=after,
                delta_s=_delta(before.s, after.s),
                delta_r=_delta(before.r, after.r),
                delta_F=_delta(before.F_bar, after.F_bar),
                delta_g=_delta(before.g_bar, after.g_bar),
                spent=spent,
                removed=removed,
            ))
    return reports
