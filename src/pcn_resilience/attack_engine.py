"""Attack operations (channel exhaustion, node isolation), target-selection
strategies, budget-constrained execution, and adversarial-advantage metrics.

A plan is the ordered list of its targets: node ids, or cuts as sorted
tuples of channel ids. A target's price is a property of the graph under
attack, so execution prices each target there: a node's isolation cost
(its total outbound balance), or a cut's summed channel capacity.
Budget-mode execution skips unaffordable targets and only ever removes
complete cuts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from . import payment_sim
from .graph_model import (ChannelView, PcnGraph, _seed_value,
                          largest_component, remove_channels, remove_nodes)
from .payment_sim import VolumeModel, UNIT_VOLUMES
from .topology_metrics import betweenness_centrality, eigenvector_centrality

STRATEGY_KINDS = ("degree", "betweenness", "eigenvector",
                  "ranked-min-cut", "parallel-paths", "random")


@dataclass(frozen=True)
class Strategy:
    kind: str
    seed: int = 0  # read by random, parallel-paths and ranked-min-cut
    cut_samples: int = 0  # ranked-min-cut's sampled terminal pairs
    payment_samples: int = 0  # parallel-paths' sampled payments
    hub: str | None = None  # the node parallel-paths leaves out

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.kind == "ranked-min-cut" and self.cut_samples < 1:
            raise ValueError("ranked-min-cut requires cut_samples >= 1")
        if self.kind == "parallel-paths" and self.payment_samples < 1:
            raise ValueError("parallel-paths requires payment_samples >= 1")


@dataclass
class MetricBundle:
    s: float
    r: int
    F_bar: float
    g_bar: float | None = None


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


@dataclass(frozen=True)
class MetricParams:
    attempts: int = 1000
    flow_rounds: int = 100
    volumes: VolumeModel = UNIT_VOLUMES
    hub: str | None = None

    def __post_init__(self):
        for name, value in ("attempts", self.attempts), ("flow rounds", self.flow_rounds):
            if value < 1:
                raise ValueError(f"{name} must be >= 1, not {value}")


def advantage(m: float | None, m_prime: float | None) -> float | None:
    """Relative decrease |1 - m'/m| under attack, or None where m is 0 or None."""
    return abs(1.0 - m_prime / m) if m else None


def reachability(g: PcnGraph) -> int:
    """Size of the largest connected component."""
    return int(largest_component(g).sum())


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


def _node_slots(g: PcnGraph, v: str) -> np.ndarray:
    """Slots of the arcs out of node `v`: its row of the `ChannelView`."""
    if v not in g.index:
        raise KeyError(f"unknown node {v}")
    return g.channel_view().row(g.index[v])


def exhaust_node_channels(g: PcnGraph, v: str) -> PcnGraph:
    """New graph with every outbound balance of `v` drained (counterparties
    credited); the node and its channels stay in the graph."""
    slots = _node_slots(g, v)
    out = g.copy()
    out.shift(slots, out.balance.reshape(-1)[slots])
    return out


def isolation_cost(g: PcnGraph, v: str) -> int:
    """Funds an attacker needs to drain every outbound channel of `v`."""
    return sum(g.balance.reshape(-1)[_node_slots(g, v)].tolist())


def _price(g: PcnGraph, target: str | tuple[str, ...]) -> int:
    """Funds an attacker needs on `g` to take out a target: a node's
    isolation cost, or a cut's summed capacity."""
    if isinstance(target, str):
        return isolation_cost(g, target)
    if unknown := [c for c in target if c not in g.channel_index]:
        raise KeyError(f"unknown channel {unknown[0]}")
    return sum(g.capacity[[g.channel_index[c] for c in target]].tolist())


def isolate_node(g: PcnGraph, v: str) -> tuple[PcnGraph, int]:
    """Remove `v` from the routable graph; the cost is the sum of its
    outbound balances."""
    cost = isolation_cost(g, v)
    return remove_nodes(g, [v]), cost


def _ranked(scores: dict) -> list:
    """The keys of `scores`, highest score first; equal scores by key."""
    return sorted(scores, key=lambda k: (-scores[k], k))


def plan_targets(g: PcnGraph, strategy: Strategy, limit: int
                 ) -> list[str] | list[tuple[str, ...]]:
    """Ordered target list of length <= limit for the given strategy: node
    ids, or for ranked-min-cut the sorted channel ids of each cut."""
    if limit < 1:
        raise ValueError(f"plan limit must be >= 1, not {limit}")

    if strategy.kind == "degree":
        ranked = _ranked(g.degrees())
    elif strategy.kind == "betweenness":
        ranked = _ranked(betweenness_centrality(g))
    elif strategy.kind == "eigenvector":
        ranked = _ranked({**dict.fromkeys(g.ids, 0.0),
                          **eigenvector_centrality(g)})
    elif strategy.kind == "random":
        ranked = list(g.ids)
        random.Random(_seed_value(strategy.seed)).shuffle(ranked)
    elif strategy.kind == "parallel-paths":
        ranked = _rank_parallel_paths(g, strategy)
    else:
        ranked = _rank_min_cuts(g, strategy)
    return ranked[:limit]


def _rank_parallel_paths(g: PcnGraph, strategy: Strategy) -> list[str]:
    """Rank nodes other than the adversary's hub by how often they forward
    simulated payments, skipping payments the hub sends, receives or forwards."""
    hub = strategy.hub
    specs = payment_sim.sample_specs(g.ids, strategy.payment_samples, UNIT_VOLUMES,
                                     random.Random(_seed_value(strategy.seed)))
    # a route's channels join its source, forwarders and target (none on failure)
    forwarders = [g.ends.flat[o.slots[1:]]
                  for o in payment_sim.evaluate_payments(g, specs)
                  if g.index.get(hub, -1) not in g.ends[o.slots >> 1]]
    counts = np.bincount(np.concatenate([np.empty(0, np.int64), *forwarders]),
                         minlength=g.node_count)
    return _ranked({v: c for v, c in zip(g.ids, counts.tolist()) if v != hub})


def _rank_min_cuts(g: PcnGraph, strategy: Strategy) -> list[tuple[str, ...]]:
    """Sample minimum (s, t)-cuts for random terminal pairs and rank the
    distinct cuts by occurrence count. A cut is the sorted ids of the
    channels between the sink side and the rest; pairs without a path
    are skipped."""
    rng = random.Random(_seed_value(strategy.seed))
    pairs = payment_sim.sample_pairs(g.ids, strategy.cut_samples, rng)
    view = g.channel_view()
    # a channel carries up to its capacity either way: 2 * MAX_SAT < 2^63
    capacity = np.repeat(g.capacity, 2)
    a, b = g.ends.T

    occurrences: dict[tuple[str, ...], int] = {}
    for s, t in pairs:
        sink = _sink_side(view, capacity, g.index[s], g.index[t])
        if sink is None:
            continue
        key = tuple(sorted(g.channel_ids[sink[a] != sink[b]].tolist()))
        occurrences[key] = occurrences.get(key, 0) + 1
    return _ranked(occurrences)


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
    return view.hops_to(t, residual) >= 0


def _measure(g: PcnGraph, specs, flow_pairs, params: MetricParams,
             seed: int) -> MetricBundle:
    s = sum(o.success for o in payment_sim.evaluate_payments(g, specs)) / len(specs)
    f_bar = sum(payment_sim.evaluate_flows(g, flow_pairs)) / len(flow_pairs)
    g_bar = None
    if params.hub is not None:
        # a removed hub, or one left alone, forwards nothing
        g_bar = (payment_sim.fee_gain(g, params.hub, params.attempts,
                                      params.volumes, seed=seed)
                 if params.hub in g.index and g.node_count > 1 else 0.0)
    return MetricBundle(s=s, r=reachability(g), F_bar=f_bar, g_bar=g_bar)


def _walk(targets: list, costs: list[int], constraint: tuple, griefing: bool
          ) -> tuple[tuple[tuple, frozenset], int, int]:
    """The nodes (sorted) and the channels `targets`, at prices `costs`,
    remove under `constraint`, with the satoshi spent and the number of
    targets removed."""
    kind, value = constraint
    doomed_nodes: list[str] = []
    doomed_channels: set[str] = set()
    spent = removed = 0
    budget = value if kind == "budget" else None
    for target, cost in zip(targets, costs):
        if kind == "count" and removed >= value:
            break
        node = isinstance(target, str)
        # griefing isolates a node without locking up its balance
        cost = 0 if griefing and node else cost
        if budget is not None and cost > budget - spent:
            continue
        if node:
            doomed_nodes.append(target)
        else:
            doomed_channels.update(target)
        spent += cost
        removed += 1
    return (tuple(sorted(doomed_nodes)), frozenset(doomed_channels)), spent, removed


def execute_attack(g: PcnGraph, plans: list[list], constraints: list[tuple],
                   metric_params: MetricParams = MetricParams(),
                   seed: int = 0, griefing: bool = False) -> list[SimReport]:
    """One report per (plan, constraint), plan-major: walk the plan, each
    target priced on `g`, under a ('count', n) or ('budget', satoshi)
    constraint and measure the surviving graph against the a-priori metrics
    of `g`, which are measured once. Rows that remove the same nodes and
    channels share one measurement. A target `g` lacks raises KeyError.

    Every measurement shares one sampled payment/flow sequence per seed;
    sequences hitting removed nodes count as failures (s) or zero (F_bar).
    A delta whose a-priori metric is zero is None.
    """
    if any(kind not in ("count", "budget") for kind, _ in constraints):
        raise ValueError("constraint must be ('count', n) or ('budget', satoshi)")

    costs = [[_price(g, target) for target in plan] for plan in plans]
    if metric_params.hub is not None and metric_params.hub not in g.index:
        raise KeyError(f"unknown hub {metric_params.hub}")

    rng = random.Random(_seed_value(seed))
    specs = payment_sim.sample_specs(g.ids, metric_params.attempts,
                                     metric_params.volumes, rng)
    flow_pairs = payment_sim.sample_pairs(g.ids, metric_params.flow_rounds, rng)
    before = _measure(g, specs, flow_pairs, metric_params, seed)

    # the metrics of each distinct surviving graph, keyed by what it lacks
    measured = {((), frozenset()): before}
    reports = []
    for plan, plan_costs in zip(plans, costs):
        for constraint in constraints:
            doomed, spent, removed = _walk(plan, plan_costs, constraint, griefing)
            if doomed not in measured:
                nodes, channels = doomed
                current = remove_nodes(g, nodes) if nodes else g
                if channels:
                    current = remove_channels(current, channels)
                measured[doomed] = _measure(current, specs, flow_pairs,
                                            metric_params, seed)
            after = measured[doomed]
            reports.append(SimReport(
                a_priori=before, a_posteriori=after,
                delta_s=advantage(before.s, after.s),
                delta_r=advantage(before.r, after.r),
                delta_F=advantage(before.F_bar, after.F_bar),
                delta_g=advantage(before.g_bar, after.g_bar),
                spent=spent, removed=removed))
    return reports
