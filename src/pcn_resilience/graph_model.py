"""Channel-graph data model and snapshot ingestion.

The snapshot format is a subset of the lnd ``describegraph`` JSON output:
top-level ``nodes`` (with ``pub_key``) and ``edges`` (with ``channel_id``,
``node1_pub``, ``node2_pub``, ``capacity`` and optional per-side fee
policies). Unknown fields are ignored.
"""

from __future__ import annotations

import gc
import json
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import compress

import numpy as np

# Fallback policy when a snapshot omits one side (common network defaults).
DEFAULT_BASE_FEE_MSAT = 1000
DEFAULT_RATE_PPM = 1

BALANCE_MODELS = ("capacity-both-ways", "half-split", "explicit")

# No channel or balance can exceed the 21 million bitcoin ever issued; the
# bound also keeps every balance, and sums of a few thousand, inside int64.
MAX_SAT = 21_000_000 * 100_000_000


class SnapshotError(Exception):
    """Malformed snapshot file (parse failure or bad schema)."""


class ValidationError(Exception):
    """Snapshot parsed but violates a graph invariant."""


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The CSR row expansion: each range(s, s + c) end to end, exact for s < 2^53."""
    return np.arange(counts.sum()) + (starts - counts.cumsum() + counts).repeat(counts)


def _seed_value(seed) -> int:
    """The one seed rule: a non-negative integer, numpy's included, as an
    int. `random.Random` would seed -4 as 4 and refuse `np.int64(3)`."""
    if isinstance(seed, (int, np.integer)) and seed >= 0:
        return int(seed)
    raise ValueError(f"seed {seed!r} is not a non-negative integer")


class ChannelView:
    """The directed arcs of a graph's channels, for routing, max flow and
    minimum cuts.

    Arc `slot[x]` (a slot of `PcnGraph`) leaves `src[x]` for `dst[x]`, and
    slot y sits at `position[y]`. Arcs are ordered by (source, destination,
    channel id) with a CSR row pointer by source, so a node's smallest
    position reaches the smallest destination id through the smallest
    channel id. The reverse of slot y is slot y ^ 1, the other side of the
    same channel. The view holds no amounts: its searches read a per-slot
    `residual` they are given, such as the graph's balances or a max-flow
    residual.
    """

    def __init__(self, g: PcnGraph):
        ids, e = g.channel_ids.tolist(), g.edge_count
        rank = np.empty(e, dtype=np.int64)  # in channel-id order
        rank[sorted(range(e), key=ids.__getitem__)] = np.arange(e)
        src, dst = g.ends.reshape(-1), g.ends[:, ::-1].reshape(-1)
        self.slot = np.lexsort((np.repeat(rank, 2), dst, src))
        self.position = np.empty_like(self.slot)
        self.position[self.slot] = np.arange(len(self.slot))
        self.src, self.dst = src[self.slot], dst[self.slot]
        self.indptr = np.searchsorted(self.src, np.arange(g.node_count + 1))
        self.degree = np.diff(self.indptr)

    def row(self, i: int) -> np.ndarray:
        """Slots of the arcs out of node `i`."""
        return self.slot[self.indptr[i]:self.indptr[i + 1]]

    def open_arcs(self, nodes: np.ndarray, residual: np.ndarray, least: int,
                  side: int) -> np.ndarray:
        """Positions of the arcs out of `nodes` whose slot holds at least
        `least` in `residual`, row after row. With side 1 they stand for the
        arcs into `nodes` instead: position x is then the arc
        `dst[x] -> src[x]`, whose slot is `slot[x] ^ 1`. Either way `dst`
        gives the far end."""
        pos = _ranges(self.indptr[nodes], self.degree[nodes])
        return pos[residual[self.slot[pos] ^ side] >= least]

    def hops_to(self, t: int, residual: np.ndarray) -> np.ndarray:
        """Hops from each node to node `t` over the arcs whose slot holds a
        positive amount in `residual`, -1 where t is unreachable: a BFS back
        from t, one level at a time, for a minimum cut's sink side."""
        dist = np.full(len(self.degree), -1)
        dist[t] = 0
        frontier = np.array([t])
        level = 0
        while len(frontier):
            new = self.dst[self.open_arcs(frontier, residual, 1, 1)]
            level += 1
            dist[new[dist[new] < 0]] = level
            frontier = (dist == level).nonzero()[0]
        return dist

    def max_flow(self, residual: np.ndarray, s: int, t: int) -> int:
        """Push a maximum flow from node `s` to node `t` through `residual`,
        an int64 amount per slot that is written in place, and return its
        value as a Python int.

        Dinic (1970): each phase saturates the arcs with residual > 0 on
        shortest s-t paths, as `shortest_path_arcs` returns them, by a
        blocking flow. Pushing f along slot y moves f from residual[y] to
        residual[y ^ 1], as `PcnGraph.shift` moves a balance, so no
        residual exceeds its channel's two sides together. The search ends
        once t is cut off or the flow reaches the residual out of s or into
        t, whichever is smaller (summed as Python ints)."""
        bound = min(sum(residual[self.row(v) ^ side].tolist())
                    for v, side in ((s, 0), (t, 1)))
        total = 0
        while total < bound:
            pos = self.shortest_path_arcs(residual, s, t, 1)
            if pos is None:
                break
            slots = self.slot[pos]
            before = residual[slots]
            cap = before.tolist()
            total += _blocking_flow(self.src[pos].tolist(), self.dst[pos].tolist(),
                                    cap, s, t, bound - total)
            pushed = before - np.array(cap, dtype=np.int64)
            # a channel's two sides hold at most 2 * MAX_SAT < 2^63
            residual[slots] -= pushed
            residual[slots ^ 1] += pushed
        return total

    def shortest_path_arcs(self, residual: np.ndarray, s: int, t: int,
                           least: int) -> np.ndarray | None:
        """View positions of the arcs on shortest s-t paths over the arcs
        whose slot holds at least `least` in `residual`, or None when t is
        cut off. Payments and Dinic's phases both run it.

        A bidirectional BFS labels levels from s over arcs out of the
        frontier and levels to t over arcs into it (the reverses of the
        arcs out of it), each step growing the side whose frontier has
        fewer arcs, until a new level meets the other side. Each side's
        layers of arcs are then walked back from the meeting nodes,
        keeping the arcs whose newly labelled end leads to them, first
        those of s's side."""
        n = len(self.degree)
        dist = np.full((2, n), -1)  # from s, and to t
        dist[0, s] = dist[1, t] = 0
        frontier = [np.array([s]), np.array([t])]
        width = [int(self.degree[s]), int(self.degree[t])]  # arcs to scan
        layers: tuple[list, list] = ([], [])
        while True:
            side = int(width[1] < width[0])
            pos = self.open_arcs(frontier[side], residual, least, side)
            pos = pos[dist[side][self.dst[pos]] < 0]
            if not len(pos):
                return None
            new = self.dst[pos]
            level = len(layers[side]) + 1
            dist[side][new] = level
            layers[side].append(pos)
            met = dist[1 - side][new] >= 0
            if met.any():
                break
            frontier[side] = np.flatnonzero(dist[side] == level)
            width[side] = int(self.degree[frontier[side]].sum())
        meet = new[met]
        kept = []
        for grown in (0, 1):
            useful = np.zeros(n, dtype=bool)
            useful[meet] = True
            for pos in reversed(layers[grown]):
                pos = pos[useful[self.dst[pos]]]
                useful[self.src[pos]] = True
                # an arc found from t's side is kept by its own position
                kept.append(self.position[self.slot[pos] ^ 1] if grown else pos)
        return np.concatenate(kept)


def _blocking_flow(tails: list, heads: list, cap: list, s: int, t: int,
                   limit: int) -> int:
    """Saturate the layered arcs `tails[i] -> heads[i]` (every one on a
    shortest s-t path) by a current-arc DFS, lowering `cap` in place; stop
    early once `limit` has passed. Returns the flow pushed."""
    out: dict[int, list[int]] = {}
    for i, u in enumerate(tails):
        out.setdefault(u, []).append(i)
    pushed = 0
    path: list[int] = []
    u = s
    while True:
        if u == t:
            push = min(cap[i] for i in path)
            for i in path:
                cap[i] -= push
            pushed += push
            if pushed >= limit:
                return pushed
            # resume from the tail of the first arc the push saturated
            cut = next(k for k, i in enumerate(path) if cap[i] == 0)
            u = tails[path[cut]]
            del path[cut:]
            continue
        arcs = out.get(u, ())
        while arcs and cap[arcs[-1]] == 0:
            arcs.pop()
        if arcs:
            path.append(arcs[-1])
            u = heads[arcs[-1]]
        elif path:
            # a dead end: drop the arc into it
            i = path.pop()
            u = tails[i]
            out[u].pop()
        else:
            return pushed


class SimpleView:
    """Integer-indexed undirected simple projection, for the topology
    measures. `pairs` (2, P) holds each neighbour pair once, smaller node
    first, ordered by their strictly increasing `keys` min * n + max. CSR
    row i (`rows`, `indices`, `indptr`) lists node i's neighbours once
    each, in the order of the first channel (in record order) joining the
    two, with their summed `capacity`. With the graph's `node_order` these
    are the orders of the networkx graph betweenness reproduces. The
    summed capacity is float64, exact while a pair's total is below 2^53
    sat: int64 would wrap past 4,392 parallel channels at `MAX_SAT`.
    """

    def __init__(self, g: PcnGraph):
        n, (a, b) = g.node_count, g.ends.T
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        # pair keys < n^2 and row keys < n * E: int64 holds both for any
        # graph that fits in memory
        self.keys, first, which = np.unique(lo * n + hi, return_index=True,
                                            return_inverse=True)
        self.pairs = np.stack((lo[first], hi[first]))
        summed = np.bincount(which, weights=g.capacity, minlength=len(first))
        # both arcs of each pair, rows ordered by the pair's first channel
        src = self.pairs.ravel()
        order = np.argsort(src * len(a) + np.tile(first, 2))
        self.rows = src[order]
        self.indices = self.pairs[::-1].ravel()[order]
        self.capacity = np.tile(summed, 2)[order]
        self.indptr = np.searchsorted(self.rows, np.arange(n + 1))


def _column(*shape, dtype=np.int64):
    return field(default_factory=lambda: np.zeros(shape, dtype=dtype))


@dataclass(eq=False)
class PcnGraph:
    """A payment channel network, stored as columns.

    A node is its int: `ids` are the sorted node ids and `index` maps each
    to its int, both built once per graph and shared with its copies; the
    views, removal and components work on the ints alone. `node_order`, the
    order betweenness takes its sources and sums in, holds the ints in the
    iteration order of the id set the graph was born from (`graph_of_set`;
    id order otherwise). Channel c, in snapshot record order, has
    `channel_ids[c]`, endpoint ints `ends[c] = (a, b)`, `capacity[c]`, and
    per side `balance[c]`, `base_fee[c]` and `fee_rate[c]`: side 0 is a's
    outbound balance and fee policy, side 1 b's. Slot 2c + side names the
    arc out of `ends[c, side]` and indexes every two-column array flattened.
    A channel exists only as these columns: a routed payment is its arcs'
    slots, `fee_gain` reads a hop's fee by slot, and the attacks read a
    node's slots from its `ChannelView` row.

    Payments and max flow (through one shortest-path search) and minimum
    cuts run on a `ChannelView`, the topology measures on a `SimpleView`;
    each is built on first use, cached on the graph, and holds no
    balances. Mutation contract: balances change only by writing the
    column through `shift` (routed payments with `apply`, and the
    exhaustion attacks on a copy), and nothing cached is derived from
    them, so every search reads the balances as last written; the other
    columns are read-only and shared with copies. `copy()`,
    `induced_subgraph`, `remove_nodes` and `remove_channels` return graphs
    without views or caches, except the `ChannelView` that `copy()` shares.
    """

    ids: list[str] = field(default_factory=list)
    channel_ids: np.ndarray = _column(0, dtype=object)
    ends: np.ndarray = _column(0, 2)
    capacity: np.ndarray = _column(0)
    balance: np.ndarray = _column(0, 2)
    base_fee: np.ndarray = _column(0, 2)
    fee_rate: np.ndarray = _column(0, 2)
    index: dict[str, int] | None = None
    node_order: np.ndarray | None = None
    _view: ChannelView | None = field(default=None, init=False, repr=False)
    _simple: SimpleView | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.index is None:
            self.index = {v: i for i, v in enumerate(self.ids)}
        if self.node_order is None:
            self.node_order = np.arange(len(self.ids))
        for column in (self.node_order, self.channel_ids, self.ends,
                       self.capacity, self.base_fee, self.fee_rate):
            column.flags.writeable = False

    @property
    def node_count(self) -> int:
        return len(self.ids)

    @property
    def edge_count(self) -> int:
        return len(self.channel_ids)

    @cached_property
    def channel_index(self) -> dict[str, int]:
        """Channel id -> record position, built on first use."""
        return {cid: c for c, cid in enumerate(self.channel_ids.tolist())}

    def shift(self, slots, amounts) -> None:
        """Move `amounts` along the arcs `slots`: each leaves its source's
        side of the channel for the other side."""
        slots = np.asarray(slots, dtype=np.int64)
        flat = self.balance.reshape(-1)
        # a channel's two sides hold at most 2 * MAX_SAT < 2^63
        np.subtract.at(flat, slots, amounts)
        np.add.at(flat, slots ^ 1, amounts)

    def degrees(self) -> dict[str, int]:
        """Channel count (parallel channels each count) of every node."""
        counts = np.bincount(self.ends.reshape(-1), minlength=len(self.ids))
        return dict(zip(self.ids, counts.tolist()))

    def copy(self) -> "PcnGraph":
        """A graph with its own balances. A `ChannelView` the graph has
        built is shared, as it holds no balances; the `SimpleView` and the
        `channel_index` are built again on first use."""
        out = replace(self, balance=self.balance.copy())
        out._view = self._view  # `replace` leaves init=False fields unset
        return out

    def _channel_rows(self, keep) -> dict[str, np.ndarray]:
        """The channel columns restricted to the channels `keep` selects."""
        return {name: getattr(self, name)[keep] for name in (
            "channel_ids", "ends", "capacity", "balance", "base_fee", "fee_rate")}

    def channel_view(self) -> ChannelView:
        """The graph's cached `ChannelView`, built on first use."""
        if self._view is None:
            self._view = ChannelView(self)
        return self._view

    def simple_graph(self) -> SimpleView:
        """The graph's cached `SimpleView`, built on first use."""
        if self._simple is None:
            self._simple = SimpleView(self)
        return self._simple

    def balance_digraph(self) -> np.ndarray:
        """The max-flow input: the int64 routable balance of every arc, by
        slot, as a read-only view of the balance column (it follows later
        writes through `shift`). The `ChannelView` gives each slot's ends."""
        arcs = self.balance.reshape(-1).view()
        arcs.flags.writeable = False
        return arcs

    def to_snapshot_dict(self) -> dict:
        """Serialize back to the snapshot schema (with explicit balances),
        the channels in id order."""
        columns = [self.channel_ids, self.capacity] + [
            column[:, side] for column in
            (self.ends, self.balance, self.base_fee, self.fee_rate)
            for side in (0, 1)]
        return {
            "nodes": [{"pub_key": n} for n in self.ids],
            "edges": [
                {
                    "channel_id": cid,
                    "node1_pub": self.ids[a],
                    "node2_pub": self.ids[b],
                    "capacity": capacity,
                    "node1_balance": balance_ab,
                    "node2_balance": balance_ba,
                    "node1_policy": {"fee_base_msat": base_ab,
                                     "fee_rate_milli_msat": rate_ab},
                    "node2_policy": {"fee_base_msat": base_ba,
                                     "fee_rate_milli_msat": rate_ba},
                }
                # the ids are unique, so the rows sort by id alone
                for cid, capacity, a, b, balance_ab, balance_ba, base_ab,
                base_ba, rate_ab, rate_ba in sorted(zip(*(c.tolist() for c in columns)))
            ],
        }


def graph_of_set(nodes: set[str]) -> PcnGraph:
    """A graph without channels on the ids `nodes`, whose `node_order` is
    the set's iteration order."""
    index = {v: i for i, v in enumerate(sorted(nodes))}
    return PcnGraph(ids=list(index), index=index, node_order=np.array(
        [index[v] for v in nodes], dtype=np.int64))


def _copied(text: str) -> str:
    """`text` copied, so that a graph pins no memory page of a freed JSON tree."""
    return text.encode("utf-8", "surrogatepass").decode("utf-8", "surrogatepass")


def _integer(value) -> int:
    """A JSON integer (not a bool) or an integer string as an int; anything
    else, such as 1.5 or true, raises rather than being truncated."""
    if type(value) is str:
        return int(value)
    if type(value) is int:
        return value
    raise TypeError(f"{value!r} is not an integer")


def _parse_policy(cid: str, raw) -> tuple[int, int]:
    """(base fee, fee rate) of one side's policy record of channel `cid`,
    the defaults for a missing or empty one. Their range is checked in
    `graph_from_dict`."""
    if not raw:
        return DEFAULT_BASE_FEE_MSAT, DEFAULT_RATE_PPM
    if not isinstance(raw, dict):
        raise SnapshotError(f"channel {cid} has a fee policy that is not an "
                            f"object: {raw!r}")
    try:
        return (_integer(raw.get("fee_base_msat", DEFAULT_BASE_FEE_MSAT)),
                _integer(raw.get("fee_rate_milli_msat", DEFAULT_RATE_PPM)))
    except (TypeError, ValueError):
        raise ValidationError(f"channel {cid} has a bad fee policy {raw!r}")


def _records(data: dict, key: str) -> list:
    records = data.get(key, [])
    if not isinstance(records, list):
        raise SnapshotError(f"snapshot {key!r} is not a list")
    return records


def graph_from_dict(data: dict, balance_model: str = "capacity-both-ways") -> PcnGraph:
    if balance_model not in BALANCE_MODELS:
        raise ValueError(f"unknown balance model {balance_model!r}")
    if not isinstance(data, dict):
        raise SnapshotError("snapshot is not a JSON object")

    nodes = set()  # in record order: its iteration order is `node_order`
    for rec in _records(data, "nodes"):
        if not isinstance(rec, dict):
            raise SnapshotError(f"node record is not an object: {rec!r}")
        key = rec.get("pub_key")
        if not key or not isinstance(key, str):
            raise ValidationError(f"node record without a pub_key string: {rec!r}")
        if key in nodes:
            raise ValidationError(f"duplicate node key {key}")
        nodes.add(_copied(key))
    g = graph_of_set(nodes)

    # nine integers per channel: capacity, then (a, b) pairs of endpoints,
    # balances, base fees and fee rates
    seen, channel_ids, table = set(), [], []
    for rec in _records(data, "edges"):
        if not isinstance(rec, dict):
            raise SnapshotError(f"edge record is not an object: {rec!r}")
        cid = rec.get("channel_id")
        if type(cid) is int:  # a JSON integer, not a bool
            cid = str(cid)
        if not isinstance(cid, str) or not cid:
            raise ValidationError(f"edge record without channel_id: {rec!r}")
        if cid in seen:
            raise ValidationError(f"duplicate channel_id {cid}")
        try:
            a, b = g.index[rec.get("node1_pub")], g.index[rec.get("node2_pub")]
        except (KeyError, TypeError):  # unknown or unhashable endpoint
            raise ValidationError(f"channel {cid} references unknown node")
        if a == b:
            raise ValidationError(f"channel {cid} is a self-loop")
        try:
            capacity = _integer(rec["capacity"])
        except (KeyError, TypeError, ValueError):
            raise ValidationError(f"channel {cid} has missing or bad capacity")
        if not 0 < capacity <= MAX_SAT:
            raise ValidationError(
                f"channel {cid} has capacity {capacity} outside 1..{MAX_SAT}")

        if balance_model == "capacity-both-ways":
            bal_ab = bal_ba = capacity
        elif balance_model == "half-split":
            bal_ab = bal_ba = capacity // 2
        else:
            try:
                bal_ab = _integer(rec["node1_balance"])
                bal_ba = _integer(rec["node2_balance"])
            except (KeyError, TypeError, ValueError):
                raise ValidationError(f"channel {cid} lacks explicit balances")
            if not (0 <= bal_ab <= MAX_SAT and 0 <= bal_ba <= MAX_SAT):
                raise ValidationError(
                    f"channel {cid} has a balance outside 0..{MAX_SAT}")
            # Balances split the capacity; both sides holding all of it is
            # the capacity-both-ways state that `to_snapshot_dict` writes.
            if (bal_ab + bal_ba > capacity
                    and not bal_ab == bal_ba == capacity):
                raise ValidationError(
                    f"channel {cid} has balances {bal_ab} + {bal_ba} "
                    f"above its capacity {capacity}")
        base_ab, rate_ab = _parse_policy(cid, rec.get("node1_policy"))
        base_ba, rate_ba = _parse_policy(cid, rec.get("node2_policy"))
        # BOLT 7 gossips both fee fields as u32
        fees = (base_ab, base_ba, rate_ab, rate_ba)
        if not 0 <= min(fees) <= max(fees) <= 2**32 - 1:
            raise ValidationError(
                f"channel {cid} has a fee field outside 0..{2**32 - 1}")

        seen.add(cid)
        channel_ids.append(_copied(cid))
        table += (capacity, a, b, bal_ab, bal_ba,
                  base_ab, base_ba, rate_ab, rate_ba)
    table = np.array(table, dtype=np.int64).reshape(-1, 9)

    def pair(k):
        return table[:, k:k + 2].copy()
    return replace(g, channel_ids=np.array(channel_ids, dtype=object),
                   capacity=table[:, 0].copy(), ends=pair(1), balance=pair(3),
                   base_fee=pair(5), fee_rate=pair(7))


def load_snapshot(path, balance_model: str = "capacity-both-ways") -> PcnGraph:
    """Load and validate a describegraph-style JSON snapshot."""
    # A parsed JSON tree, and the graph built from it, hold no reference
    # cycles, so the cyclic collector is paused until the tree is freed:
    # each collection would walk the whole tree again.
    collecting = gc.isenabled()
    gc.disable()
    try:
        try:
            with open(path, encoding="utf-8") as f:
                data = json.load(f)
        # a decoding error is a ValueError; nesting too deep, a RecursionError
        except (OSError, ValueError, RecursionError) as exc:
            raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
        g = graph_from_dict(data, balance_model=balance_model)
        del data
        return g
    finally:
        if collecting:
            gc.enable()


def component_labels(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The smallest node of each of the n nodes' components, for the edges
    (u[i], v[i]). Each round hooks the larger root of every edge whose ends
    lie in two trees under the smallest root across its edges, then pointer
    jumping points every node at its root. A parent is always smaller than
    its child, so a root is its tree's smallest node. A root hooked by no
    edge sees its neighbours hooked under it or under a smaller root, which
    then hooks it in the next round: every tree with an edge out merges
    within two rounds, so there are O(log n) rounds."""
    label = np.arange(n)
    while True:
        lu, lv = label[u], label[v]
        split = lu != lv
        if not split.any():
            return label
        lu, lv = lu[split], lv[split]
        np.minimum.at(label, np.maximum(lu, lv), np.minimum(lu, lv))
        while True:
            up = label[label]
            if (up == label).all():
                break
            label = up


def largest_component(g: PcnGraph) -> np.ndarray:
    """Mask of the nodes of the largest connected component; of equal
    ones, the one with the smallest label, which holds the smallest id."""
    labels = component_labels(g.node_count, *g.simple_graph().pairs)
    return labels == np.bincount(labels, minlength=1).argmax()


def largest_connected_component(g: PcnGraph) -> PcnGraph:
    """Induced subgraph on the largest component (`largest_component`)."""
    return induced_subgraph(g, largest_component(g))


def induced_subgraph(g: PcnGraph, alive: np.ndarray) -> PcnGraph:
    """The nodes the boolean mask `alive` selects and the channels between
    them. The node order is carried over, masked and renumbered, not
    recorded again."""
    kept = alive[g.ends].all(axis=1)
    rows, number = g._channel_rows(kept), np.cumsum(alive) - 1
    rows["ends"] = number[rows["ends"]]
    nodes = g.node_order
    return PcnGraph(ids=list(compress(g.ids, alive)),
                    node_order=number[nodes[alive[nodes]]], **rows)


def remove_nodes(g: PcnGraph, targets) -> PcnGraph:
    """New graph without `targets` and their incident channels."""
    targets = list(targets)
    if unknown := [v for v in targets if v not in g.index]:
        raise KeyError(f"unknown nodes: {sorted(dict.fromkeys(unknown))}")
    dead = [g.index[v] for v in targets]
    return induced_subgraph(g, np.isin(np.arange(g.node_count), dead, invert=True))


def remove_channels(g: PcnGraph, channel_ids) -> PcnGraph:
    """A copy of `g` without the given channels; ids it lacks are skipped."""
    keep = ~np.isin(g.channel_ids, list(channel_ids))
    return replace(g.copy(), **g._channel_rows(keep))
