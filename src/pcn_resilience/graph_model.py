"""Channel-graph data model and snapshot ingestion.

The snapshot format is a subset of the lnd ``describegraph`` JSON output:
top-level ``nodes`` (with ``pub_key``) and ``edges`` (with ``channel_id``,
``node1_pub``, ``node2_pub``, ``capacity`` and optional per-side fee
policies). Unknown fields are ignored.
"""

from __future__ import annotations

import gc
import json
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import compress
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from scipy.sparse import csr_array

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


@dataclass(frozen=True)
class FeePolicy:
    base_fee_msat: int = DEFAULT_BASE_FEE_MSAT
    rate_ppm: int = DEFAULT_RATE_PPM

    def __post_init__(self):
        if self.base_fee_msat < 0 or self.rate_ppm < 0:
            raise ValidationError("fee policy fields must be non-negative")

    def fee_msat(self, amount_sat: int) -> int:
        """Forwarding fee in msat for routing `amount_sat` satoshis."""
        return self.base_fee_msat + (amount_sat * self.rate_ppm) // 1000


@dataclass(frozen=True)
class ChannelEdge:
    """One channel of a `PcnGraph`, read from its columns."""

    channel_id: str
    a: str
    b: str
    capacity: int
    balance_ab: int
    balance_ba: int
    policy_ab: FeePolicy = field(default_factory=FeePolicy)
    policy_ba: FeePolicy = field(default_factory=FeePolicy)

    def _side(self, v: str) -> int:
        if v not in (self.a, self.b):
            raise KeyError(f"{v} is not an endpoint of channel {self.channel_id}")
        return int(v != self.a)

    def balance(self, src: str) -> int:
        return (self.balance_ab, self.balance_ba)[self._side(src)]

    def policy(self, src: str) -> FeePolicy:
        return (self.policy_ab, self.policy_ba)[self._side(src)]


class ChannelView:
    """The directed arcs of a graph's channels, for routing, max flow and
    minimum cuts.

    Arc `slot[x]` (a slot of `PcnGraph`) leaves `src[x]` for `dst[x]`. Arcs
    are ordered by (source, destination, channel id) with a CSR row pointer
    by source, so the first usable arc in a row reaches the smallest
    destination id through the smallest channel id. The reverse of slot y
    is slot y ^ 1, the other side of the same channel. The view holds no
    amounts: its searches read a per-slot `residual` they are given, such
    as the graph's balances or a max-flow residual.
    """

    def __init__(self, g: PcnGraph):
        self.ids, self.index = g.ids, g.index
        rank = np.empty(g.edge_count, dtype=np.int64)  # in channel-id order
        rank[g.channel_order] = np.arange(g.edge_count)
        src, dst = g.ends.reshape(-1), g.ends[:, ::-1].reshape(-1)
        self.slot = np.lexsort((np.repeat(rank, 2), dst, src))
        self.src, self.dst = src[self.slot], dst[self.slot]
        self.indptr = np.searchsorted(self.src, np.arange(len(self.ids) + 1))
        self.degree = np.diff(self.indptr)

    def open_arcs(self, nodes: np.ndarray, residual: np.ndarray, least: int,
                  side: int = 0) -> np.ndarray:
        """Positions of the arcs out of `nodes` whose slot holds at least
        `least` in `residual`, row after row. With side 1 they stand for the
        arcs into `nodes` instead: position x is then the arc
        `dst[x] -> src[x]`, whose slot is `slot[x] ^ 1`. Either way `dst`
        gives the far end."""
        lo, counts = self.indptr[nodes], self.degree[nodes]
        ends = counts.cumsum()
        pos = np.arange(counts.sum()) + (lo - ends + counts).repeat(counts)
        return pos[residual[self.slot[pos] ^ side] >= least]

    def hops_to(self, t: int, residual: np.ndarray, least: int,
                stop: int | None = None) -> np.ndarray:
        """Hops from each node to node `t` over the arcs whose slot holds at
        least `least` in `residual`, -1 where t is unreachable. A BFS back
        from t, one level at a time, that ends once `stop` has a label (the
        levels below its own are then complete)."""
        dist = np.full(len(self.ids), -1)
        dist[t] = 0
        frontier = np.array([t])
        level = 0
        while len(frontier) and (stop is None or dist[stop] < 0):
            new = self.dst[self.open_arcs(frontier, residual, least, 1)]
            level += 1
            dist[new[dist[new] < 0]] = level
            frontier = (dist == level).nonzero()[0]
        return dist

    def max_flow(self, residual: np.ndarray, s: int, t: int) -> int:
        """Push a maximum flow from node `s` to node `t` through `residual`,
        an int64 amount per slot that is written in place, and return its
        value as a Python int.

        Dinic (1970): each phase finds the arcs with residual > 0 on
        shortest s-t paths and saturates them with a blocking flow. Pushing
        f along slot y moves f from residual[y] to residual[y ^ 1], as
        `PcnGraph.shift` moves a balance, so no residual exceeds its
        channel's two sides together. The search ends once t is cut off or
        the flow reaches the residual out of s or into t, whichever is
        smaller (summed as Python ints)."""
        bound = min(sum(residual[self.slot[self.indptr[v]:self.indptr[v + 1]]
                                 ^ side].tolist()) for v, side in ((s, 0), (t, 1)))
        total = 0
        while total < bound:
            arcs = self._shortest_path_arcs(residual, s, t)
            if arcs is None:
                break
            slots, tails, heads = arcs
            before = residual[slots]
            cap = before.tolist()
            total += _blocking_flow(tails.tolist(), heads.tolist(), cap, s, t,
                                    bound - total)
            pushed = before - np.array(cap, dtype=np.int64)
            residual[slots] -= pushed
            residual[slots ^ 1] += pushed
        return total

    def _shortest_path_arcs(self, residual: np.ndarray, s: int, t: int):
        """(slots, tails, heads) of the arcs with residual > 0 on shortest
        s-t paths, or None when t is cut off.

        A bidirectional BFS labels levels from s over arcs out of the
        frontier and levels to t over arcs into it (the reverses of the
        arcs out of it), each step growing the side whose frontier has
        fewer arcs, until a new level meets the other side. Each side's
        layers of arcs are then walked back from the meeting nodes,
        keeping the arcs whose newly labelled end leads to them."""
        n = len(self.ids)
        dist = (np.full(n, -1), np.full(n, -1))  # from s, and to t
        dist[0][s] = dist[1][t] = 0
        frontier = [np.array([s]), np.array([t])]
        width = [int(self.degree[s]), int(self.degree[t])]  # arcs to scan
        layers: tuple[list, list] = ([], [])
        while True:
            side = int(width[1] < width[0])
            pos = self.open_arcs(frontier[side], residual, 1, side)
            pos = pos[dist[side][self.dst[pos]] < 0]
            if not len(pos):
                return None
            new = self.dst[pos]
            level = len(layers[side]) + 1
            dist[side][new] = level
            layers[side].append(pos)
            if (dist[1 - side][new] >= 0).any():
                break
            frontier[side] = np.flatnonzero(dist[side] == level)
            width[side] = int(self.degree[frontier[side]].sum())
        meet = new[dist[1 - side][new] >= 0]
        kept = ([np.zeros(0, np.int64)], [np.zeros(0, np.int64)])
        for grown in (0, 1):
            useful = np.zeros(n, dtype=bool)
            useful[meet] = True
            for pos in reversed(layers[grown]):
                pos = pos[useful[self.dst[pos]]]
                useful[self.src[pos]] = True
                kept[grown].append(pos)
        out, back = map(np.concatenate, kept)
        # an arc found from t's side runs against the arc out of its row
        return (np.concatenate((self.slot[out], self.slot[back] ^ 1)),
                np.concatenate((self.src[out], self.dst[back])),
                np.concatenate((self.dst[out], self.src[back])))


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
    measures.

    Node ids and their ints are the graph's `ids` and `index`. CSR row i
    (`rows`, `indices`, `indptr`) lists node i's neighbours once each, in
    the order of the first channel (in record order) joining the two, with
    their summed `capacity`, and `adjacency`, a scipy matrix built on first
    use, holds the same entries as ones; `insertion` is the node set's
    iteration order. These are the orders of the networkx graph
    betweenness reproduces.
    """

    def __init__(self, g: PcnGraph):
        self.ids, self.index = g.ids, g.index
        n = len(self.ids)
        self.insertion = np.array([self.index[v] for v in g.nodes], np.int64)
        a, b = g.ends.T
        _, first, which = np.unique(np.minimum(a, b) * n + np.maximum(a, b),
                                    return_index=True, return_inverse=True)
        summed = np.zeros(len(first), dtype=np.int64)
        np.add.at(summed, which, g.capacity)
        # both arcs of each pair, rows ordered by the pair's first channel
        src = np.concatenate((a[first], b[first]))
        order = np.argsort(src * len(a) + np.tile(first, 2))
        self.rows = src[order]
        self.indices = np.concatenate((b[first], a[first]))[order]
        self.capacity = np.tile(summed, 2)[order]
        self.indptr = np.searchsorted(self.rows, np.arange(n + 1))

    @cached_property
    def adjacency(self) -> csr_array:
        from scipy.sparse import csr_array
        n = len(self.ids)
        return csr_array((np.ones(len(self.indices), dtype=np.int64),
                          self.indices, self.indptr), shape=(n, n))


def _column(*shape, dtype=np.int64):
    return field(default_factory=lambda: np.zeros(shape, dtype=dtype))


class _Channels(Mapping):
    """`PcnGraph.edges`: channel id -> `ChannelEdge`, built on access."""

    def __init__(self, g: PcnGraph):
        self._g = g

    def __getitem__(self, cid) -> ChannelEdge:
        g = self._g
        c = g.channel_index[cid]
        a, b = g.ends[c].tolist()
        return ChannelEdge(cid, g.ids[a], g.ids[b], int(g.capacity[c]),
                           *g.balance[c].tolist(), g.policy(2 * c),
                           g.policy(2 * c + 1))

    def __iter__(self):
        return iter(self._g.channel_ids.tolist())

    def __len__(self) -> int:
        return self._g.edge_count


@dataclass(eq=False)
class PcnGraph:
    """A payment channel network, stored as columns.

    `ids` are the sorted node ids and `index` maps each to its int; both
    are built once per graph and shared by its views and copies. `nodes` is
    the node set, whose iteration order `SimpleView.insertion` records.
    Channel c, in snapshot record order, has `channel_ids[c]`, endpoint ints
    `ends[c] = (a, b)`, `capacity[c]`, and per side `balance[c]`,
    `base_fee[c]` and `fee_rate[c]`: side 0 is a's outbound balance and fee
    policy, side 1 b's. Slot 2c + side names the arc out of `ends[c, side]`
    and indexes every two-column array flattened. `edges` reads the columns
    as `ChannelEdge` records.

    Routing, max flow and minimum cuts run on a `ChannelView`, the topology
    measures on a `SimpleView`; each is built on first use, cached on the
    graph, and holds no balances. Mutation contract: balances change only
    by writing the column through `shift` (routed payments with `apply`,
    and the exhaustion attacks on a copy), and nothing cached is derived
    from them, so every search reads the balances as last written; the
    other columns are read-only and shared with copies. `copy()`,
    `induced_subgraph`, `remove_nodes` and `remove_channels` return graphs
    without views or caches, except the channel-id order that `copy()` and
    `induced_subgraph` carry.
    """

    nodes: set[str] = field(default_factory=set)
    channel_ids: np.ndarray = _column(0, dtype=object)
    ends: np.ndarray = _column(0, 2)
    capacity: np.ndarray = _column(0)
    balance: np.ndarray = _column(0, 2)
    base_fee: np.ndarray = _column(0, 2)
    fee_rate: np.ndarray = _column(0, 2)
    snapshot_time: str | None = None
    ids: list[str] | None = None
    index: dict[str, int] | None = None
    _view: ChannelView | None = field(default=None, init=False, repr=False)
    _simple: SimpleView | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.ids is None:
            self.ids = sorted(self.nodes)
        if self.index is None:
            self.index = {v: i for i, v in enumerate(self.ids)}
        for column in (self.channel_ids, self.ends, self.capacity,
                       self.base_fee, self.fee_rate):
            column.flags.writeable = False

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.channel_ids)

    @property
    def edges(self) -> Mapping[str, ChannelEdge]:
        return _Channels(self)

    @cached_property
    def channel_index(self) -> dict[str, int]:
        """Channel id -> record position, built on first use."""
        return {cid: c for c, cid in enumerate(self.channel_ids.tolist())}

    @cached_property
    def channel_order(self) -> np.ndarray:
        """Record positions in channel-id order, built on first use."""
        return np.argsort(self.channel_ids)

    def policy(self, slot: int) -> FeePolicy:
        """Fee policy of the source of arc `slot`."""
        return FeePolicy(int(self.base_fee.flat[slot]),
                         int(self.fee_rate.flat[slot]))

    def out_slots(self, v: str) -> np.ndarray:
        """Slots of the arcs out of `v` (none for an unknown node)."""
        return np.flatnonzero(self.ends.reshape(-1) == self.index.get(v, -1))

    def shift(self, slots, amounts) -> None:
        """Move `amounts` along the arcs `slots`: each leaves its source's
        side of the channel for the other side."""
        slots = np.asarray(slots, dtype=np.int64)
        flat = self.balance.reshape(-1)
        np.subtract.at(flat, slots, amounts)
        np.add.at(flat, slots ^ 1, amounts)

    def outbound_balance(self, v: str) -> int:
        return sum(self.balance.reshape(-1)[self.out_slots(v)].tolist())

    def degrees(self) -> dict[str, int]:
        """Channel count (parallel channels each count) of every node."""
        counts = np.bincount(self.ends.reshape(-1), minlength=len(self.ids))
        return dict(zip(self.ids, counts.tolist()))

    def outbound_balances(self) -> dict[str, int]:
        """`outbound_balance` of every node. The sums run over the 32-bit
        halves of the balances, which float64 counts hold exactly for
        fewer than 2**21 channels per node."""
        ends, flat = self.ends.reshape(-1), self.balance.reshape(-1)
        high, low = (np.bincount(ends, half, len(self.ids)).astype(np.int64)
                     .tolist() for half in (flat >> 32, flat & 0xFFFFFFFF))
        return {v: (h << 32) + lo for v, h, lo in zip(self.ids, high, low)}

    def copy(self) -> "PcnGraph":
        """A graph with its own node set and balances. A channel-id order
        the graph has built is shared; its views are built again on first
        use."""
        out = replace(self, nodes=set(self.nodes), balance=self.balance.copy())
        if "channel_order" in vars(self):
            out.channel_order = self.channel_order
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
        """Serialize back to the snapshot schema (with explicit balances)."""
        order = self.channel_order
        columns = [self.channel_ids[order], self.capacity[order]] + [
            column[order, side] for column in
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
                    "node1_policy": {
                        "fee_base_msat": base_ab,
                        "fee_rate_milli_msat": rate_ab,
                    },
                    "node2_policy": {
                        "fee_base_msat": base_ba,
                        "fee_rate_milli_msat": rate_ba,
                    },
                }
                for cid, capacity, a, b, balance_ab, balance_ba, base_ab,
                base_ba, rate_ab, rate_ba in zip(*(c.tolist() for c in columns))
            ],
        }


def _parse_policy(raw) -> tuple[int, int]:
    """(base fee, fee rate) of one side's policy record."""
    if not raw:
        return DEFAULT_BASE_FEE_MSAT, DEFAULT_RATE_PPM
    if not isinstance(raw, dict):
        raise SnapshotError(f"fee policy is not an object: {raw!r}")
    try:
        base = int(raw.get("fee_base_msat", DEFAULT_BASE_FEE_MSAT))
        rate = int(raw.get("fee_rate_milli_msat", DEFAULT_RATE_PPM))
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"bad fee policy {raw!r}")
    if base < 0 or rate < 0:
        raise ValidationError("fee policy fields must be non-negative")
    return base, rate


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

    nodes = set()
    for rec in _records(data, "nodes"):
        if not isinstance(rec, dict):
            raise SnapshotError(f"node record is not an object: {rec!r}")
        key = rec.get("pub_key")
        if not key or not isinstance(key, str):
            raise ValidationError(f"node record without a pub_key string: {rec!r}")
        if key in nodes:
            raise ValidationError(f"duplicate node key {key}")
        nodes.add(key)
    g = PcnGraph(nodes=nodes, snapshot_time=data.get("snapshot_time"))

    # nine integers per channel: capacity, then (a, b) pairs of endpoints,
    # balances, base fees and fee rates
    seen, channel_ids, table = set(), [], []
    for rec in _records(data, "edges"):
        if not isinstance(rec, dict):
            raise SnapshotError(f"edge record is not an object: {rec!r}")
        cid = str(rec.get("channel_id", ""))
        if not cid:
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
            capacity = int(rec["capacity"])
        except (KeyError, TypeError, ValueError, OverflowError):
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
                bal_ab = int(rec["node1_balance"])
                bal_ba = int(rec["node2_balance"])
            except (KeyError, TypeError, ValueError, OverflowError):
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
        base_ab, rate_ab = _parse_policy(rec.get("node1_policy"))
        base_ba, rate_ba = _parse_policy(rec.get("node2_policy"))
        # BOLT 7 gossips both fee fields as u32
        if max(base_ab, base_ba, rate_ab, rate_ba) > 2**32 - 1:
            raise ValidationError(
                f"channel {cid} has a fee field above {2**32 - 1}")

        seen.add(cid)
        channel_ids.append(cid)
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
        except (OSError, json.JSONDecodeError) as exc:
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


def connected_components(g: PcnGraph) -> list[set[str]]:
    """Components sorted by (size desc, smallest member id) for determinism."""
    view = g.simple_graph()
    comps: dict[int, set[str]] = {}
    labels = component_labels(len(view.ids), view.rows, view.indices)
    for v, label in zip(view.ids, labels.tolist()):
        comps.setdefault(label, set()).add(v)
    # a label is its component's smallest member, and the ids are sorted
    return [comps[label] for label in sorted(
        comps, key=lambda label: (-len(comps[label]), label))]


def largest_connected_component(g: PcnGraph) -> PcnGraph:
    """Induced subgraph on the largest component; ties broken by the
    smallest lexicographic member id."""
    comps = connected_components(g)
    return induced_subgraph(g, comps[0] if comps else set())


def induced_subgraph(g: PcnGraph, keep: set[str]) -> PcnGraph:
    """The nodes `keep` and the channels between them. A channel-id order
    `g` has built is carried over, masked and renumbered, not sorted again."""
    alive = np.fromiter((v in keep for v in g.ids), dtype=bool, count=len(g.ids))
    kept = alive[g.ends].all(axis=1)
    rows = g._channel_rows(kept)
    rows["ends"] = (np.cumsum(alive) - 1)[rows["ends"]]
    sub = PcnGraph(nodes=set(keep), ids=list(compress(g.ids, alive)),
                   snapshot_time=g.snapshot_time, **rows)
    if "channel_order" in vars(g):
        order = g.channel_order
        sub.channel_order = (np.cumsum(kept) - 1)[order[kept[order]]]
    return sub


def remove_nodes(g: PcnGraph, targets) -> PcnGraph:
    """New graph without `targets` and their incident channels."""
    targets = set(targets)
    unknown = targets - g.nodes
    if unknown:
        raise KeyError(f"unknown nodes: {sorted(unknown)}")
    return induced_subgraph(g, g.nodes - targets)


def remove_channels(g: PcnGraph, channel_ids) -> PcnGraph:
    """A copy of `g` without the given channels; ids it lacks are skipped."""
    keep = ~np.isin(g.channel_ids, list(channel_ids))
    return replace(g.copy(), **g._channel_rows(keep))
