"""Channel-graph data model and snapshot ingestion.

The snapshot format is a subset of the lnd ``describegraph`` JSON output:
top-level ``nodes`` (with ``pub_key``) and ``edges`` (with ``channel_id``,
``node1_pub``, ``node2_pub``, ``capacity`` and optional per-side fee
policies). Unknown fields are ignored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import networkx as nx
import numpy as np
from scipy.sparse import csr_array

# Fallback policy when a snapshot omits one side (common network defaults).
DEFAULT_BASE_FEE_MSAT = 1000
DEFAULT_RATE_PPM = 1

BALANCE_MODELS = ("capacity-both-ways", "half-split", "explicit")

# scipy's maximum_flow keeps capacities and residuals in int32, and the
# residual of an arc can reach its capacity plus that of its reverse arc, so
# no arc of the balance view may exceed half the int32 range.
MAX_ARC_BALANCE = 2**30 - 1

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


@dataclass
class ChannelEdge:
    channel_id: str
    a: str
    b: str
    capacity: int
    balance_ab: int
    balance_ba: int
    policy_ab: FeePolicy = field(default_factory=FeePolicy)
    policy_ba: FeePolicy = field(default_factory=FeePolicy)

    def balance(self, src: str) -> int:
        if src == self.a:
            return self.balance_ab
        if src == self.b:
            return self.balance_ba
        raise KeyError(f"{src} is not an endpoint of channel {self.channel_id}")

    def policy(self, src: str) -> FeePolicy:
        if src == self.a:
            return self.policy_ab
        if src == self.b:
            return self.policy_ba
        raise KeyError(f"{src} is not an endpoint of channel {self.channel_id}")

    def other(self, v: str) -> str:
        if v == self.a:
            return self.b
        if v == self.b:
            return self.a
        raise KeyError(f"{v} is not an endpoint of channel {self.channel_id}")

    def shift(self, src: str, amount: int) -> None:
        """Move `amount` of routable balance from src's side to the other side."""
        if src == self.a:
            self.balance_ab -= amount
            self.balance_ba += amount
        elif src == self.b:
            self.balance_ba -= amount
            self.balance_ab += amount
        else:
            raise KeyError(f"{src} is not an endpoint of channel {self.channel_id}")


class ChannelView:
    """Integer-indexed view of a graph's channels, for routing and max flow.

    Node ids are sorted and mapped to ints, and channels are kept in
    ``channel_id`` order. Each channel gives two directed arcs, ordered by
    (source, destination, channel position) with a CSR row pointer by
    source, so the first usable arc in a row reaches the smallest
    destination id through the smallest channel id. `balance` holds the
    routable balance per arc and changes only through `shift`.
    """

    def __init__(self, g: PcnGraph):
        self.ids = sorted(g.nodes)
        self.index = {v: i for i, v in enumerate(self.ids)}
        self.channels = sorted(g.edges.values(), key=lambda e: e.channel_id)
        m = len(self.channels)

        def column(values):
            return np.fromiter(values, np.int64, m)

        a = column(self.index[e.a] for e in self.channels)
        b = column(self.index[e.b] for e in self.channels)
        # arcs a->b of every channel, then b->a
        src, dst = np.concatenate((a, b)), np.concatenate((b, a))
        channel = np.tile(np.arange(m), 2)
        opposite = np.concatenate((np.arange(m, 2 * m), np.arange(m)))
        balance = np.concatenate((column(e.balance_ab for e in self.channels),
                                  column(e.balance_ba for e in self.channels)))
        order = np.lexsort((channel, dst, src))
        rank = np.empty_like(order)
        rank[order] = np.arange(2 * m)
        self.src, self.dst = src[order], dst[order]
        self.channel = channel[order]
        self.balance = balance[order]
        self.reverse = rank[opposite[order]]
        self.indptr = np.searchsorted(self.src, np.arange(len(self.ids) + 1))
        self._routable: tuple[int, np.ndarray, np.ndarray] | None = None
        self._flow: tuple[csr_array, dict[str, int]] | None = None

    def routable(self, amount: int) -> tuple[np.ndarray, np.ndarray]:
        """Sources and destinations of the arcs with balance >= `amount`,
        reused until the amount asked for or a balance changes."""
        if self._routable is None or self._routable[0] != amount:
            usable = self.balance >= amount
            self._routable = (amount, self.src[usable], self.dst[usable])
        return self._routable[1], self._routable[2]

    def shift(self, arcs, amount: int) -> None:
        """Move `amount` along each arc; the channels and this view's
        balances change together."""
        for x in arcs:
            self.channels[self.channel[x]].shift(self.ids[self.src[x]], amount)
            self.balance[x] -= amount
            self.balance[self.reverse[x]] += amount
        self._routable = None
        self._flow = None

    def balance_digraph(self) -> tuple[csr_array, dict[str, int]]:
        """`PcnGraph.balance_digraph`, built once per balance state."""
        if self._flow is not None:
            return self._flow
        # arcs are sorted by (source, destination): sum each run
        first = np.ones(len(self.src), dtype=bool)
        first[1:] = ((self.src[1:] != self.src[:-1])
                     | (self.dst[1:] != self.dst[:-1]))
        starts = np.flatnonzero(first)
        summed = zip(self.src[starts].tolist(), self.dst[starts].tolist(),
                     np.add.reduceat(self.balance, starts).tolist())
        rows, cols, balances = [], [], []
        size = len(self.ids)
        for u, v, bal in summed:
            if bal <= MAX_ARC_BALANCE:
                rows.append(u)
                cols.append(v)
                balances.append(bal)
                continue
            for start in range(0, bal, MAX_ARC_BALANCE):
                piece = min(MAX_ARC_BALANCE, bal - start)
                rows += (u, size)
                cols += (size, v)
                balances += (piece, piece)
                size += 1
        arcs = csr_array((balances, (rows, cols)), shape=(size, size),
                         dtype="int32")
        self._flow = (arcs, self.index)
        return self._flow


@dataclass
class PcnGraph:
    """A payment channel network. Treated as immutable by analysis code;
    derive modified graphs via `remove_nodes` / the attack operations.

    Routing and max flow run on a `ChannelView` built on first use and
    cached on the graph. Mutation contract: once the view exists, balances
    change in place only through `payment_sim.route_payment(apply=True)`,
    which shifts the channels and the view together; nodes and channels
    are never added or removed in place. `copy()`, `induced_subgraph` and
    `remove_nodes` return graphs without a view, so a graph changed right
    after copying (as the attack operations do) builds a fresh one.
    """

    nodes: set[str] = field(default_factory=set)
    edges: dict[str, ChannelEdge] = field(default_factory=dict)
    snapshot_time: str | None = None
    _view: ChannelView | None = field(default=None, init=False, repr=False,
                                      compare=False)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def channels_of(self, v: str) -> list[ChannelEdge]:
        return [e for e in self.edges.values() if v in (e.a, e.b)]

    def outbound_balance(self, v: str) -> int:
        return sum(e.balance(v) for e in self.channels_of(v))

    def outbound_balances(self) -> dict[str, int]:
        """`outbound_balance` of every node, in one pass over the channels."""
        out = {v: 0 for v in self.nodes}
        for e in self.edges.values():
            out[e.a] += e.balance_ab
            out[e.b] += e.balance_ba
        return out

    def copy(self) -> "PcnGraph":
        return PcnGraph(
            nodes=set(self.nodes),
            edges={cid: replace(e) for cid, e in self.edges.items()},
            snapshot_time=self.snapshot_time,
        )

    def channel_view(self) -> ChannelView:
        """The graph's cached `ChannelView`, built on first use."""
        if self._view is None:
            self._view = ChannelView(self)
        return self._view

    def simple_graph(self) -> nx.Graph:
        """Undirected simple projection; parallel channels collapsed with
        capacities summed (stored as edge attribute `capacity`)."""
        g = nx.Graph()
        g.add_nodes_from(self.nodes)
        for e in self.edges.values():
            if g.has_edge(e.a, e.b):
                g[e.a][e.b]["capacity"] += e.capacity
            else:
                g.add_edge(e.a, e.b, capacity=e.capacity)
        return g

    def balance_digraph(self) -> tuple[csr_array, dict[str, int]]:
        """Directed balance view for max flow, with the node id -> index map
        (ids in sorted order). Entry [i, j] is the total routable balance from
        node i to node j, parallel channels summed. Cached with the channel
        view until a routed payment shifts a balance; read-only.

        A summed balance above MAX_ARC_BALANCE is routed through relay nodes
        appended after the real ones, one per piece of at most
        MAX_ARC_BALANCE, so every max-flow value stays exact."""
        return self.channel_view().balance_digraph()

    def to_snapshot_dict(self) -> dict:
        """Serialize back to the snapshot schema (with explicit balances)."""
        return {
            "nodes": [{"pub_key": n} for n in sorted(self.nodes)],
            "edges": [
                {
                    "channel_id": e.channel_id,
                    "node1_pub": e.a,
                    "node2_pub": e.b,
                    "capacity": e.capacity,
                    "node1_balance": e.balance_ab,
                    "node2_balance": e.balance_ba,
                    "node1_policy": {
                        "fee_base_msat": e.policy_ab.base_fee_msat,
                        "fee_rate_milli_msat": e.policy_ab.rate_ppm,
                    },
                    "node2_policy": {
                        "fee_base_msat": e.policy_ba.base_fee_msat,
                        "fee_rate_milli_msat": e.policy_ba.rate_ppm,
                    },
                }
                for e in sorted(self.edges.values(), key=lambda e: e.channel_id)
            ],
        }


def _parse_policy(raw) -> FeePolicy:
    if not raw:
        return FeePolicy()
    if not isinstance(raw, dict):
        raise SnapshotError(f"fee policy is not an object: {raw!r}")
    try:
        return FeePolicy(
            base_fee_msat=int(raw.get("fee_base_msat", DEFAULT_BASE_FEE_MSAT)),
            rate_ppm=int(raw.get("fee_rate_milli_msat", DEFAULT_RATE_PPM)),
        )
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"bad fee policy {raw!r}")


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

    edges: dict[str, ChannelEdge] = {}
    for rec in _records(data, "edges"):
        if not isinstance(rec, dict):
            raise SnapshotError(f"edge record is not an object: {rec!r}")
        cid = str(rec.get("channel_id", ""))
        if not cid:
            raise ValidationError(f"edge record without channel_id: {rec!r}")
        if cid in edges:
            raise ValidationError(f"duplicate channel_id {cid}")
        a, b = rec.get("node1_pub"), rec.get("node2_pub")
        try:
            known = a in nodes and b in nodes
        except TypeError:  # unhashable endpoint
            known = False
        if not known:
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

        edges[cid] = ChannelEdge(
            channel_id=cid,
            a=a,
            b=b,
            capacity=capacity,
            balance_ab=bal_ab,
            balance_ba=bal_ba,
            policy_ab=_parse_policy(rec.get("node1_policy")),
            policy_ba=_parse_policy(rec.get("node2_policy")),
        )

    return PcnGraph(nodes=nodes, edges=edges, snapshot_time=data.get("snapshot_time"))


def load_snapshot(path, balance_model: str = "capacity-both-ways") -> PcnGraph:
    """Load and validate a describegraph-style JSON snapshot."""
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
    return graph_from_dict(data, balance_model=balance_model)


def connected_components(g: PcnGraph) -> list[set[str]]:
    """Components sorted by (size desc, smallest member id) for determinism."""
    comps = [set(c) for c in nx.connected_components(g.simple_graph())]
    comps.sort(key=lambda c: (-len(c), min(c)))
    return comps


def largest_connected_component(g: PcnGraph) -> PcnGraph:
    """Induced subgraph on the largest component; ties broken by the
    smallest lexicographic member id."""
    if not g.nodes:
        return PcnGraph(snapshot_time=g.snapshot_time)
    keep = connected_components(g)[0]
    return induced_subgraph(g, keep)


def induced_subgraph(g: PcnGraph, keep: set[str]) -> PcnGraph:
    edges = {
        cid: replace(e)
        for cid, e in g.edges.items()
        if e.a in keep and e.b in keep
    }
    return PcnGraph(nodes=set(keep), edges=edges, snapshot_time=g.snapshot_time)


def remove_nodes(g: PcnGraph, targets) -> PcnGraph:
    """New graph without `targets` and their incident channels."""
    targets = set(targets)
    unknown = targets - g.nodes
    if unknown:
        raise KeyError(f"unknown nodes: {sorted(unknown)}")
    return induced_subgraph(g, g.nodes - targets)
