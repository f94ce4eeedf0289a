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
from scipy.sparse import csr_array

# Fallback policy when a snapshot omits one side (common network defaults).
DEFAULT_BASE_FEE_MSAT = 1000
DEFAULT_RATE_PPM = 1

BALANCE_MODELS = ("capacity-both-ways", "half-split", "explicit")

# scipy's maximum_flow keeps capacities and residuals in int32, and the
# residual of an arc can reach its capacity plus that of its reverse arc, so
# no arc of the balance view may exceed half the int32 range.
MAX_ARC_BALANCE = 2**30 - 1


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


@dataclass
class PcnGraph:
    """A payment channel network. Treated as immutable by analysis code;
    derive modified graphs via `remove_nodes` / the attack operations."""

    nodes: set[str] = field(default_factory=set)
    edges: dict[str, ChannelEdge] = field(default_factory=dict)
    snapshot_time: str | None = None

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
        node i to node j, parallel channels summed.

        A summed balance above MAX_ARC_BALANCE is routed through relay nodes
        appended after the real ones, one per piece of at most
        MAX_ARC_BALANCE, so every max-flow value stays exact."""
        index = {v: i for i, v in enumerate(sorted(self.nodes))}
        summed: dict[tuple[int, int], int] = {}
        for e in self.edges.values():
            a, b = index[e.a], index[e.b]
            summed[a, b] = summed.get((a, b), 0) + e.balance_ab
            summed[b, a] = summed.get((b, a), 0) + e.balance_ba
        rows, cols, balances = [], [], []
        size = len(index)
        for (u, v), bal in summed.items():
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
        return arcs, index

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
    return FeePolicy(
        base_fee_msat=int(raw.get("fee_base_msat", DEFAULT_BASE_FEE_MSAT)),
        rate_ppm=int(raw.get("fee_rate_milli_msat", DEFAULT_RATE_PPM)),
    )


def graph_from_dict(data: dict, balance_model: str = "capacity-both-ways") -> PcnGraph:
    if balance_model not in BALANCE_MODELS:
        raise ValueError(f"unknown balance model {balance_model!r}")

    nodes = set()
    for rec in data.get("nodes", []):
        key = rec.get("pub_key")
        if not key:
            raise ValidationError(f"node record without pub_key: {rec!r}")
        if key in nodes:
            raise ValidationError(f"duplicate node key {key}")
        nodes.add(key)

    edges: dict[str, ChannelEdge] = {}
    for rec in data.get("edges", []):
        cid = str(rec.get("channel_id", ""))
        if not cid:
            raise ValidationError(f"edge record without channel_id: {rec!r}")
        if cid in edges:
            raise ValidationError(f"duplicate channel_id {cid}")
        a, b = rec.get("node1_pub"), rec.get("node2_pub")
        if a not in nodes or b not in nodes:
            raise ValidationError(f"channel {cid} references unknown node")
        if a == b:
            raise ValidationError(f"channel {cid} is a self-loop")
        try:
            capacity = int(rec["capacity"])
        except (KeyError, TypeError, ValueError):
            raise ValidationError(f"channel {cid} has missing or bad capacity")
        if capacity <= 0:
            raise ValidationError(f"channel {cid} has capacity <= 0")

        if balance_model == "capacity-both-ways":
            bal_ab = bal_ba = capacity
        elif balance_model == "half-split":
            bal_ab = bal_ba = capacity // 2
        else:
            try:
                bal_ab = int(rec["node1_balance"])
                bal_ba = int(rec["node2_balance"])
            except (KeyError, TypeError, ValueError):
                raise ValidationError(f"channel {cid} lacks explicit balances")
            if bal_ab < 0 or bal_ba < 0:
                raise ValidationError(f"channel {cid} has negative balance")

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
    if not isinstance(data, dict):
        raise SnapshotError(f"snapshot {path} is not a JSON object")
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
