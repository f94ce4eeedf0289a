"""Seeded synthetic channel-graph snapshots in lnd ``describegraph`` style.

Topology is a Barabási–Albert graph from networkx. About one channel in
eleven is a parallel channel between an already-connected pair. Capacities
are lognormal (median 1M sat) scaled by the endpoints' degrees, as in the
real network where the largest channels join well-connected nodes; about
1% of channels come out "wumbo", above the old 16,777,215 sat per-channel
limit, so integer limits in max-flow kernels are exercised. Balances are
explicit and split uniformly; fee policies mix defaults, common values,
random values and missing sides. As in lnd's JSON, capacities, channel ids
and fee fields are strings and public keys are 66 hex digits.

Capacities drawn independently of degree would make the capacity-weighted
eigenvector power iteration of `topology_metrics` fail to converge on about
one graph in twenty (two heavy edges give nearly equal leading
eigenvalues). That defect is open; with degree-scaled capacities it shows
on about one 500-node graph in 400 (seed 159).

The same (nodes, m, seed) always gives the same bytes.
"""

from __future__ import annotations

import json
import math
import random

import networkx as nx

PARALLEL_FRAC = 0.10


def _pub_key(rng: random.Random) -> str:
    return rng.choice(("02", "03")) + f"{rng.getrandbits(256):064x}"


def _capacity(rng: random.Random, degree_factor: float) -> int:
    return max(20_000, int(rng.lognormvariate(math.log(1_000_000), 1.0) * degree_factor))


def _policy(rng: random.Random) -> dict | None:
    roll = rng.random()
    if roll < 0.05:
        return None
    if roll < 0.45:
        base, rate = 1000, 1
    elif roll < 0.75:
        base, rate = rng.choice((0, 1000)), rng.choice((10, 100, 500))
    else:
        base, rate = rng.randrange(0, 5001), rng.randrange(0, 2501)
    return {"fee_base_msat": str(base), "fee_rate_milli_msat": str(rate),
            "time_lock_delta": 40, "disabled": False}


def make_snapshot(nodes: int, m: int, seed: int) -> dict:
    """Snapshot dict for a BA(nodes, m) topology plus ~10% parallel channels."""
    rng = random.Random(seed)
    topo = nx.barabasi_albert_graph(nodes, m, seed=seed)
    degree = dict(topo.degree())
    keys = [_pub_key(rng) for _ in range(nodes)]
    pairs = sorted(topo.edges())
    pairs += [pairs[rng.randrange(len(pairs))]
              for _ in range(int(PARALLEL_FRAC * len(pairs)))]
    rng.shuffle(pairs)

    edges = []
    block = 600_000
    for i, (u, v) in enumerate(pairs):
        if rng.random() < 0.5:
            u, v = v, u
        cap = _capacity(rng, (degree[u] * degree[v] / (m * m)) ** 0.25)
        bal = rng.randint(0, cap)
        block += rng.randrange(1, 40)
        # short channel id: block height << 40 | tx index << 16 | output
        cid = (block << 40) | (rng.randrange(4096) << 16) | (i & 0xFFFF)
        edges.append({
            "channel_id": str(cid),
            "chan_point": f"{rng.getrandbits(256):064x}:{rng.randrange(4)}",
            "node1_pub": keys[u],
            "node2_pub": keys[v],
            "capacity": str(cap),
            "node1_balance": bal,
            "node2_balance": cap - bal,
            "node1_policy": _policy(rng),
            "node2_policy": _policy(rng),
        })
    return {"nodes": [{"pub_key": k, "alias": f"node{i}"}
                      for i, k in enumerate(keys)],
            "edges": edges}


def make_volumes(count: int, seed: int, low: int = 1_000,
                 high: int = 1_000_000) -> list[int]:
    """Log-uniform payment volume pool in [low, high] sat."""
    rng = random.Random(seed ^ 0x5EED)
    span = math.log(high) - math.log(low)
    return [int(round(low * math.exp(rng.random() * span))) for _ in range(count)]


def hub_by_rank(snapshot: dict, rank: int) -> str:
    """Node with the `rank`-th most channels (0-based; ties by pub key)."""
    count: dict[str, int] = {}
    for e in snapshot["edges"]:
        for key in (e["node1_pub"], e["node2_pub"]):
            count[key] = count.get(key, 0) + 1
    return sorted(count, key=lambda k: (-count[k], k))[rank]


def write_snapshot(path, snapshot: dict) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(snapshot, separators=(",", ":")))
