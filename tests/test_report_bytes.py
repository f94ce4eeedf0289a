"""Byte-identity gate: every report file of every subcommand, hashed.

Each run starts the CLI in a new interpreter under one fixed
PYTHONHASHSEED on two small seeded snapshots, and the SHA-256 of each
report file it writes is compared with the table in
`tests/data/report_digests.json`. A change that moves a report byte fails
here and names the files that moved. Every JSON report must also parse
as strict JSON, without NaN or Infinity.

To re-record the table after an intended change of output, run this test
with PCN_RECORD_DIGESTS=1 and name every changed file in CHANGES.md.
"""

import hashlib
import json
import os
import platform
import random
import subprocess
import sys
from pathlib import Path

import numpy as np

from pcn_resilience import cli

TABLE = Path(__file__).parent / "data" / "report_digests.json"
RECORD = "PCN_RECORD_DIGESTS"


def make_snapshot(n: int, seed: int) -> dict:
    """A describegraph snapshot of n nodes with random 66-hex-digit ids: a
    preferential-attachment core, one small separate component, a few
    isolated nodes and about one parallel channel in eight. Balances are
    explicit and split the capacity (a remainder stays unassigned on some
    channels); fee policies mix missing sides, strings and random values."""
    rng = random.Random(seed)
    ids = [rng.choice(("02", "03")) + f"{rng.getrandbits(256):064x}"
           for _ in range(n)]
    core, island = ids[:n - 8], ids[n - 8:n - 3]  # the last three are isolated
    pairs, ends = [], core[:2]
    for v in core[2:]:
        for u in sorted({rng.choice(ends) for _ in range(rng.randint(1, 3))}):
            pairs.append((u, v))
            ends += [u, v]
    pairs += list(zip(island, island[1:]))
    pairs += [rng.choice(pairs) for _ in range(len(pairs) // 8)]
    rng.shuffle(pairs)
    edges = []
    for u, v in pairs:
        if rng.random() < 0.5:
            u, v = v, u
        capacity = rng.randint(20_000, 5_000_000)
        ab = rng.randint(0, capacity)
        ba = capacity - ab - rng.choice((0, 0, rng.randint(0, capacity - ab)))
        edges.append({
            "channel_id": str(rng.getrandbits(63)),
            "node1_pub": u, "node2_pub": v,
            "capacity": rng.choice((capacity, str(capacity))),
            "node1_balance": ab, "node2_balance": ba,
            **{f"node{side}_policy": rng.choice((None, {
                "fee_base_msat": str(rng.randrange(0, 5001)),
                "fee_rate_milli_msat": rng.randrange(0, 2501)}))
               for side in (1, 2)}})
    return {"nodes": [{"pub_key": v} for v in ids], "edges": edges}


def hub_of(snapshot: dict) -> str:
    """The node with the most channels (ties by id)."""
    count: dict[str, int] = {}
    for e in snapshot["edges"]:
        for v in (e["node1_pub"], e["node2_pub"]):
            count[v] = count.get(v, 0) + 1
    return min(count, key=lambda v: (-count[v], v))


ANALYZE = ["analyze", "--reference", "erdos-renyi", "--reference",
           "barabasi-albert", "--smallworld-runs", "2", "--gof-runs", "20"]
ATTACK = ["attack", "--strategy", "all", "--attempts", "60",
          "--flow-rounds", "8", "--cut-samples", "12",
          "--payment-samples", "40", "--plan-limit", "12"]
# (snapshot, nodes, seed, balance model)
SNAPSHOTS = (("a", 200, 11, "explicit"), ("b", 120, 12, "half-split"))


def runs(hub: str) -> dict[str, list[str]]:
    """Each run's output name and arguments; paths are relative to the run
    directory, as the config hash in every report covers them."""
    return {
        "analyze-json": [*ANALYZE, "--format", "json"],
        "analyze-csv": [*ANALYZE, "--format", "csv"],
        "attack-count.json": [*ATTACK, "--n-sweep", "0:8:4", "--hub", hub,
                              "--griefing", "--format", "json"],
        "attack-budget.csv": [*ATTACK, "--budget-sweep",
                              "0,3000000,30000000,300000000", "--volumes",
                              "volumes.txt", "--hub", hub, "--format", "csv"],
        "robustness.json": ["robustness", "--failures", "0,5,40",
                            "--reps", "6"],
    }


def environment() -> dict:
    return {"numpy": np.__version__,
            "platform": f"{sys.platform}-{platform.machine()}"}


def report_digests(root: Path) -> dict[str, str]:
    """Run every subcommand on both snapshots under `root`, two processes
    at a time, and hash every report file, keyed by its path."""
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("PCN_RESILIENCE_SEED", None)
    jobs = []
    for name, n, seed, model in SNAPSHOTS:
        where = root / name
        where.mkdir()
        snapshot = make_snapshot(n, seed)
        (where / "snapshot.json").write_text(json.dumps(snapshot))
        (where / "volumes.txt").write_text("1000\n25000\n400000\n2000000\n")
        jobs += [(where, [sys.executable, "-m", "pcn_resilience.cli", *argv,
                          "--snapshot", "snapshot.json", "--balance-model",
                          model, "--seed", str(seed), "--out", out])
                 for out, argv in runs(hub_of(snapshot)).items()]
    while jobs:
        started = [subprocess.Popen(argv, cwd=where, env=env,
                                    stderr=subprocess.PIPE, text=True)
                   for where, argv in jobs[:2]]
        for (_, argv), proc in zip(jobs, started):
            _, err = proc.communicate()
            assert proc.returncode == 0, (argv, err)
        del jobs[:2]
    reports = [path for path in sorted(root.rglob("*")) if path.is_file()
               and path.name not in ("snapshot.json", "volumes.txt")]
    for path in reports:
        if path.suffix == ".json":
            json.loads(path.read_text(), parse_constant=not_json)
    return {path.relative_to(root).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest() for path in reports}


def not_json(constant: str):
    """Python's json reads NaN, Infinity and -Infinity; JSON has none."""
    raise AssertionError(f"a report holds {constant}, which is not JSON")


def test_report_bytes_match_the_recorded_digests(tmp_path):
    digests = report_digests(tmp_path)
    if os.environ.get(RECORD):
        TABLE.write_text(json.dumps({**environment(), "digests": digests},
                                    indent=2, sort_keys=True) + "\n")
    recorded = json.loads(TABLE.read_text())
    moved = sorted(set(digests.items()) ^ set(recorded["digests"].items()))
    if moved:
        here, there = environment(), {k: recorded[k] for k in environment()}
        note = ("" if here == there else
                f"; the table was recorded with {there}, this is {here}")
        raise AssertionError(
            f"report files differ from {TABLE.name}: "
            f"{sorted(dict(moved))}{note} (re-record with {RECORD}=1)")
