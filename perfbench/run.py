#!/usr/bin/env python3
"""End-to-end benchmark of the pcn-resilience CLI on seeded synthetic snapshots.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the CLI is imported from ./src).
Set-up generates the workload's snapshot (and volume pool) from the seed
several times and reports the median as `setup_s`. With `--trace 0` the
workload runs as separate single-threaded CLI processes, one after
another, for about S seconds; each gives a wall time and a peak RSS
(from `os.wait4`, so per process). With `--trace 1` it runs once untraced
and once in-process under `tracer.py`, and reports per-layer spans.

Every run is checked: exit code 0, identical report bytes across the runs
of one set, the report invariants of the workload, and, at the seed the
digests were recorded for, the recorded SHA-256 digests. Children run with
PYTHONHASHSEED=0 because `analyze` output still depends on the hash seed
(set iteration order reaches networkx pivot sampling and float sums).

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (the end-to-end or per-layer metrics named in BENCHMARK.json).
`--record` rewrites this workload's entry in digests.json instead.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Callable

import snapshot as synth

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
DIGEST_SEED = 0
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_MIN_S = 3, 25, 1.0
MIN_SAMPLES = 2
HARD_LIMIT_S = 170.0  # children still running then are killed: a run ends within 180 s
VOLUME_POOL = 1000
HUB_RANK = 9  # the 10th node by channel count


# --------------------------------------------------------------- checks

def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def report_digests(work: Path) -> dict[str, str]:
    out = work / "out"
    return {str(p.relative_to(out)): _sha256(p)
            for p in sorted(out.rglob("*")) if p.is_file()}


def check_attack_rows(rows: list[dict], errors: list[str]) -> None:
    """Removing nodes or channels can only lower s, r and F_bar."""
    for i, row in enumerate(rows):
        s, s2, r, r2, f, f2 = (row[k] for k in ("s", "s_prime", "r", "r_prime",
                                                "F_bar", "F_bar_prime"))
        if not (0.0 <= s2 <= s <= 1.0):
            errors.append(f"row {i}: success ratio {s} -> {s2}")
        if not (0 <= r2 <= r):
            errors.append(f"row {i}: reachability {r} -> {r2}")
        if not (0.0 <= f2 <= f):
            errors.append(f"row {i}: average max flow {f} -> {f2}")
        if row.get("budget") is not None and row["spent"] > row["budget"]:
            errors.append(f"row {i}: spent {row['spent']} over budget {row['budget']}")


def check_attack_csv(path: Path, seed: int, wl: "Workload", channels: int) -> list[str]:
    lines = path.read_text().splitlines()
    errors = [] if lines[0].split()[2] == f"seed={seed}" else ["seed not in header"]
    rows = [{k: float(v) for k, v in rec.items() if k not in ("strategy", "constraint")}
            for rec in csv.DictReader(lines[1:])]
    start, end, step = (int(x) for x in wl.argv[wl.argv.index("--n-sweep") + 1].split(":"))
    expected = 6 * len(range(start, end + 1, step))
    if len(rows) != expected:
        errors.append(f"{len(rows)} attack rows, expected {expected}")
    check_attack_rows(rows, errors)
    return errors


def check_attack_json(path: Path, seed: int, wl: "Workload", channels: int) -> list[str]:
    data = json.loads(path.read_text())
    errors = [] if data["meta"]["seed"] == seed else ["seed not in meta"]
    budgets = wl.argv[wl.argv.index("--budget-sweep") + 1].split(",")
    if len(data["rows"]) != 3 * len(budgets):
        errors.append(f"{len(data['rows'])} attack rows, expected {3 * len(budgets)}")
    rows = []
    for row in data["rows"]:
        pre, post = row["a_priori"], row["a_posteriori"]
        if pre.get("g_bar", -1) < 0 or post.get("g_bar", -1) < 0:
            errors.append("hub fee gain missing or negative")
        rows.append({"s": pre["s"], "s_prime": post["s"], "r": pre["r"],
                     "r_prime": post["r"], "F_bar": pre["F_bar"],
                     "F_bar_prime": post["F_bar"], "spent": row["spent"],
                     "budget": row["constraint"]["value"]})
    check_attack_rows(rows, errors)
    return errors


def check_analyze(path: Path, seed: int, wl: "Workload", channels: int) -> list[str]:
    metrics = json.loads((path / "metrics.json").read_text())
    power = json.loads((path / "powerlaw.json").read_text())
    errors = [] if metrics["meta"]["seed"] == seed else ["seed not in meta"]
    graphs = metrics["graphs"]
    if sorted(graphs) != ["barabasi-albert", "erdos-renyi", "pcn"]:
        errors.append(f"graphs {sorted(graphs)}")
    pcn = graphs["pcn"]
    if (pcn["node_count"], pcn["edge_count"]) != (wl.nodes, channels):
        errors.append(f"pcn has {pcn['node_count']} nodes, {pcn['edge_count']} channels")
    for name, g in graphs.items():
        if not (1 <= g["avg_distance"] <= g["diameter"]):
            errors.append(f"{name}: avg distance {g['avg_distance']} vs diameter")
        if not (0 <= g["clustering"] <= 1 and 0 <= g["central_point_dominance"] <= 1):
            errors.append(f"{name}: clustering or dominance outside [0, 1]")
    if not pcn.get("smallworld_S", 0) > 0:
        errors.append("small-world S missing")
    fit, gof = power["fit"], power["goodness_of_fit"]
    if not (1 < fit["alpha"] <= 6 and fit["x_min"] >= 1):
        errors.append(f"power-law fit {fit}")
    if not 0 <= gof["p_value"] <= 1:
        errors.append(f"p-value {gof['p_value']}")
    dist = (path / "degree_distribution.csv").read_text().splitlines()[1:]
    if sum(int(line.split(",")[1]) for line in dist) != wl.nodes:
        errors.append("degree distribution does not cover every node")
    return errors


def check_robustness(path: Path, seed: int, wl: "Workload", channels: int) -> list[str]:
    lines = path.read_text().splitlines()
    errors = [] if lines[0].split()[2] == f"seed={seed}" else ["seed not in header"]
    failures = [int(k) for k in wl.argv[wl.argv.index("--failures") + 1].split(",")]
    rows = [line.split(",") for line in lines[2:]]
    if [int(k) for k, _ in rows] != failures:
        errors.append("failure counts do not match the request")
    for k, mean in rows:
        if not 1 <= float(mean) <= wl.nodes - int(k):
            errors.append(f"{mean} mean components after {k} failures")
    return errors


@dataclass(frozen=True)
class Workload:
    """Snapshot size, CLI flags, report check and the spans predicted to run."""

    nodes: int
    m: int
    argv: tuple[str, ...]
    out: str
    check: Callable[[Path, int, "Workload", int], list[str]]
    active: frozenset[str]
    volumes: bool = False
    hub: bool = False


# spans both attack workloads run
ATTACK_SPANS = {"payment_sim.route_payment.read", "payment_sim.max_flow",
                "payment_sim.evaluate_payments", "payment_sim.evaluate_flows",
                "attack_engine.execute_attack", "graph_model.load_snapshot",
                "graph_model.remove_nodes", "graph_model.PcnGraph.copy",
                "graph_model.PcnGraph.balance_digraph",
                "graph_model.PcnGraph.simple_graph", "cli.main"}

WORKLOADS = {
    "attack-count": Workload(
        nodes=500, m=3, out="attack.csv", check=check_attack_csv,
        argv=("attack", "--format", "csv", "--strategy", "all",
              "--n-sweep", "10:30:20", "--attempts", "20", "--flow-rounds", "2",
              "--cut-samples", "8", "--payment-samples", "40"),
        active=frozenset(ATTACK_SPANS | {
            f"attack_engine.plan_targets.{kind}" for kind in (
                "degree", "betweenness", "eigenvector", "ranked-min-cut",
                "parallel-paths", "random")} | {
            "topology_metrics.betweenness_centrality",
            "topology_metrics.eigenvector_centrality"})),
    "attack-budget-fees": Workload(
        nodes=500, m=3, out="attack.json", check=check_attack_json,
        volumes=True, hub=True,
        argv=("attack", "--format", "json", "--strategy", "degree",
              "--strategy", "parallel-paths", "--strategy", "random",
              "--budget-sweep", "10000000,100000000,1000000000",
              "--attempts", "40", "--flow-rounds", "1",
              "--payment-samples", "60"),
        active=frozenset(ATTACK_SPANS | {
            "payment_sim.route_payment.write", "payment_sim.fee_gain",
            "attack_engine.plan_targets.degree",
            "attack_engine.plan_targets.parallel-paths",
            "attack_engine.plan_targets.random"})),
    "analyze-paper": Workload(
        nodes=1200, m=5, out="report", check=check_analyze,
        argv=("analyze", "--format", "json", "--reference", "erdos-renyi",
              "--reference", "barabasi-albert", "--smallworld-runs", "1",
              "--gof-runs", "100", "--betweenness-sources", "30"),
        active=frozenset({
            "graph_model.load_snapshot", "graph_model.PcnGraph.simple_graph",
            "topology_metrics.distance_stats",
            "topology_metrics.betweenness_centrality",
            "topology_metrics.transitivity", "topology_metrics.generate_reference",
            "powerlaw_fit.fit_power_law", "powerlaw_fit.sample_discrete_power_law",
            "powerlaw_fit.goodness_of_fit", "cli.main"})),
    "robustness-ln": Workload(
        nodes=15000, m=4, out="robustness.csv", check=check_robustness,
        argv=("robustness", "--format", "csv",
              "--failures", "100,1000,3000,7500", "--reps", "10"),
        active=frozenset({
            "graph_model.load_snapshot", "graph_model.PcnGraph.simple_graph",
            "topology_metrics.random_failure_experiment", "cli.main"})),
}


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


# ---------------------------------------------------------------- set-up

def setup(work: Path, wl: Workload, seed: int) -> tuple[list[float], str | None, list[str]]:
    """Generate the inputs at least SETUP_MIN_REPS times, and until
    SETUP_MIN_S has passed; returns (times, hub, errors)."""
    times, digests, hub = [], set(), None
    while len(times) < SETUP_MIN_REPS or (
            sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX_REPS):
        start = time.perf_counter()
        snap = synth.make_snapshot(wl.nodes, wl.m, seed)
        synth.write_snapshot(work / "snapshot.json", snap)
        if wl.volumes:
            vols = synth.make_volumes(VOLUME_POOL, seed)
            (work / "volumes.txt").write_text("\n".join(map(str, vols)) + "\n")
        if wl.hub:
            hub = synth.hub_by_rank(snap, HUB_RANK)
        times.append(time.perf_counter() - start)
        del snap
        digests.add(tuple(_sha256(work / f) for f in ("snapshot.json", "volumes.txt")
                          if (work / f).exists()))
    errors = [] if len(digests) == 1 else ["snapshot generation is not byte-identical"]
    return times, hub, errors


def cli_args(wl: Workload, seed: int, hub: str | None) -> list[str]:
    args = [*wl.argv, "--snapshot", "snapshot.json", "--balance-model", "explicit",
            "--seed", str(seed), "--out", f"out/{wl.out}"]
    if wl.volumes:
        args += ["--volumes", "volumes.txt"]
    if hub:
        args += ["--hub", hub]
    return args


# ------------------------------------------------------------ processes

@dataclass
class Invocation:
    rc: int
    wall_s: float
    peak_rss_mb: float
    stderr: str


def invoke(argv: list[str], work: Path, env: dict, deadline: float) -> Invocation:
    """Run one child to completion; peak RSS comes from its own rusage."""
    shutil.rmtree(work / "out", ignore_errors=True)
    log = work / "stderr.log"
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=work, env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                      log.read_text(errors="replace")[-2000:])


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PCN_RESILIENCE_SEED")}
    env.update(PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def check_run(wl: Workload, inv: Invocation, work: Path, seed: int, channels: int,
              reference: dict | None) -> tuple[dict, list[str]]:
    """Errors of one finished run; `reference` is the digest set it must match."""
    if inv.rc != 0:
        return {}, [f"exit code {inv.rc}: {inv.stderr.strip()[-500:]}"]
    digests = report_digests(work)
    errors = []
    if reference is not None and digests != reference:
        errors.append("report bytes differ from the reference digests")
    try:
        errors += wl.check(work / "out" / wl.out, seed, wl, channels)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        errors.append(f"unreadable report: {exc!r}")
    return digests, errors


# ---------------------------------------------------------------- trace

def layer_stats(spans: list) -> dict[str, dict[str, float]]:
    children: dict[int, float] = {}
    for _, parent, _, start, end in spans:
        if parent is not None:
            children[parent] = children.get(parent, 0.0) + (end - start)
    stats: dict[str, dict[str, float]] = {}
    for span_id, _, name, start, end in spans:
        st = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        st["total_s"] += end - start
        st["self_s"] += end - start - children.get(span_id, 0.0)
    return stats


def per_layer_metrics(specs: list[dict], trace: dict, overhead: float) -> dict:
    stats = layer_stats(trace["spans"])
    counters = trace["counters"]
    reads = stats.get("payment_sim.route_payment.read", {}).get("calls", 0)
    writes = stats.get("payment_sim.route_payment.write", {}).get("calls", 0)
    special = {
        "payment_sim.route_payment.success_frac":
            counters["route_payment.success"] / (reads + writes) if reads + writes else 0.0,
        "attack_engine.apriori_remeasures":
            sum(n - 1 for n in counters["apriori_measures"].values()),
        "trace_overhead_frac": overhead,
    }
    out = {}
    for spec in specs:
        name = spec["name"]
        if name in special:
            value = special[name]
        else:
            span, stat = name.rsplit(".", 1)
            value = stats.get(span, {}).get(stat, 0)
        out[name] = {"value": value, "unit": spec["unit"]}
    return out


def check_activity(wl: Workload, specs: list[dict], trace: dict) -> list[str]:
    stats = layer_stats(trace["spans"])
    errors = []
    for spec in specs:
        if not spec["name"].endswith(".calls"):
            continue
        span = spec["name"][:-len(".calls")]
        calls = stats.get(span, {}).get("calls", 0)
        if span in wl.active and calls == 0:
            errors.append(f"span {span} predicted active but never called")
        elif span not in wl.active and calls:
            errors.append(f"span {span} predicted idle but called {calls} times")
    return errors


# ----------------------------------------------------------------- main

def environment(root: Path) -> dict:
    commit = "unknown"
    if (root / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True)
        commit = res.stdout.strip() or commit
    return {"commit": commit, "python": sys.version.split()[0],
            **{pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "networkx")},
            "nproc": len(os.sched_getaffinity(0))}


def run(args, root: Path) -> dict:
    wl = WORKLOADS[args.workload]
    bench = json.loads((root / "BENCHMARK.json").read_text())
    work = root / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    deadline = time.monotonic() + HARD_LIMIT_S

    setup_times, hub, errors = setup(work, wl, args.seed)
    channels = len(json.loads((work / "snapshot.json").read_text())["edges"])
    argv = cli_args(wl, args.seed, hub)
    env = child_env(root)
    py = [sys.executable]
    recorded = None
    if args.seed == DIGEST_SEED and DIGESTS.exists() and not args.record:
        recorded = json.loads(DIGESTS.read_text())["workloads"].get(args.workload)
        if recorded is None:
            errors.append("no recorded digests for this workload")

    runs: list[Invocation] = []
    failed = 0
    reference = recorded

    def one(cmd: list[str]) -> Invocation:
        nonlocal failed, reference
        inv = invoke(cmd, work, env, deadline)
        digests, errs = check_run(wl, inv, work, args.seed, channels, reference)
        if reference is None and not errs:
            reference = digests
        if errs:
            failed += 1
            errors.extend(errs)
        runs.append(inv)
        return inv

    if args.trace:
        plain = one(py + ["-m", "pcn_resilience.cli", *argv])
        spans_path = work / "spans.json"
        traced = one(py + [str(HERE / "tracer.py"), str(spans_path), "--", *argv])
        trace = {"spans": [], "counters": {"route_payment.success": 0,
                                           "apriori_measures": {}}}
        if traced.rc == 0:
            trace = json.loads(spans_path.read_text())
            errors.extend(check_activity(wl, bench["per_layer"], trace))
        metrics = per_layer_metrics(bench["per_layer"], trace,
                                    traced.wall_s / plain.wall_s - 1.0)
    else:
        start = time.perf_counter()
        while True:
            one(py + ["-m", "pcn_resilience.cli", *argv])
            elapsed = time.perf_counter() - start
            typical = statistics.median(r.wall_s for r in runs)
            if len(runs) >= MIN_SAMPLES and elapsed + typical > args.seconds:
                break
            if time.monotonic() + typical > deadline:
                break

    if args.record:
        if errors:
            raise BenchError("not recording digests of a failing run: " + "; ".join(errors))
        data = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {
            "seed": DIGEST_SEED, "pythonhashseed": "0", "workloads": {}}
        data["workloads"][args.workload] = reference
        DIGESTS.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")

    walls = [r.wall_s for r in runs]
    rss = [r.peak_rss_mb for r in runs]
    detail = {"workload": args.workload, "seed": args.seed, "samples": len(runs),
              "wall_s": walls, "peak_rss_mb": rss, "setup_s": setup_times,
              "channels": channels, "hub": hub, "errors": errors,
              "env": environment(root)}
    if not args.trace:
        values = {"wall_s": statistics.median(walls),
                  "peak_rss_mb": statistics.median(rss),
                  "setup_s": statistics.median(setup_times),
                  "success_rate": 1.0 - failed / len(runs)}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
    for err in errors:
        print(f"perfbench: {err}", file=sys.stderr)
    print(json.dumps(detail))
    return {"correct": not errors, "attempted": len(runs), "failed": failed,
            "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DIGEST_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help=f"record report digests (use with --seed {DIGEST_SEED})")
    args = ap.parse_args()
    root = Path.cwd()
    try:
        if args.record and args.seed != DIGEST_SEED:
            raise BenchError(f"digests are recorded at --seed {DIGEST_SEED}")
        if not (root / "src" / "pcn_resilience" / "cli.py").is_file():
            raise BenchError(f"no pcn_resilience sources under {root / 'src'}")
        if not (root / "BENCHMARK.json").is_file():
            raise BenchError(f"no BENCHMARK.json in {root}")
        result = run(args, root)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
