"""Command-line front end.

Subcommands:
  analyze     graph measures, small-world coefficient, power-law fit
  attack      strategy sweeps with a-priori/a-posteriori metric reports
  robustness  mean component count after random failures

Every emitted report embeds the tool version, the seed, and a hash of the
run configuration; identical configurations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from itertools import product
from pathlib import Path

from . import __version__
from .attack_engine import (STRATEGY_KINDS, MetricParams, StalePlanError,
                            Strategy, execute_attack, plan_targets)
from .graph_model import (BALANCE_MODELS, PcnGraph, SnapshotError,
                          ValidationError, load_snapshot)
from .payment_sim import UNIT_VOLUMES, load_volumes
from .topology_metrics import (ConvergenceError, MetricReport,
                               degree_distribution, generate_reference,
                               metric_report, random_failure_experiment)

ATTACK_CSV_HEADER = ("strategy,constraint,n_or_budget,spent,s,s_prime,"
                     "r,r_prime,F_bar,F_bar_prime,delta_s,delta_r,delta_F")


def _config_hash(args: dict) -> str:
    # the output location is not part of the run configuration
    blob = json.dumps({k: v for k, v in args.items() if k != "out"},
                      sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _setup(args) -> tuple[int, PcnGraph, dict, str]:
    """A subcommand's seed (falling back to $PCN_RESILIENCE_SEED, then 0),
    its snapshot, the report meta and the CSV comment line carrying it."""
    seed = args.seed
    if seed is None:
        env = os.environ.get("PCN_RESILIENCE_SEED")
        seed = int(env) if env else 0
    cfg = {k: v for k, v in vars(args).items() if k != "func"}
    cfg["seed"] = seed
    g = load_snapshot(args.snapshot, balance_model=args.balance_model)
    meta = {"version": __version__, "seed": seed, "config_hash": _config_hash(cfg)}
    comment = "# " + " ".join(f"{k}={v}" for k, v in meta.items())
    return seed, g, meta, comment


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _json_dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _parse_sweep(text: str) -> list[int]:
    parts = [int(p) for p in text.split(":")]
    if len(parts) not in (2, 3):
        raise ValueError(f"bad sweep spec {text!r}, expected start:end[:step]")
    start, end, step = (parts + [1])[:3]
    if step <= 0:
        raise ValueError(f"sweep {text!r} has step {step}, expected >= 1")
    return list(range(start, end + 1, step))


def _sweep_points(kind: str, values: list[int], text: str) -> list[tuple]:
    """The (kind, value) constraints of a sweep: at least one, none negative."""
    if not values:
        raise ValueError(f"sweep {text!r} has no points")
    if min(values) < 0:
        raise ValueError(f"sweep {text!r} has a negative {kind} {min(values)}")
    return [(kind, v) for v in values]


def cmd_analyze(args) -> int:
    from .powerlaw_fit import (FitError, ccdf_table, fit_power_law,
                               goodness_of_fit)
    # checked before any work, so that a bad count writes nothing
    if args.gof_runs < 1:
        raise ValueError("goodness of fit needs synthetic_runs >= 1")
    if args.smallworld_runs < 0:
        raise ValueError("the small-world coefficient needs smallworld_runs >= 0")
    seed, g, meta, comment = _setup(args)
    out = Path(args.out)

    rows = [("pcn", metric_report(
        g, smallworld_runs=args.smallworld_runs, seed=seed,
        betweenness_sources=args.betweenness_sources))]
    for kind in args.reference or []:
        ref = generate_reference(kind, g.node_count, g.edge_count, seed=seed)
        rows.append((kind, metric_report(
            ref, seed=seed, betweenness_sources=args.betweenness_sources)))

    if args.format == "csv":
        lines = [comment, "graph," + MetricReport.CSV_HEADER]
        lines += [f"{name},{r.to_csv_row()}" for name, r in rows]
        _write(out / "metrics.csv", "\n".join(lines) + "\n")
    else:
        _write(out / "metrics.json", _json_dump({
            "meta": meta,
            "graphs": {name: r.to_dict() for name, r in rows},
        }))

    distribution = sorted(degree_distribution(g).items())
    dist_lines = ["degree,count"] + [f"{deg},{count}" for deg, count in distribution]
    _write(out / "degree_distribution.csv", "\n".join(dist_lines) + "\n")

    pl: dict = {"meta": meta}
    try:
        positive = sorted(d for d in g.degrees().values() if d >= 1)
        fit = fit_power_law(positive)
        pl["fit"] = fit.to_dict()
        gof = goodness_of_fit(positive, fit, synthetic_runs=args.gof_runs, seed=seed)
        pl["goodness_of_fit"] = gof.to_dict()
        ccdf_lines = ["k,ccdf,fitted"]
        for k, emp, fitted in ccdf_table(positive, fit):
            ccdf_lines.append(f"{k},{emp:.8g},{'' if fitted is None else f'{fitted:.8g}'}")
        _write(out / "degree_ccdf.csv", "\n".join(ccdf_lines) + "\n")
    except FitError as exc:
        pl["error"] = str(exc)
    _write(out / "powerlaw.json", _json_dump(pl))
    return 0


def _strategy_for(kind: str, args, seed: int) -> Strategy:
    params: dict = {"seed": seed}
    if kind == "ranked-min-cut":
        params["cut_samples"] = args.cut_samples
    elif kind == "parallel-paths":
        params["payment_samples"] = args.payment_samples
        params["hub"] = args.hub
    return Strategy(kind=kind, params=params)


def _g6(x: float | None) -> str:
    # an undefined advantage is an empty field
    return "" if x is None else f"{x:.6g}"


def cmd_attack(args) -> int:
    seed, g, meta, comment = _setup(args)
    volumes = load_volumes(args.volumes) if args.volumes else UNIT_VOLUMES
    metric_params = MetricParams(attempts=args.attempts,
                                 flow_rounds=args.flow_rounds,
                                 volumes=volumes, hub=args.hub)

    if args.n_sweep is not None:
        points = _sweep_points("count", _parse_sweep(args.n_sweep), args.n_sweep)
    else:
        points = _sweep_points("budget", [int(b) for b in
                                          args.budget_sweep.split(",")],
                               args.budget_sweep)

    kinds = list(STRATEGY_KINDS) if "all" in args.strategy else args.strategy
    limit = args.plan_limit
    if points[0][0] == "count":
        limit = max(limit, max(v for _, v in points))

    plans = [plan_targets(g, _strategy_for(kind, args, seed), limit=limit)
             for kind in kinds]
    reports = execute_attack(g, plans, points, metric_params=metric_params,
                             seed=seed, griefing=args.griefing)
    rows = list(zip(product(kinds, points), reports))

    out = Path(args.out)
    if args.format == "csv":
        lines = [comment, ATTACK_CSV_HEADER]
        for (kind, (ckind, cval)), rep in rows:
            lines.append(
                f"{kind},{ckind},{cval},{rep.spent},"
                f"{rep.a_priori.s:.6g},{rep.a_posteriori.s:.6g},"
                f"{rep.a_priori.r},{rep.a_posteriori.r},"
                f"{rep.a_priori.F_bar:.6g},{rep.a_posteriori.F_bar:.6g},"
                f"{_g6(rep.delta_s)},{_g6(rep.delta_r)},{_g6(rep.delta_F)}")
        _write(out, "\n".join(lines) + "\n")
    else:
        _write(out, _json_dump({
            "meta": meta,
            "rows": [
                {"strategy": kind, "constraint": {"kind": ck, "value": cv},
                 **rep.to_dict()}
                for (kind, (ck, cv)), rep in rows
            ],
        }))
    return 0


def cmd_robustness(args) -> int:
    seed, g, meta, comment = _setup(args)
    failures = [int(f) for f in args.failures.split(",")]
    result = random_failure_experiment(g, failures, runs=args.reps, seed=seed)
    if args.format == "csv":
        lines = [comment, "failures,mean_components"]
        lines += [f"{k},{result[k]:.6g}" for k in failures]
        _write(Path(args.out), "\n".join(lines) + "\n")
    else:
        _write(Path(args.out), _json_dump({"meta": meta, "rows": [
            {"failures": k, "mean_components": result[k]} for k in failures]}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcn-resilience",
        description="Payment channel network topology analysis and attack simulation")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--snapshot", required=True)
        p.add_argument("--balance-model", default="capacity-both-ways",
                       choices=BALANCE_MODELS)
        p.add_argument("--seed", type=int, default=None,
                       help="defaults to $PCN_RESILIENCE_SEED or 0")
        p.add_argument("--out", required=True)
        p.add_argument("--format", default="json", choices=["json", "csv"])

    p = sub.add_parser("analyze", help="graph measures and power-law fit")
    common(p)
    p.add_argument("--reference", action="append",
                   choices=["erdos-renyi", "barabasi-albert"],
                   help="also report a size-matched reference graph (repeatable)")
    p.add_argument("--smallworld-runs", type=int, default=10)
    p.add_argument("--gof-runs", type=int, default=1000)
    p.add_argument("--betweenness-sources", type=int, default=None,
                   help="pivot sampling for betweenness on large graphs")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("attack", help="attack-strategy sweeps")
    common(p)
    p.add_argument("--strategy", action="append", required=True,
                   choices=[*STRATEGY_KINDS, "all"])
    sweep = p.add_mutually_exclusive_group(required=True)
    sweep.add_argument("--n-sweep", help="count sweep start:end[:step]")
    sweep.add_argument("--budget-sweep", help="comma-separated satoshi budgets")
    p.add_argument("--volumes", help="payment volume file, one satoshi/line")
    p.add_argument("--cut-samples", type=int, default=1000)
    p.add_argument("--payment-samples", type=int, default=1000)
    p.add_argument("--hub", default=None)
    p.add_argument("--attempts", type=int, default=1000)
    p.add_argument("--flow-rounds", type=int, default=100)
    p.add_argument("--plan-limit", type=int, default=50)
    p.add_argument("--griefing", action="store_true",
                   help="zero-cost isolation (griefing upper bound)")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("robustness", help="random-failure component counts")
    common(p)
    p.add_argument("--failures", required=True,
                   help="comma-separated failure counts")
    p.add_argument("--reps", type=int, default=100)
    p.set_defaults(func=cmd_robustness)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError, SnapshotError, ValidationError,
            ConvergenceError, StalePlanError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
