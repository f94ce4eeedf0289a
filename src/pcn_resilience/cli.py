"""Command-line front end.

Subcommands:
  analyze     graph measures, small-world coefficient, power-law fit
  attack      strategy sweeps with a-priori/a-posteriori metric reports
  robustness  mean component count after random failures

Every emitted report embeds the tool version, the seed, and a hash of the
run configuration; identical configurations produce byte-identical files.
Across processes, `analyze`'s metrics.json (or .csv) and the betweenness
strategy are the exception: betweenness follows the iteration order of
the snapshot's set of node ids, so they also depend on PYTHONHASHSEED.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from contextlib import suppress
from dataclasses import fields
from itertools import product
from pathlib import Path

from . import __version__
from .attack_engine import (STRATEGY_KINDS, MetricParams, Strategy,
                            execute_attack, plan_targets)
from .graph_model import (BALANCE_MODELS, PcnGraph, SnapshotError,
                          ValidationError, _seed_value, load_snapshot)
from .payment_sim import UNIT_VOLUMES, load_volumes
from .topology_metrics import (ConvergenceError, degree_distribution,
                               generate_reference, metric_report,
                               random_failure_experiment)

# the paper's topology table; the column order is frozen
METRICS_CSV_HEADER = ("graph,node_count,edge_count,diameter,avg_distance,"
                      "central_point_dominance")
ATTACK_CSV_HEADER = ("strategy,constraint,n_or_budget,spent,s,s_prime,"
                     "r,r_prime,F_bar,F_bar_prime,delta_s,delta_r,delta_F")


def _seed(seed: int | None) -> int:
    """--seed, else $PCN_RESILIENCE_SEED, else 0, under the one seed rule."""
    env = os.environ.get("PCN_RESILIENCE_SEED") or "0"
    name, given = ("$PCN_RESILIENCE_SEED", env) if seed is None else ("--seed", seed)
    with suppress(ValueError):  # the rule names text that is no integer
        given = int(given)
    try:
        return _seed_value(given)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def _setup(args) -> tuple[PcnGraph, dict, str]:
    """A subcommand's snapshot, the report meta and the CSV comment line
    carrying it. The output location is not part of the hashed run
    configuration."""
    cfg = {k: v for k, v in vars(args).items() if k not in ("func", "out")}
    blob = json.dumps(cfg, sort_keys=True, default=str).encode()
    g = load_snapshot(args.snapshot, balance_model=args.balance_model)
    meta = {"version": __version__, "seed": args.seed,
            "config_hash": hashlib.sha256(blob).hexdigest()[:16]}
    comment = "# " + " ".join(f"{k}={v}" for k, v in meta.items())
    return g, meta, comment


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _json_dump(obj) -> str:
    # a NaN or an infinity would make the report invalid JSON
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _fields(result) -> dict:
    """A result dataclass as a report object: the fields that are set, a
    None field left out, and a trailing underscore (`lambda_`) dropped."""
    return {f.name.rstrip("_"): value for f in fields(result)
            if (value := getattr(result, f.name)) is not None}


def _sweep(kind: str, text: str) -> list[tuple]:
    """The (kind, value) points of a count sweep start:end[:step] or of a
    comma-separated list: at least one point, none negative."""
    values = []
    for part in text.split(":" if kind == "count" else ","):
        try:
            values.append(int(part))
        except ValueError:
            raise ValueError(
                f"sweep {text!r} has {part!r}, expected an integer") from None
    if kind == "count":
        if len(values) not in (2, 3):
            raise ValueError(f"bad sweep spec {text!r}, expected start:end[:step]")
        start, end, step = (values + [1])[:3]
        if step <= 0:
            raise ValueError(f"sweep {text!r} has step {step}, expected >= 1")
        try:
            values = list(range(start, end + 1, step))
        # both raise before the list is allocated
        except (OverflowError, MemoryError):
            raise ValueError(f"sweep {text!r} has too many points") from None
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
    if args.betweenness_sources is not None and args.betweenness_sources < 1:
        raise ValueError("betweenness needs at least one source")
    if args.betweenness_sources == 1:
        raise ValueError("central point dominance needs at least two "
                         "betweenness sources: one leaves its own score undefined")
    g, meta, comment = _setup(args)
    out, seed = Path(args.out), args.seed

    rows = [("pcn", metric_report(
        g, smallworld_runs=args.smallworld_runs, seed=seed,
        betweenness_sources=args.betweenness_sources))]
    for kind in args.reference or []:
        ref = generate_reference(kind, g.node_count, g.edge_count, seed=seed)
        rows.append((kind, metric_report(
            ref, seed=seed, betweenness_sources=args.betweenness_sources)))

    if args.format == "csv":
        lines = [comment, METRICS_CSV_HEADER]
        lines += [f"{name},{r.node_count},{r.edge_count},{r.diameter},"
                  f"{r.avg_distance:.6g},{r.central_point_dominance:.6g}"
                  for name, r in rows]
        _write(out / "metrics.csv", "\n".join(lines) + "\n")
    else:
        _write(out / "metrics.json", _json_dump({
            "meta": meta,
            "graphs": {name: _fields(r) for name, r in rows},
        }))

    distribution = sorted(degree_distribution(g).items())
    dist_lines = ["degree,count"] + [f"{deg},{count}" for deg, count in distribution]
    _write(out / "degree_distribution.csv", "\n".join(dist_lines) + "\n")

    pl: dict = {"meta": meta}
    try:
        positive = sorted(d for d in g.degrees().values() if d >= 1)
        fit = fit_power_law(positive)
        pl["fit"] = _fields(fit)
        gof = goodness_of_fit(positive, fit, synthetic_runs=args.gof_runs, seed=seed)
        pl["goodness_of_fit"] = _fields(gof)
        ccdf_lines = ["k,ccdf,fitted"]
        for k, emp, fitted in ccdf_table(positive, fit):
            ccdf_lines.append(f"{k},{emp:.8g},{'' if fitted is None else f'{fitted:.8g}'}")
        _write(out / "degree_ccdf.csv", "\n".join(ccdf_lines) + "\n")
    except FitError as exc:
        pl["error"] = str(exc)
    _write(out / "powerlaw.json", _json_dump(pl))
    return 0


def _g6(x: float | None) -> str:
    # an undefined advantage is an empty field
    return "" if x is None else f"{x:.6g}"


def cmd_attack(args) -> int:
    # checked before the snapshot loads, so that bad input writes nothing
    points = (_sweep("count", args.n_sweep) if args.n_sweep is not None
              else _sweep("budget", args.budget_sweep))
    volumes = load_volumes(args.volumes) if args.volumes else UNIT_VOLUMES
    metric_params = MetricParams(attempts=args.attempts,
                                 flow_rounds=args.flow_rounds,
                                 volumes=volumes, hub=args.hub)
    kinds = list(STRATEGY_KINDS) if "all" in args.strategy else args.strategy
    strategies = [Strategy(kind, args.seed, args.cut_samples,
                           args.payment_samples, args.hub) for kind in kinds]
    limit = args.plan_limit
    if points[0][0] == "count":
        limit = max(limit, max(v for _, v in points))
    if limit < 1:
        raise ValueError("limit must be >= 1")
    g, meta, comment = _setup(args)

    plans = [plan_targets(g, strategy, limit=limit) for strategy in strategies]
    reports = execute_attack(g, plans, points, metric_params=metric_params,
                             seed=args.seed, griefing=args.griefing)
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
        _write(out, _json_dump({"meta": meta, "rows": [
            {"strategy": kind, "constraint": {"kind": ck, "value": cv},
             "a_priori": _fields(rep.a_priori),
             "a_posteriori": _fields(rep.a_posteriori),
             # an undefined delta_s, delta_r or delta_F is null; an
             # undefined delta_g (no hub, or no a-priori fee gain) is left out
             "advantage": {"delta_s": rep.delta_s, "delta_r": rep.delta_r,
                           "delta_F": rep.delta_F}
             | ({} if rep.delta_g is None else {"delta_g": rep.delta_g}),
             "spent": rep.spent, "removed": rep.removed}
            for (kind, (ck, cv)), rep in rows]}))
    return 0


def cmd_robustness(args) -> int:
    # checked before the snapshot loads, so that a bad count writes nothing
    failures = [k for _, k in _sweep("failure count", args.failures)]
    if args.reps < 1:
        raise ValueError("random failures need at least one run")
    g, meta, comment = _setup(args)
    result = random_failure_experiment(g, failures, runs=args.reps, seed=args.seed)
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
    p.add_argument("--plan-limit", type=int, default=50,
                   help="targets planned per strategy: a budget row takes at "
                        "most this many (a count sweep plans at least its "
                        "largest count)")
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
        args.seed = _seed(args.seed)
        return args.func(args)
    except (OSError, ValueError, KeyError, SnapshotError, ValidationError,
            ConvergenceError) as exc:
        # a KeyError's str() is the repr of its message
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
