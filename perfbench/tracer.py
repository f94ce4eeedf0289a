"""Run the pcn-resilience CLI in-process with every public function of the
package wrapped in a timing span.

    python3 tracer.py SPANS_OUT -- CLI_ARGS...

Each public module-level function, and the `PcnGraph` methods `copy`,
`simple_graph` and `balance_digraph`, is replaced in its defining module
and at every module that imported it by name (``cli`` holds its own
reference to ``execute_attack``, ``attack_engine`` to ``remove_nodes``, and
so on), so a call is traced whichever name it goes through. Spans are kept
in memory with their parent id and written to SPANS_OUT as JSON when the
CLI returns, together with two counters:

- ``route_payment.success``: routed payments that found a path;
- ``apriori_measures``: ``attack_engine._measure`` calls on a graph exactly
  as ``load_snapshot`` returned it, keyed by (graph, seed), so that
  "before" measurements repeated for the same key can be counted.

The package itself is not modified.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

PACKAGE = "pcn_resilience"
MODULES = ("graph_model", "topology_metrics", "powerlaw_fit", "payment_sim",
           "attack_engine", "cli")
# cli's own subcommand functions stay unwrapped so that main's self time
# is the residual outside every library call.
CLI_SPANS = ("main",)
METHODS = ("copy", "simple_graph", "balance_digraph")


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.stack: list[int] = []
        self.next_id = 0
        self.route_success = 0
        self.pristine: set[int] = set()
        self.apriori: dict[str, int] = {}

    def wrap(self, name: str, fn, label=None, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name + label(args, kwargs) if label else name
            span_id = self.next_id
            self.next_id += 1
            parent = self.stack[-1] if self.stack else None
            self.stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans.append((span_id, parent, span_name, start, end))
            if observe:
                observe(args, kwargs, result)
            return result
        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"spans": self.spans,
                       "counters": {"route_payment.success": self.route_success,
                                    "apriori_measures": self.apriori}}, f)


def _route_label(args, kwargs) -> str:
    apply = kwargs.get("apply", args[2] if len(args) > 2 else False)
    return ".write" if apply else ".read"


def _plan_label(args, kwargs) -> str:
    strategy = kwargs.get("strategy", args[1] if len(args) > 1 else None)
    return "." + strategy.kind


def install(tracer: Tracer) -> dict:
    """Wrap the package's public functions; returns the loaded modules."""
    mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
    replaced: dict[int, object] = {}

    def observe_route(args, kwargs, outcome):
        tracer.route_success += bool(outcome.success)

    def observe_load(args, kwargs, graph):
        tracer.pristine.add(id(graph))

    def observe_measure(args, kwargs, bundle):
        graph = args[0] if args else kwargs["g"]
        if id(graph) in tracer.pristine:
            seed = kwargs.get("seed", args[4] if len(args) > 4 else None)
            key = f"{id(graph)}:{seed}"
            tracer.apriori[key] = tracer.apriori.get(key, 0) + 1

    special = {
        ("payment_sim", "route_payment"): dict(label=_route_label,
                                               observe=observe_route),
        ("attack_engine", "plan_targets"): dict(label=_plan_label),
        ("graph_model", "load_snapshot"): dict(observe=observe_load),
    }

    for short, mod in mods.items():
        for name, obj in list(vars(mod).items()):
            if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            if name.startswith("_") or (short == "cli" and name not in CLI_SPANS):
                continue
            wrapper = tracer.wrap(f"{short}.{name}", obj,
                                  **special.get((short, name), {}))
            replaced[id(obj)] = wrapper
            setattr(mod, name, wrapper)

    measure = mods["attack_engine"]._measure
    mods["attack_engine"]._measure = tracer.wrap(
        "attack_engine._measure", measure, observe=observe_measure)

    pcn_graph = mods["graph_model"].PcnGraph
    for name in METHODS:
        setattr(pcn_graph, name,
                tracer.wrap(f"graph_model.PcnGraph.{name}", getattr(pcn_graph, name)))

    # rebind names imported with `from .x import y`
    for mod in mods.values():
        for name, obj in list(vars(mod).items()):
            if id(obj) in replaced:
                setattr(mod, name, replaced[id(obj)])
    return mods


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS_OUT -- CLI_ARGS...", file=sys.stderr)
        return 2
    out, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    mods = install(tracer)
    rc = mods["cli"].main(cli_args)
    tracer.dump(out)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
