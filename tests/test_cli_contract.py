"""The CLI's contract, as a property: every snapshot that loads takes each
subcommand either to reports that parse as strict JSON and keep the
metrics' order (an attack never helps the network), or to exit code 1 with
one `error:` line and no report at all."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcn_resilience.cli import main
from pcn_resilience.graph_model import BALANCE_MODELS, MAX_SAT

from test_report_bytes import not_json
from test_topology_metrics import parallel_overflow_snapshot

AMOUNTS = [1, 2, 1000, MAX_SAT]
FEES = [0, 1, 2**32 - 1]
BUDGETS = [0, 1000, 3 * MAX_SAT]
SMALL = ["--cut-samples", "3", "--payment-samples", "3", "--attempts", "4",
         "--flow-rounds", "2"]

# each run's argv after `--snapshot`, `--out` and `--balance-model`
RUNS = [
    ["analyze", "--smallworld-runs", "1", "--gof-runs", "2"],
    ["analyze", "--reference", "erdos-renyi", "--reference", "barabasi-albert",
     "--smallworld-runs", "0", "--gof-runs", "2"],
    *(["attack", "--strategy", "all", *sweep, *SMALL, *griefing]
      for sweep in (["--n-sweep", "0:2"],
                    ["--budget-sweep", ",".join(map(str, BUDGETS))])
      for griefing in ([], ["--griefing", "--hub", "n0"])),
    ["robustness", "--failures", "0,1", "--reps", "2"],
]


@st.composite
def snapshots(draw):
    """Snapshots of 0-6 nodes that pass ingest: parallel channels, amounts
    at 1 and at the supply cap, zero balances, and fees at both u32 ends."""
    ids = [f"n{i}" for i in range(draw(st.integers(0, 6)))]
    pairs = []
    if len(ids) >= 2:
        pair = st.tuples(st.sampled_from(ids), st.sampled_from(ids)).filter(
            lambda p: p[0] != p[1])
        pairs = draw(st.lists(pair, max_size=8))
    edges = []
    for i, (a, b) in enumerate(pairs):
        capacity = draw(st.sampled_from(AMOUNTS))
        ab = draw(st.sampled_from(sorted({0, 1, capacity})))
        # the two sides split the capacity, or both hold all of it
        ba = draw(st.sampled_from(sorted({0, capacity - ab}
                                         | ({capacity} if ab == capacity else set()))))
        edges.append({
            "channel_id": f"c{i}", "node1_pub": a, "node2_pub": b,
            "capacity": capacity, "node1_balance": ab, "node2_balance": ba,
            **{f"node{side}_policy": {
                "fee_base_msat": draw(st.sampled_from(FEES)),
                "fee_rate_milli_msat": draw(st.sampled_from(FEES))}
               for side in (1, 2)}})
    return {"nodes": [{"pub_key": v} for v in ids], "edges": edges}


def run(argv):
    """cli.main's exit code and stderr lines."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue().splitlines()


def check_attack(rows, node_count):
    for row in rows:
        pre, post = row["a_priori"], row["a_posteriori"]
        assert 0 <= post["s"] <= pre["s"] <= 1
        assert post["r"] <= pre["r"] <= node_count
        assert 0 <= post["F_bar"] <= pre["F_bar"]
        assert post.get("g_bar", 0) >= 0 and pre.get("g_bar", 0) >= 0
        kind, value = row["constraint"]["kind"], row["constraint"]["value"]
        if kind == "budget":
            assert 0 <= row["spent"] <= value
        else:
            assert row["removed"] <= value


@settings(max_examples=25, deadline=None)
@given(snapshots(), st.sampled_from(BALANCE_MODELS))
@example(parallel_overflow_snapshot(), "capacity-both-ways")
def test_every_subcommand_reports_or_fails_in_one_line(snapshot, balance_model):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "snapshot.json"
        path.write_text(json.dumps(snapshot))
        node_count = len(snapshot["nodes"])
        for i, argv in enumerate(RUNS):
            out = Path(tmp) / f"out{i}"
            code, err = run([*argv, "--snapshot", str(path), "--out", str(out),
                             "--balance-model", balance_model])
            assert code in (0, 1)
            if code == 1:
                assert len(err) == 1 and err[0].startswith("error: ")
                assert not out.exists()
                continue
            reports = [out] if out.is_file() else sorted(out.glob("*.json"))
            parsed = {p.name: json.loads(p.read_text(), parse_constant=not_json)
                      for p in reports}
            if argv[0] == "attack":
                check_attack(parsed[out.name]["rows"], node_count)
            elif argv[0] == "robustness":
                for row in parsed[out.name]["rows"]:
                    assert 1 <= row["mean_components"] <= \
                        node_count - row["failures"]
