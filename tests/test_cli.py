import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from pcn_resilience import cli
from pcn_resilience.cli import main
from pcn_resilience.graph_model import graph_from_dict
from pcn_resilience.topology_metrics import ConvergenceError

DATA = Path(__file__).parent / "data"
FIXTURE = str(DATA / "fixture_snapshot.json")


@pytest.fixture
def er_snapshot(tmp_path):
    """A 60-node random snapshot written to disk."""
    from pcn_resilience.topology_metrics import generate_reference
    g = generate_reference("erdos-renyi", 60, 150, seed=1)
    path = tmp_path / "er.json"
    path.write_text(json.dumps(g.to_snapshot_dict()))
    return str(path)


class TestAnalyze:
    def test_fixture_outputs(self, tmp_path):
        out = tmp_path / "report"
        rc = main(["analyze", "--snapshot", FIXTURE, "--out", str(out),
                   "--seed", "1", "--smallworld-runs", "0", "--gof-runs", "100"])
        assert rc == 0
        metrics = json.loads((out / "metrics.json").read_text())
        pcn = metrics["graphs"]["pcn"]
        for key in ("node_count", "edge_count", "diameter", "avg_distance",
                    "clustering", "central_point_dominance"):
            assert key in pcn
        assert metrics["meta"]["seed"] == 1
        assert (out / "degree_distribution.csv").exists()
        # 3-node fixture cannot carry a power-law fit; error is recorded
        pl = json.loads((out / "powerlaw.json").read_text())
        assert "error" in pl

    def test_reference_rows(self, tmp_path, er_snapshot):
        out = tmp_path / "report"
        rc = main(["analyze", "--snapshot", er_snapshot, "--out", str(out),
                   "--seed", "2", "--smallworld-runs", "0", "--gof-runs", "100",
                   "--format", "csv",
                   "--reference", "erdos-renyi",
                   "--reference", "barabasi-albert"])
        assert rc == 0
        lines = (out / "metrics.csv").read_text().strip().splitlines()
        # comment, header, then one row per graph
        assert len(lines) == 2 + 3

    def test_byte_identical_reruns(self, tmp_path, er_snapshot):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            main(["analyze", "--snapshot", er_snapshot, "--out", str(out),
                  "--seed", "3", "--smallworld-runs", "2", "--gof-runs", "100"])
            outs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert outs[0] == outs[1]

    def test_bad_snapshot_exits_nonzero(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        rc = main(["analyze", "--snapshot", str(bad),
                   "--out", str(tmp_path / "o")])
        assert rc != 0


    @pytest.mark.parametrize("snapshot", [
        {"nodes": ["x"]}, {"nodes": 5}, {"nodes": [], "edges": "c0"},
        {"nodes": [{"pub_key": "a"}], "edges": [["a", "b"]]},
    ])
    def test_wrongly_typed_records_are_one_line(self, tmp_path, capsys,
                                                snapshot):
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(snapshot))
        rc = main(["analyze", "--snapshot", str(path),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_balances_above_capacity_are_one_line(self, tmp_path, capsys):
        path = tmp_path / "overdrawn.json"
        path.write_text(json.dumps({
            "nodes": [{"pub_key": "a"}, {"pub_key": "b"}],
            "edges": [{"channel_id": "c0", "node1_pub": "a", "node2_pub": "b",
                       "capacity": 5, "node1_balance": 9, "node2_balance": 9}]}))
        rc = main(["analyze", "--snapshot", str(path), "--balance-model",
                   "explicit", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: channel c0 has balances 9 + 9 above its capacity 5"]


    def test_zero_gof_runs_is_one_line(self, tmp_path, capsys):
        # unlike the 3-node fixture, BA(300) reaches the bootstrap
        from pcn_resilience.topology_metrics import generate_reference
        g = generate_reference("barabasi-albert", 300, 900, seed=1)
        snap = tmp_path / "ba.json"
        snap.write_text(json.dumps(g.to_snapshot_dict()))
        rc = main(["analyze", "--snapshot", str(snap), "--out",
                   str(tmp_path / "o"), "--smallworld-runs", "0",
                   "--gof-runs", "0"])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: goodness of fit needs synthetic_runs >= 1"]
        assert not (tmp_path / "o").exists()

    def test_smallworld_on_a_one_node_component_is_one_line(self, tmp_path,
                                                            capsys):
        snap = tmp_path / "pair.json"
        snap.write_text(json.dumps({
            "nodes": [{"pub_key": "a"}, {"pub_key": "b"}], "edges": []}))
        rc = main(["analyze", "--snapshot", str(snap), "--out",
                   str(tmp_path / "o"), "--smallworld-runs", "1"])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: the small-world coefficient needs a largest component "
            "of at least 2 nodes; it has 1"]
        assert not (tmp_path / "o").exists()

    def test_reference_on_one_node_is_one_line(self, tmp_path, capsys):
        snap = tmp_path / "one.json"
        snap.write_text(json.dumps({"nodes": [{"pub_key": "a"}], "edges": []}))
        rc = main(["analyze", "--snapshot", str(snap), "--out",
                   str(tmp_path / "o"), "--reference", "erdos-renyi",
                   "--smallworld-runs", "0"])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: the erdos-renyi reference graph needs at least 2 nodes, "
            "not 1"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind, nodes, message", [
        ("erdos-renyi", "abc", "on 3 nodes holds at most 3 edges, not 4"),
        ("barabasi-albert", "ab", "on 2 nodes attaches each new node by "
                                  "at most 1 edges, not 2"),
    ])
    def test_reference_past_the_node_pairs_is_one_line(self, tmp_path, capsys,
                                                       kind, nodes, message):
        # four channels, parallel ones among them, asked of a simple graph
        pairs = list(zip(nodes, nodes[1:] + nodes[0])) * 2
        snap = tmp_path / "parallel.json"
        snap.write_text(json.dumps({
            "nodes": [{"pub_key": v} for v in nodes],
            "edges": [{"channel_id": f"c{i}", "node1_pub": a, "node2_pub": b,
                       "capacity": 10} for i, (a, b) in enumerate(pairs[:4])]}))
        rc = main(["analyze", "--snapshot", str(snap), "--out",
                   str(tmp_path / "o"), "--reference", kind,
                   "--smallworld-runs", "0", "--gof-runs", "1"])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: the {kind} reference graph {message}"]
        assert not (tmp_path / "o").exists()


class TestAttack:
    def test_n_zero_gives_zero_deltas(self, tmp_path, er_snapshot):
        out = tmp_path / "attack.json"
        rc = main(["attack", "--snapshot", er_snapshot, "--out", str(out),
                   "--seed", "1", "--strategy", "random",
                   "--n-sweep", "0:0", "--attempts", "50", "--flow-rounds", "5"])
        assert rc == 0
        rows = json.loads(out.read_text())["rows"]
        assert len(rows) == 1
        adv = rows[0]["advantage"]
        assert adv["delta_s"] == adv["delta_r"] == adv["delta_F"] == 0.0

    def test_all_strategies_sweep_cardinality(self, tmp_path, er_snapshot):
        out = tmp_path / "attack.csv"
        rc = main(["attack", "--snapshot", er_snapshot, "--out", str(out),
                   "--seed", "1", "--strategy", "all", "--n-sweep", "1:3",
                   "--attempts", "30", "--flow-rounds", "5",
                   "--cut-samples", "30", "--payment-samples", "30",
                   "--format", "csv"])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2 + 6 * 3

    def test_budget_sweep(self, tmp_path, er_snapshot):
        out = tmp_path / "attack.json"
        rc = main(["attack", "--snapshot", er_snapshot, "--out", str(out),
                   "--seed", "1", "--strategy", "degree",
                   "--budget-sweep", "0,10,1000000",
                   "--attempts", "30", "--flow-rounds", "5"])
        assert rc == 0
        rows = json.loads(out.read_text())["rows"]
        assert [r["constraint"]["value"] for r in rows] == [0, 10, 1000000]
        assert all(r["spent"] <= r["constraint"]["value"] for r in rows)

    def test_byte_identical_reruns(self, tmp_path, er_snapshot):
        blobs = []
        for name in ("a1.csv", "a2.csv"):
            out = tmp_path / name
            main(["attack", "--snapshot", er_snapshot, "--out", str(out),
                  "--seed", "9", "--strategy", "degree", "--n-sweep", "1:2",
                  "--attempts", "30", "--flow-rounds", "5", "--format", "csv"])
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("name, exc", [
        ("plan_targets", ConvergenceError(
            "eigenvector centrality did not converge within 300 Lanczos steps")),
        ("execute_attack", ValueError(
            "constraint must be ('count', n) or ('budget', satoshi)")),
    ])
    def test_library_error_is_one_line(self, tmp_path, er_snapshot, capsys,
                                       monkeypatch, name, exc):
        def fail(*args, **kwargs):
            raise exc
        monkeypatch.setattr(cli, name, fail)
        rc = main(["attack", "--snapshot", er_snapshot,
                   "--out", str(tmp_path / "x"), "--strategy", "eigenvector",
                   "--n-sweep", "1:1", "--attempts", "5", "--flow-rounds", "1"])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {exc}"]

    @pytest.mark.parametrize("strategy", ["degree", "parallel-paths"])
    def test_unknown_hub_is_one_line(self, tmp_path, capsys, strategy):
        rc = main(["attack", "--snapshot", FIXTURE,
                   "--out", str(tmp_path / "x.json"), "--strategy", strategy,
                   "--n-sweep", "0:1", "--hub", "nosuchnode",
                   "--attempts", "5", "--flow-rounds", "1",
                   "--payment-samples", "5"])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: unknown hub nosuchnode"]
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_zero_a_priori_flow_reports_no_advantage(self, tmp_path, fmt):
        # two components: the one sampled flow pair crosses them, so F_bar = 0
        snap = tmp_path / "split.json"
        snap.write_text(json.dumps({
            "nodes": [{"pub_key": v} for v in "ABCD"],
            "edges": [{"channel_id": "ab", "node1_pub": "A", "node2_pub": "B",
                       "capacity": 1000},
                      {"channel_id": "cd", "node1_pub": "C", "node2_pub": "D",
                       "capacity": 1000}]}))
        out = tmp_path / f"attack.{fmt}"
        rc = main(["attack", "--snapshot", str(snap), "--out", str(out),
                   "--format", fmt, "--strategy", "degree", "--n-sweep", "1:1",
                   "--attempts", "5", "--flow-rounds", "1", "--seed", "0"])
        assert rc == 0
        if fmt == "json":
            [row] = json.loads(out.read_text())["rows"]
            assert row["a_priori"]["F_bar"] == 0
            assert row["advantage"] == {"delta_F": None, "delta_r": 0.0,
                                        "delta_s": 0.0}
        else:
            assert out.read_text().splitlines()[2] == \
                "degree,count,1,1000,0.2,0.2,2,2,0,0,0,0,"

    @pytest.mark.parametrize("sweep, message", [
        (["--n-sweep=-5:5:5"], "sweep '-5:5:5' has a negative count -5"),
        (["--budget-sweep=-100,5"], "sweep '-100,5' has a negative budget -100"),
        (["--n-sweep", "30:10"], "sweep '30:10' has no points"),
        (["--n-sweep", "10:30:0"], "sweep '10:30:0' has step 0, expected >= 1"),
        (["--n-sweep", "10:30:-5"], "sweep '10:30:-5' has step -5, expected >= 1"),
        (["--n-sweep", "a:b"], "sweep 'a:b' has 'a', expected an integer"),
        (["--n-sweep", "1:2:3:4"],
         "bad sweep spec '1:2:3:4', expected start:end[:step]"),
        (["--budget-sweep", "1,x"], "sweep '1,x' has 'x', expected an integer"),
        # more points than a list can index, and more than memory can hold
        (["--n-sweep", "0:100000000000000000000"],
         "sweep '0:100000000000000000000' has too many points"),
        (["--n-sweep", "0:4611686018427387904"],
         "sweep '0:4611686018427387904' has too many points"),
    ])
    def test_bad_sweep_is_one_line(self, tmp_path, capsys, sweep, message):
        # a snapshot that does not exist shows the sweep is checked first
        out = tmp_path / "x.json"
        rc = main(["attack", "--snapshot", str(tmp_path / "absent.json"),
                   "--out", str(out), "--strategy", "degree", *sweep,
                   "--attempts", "5", "--flow-rounds", "1"])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    def test_missing_sweep_is_error(self, tmp_path, er_snapshot):
        with pytest.raises(SystemExit):
            main(["attack", "--snapshot", er_snapshot,
                  "--out", str(tmp_path / "x"), "--strategy", "degree"])

    def test_both_sweeps_are_an_error(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        with pytest.raises(SystemExit) as exit_info:
            main(["attack", "--snapshot", FIXTURE, "--out", str(out),
                  "--strategy", "degree", "--n-sweep", "1:2",
                  "--budget-sweep", "5"])
        assert exit_info.value.code != 0
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out.exists()


class TestRobustness:
    def test_k10_fixture_never_splits(self, tmp_path):
        nodes = [f"n{i}" for i in range(10)]
        g = graph_from_dict({
            "nodes": [{"pub_key": v} for v in nodes],
            "edges": [
                {"channel_id": f"c{i}", "node1_pub": a, "node2_pub": b,
                 "capacity": 1}
                for i, (a, b) in enumerate(
                    (a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:])
            ],
        })
        snap = tmp_path / "k10.json"
        snap.write_text(json.dumps(g.to_snapshot_dict()))
        out = tmp_path / "rob.csv"
        rc = main(["robustness", "--snapshot", str(snap), "--out", str(out),
                   "--seed", "1", "--failures", "1,2,3", "--reps", "20",
                   "--format", "csv"])
        assert rc == 0
        rows = out.read_text().strip().splitlines()[2:]
        assert [r.split(",")[1] for r in rows] == ["1", "1", "1"]

    def test_json_rows_match_csv(self, tmp_path):
        outs = {}
        for fmt in ("json", "csv"):
            outs[fmt] = tmp_path / f"rob.{fmt}"
            assert main(["robustness", "--snapshot", FIXTURE, "--seed", "3",
                         "--out", str(outs[fmt]), "--failures", "0,1,2",
                         "--reps", "7", "--format", fmt]) == 0
        report = json.loads(outs["json"].read_text())
        assert report["meta"]["seed"] == 3
        assert set(report) == {"meta", "rows"}
        csv_lines = outs["csv"].read_text().splitlines()
        assert csv_lines[0].startswith("# version=")
        assert csv_lines[2:] == [f"{r['failures']},{r['mean_components']:.6g}"
                                 for r in report["rows"]]
        assert [r["failures"] for r in report["rows"]] == [0, 1, 2]

    def test_too_many_failures(self, tmp_path, er_snapshot):
        rc = main(["robustness", "--snapshot", er_snapshot,
                   "--out", str(tmp_path / "o.csv"),
                   "--failures", "100", "--reps", "5"])
        assert rc != 0

    def test_identical_rows_on_rerun(self, tmp_path, er_snapshot):
        blobs = []
        for name in ("r1.csv", "r2.csv"):
            out = tmp_path / name
            main(["robustness", "--snapshot", er_snapshot, "--out", str(out),
                  "--seed", "4", "--failures", "5,10", "--reps", "1"])
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]


@pytest.mark.parametrize("argv", [
    ["analyze", "--betweenness-sources", "0"],
    ["analyze", "--smallworld-runs", "-2"],
    # the fixture's fit fails, so the bootstrap would never run
    ["analyze", "--gof-runs", "0"],
    ["robustness", "--failures", "1", "--reps", "0"],
    ["attack", "--strategy", "degree", "--n-sweep", "1:1", "--attempts", "0"],
    ["attack", "--strategy", "degree", "--n-sweep", "1:1",
     "--flow-rounds", "0"],
])
def test_zero_counts_are_one_line(tmp_path, capsys, argv):
    rc = main([*argv, "--snapshot", FIXTURE, "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, message", [
    (["attack", "--strategy", "all", "--n-sweep", "1:1", "--cut-samples", "0"],
     "ranked-min-cut requires cut_samples >= 1"),
    (["attack", "--strategy", "all", "--n-sweep", "1:1",
      "--payment-samples", "0"], "parallel-paths requires payment_samples >= 1"),
    (["attack", "--strategy", "degree", "--budget-sweep", "5",
      "--plan-limit", "0"], "limit must be >= 1"),
    (["analyze", "--betweenness-sources", "0"],
     "betweenness needs at least one source"),
    (["analyze", "--betweenness-sources", "1"],
     "central point dominance needs at least two betweenness sources: "
     "one leaves its own score undefined"),
    (["robustness", "--failures", "1", "--reps", "0"],
     "random failures need at least one run"),
    (["analyze", "--seed", "-1"],
     "--seed: seed -1 is not a non-negative integer"),
    (["attack", "--strategy", "degree", "--n-sweep", "1:1", "--seed", "-3"],
     "--seed: seed -3 is not a non-negative integer"),
    (["robustness", "--failures", "1", "--seed", "-1"],
     "--seed: seed -1 is not a non-negative integer"),
], ids=["cut-samples", "payment-samples", "plan-limit", "betweenness-sources",
        "one-betweenness-source", "reps", "analyze-seed", "attack-seed",
        "robustness-seed"])
def test_bad_counts_are_named_before_loading(tmp_path, capsys, argv, message):
    # a snapshot that does not exist shows the counts are checked first
    rc = main([*argv, "--snapshot", str(tmp_path / "absent.json"),
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_json_reports_refuse_nan_and_infinity(value):
    with pytest.raises(ValueError):
        cli._json_dump({"x": value})


@pytest.mark.parametrize("failures, message", [
    ("-1", "sweep '-1' has a negative failure count -1"),
    ("3,1.5", "sweep '3,1.5' has '1.5', expected an integer"),
    ("2,x", "sweep '2,x' has 'x', expected an integer"),
    ("2,,4", "sweep '2,,4' has '', expected an integer"),
], ids=["negative", "decimal", "text", "empty"])
def test_bad_failures_are_named_before_loading(tmp_path, capsys, failures,
                                               message):
    # a snapshot that does not exist shows the counts are checked first
    rc = main(["robustness", "--snapshot", str(tmp_path / "absent.json"),
               "--out", str(tmp_path / "o.csv"), f"--failures={failures}"])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("volumes, message", [
    ("10\n\n1.5\n", "line 3 has '1.5', expected a positive integer"),
    ("-5\n", "line 1 has '-5', expected a positive integer"),
    ("\n", "has no volumes"),
    ("10\xff\n", "is not UTF-8"),  # latin-1 writes the byte 0xff
])
def test_bad_volume_file_is_named_before_loading(tmp_path, capsys, volumes,
                                                 message):
    # a snapshot that does not exist shows the volumes are read first
    vols = tmp_path / "vols.txt"
    vols.write_text(volumes, encoding="latin-1")
    rc = main(["attack", "--snapshot", str(tmp_path / "absent.json"),
               "--out", str(tmp_path / "o.json"), "--strategy", "degree",
               "--n-sweep", "1:1", "--volumes", str(vols)])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: volume file {vols} {message}"]
    assert not (tmp_path / "o.json").exists()


def fresh_env(**extra) -> dict:
    """The environment of a new interpreter that imports this package."""
    src = str(Path(cli.__file__).parents[1])
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def run_fresh(code: str) -> None:
    """Run `code` in a new interpreter that imports this package."""
    run = subprocess.run([sys.executable, "-c", code], env=fresh_env(),
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_attack_and_robustness_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    # string hashes, and so the iteration order of sets of node ids, differ
    # between processes with different PYTHONHASHSEED values. analyze and
    # betweenness are left out: both still follow the node set's order.
    rng = random.Random(5)
    ids = [f"{rng.getrandbits(64):016x}" for _ in range(120)]
    ends, edges = ids[:2], []
    for v in ids[2:]:
        for u in {rng.choice(ends), rng.choice(ends)}:  # preferential
            capacity = rng.randint(2, 10**6)
            ab = rng.randint(0, capacity)
            edges.append({
                "channel_id": str(len(edges)), "node1_pub": u, "node2_pub": v,
                "capacity": capacity, "node1_balance": ab,
                "node2_balance": capacity - ab,
                **{f"node{side}_policy": {
                    "fee_base_msat": rng.randint(0, 2000),
                    "fee_rate_milli_msat": rng.randint(0, 5000)}
                   for side in (1, 2)}})
            ends += [u, v]
    snapshot, volumes = tmp_path / "snap.json", tmp_path / "vols.txt"
    snapshot.write_text(json.dumps(
        {"nodes": [{"pub_key": v} for v in ids], "edges": edges}))
    volumes.write_text("1000\n50000\n300000\n")
    runs = {
        "attack.json": [
            "attack", "--strategy", "degree", "--strategy", "eigenvector",
            "--strategy", "ranked-min-cut", "--strategy", "parallel-paths",
            "--strategy", "random", "--n-sweep", "1:9:4", "--volumes",
            str(volumes), "--hub", ids[0], "--attempts", "60",
            "--flow-rounds", "10", "--cut-samples", "20",
            "--payment-samples", "40"],
        "robustness.json": ["robustness", "--failures", "0,10,60",
                            "--reps", "5"]}
    blobs = {}
    for hash_seed in ("1", "2"):
        for name, argv in runs.items():
            out = tmp_path / hash_seed / name
            subprocess.run(
                [sys.executable, "-m", "pcn_resilience.cli", *argv,
                 "--snapshot", str(snapshot), "--balance-model", "explicit",
                 "--out", str(out)], env=fresh_env(PYTHONHASHSEED=hash_seed),
                check=True)
            blobs.setdefault(name, []).append(out.read_bytes())
    for name, (first, second) in blobs.items():
        assert first == second, name


def test_networkx_stays_unimported(tmp_path):
    # networkx is needed only by the tests: the CLI, a robustness run and
    # an analyze run with both reference graphs must not load it
    run_fresh(
        "import sys\n"
        "from pcn_resilience.cli import main\n"
        "assert 'networkx' not in sys.modules, 'import'\n"
        f"assert main(['robustness', '--snapshot', {FIXTURE!r}, '--out', "
        f"{str(tmp_path / 'rob.csv')!r}, '--failures', '1', '--reps', '3']) == 0\n"
        "assert 'networkx' not in sys.modules, 'robustness'\n"
        f"assert main(['analyze', '--snapshot', {FIXTURE!r}, '--out', "
        f"{str(tmp_path / 'report')!r}, '--reference', 'erdos-renyi', "
        "'--reference', 'barabasi-albert', '--gof-runs', '2']) == 0\n"
        "assert 'networkx' not in sys.modules, 'analyze'\n")


@pytest.fixture
def ba_snapshot(tmp_path):
    """A 300-node preferential-attachment snapshot: enough distinct degrees
    for a power-law fit."""
    from pcn_resilience.topology_metrics import generate_reference
    g = generate_reference("barabasi-albert", 300, 891, seed=1)
    path = tmp_path / "ba.json"
    path.write_text(json.dumps(g.to_snapshot_dict()))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["robustness", "--failures", "1", "--reps", "3"],
    ["attack", "--strategy", "all", "--n-sweep", "1:2", "--cut-samples", "4",
     "--payment-samples", "4", "--attempts", "4", "--flow-rounds", "2"],
    ["analyze", "--reference", "erdos-renyi", "--gof-runs", "2"],
], ids=["robustness", "attack", "analyze"])
def test_no_subcommand_loads_scipy(tmp_path, ba_snapshot, argv):
    run_fresh(
        "import sys\n"
        "from pcn_resilience.cli import main\n"
        f"assert main({argv!r} + ['--snapshot', {ba_snapshot!r}, '--out', "
        f"{str(tmp_path / 'out')!r}]) == 0\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n")


def test_analyze_runs_where_scipy_cannot_be_imported(tmp_path, ba_snapshot):
    # a None entry in sys.modules makes `import scipy` raise ImportError
    run_fresh(
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from pcn_resilience.cli import main\n"
        f"assert main(['analyze', '--snapshot', {ba_snapshot!r}, '--out', "
        f"{str(tmp_path / 'report')!r}, '--gof-runs', '3']) == 0\n")
    report = json.loads((tmp_path / "report" / "powerlaw.json").read_text())
    assert report["goodness_of_fit"]["synthetic_runs"] == 3


class TestSeedFallback:
    def test_env_seed(self, tmp_path, er_snapshot, monkeypatch):
        monkeypatch.setenv("PCN_RESILIENCE_SEED", "77")
        out = tmp_path / "rob.csv"
        main(["robustness", "--snapshot", er_snapshot, "--out", str(out),
              "--failures", "2", "--reps", "2", "--format", "csv"])
        assert "seed=77" in out.read_text().splitlines()[0]

    def test_bad_env_seed_is_named(self, tmp_path, monkeypatch, capsys):
        # a missing snapshot shows the seed is read before loading
        for value, named in (("abc", "'abc'"), ("-5", "-5")):
            monkeypatch.setenv("PCN_RESILIENCE_SEED", value)
            out = tmp_path / "rob.json"
            rc = main(["robustness", "--snapshot", str(tmp_path / "none.json"),
                       "--out", str(out), "--failures", "2"])
            assert rc == 1
            assert capsys.readouterr().err.splitlines() == [
                f"error: $PCN_RESILIENCE_SEED: seed {named} is not a "
                "non-negative integer"]
            assert not out.exists()

    @pytest.mark.parametrize("how", ["flag", "env"])
    @pytest.mark.parametrize("argv", [
        ["analyze", "--gof-runs", "2"],
        ["attack", "--strategy", "random", "--n-sweep", "1:1"],
        ["robustness", "--failures", "1"],
    ], ids=["analyze", "attack", "robustness"])
    def test_negative_seed_leaves_no_report(self, tmp_path, ba_snapshot,
                                            monkeypatch, capsys, how, argv):
        # a snapshot that loads, so only the seed check stops the run before
        # a report is written
        if how == "env":
            monkeypatch.setenv("PCN_RESILIENCE_SEED", "-1")
        else:
            argv = [*argv, "--seed", "-1"]
        out = tmp_path / "out"
        rc = main([*argv, "--snapshot", ba_snapshot, "--out", str(out)])
        assert rc == 1
        name = "$PCN_RESILIENCE_SEED" if how == "env" else "--seed"
        assert capsys.readouterr().err.splitlines() == [
            f"error: {name}: seed -1 is not a non-negative integer"]
        assert not out.exists()
