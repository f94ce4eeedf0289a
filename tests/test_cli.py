import json
from pathlib import Path

import pytest

from pcn_resilience import cli
from pcn_resilience.attack_engine import StalePlanError
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
            "power iteration did not converge within 1000 iterations", 1000)),
        ("execute_attack", StalePlanError(
            "isolation cost of n1 changed since planning")),
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

    def test_missing_sweep_is_error(self, tmp_path, er_snapshot):
        with pytest.raises(SystemExit):
            main(["attack", "--snapshot", er_snapshot,
                  "--out", str(tmp_path / "x"), "--strategy", "degree"])


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
                   "--seed", "1", "--failures", "1,2,3", "--reps", "20"])
        assert rc == 0
        rows = out.read_text().strip().splitlines()[2:]
        assert [r.split(",")[1] for r in rows] == ["1", "1", "1"]

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


class TestSeedFallback:
    def test_env_seed(self, tmp_path, er_snapshot, monkeypatch):
        monkeypatch.setenv("PCN_RESILIENCE_SEED", "77")
        out = tmp_path / "rob.csv"
        main(["robustness", "--snapshot", er_snapshot, "--out", str(out),
              "--failures", "2", "--reps", "2"])
        assert "seed=77" in out.read_text().splitlines()[0]
