import time

import pytest

from gridrd.cli import main
from gridrd.harness import read_observations
from gridrd.scenarios import ScenarioKind


def test_run_prints_summary(capsys):
    assert main(["run", "--scenario", "baseline", "--users", "100",
                 "--resources", "100", "--no-jitter"]) == 0
    out = capsys.readouterr().out
    assert "mean_time_s = 12.012" in out
    assert "events.user_query = 100" in out


def test_run_writes_per_user_csv(tmp_path, capsys):
    out = tmp_path / "users.csv"
    assert main(["run", "--users", "3", "--resources", "3", "--no-jitter",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "user,discovery_time_s"
    assert len(lines) == 4


def test_sweep_then_analyze_then_plot(tmp_path, capsys):
    base_csv = tmp_path / "base.csv"
    direct_csv = tmp_path / "direct.csv"
    common = ["sweep", "--points", "20", "60", "--replications", "3",
              "--seed", "7", "--no-jitter"]
    assert main(common + ["--scenario", "baseline", "--out", str(base_csv)]) == 0
    assert main(common + ["--scenario", "direct", "--out", str(direct_csv)]) == 0
    rows = read_observations(base_csv)
    assert len(rows) == 6
    assert {r.scenario for r in rows} == {ScenarioKind.BASELINE}

    report_csv = tmp_path / "report.csv"
    assert main(["analyze", str(direct_csv), str(base_csv), "--out", str(report_csv)]) == 0
    out = capsys.readouterr().out
    assert "Users,Resources" in out
    assert report_csv.read_text().startswith("users,resources,pair,")

    assert main(["plot-data", str(base_csv), "--group-by", "diagonal",
                 "--out-dir", str(tmp_path / "series")]) == 0
    printed = capsys.readouterr().out.strip().splitlines()
    assert printed == [str(tmp_path / "series" / "baseline_diagonal.dat")]


def test_sweep_determinism_across_invocations(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--points", "20", "--replications", "5", "--seed", "3"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b), "--workers", "4"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["sweep", "--sweep-kind", "sideways", "--out", "x.csv"])
    assert exc_info.value.code == 1


def test_unknown_scenario_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["run", "--scenario", "quantum"])
    assert exc_info.value.code == 1


def test_config_error_exits_two(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("t_ws = -1\n", encoding="utf-8")
    assert main(["run", "--config", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["t_reg = nan", "ttl = nan", "t_ws = inf"])
def test_non_finite_config_exits_two(tmp_path, capsys, line):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    assert main(["run", "--config", str(cfg), "--users", "3", "--resources", "3"]) == 2
    captured = capsys.readouterr()
    assert "config error" in captured.err
    assert "mean_time_s" not in captured.out


def test_oversized_topology_exits_two_quickly(tmp_path, capsys):
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("topology.depth = 30\ntopology.branching = 2\n", encoding="utf-8")
    start = time.perf_counter()
    assert main(["run", "--scenario", "distributed", "--users", "2", "--resources", "2",
                 "--config", str(cfg)]) == 2
    assert time.perf_counter() - start < 1.0
    assert "repositories" in capsys.readouterr().err


def test_missing_input_exits_three(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "no.csv"), str(tmp_path / "no.csv")]) == 3


def test_empty_observations_exit_three(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    assert main(["plot-data", str(empty), "--group-by", "users"]) == 3


def test_distributed_run_via_config(tmp_path, capsys):
    cfg = tmp_path / "dist.cfg"
    cfg.write_text("topology.depth = 2\ntopology.branching = 2\n", encoding="utf-8")
    assert main(["run", "--scenario", "distributed", "--users", "4", "--resources", "4",
                 "--config", str(cfg), "--no-jitter"]) == 0
    out = capsys.readouterr().out
    assert "events.registry_lookup = 4" in out


def test_distributed_without_topology_exits_three(capsys):
    assert main(["run", "--scenario", "distributed", "--users", "2",
                 "--resources", "2"]) == 3
