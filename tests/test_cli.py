import contextlib
import hashlib
import io
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import event, given
from hypothesis import strategies as st

import gridrd
import gridrd.stats
from gridrd.cli import CLOSED_PIPE_EXIT, _parser, main
from gridrd.harness import read_observations
from gridrd.scenarios import MAX_USERS, ScenarioKind


def cli_env(**extra: str) -> dict[str, str]:
    """The environment of a fresh ``python -m gridrd.cli`` process that imports this gridrd."""
    src = str(Path(gridrd.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            **extra}


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


@pytest.mark.parametrize("scenario, zeros", [
    ("baseline", ("t_base", "t_reg", "t_user")),
    ("centralized", ("t_base", "t_reg", "t_user", "t_ws", "t_registry")),
])
def test_a_run_of_negative_zero_latencies_writes_negative_zero_times(tmp_path, capsys, scenario, zeros):
    # every term a user pays is -0.0, and -0.0 + -0.0 is -0.0 where -0.0 + 0.0 is 0.0
    cfg, out = tmp_path / "zero.cfg", tmp_path / "users.csv"
    cfg.write_text("".join(f"{key} = -0\n" for key in zeros))
    assert main(["run", "--scenario", scenario, "--no-jitter", "--users", "2", "--resources", "2",
                 "--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_text().splitlines() == ["user,discovery_time_s", "0,-0.0", "1,-0.0"]


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
    # this process and a fresh one under another hash seed write the same bytes
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--points", "20", "--replications", "5", "--seed", "3"]
    assert main(args + ["--out", str(a)]) == 0
    hash_seed = "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0"
    subprocess.run([sys.executable, "-m", "gridrd.cli", *args, "--out", str(b)],
                   env=cli_env(PYTHONHASHSEED=hash_seed), capture_output=True, check=True, timeout=60)
    assert a.read_bytes() == b.read_bytes()


def _captured(argv: list[str]) -> tuple[int, str, str]:
    """``gridrd argv`` in-process: (exit code, stdout, stderr), a usage error's exit included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _fresh(argv: list[str], cwd: Path, **env: str) -> tuple[int, str, str]:
    """``gridrd argv`` as the one call of a fresh interpreter: (exit code, stdout, stderr)."""
    done = subprocess.run([sys.executable, "-m", "gridrd.cli", *argv], env=cli_env(**env), cwd=cwd,
                          capture_output=True, text=True, timeout=60)
    return done.returncode, done.stdout, done.stderr


def test_a_reused_parser_parses_each_call_as_a_fresh_process_would(tmp_path, monkeypatch):
    # main builds its parser once per process, so no call may leave state on it for the next:
    # each call here, in one process, prints and writes what it does as a fresh process's first
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    golden = (Path(__file__).parent / "golden" / "observations.csv").read_text().splitlines(keepends=True)
    for folder in (fresh, reused):
        folder.mkdir()
        for kind in ("direct", "baseline"):
            (folder / f"{kind}.csv").write_text("".join(
                line for line in golden if line.startswith(("scenario,", f"{kind},"))))
    sweep = ["sweep", "--points", "6", "--replications", "2", "--no-jitter"]
    calls = [
        sweep + ["--scenario", "direct", "--scenario", "baseline", "--out", "two.csv"],
        sweep + ["--out", "default.csv"],
        ["run", "--users", "0"],
        ["run", "--users", "3", "--resources", "3", "--no-jitter", "--out", "users.csv"],
        ["analyze", "direct.csv", "baseline.csv", "--alpha", "0.01", "--out", "strict.csv"],
        ["analyze", "direct.csv", "baseline.csv", "--out", "analysis.csv"],
    ]
    monkeypatch.chdir(reused)
    _parser.cache_clear()
    results = []
    for argv in calls:
        results.append(_captured(argv))
        assert results[-1] == _fresh(argv, fresh), argv
        assert ({p.name: p.read_bytes() for p in reused.iterdir()}
                == {p.name: p.read_bytes() for p in fresh.iterdir()}), argv
    assert _parser.cache_info().misses == 1
    assert {r.scenario.value for r in read_observations(reused / "default.csv")} == {
        "baseline", "direct", "centralized"}
    assert results[2][0] == 1 and "argument --users:" in results[2][2] and results[3][0] == 0
    assert "Confidence Interval 99%" in results[4][1] and "Confidence Interval 95%" in results[5][1]


@pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"]], ids=" ".join)
def test_help_follows_the_terminal_width_it_is_printed_at(tmp_path, monkeypatch, argv):
    # the parser is built under one width; help printed later reads the width of its own call
    monkeypatch.setenv("COLUMNS", "100")
    _parser.cache_clear()
    assert _captured(["run", "--users", "0"])[0] == 1
    printed = {}
    for columns in ("60", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        printed[columns] = _captured(argv)
        assert printed[columns] == _fresh(argv, tmp_path, COLUMNS=columns)
        assert printed[columns][0] == 0
    assert printed["60"][1] != printed["200"][1]
    assert _parser.cache_info().misses == 1


@pytest.mark.parametrize("workers", ["2", "0", "-1", "-7", "two"])
def test_bad_worker_count_is_usage_error(tmp_path, capsys, workers):
    # a sweep is one serial loop and has no --workers: every count is an unrecognised argument
    out = tmp_path / "obs.csv"
    with pytest.raises(SystemExit) as exc_info:
        main(["sweep", "--points", "20", "--workers", workers, "--out", str(out)])
    assert exc_info.value.code == 1
    assert f"unrecognized arguments: --workers {workers}\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, option", [
    (["run", "--users", "0"], "--users"),
    (["run", "--users", "ten"], "--users"),
    (["run", "--resources", "-3"], "--resources"),
    (["sweep", "--points", "20", "0"], "--points"),
    (["sweep", "--sweep-kind", "fixed-users", "--fixed-values", "0"], "--fixed-values"),
    (["sweep", "--replications", "0"], "--replications"),
    (["sweep", "--sweep-kind", "fixed-users", "--range", "0:40:20"], "--range"),
    (["sweep", "--sweep-kind", "fixed-users", "--range", "20:40:0"], "--range"),
    (["sweep", "--sweep-kind", "fixed-users", "--range", "40:20:5"], "--range"),
    (["sweep", "--sweep-kind", "fixed-users", "--range", "a:b"], "--range"),
    (["sweep", "--sweep-kind", "fixed-users", "--range", "20:40"], "--range"),
    # options the chosen sweep kind would ignore
    (["sweep", "--sweep-kind", "fixed-users", "--points", "7"], "--points"),
    (["sweep", "--sweep-kind", "fixed-resources", "--points", "7"], "--points"),
    (["sweep", "--fixed-values", "5", "--range", "1:3:1"], "--fixed-values"),
    (["sweep", "--sweep-kind", "diagonal", "--range", "1:3:1"], "--range"),
    (["sweep", "--sweep-kind", "fixed-users", "--points", "7", "--config", "missing.cfg"], "--points"),
])
def test_bad_count_or_range_is_usage_error(tmp_path, capsys, argv, option):
    out = tmp_path / "obs.csv"
    with pytest.raises(SystemExit) as exc_info:
        main(argv + (["--out", str(out)] if argv[0] == "sweep" else []))
    assert exc_info.value.code == 1
    # the usage and the error name the subcommand
    err = capsys.readouterr().err
    assert err.startswith(f"usage: gridrd {argv[0]} ")
    assert f"gridrd {argv[0]}: error: argument {option}:" in err
    assert not out.exists()


@pytest.mark.parametrize("repeat", [
    ["--scenario", "baseline", "--points", "20", "20"],
    ["--scenario", "baseline", "--scenario", "baseline", "--points", "20"],
    ["--scenario", "baseline", "--sweep-kind", "fixed-users", "--fixed-values", "20", "20",
     "--range", "20:20:1"],
])
def test_repeated_sweep_values_run_once_and_analyze(tmp_path, capsys, repeat):
    obs, other = tmp_path / "obs.csv", tmp_path / "other.csv"
    assert main(["sweep", *repeat, "--replications", "2", "--out", str(obs)]) == 0
    assert len(read_observations(obs)) == 2
    assert main(["sweep", "--scenario", "direct", "--points", "20", "--replications", "2",
                 "--out", str(other)]) == 0
    assert main(["analyze", str(obs), str(other)]) == 0
    assert main(["plot-data", str(obs), "--group-by", "users",
                 "--out-dir", str(tmp_path / "plots")]) == 0


def test_range_sweep_covers_start_to_stop(tmp_path, capsys):
    out = tmp_path / "obs.csv"
    assert main(["sweep", "--sweep-kind", "fixed-users", "--fixed-values", "20",
                 "--range", "20:40:20", "--replications", "2", "--out", str(out)]) == 0
    rows = read_observations(out)
    assert sorted({(r.users, r.resources) for r in rows}) == [(20, 20), (20, 40)]
    assert len(rows) == 2 * 2 * 3


_GRID = [(u, r) for u in (20, 60, 100) for r in range(20, 101, 20)]


@pytest.mark.parametrize("argv, grid, digest", [
    (["--sweep-kind", "fixed-users", "--replications", "2"], _GRID,
     "732c4da9fde5df143fd13c293d91762cba111e433d8223a1bce2b3d8f8a519bd"),
    (["--sweep-kind", "fixed-resources", "--replications", "2"], sorted((r, u) for u, r in _GRID),
     "2bf51e5ec3379edceb1f09b3c3b4a26269ffc4fed9f133f73d8d25595ca9faad"),
    (["--sweep-kind", "fixed-resources", "--fixed-values", "20", "60", "--range", "20:80:30",
      "--replications", "3", "--scenario", "direct"],
     [(u, r) for u in (20, 50, 80) for r in (20, 60)],
     "fa44336bc7c0b264bb9b2a95751e3b73a4737c05724f23b77d52d1c66bcbe02e"),
    (["--replications", "2"], [(d, d) for d in (20, 40, 60, 80, 100)],
     "b2ea24485a77e96ad0d4fc29e6fcf3f4f7de12ff80356ffa038e8e69d729f8da"),
])
def test_sweep_kinds_expand_to_their_frozen_grids(tmp_path, capsys, argv, grid, digest):
    out = tmp_path / "obs.csv"
    assert main(["sweep", *argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    assert sorted({(r.users, r.resources) for r in read_observations(out)}) == grid


def test_cli_import_leaves_the_thread_pool_out():
    # no command runs a pool, so the CLI loads neither concurrent.futures nor the logging it imports
    code = "import sys, gridrd.cli; print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], env=cli_env(), capture_output=True, text=True,
                          check=True)
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_a_closed_stdout_exits_quietly_as_sigpipe_would(unbuffered):
    # the reader has gone before gridrd writes, as `gridrd run | head -1` can leave it; a buffered
    # stdout fails at the flush, an unbuffered one (PYTHONUNBUFFERED) at the first print
    env = cli_env(PYTHONUNBUFFERED=unbuffered)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "gridrd.cli", "run", "--scenario", "centralized", "--no-jitter"],
                              env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (CLOSED_PIPE_EXIT, b"") == (141, b"")


@pytest.mark.parametrize("module", [gridrd, gridrd.stats], ids=lambda m: m.__name__)
def test_public_surface_resolves(module):
    # a stale name in __all__ makes `from module import *` raise AttributeError
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["sweep", "--sweep-kind", "sideways", "--out", "x.csv"])
    assert exc_info.value.code == 1
    err = capsys.readouterr().err
    assert "[--sweep-kind {fixed-users,fixed-resources,diagonal}]" in err
    # newer argparse releases list the choices without quotes
    assert re.search(r"invalid choice: 'sideways' \(choose from "
                     r"'?fixed-users'?, '?fixed-resources'?, '?diagonal'?\)", err)


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


@pytest.mark.parametrize("line", ["jitter_sigma0 = 1e200", "jitter_gamma = 1e6"])
def test_jitter_overflow_exits_three(tmp_path, capsys, line):
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    assert main(["run", "--config", str(cfg), "--users", "30", "--resources", "30"]) == 3
    captured = capsys.readouterr()
    assert "jitter spread overflows" in captured.err
    assert "mean_time_s" not in captured.out


def test_latency_overflow_exits_three(tmp_path, capsys):
    cfg = tmp_path / "slow.cfg"
    cfg.write_text("t_reg = 1e307\n", encoding="utf-8")
    assert main(["run", "--config", str(cfg), "--users", "3", "--resources", "30"]) == 3
    captured = capsys.readouterr()
    assert "latency overflows" in captured.err
    assert "mean_time_s" not in captured.out


@pytest.mark.parametrize("jitter, resources", [([], 30), (["--no-jitter"], 10)],
                         ids=["inf-time", "sum-overflow"])
def test_a_sweep_whose_latency_overflows_exits_three(tmp_path, capsys, jitter, resources):
    cfg, out = tmp_path / "slow.cfg", tmp_path / "obs.csv"
    cfg.write_text("t_reg = 1e307\n", encoding="utf-8")
    assert main(["sweep", "--config", str(cfg), *jitter, "--sweep-kind", "fixed-users", "--fixed-values", "3",
                 "--range", f"{resources}:{resources}:1", "--replications", "2", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == (f"gridrd: error: latency overflows: the discovery times of 3 users "
                            f"over {resources} resources are not finite\n")
    assert captured.out == ""
    assert not out.exists()


def test_a_sweep_configures_every_point_before_it_runs_any(tmp_path, capsys):
    # the point (3, 30) overflows, and the point (MAX_USERS + 1, 30) after it is a config error
    cfg, out = tmp_path / "slow.cfg", tmp_path / "obs.csv"
    cfg.write_text("t_reg = 1e307\n", encoding="utf-8")
    assert main(["sweep", "--config", str(cfg), "--sweep-kind", "fixed-resources", "--fixed-values", "30",
                 "--range", f"3:{MAX_USERS + 1}:{MAX_USERS - 2}", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"gridrd: config error: n_users must be at most {MAX_USERS}, got {MAX_USERS + 1}\n"
    assert not out.exists()


HEADER = "scenario,users,resources,replication,seed,discovery_time_s\n"


def _observation_pair(tmp_path, times_a):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text(HEADER + "".join(f"direct,20,40,{i},1,{t}\n" for i, t in enumerate(times_a)),
                 encoding="utf-8")
    b.write_text(HEADER + "".join(f"baseline,20,40,{i},1,{i + 2.0}\n"
                                  for i in range(len(times_a))), encoding="utf-8")
    return a, b


def test_too_small_alpha_exits_three(tmp_path, capsys):
    a, b = _observation_pair(tmp_path, [3.9, 4.1, 4.4])
    assert main(["analyze", str(a), str(b), "--alpha", "1e-300"]) == 3
    captured = capsys.readouterr()
    assert "alpha 1e-300 is too small" in captured.err
    assert captured.out == ""


def test_overflowing_times_exit_three(tmp_path, capsys):
    a, b = _observation_pair(tmp_path, [1e200, 3e200, 2e200])
    assert main(["analyze", str(a), str(b)]) == 3
    captured = capsys.readouterr()
    assert "at (users, resources) = (20, 40): the spread of the sample overflows" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("bad_row, message", [
    ("direct,20,20,2,9,nan", ":4: discovery_time_s 'nan' is not finite"),
    ("direct,20,20,0,9,3.5", ":4: duplicate of the row on line 2"),
    ("direct,-5,0,-2,3,2.0", ":4: users must be >= 1, got -5"),
], ids=["nan-time", "duplicate-row", "negative-users"])
def test_rejected_observations_exit_three(tmp_path, capsys, bad_row, message):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text(HEADER + "direct,20,20,0,1,3.9\ndirect,20,20,1,2,4.1\n" + bad_row + "\n",
                 encoding="utf-8")
    b.write_text(HEADER + "baseline,20,20,0,1,2.0\nbaseline,20,20,1,2,2.1\n"
                 "baseline,20,20,2,9,2.2\n", encoding="utf-8")
    assert main(["analyze", str(a), str(b)]) == 3
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_a_rejected_row_is_named_by_the_line_it_starts_on(tmp_path, capsys):
    # line 2's quoted time ends on line 3, so the bad value is on line 4
    obs = tmp_path / "obs.csv"
    obs.write_text(HEADER + 'baseline,20,20,0,1,"1.5\n"\nbaseline,20,20,1,1,x\n', encoding="utf-8")
    assert main(["analyze", str(obs), str(obs)]) == 3
    captured = capsys.readouterr()
    assert f"{obs}:4: could not convert string to float: 'x'" in captured.err
    assert captured.out == ""


_NUMBERS = st.sampled_from(["0", "1", "0.5", "-1", "2.5e-3", "1e6", "1e200", "1e308", "nan",
                            "inf", "-inf", "x", ""])
_INTS = st.sampled_from(["-1", "0", "1", "2", "3", "30", "1000001", "none", "2.5", ""])
# (key, value) pairs of config lines; test_config checks the parser against them too
CONFIG_PAIRS = st.one_of(
    st.tuples(st.sampled_from(["t_reg", "t_user", "t_ws", "t_registry", "t_hop", "t_base",
                               "jitter_sigma0", "jitter_gamma"]), _NUMBERS),
    st.tuples(st.just("jitter_enabled"), st.sampled_from(["true", "false", "maybe"])),
    st.tuples(st.sampled_from(["cache_capacity", "topology.depth", "topology.branching"]), _INTS),
    st.tuples(st.just("topology.zones"),
              st.sampled_from(["a, b, x.a", "x.a", "a, a", "A", "a,,b", "."])),
    st.tuples(st.sampled_from(["bogus", "ttl", ""]), _NUMBERS),
)
_CONFIG_LINES = CONFIG_PAIRS.map(lambda kv: f"{kv[0]} = {kv[1]}")


@given(lines=st.lists(st.one_of(_CONFIG_LINES, st.sampled_from(["# note", "no equals sign"])),
                      max_size=6),
       scenario=st.sampled_from(["baseline", "direct", "centralized", "distributed"]),
       users=st.integers(1, 30), resources=st.integers(1, 30))
def test_fuzzed_config_ends_in_a_documented_exit(lines, scenario, users, resources):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp, "fuzz.cfg")
        cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, _ = _captured(["run", "--config", str(cfg), "--scenario", scenario,
                                  "--users", str(users), "--resources", str(resources)])
    event(f"exit {code}")
    assert code in (0, 2, 3)
    assert "nan" not in out and "inf" not in out


_KINDS = st.sampled_from(["direct", "baseline", "centralized"])
# At most one defect per case; a bad token replaces the first time of the first file.
_DEFECTS = st.sampled_from([None] * 8 + ["header", "warp", "mixed", "drop", "dup",
                            "nan", "inf", "-inf", "1e200", "1e308", "-1e308", "x", "-1"])


@given(points=st.lists(st.sampled_from([20, 40, 60]), min_size=1, max_size=3, unique=True),
       reps=st.integers(1, 4),
       times=st.lists(st.floats(0.0, 100.0), min_size=24, max_size=24),
       kinds=st.tuples(_KINDS, _KINDS), defect=_DEFECTS,
       alpha=st.sampled_from(["0.05", "0.05", "0.5", "1e-300"]))
def test_fuzzed_observations_end_in_a_documented_exit(points, reps, times, kinds, defect, alpha):
    keys = [(point, point, rep) for point in points for rep in range(reps)]
    rows_a = [[kinds[0], *key, 7, repr(t)] for key, t in zip(keys, times)]
    rows_b = [[kinds[1], *key, 7, repr(t)] for key, t in zip(keys, times[12:])]
    header = "scenario,users\n" if defect == "header" else HEADER
    if defect == "warp":
        rows_a[0][0] = "warp"
    elif defect == "mixed":
        rows_a[0][0] = "direct" if kinds[0] == "baseline" else "baseline"
    elif defect == "drop":
        rows_b.pop()
    elif defect == "dup":
        rows_a.append(rows_a[0])
    elif defect is not None:
        rows_a[0][-1] = defect
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp, "a.csv"), Path(tmp, "b.csv")]
        for path, rows in zip(paths, (rows_a, rows_b)):
            path.write_text(header + "".join(",".join(map(str, row)) + "\n" for row in rows),
                            encoding="utf-8")
        code, out, _ = _captured(["analyze", *map(str, paths), "--alpha", alpha])
    event(f"exit {code}")
    assert code in (0, 3)
    assert "nan" not in out


def test_missing_input_exits_three(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "no.csv"), str(tmp_path / "no.csv")]) == 3


def test_empty_observations_exit_three(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    assert main(["plot-data", str(empty), "--group-by", "users"]) == 3


def test_a_config_that_is_not_utf8_exits_two_naming_the_file(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"t_ws = 1  # caf\xe9\n")
    assert main(["run", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"gridrd: config error: cannot read config {cfg}: 'utf-8' codec")
    assert captured.out == ""


def test_observations_that_are_not_utf8_exit_three_naming_the_file(tmp_path, capsys):
    good = tmp_path / "good.csv"
    assert main(["sweep", "--replications", "2", "--out", str(good)]) == 0
    bad = tmp_path / "bad.csv"
    bad.write_bytes(good.read_bytes() + b"\xff\n")
    capsys.readouterr()
    assert main(["analyze", str(good), str(bad)]) == 3
    assert capsys.readouterr().err.startswith(f"gridrd: error: cannot read {bad}: 'utf-8' codec")


@pytest.mark.parametrize("lines, lineno", [
    (["scenario,users,resources,replication,seed,discovery_time_s", "baseline,20,20,0,1,1.5",
      "baseline,20,20,1,1,1.5", f"baseline,20,20,2,1,{'1' * 140_000}"], 4),
    ([f"scenario,users,resources,replication,seed,{'x' * 140_000}", "baseline,20,20,0,1,1.5"], 1),
], ids=["row", "header"])
def test_a_field_over_the_csv_limit_exits_three_naming_its_line(tmp_path, capsys, lines, lineno):
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["analyze", str(bad), str(bad)]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"gridrd: error: {bad}:{lineno}: field larger than field limit (131072)\n"
    assert captured.out == ""


def test_distributed_run_via_config(tmp_path, capsys):
    cfg = tmp_path / "dist.cfg"
    cfg.write_text("topology.depth = 2\ntopology.branching = 2\n", encoding="utf-8")
    assert main(["run", "--scenario", "distributed", "--users", "4", "--resources", "4",
                 "--config", str(cfg), "--no-jitter"]) == 0
    out = capsys.readouterr().out
    assert "events.registry_lookup = 4" in out


def test_every_sweep_row_replays_with_run(tmp_path, capsys):
    # a row's seed column is its run's seed: `gridrd run` prints the row's time, text for text
    cfg, obs = tmp_path / "tree.cfg", tmp_path / "obs.csv"
    cfg.write_text("topology.depth = 3\ntopology.branching = 2\n", encoding="utf-8")
    scenarios = ["--scenario", "baseline", "--scenario", "centralized", "--scenario", "distributed"]
    assert main(["sweep", *scenarios, "--points", "6", "12", "--replications", "3", "--config", str(cfg),
                 "--out", str(obs)]) == 0
    capsys.readouterr()
    rows = [line.split(",") for line in obs.read_text(encoding="utf-8").splitlines()[1:]]
    assert len(rows) == 3 * 2 * 3
    for scenario, users, resources, _, seed, time_s in rows:
        assert main(["run", "--scenario", scenario, "--users", users, "--resources", resources,
                     "--seed", seed, "--config", str(cfg)]) == 0
        assert f"\nmean_time_s = {time_s}\n" in capsys.readouterr().out


def test_distributed_run_over_a_deep_zone_chain(tmp_path, capsys):
    # the user at z has an empty pool, so its search descends the whole chain
    chain = [".".join(["a"] * k) for k in range(1, sys.getrecursionlimit() + 201)]
    cfg = tmp_path / "deep.cfg"
    cfg.write_text("topology.zones = " + ", ".join(["z"] + chain) + "\n", encoding="utf-8")
    assert main(["run", "--scenario", "distributed", "--users", "2", "--resources", "1",
                 "--config", str(cfg)]) == 0
    assert "events.registry_lookup = 2" in capsys.readouterr().out


def test_distributed_without_topology_exits_two(capsys):
    assert main(["run", "--scenario", "distributed", "--users", "2",
                 "--resources", "2"]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["run", "--scenario", "distributed", "--resources", "100"],
    ["sweep", "--scenario", "distributed", "--replications", "2", "--out"],
])
def test_a_ttl_key_exits_two(tmp_path, capsys, command):
    # a run resolves every query at one instant, so a cache needs no time-to-live
    cfg, out = tmp_path / "ttl.cfg", tmp_path / "obs.csv"
    cfg.write_text("ttl = 60\ntopology.depth = 4\n", encoding="utf-8")
    command = command + [str(out)] if command[-1] == "--out" else command
    assert main(command + ["--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "gridrd: config error: line 1: unknown key 'ttl'\n"
    assert captured.out == ""
    assert not out.exists()
    cfg.write_text("topology.depth = 4\n", encoding="utf-8")
    assert main(["run", "--scenario", "distributed", "--resources", "100", "--config", str(cfg)]) == 0


def test_a_summary_pruning_key_exits_two(tmp_path, capsys):
    cfg = tmp_path / "pruning.cfg"
    cfg.write_text("summary_pruning = true\n", encoding="utf-8")
    assert main(["run", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "gridrd: config error: line 1: unknown key 'summary_pruning'\n"
    assert captured.out == ""


# A distributed run over 10**310 users is left to the ScenarioConfig test: if the
# check were missing, it would resolve user after user with no end.
@pytest.mark.parametrize("scenario, option, field", [
    ("baseline", "--users", "n_users"), ("baseline", "--resources", "n_resources"),
    ("distributed", "--resources", "n_resources"),
])
def test_a_count_too_large_for_a_float_exits_two(tmp_path, capsys, scenario, option, field):
    cfg = tmp_path / "tree.cfg"
    cfg.write_text("topology.depth = 3\n", encoding="utf-8")
    argv = ["run", "--scenario", scenario, option, "1" + "0" * 310, "--config", str(cfg)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"gridrd: config error: {field} is too large to convert to a float\n"
    assert captured.out == ""


# Every sweep cell is configured before any runs, so the bound stops a sweep before its
# first cell; without it, either command would draw and resolve user after user.
@pytest.mark.parametrize("command, count", [
    (["run", "--scenario", "baseline", "--users"], MAX_USERS + 1),
    (["run", "--scenario", "distributed", "--users"], 10**20),
    (["sweep", "--scenario", "distributed", "--replications", "1", "--points", "20"], 10**20),
])
def test_a_user_count_above_the_bound_exits_two(tmp_path, capsys, command, count):
    cfg = tmp_path / "tree.cfg"
    cfg.write_text("topology.depth = 3\n", encoding="utf-8")
    out = tmp_path / "obs.csv"
    argv = [*command, str(count), "--config", str(cfg)]
    assert main(argv + (["--out", str(out)] if command[0] == "sweep" else [])) == 2
    captured = capsys.readouterr()
    assert captured.err == f"gridrd: config error: n_users must be at most {MAX_USERS}, got {count}\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("line", ["topology.branching = 2", "topology.zones = a.b",
                                  "topology.zones = A", "topology.zones = a, a"])
def test_malformed_tree_exits_two_for_a_baseline_run(tmp_path, capsys, line):
    cfg = tmp_path / "tree.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    assert main(["run", "--scenario", "baseline", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "config error" in captured.err
    assert captured.out == ""
