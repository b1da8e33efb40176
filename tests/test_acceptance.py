"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import random
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from gridrd.config import Config
from gridrd.domain import ResourceQuery
from gridrd.harness import SweepSpec, analyze, format_observations, run_sweep
from gridrd.registry import NotFound, TopologySpec
from gridrd.scenarios import ScenarioConfig, ScenarioKind, run_scenario
from gridrd.simkern import LatencyModel
from gridrd.special import t_cdf, t_quantile
from gridrd.stats import Verdict, test_from_summary
from tests.test_cli import cli_env
from tests.test_registry import (
    brute_force_candidates,
    cache_snapshot,
    random_query,
    random_topology,
)
from tests.test_special import oracle_t_cdf

QUIET = LatencyModel(jitter_enabled=False)


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"\n[{name}] FAIL")
        raise
    print(f"\n[{name}] PASS")


# (mean difference, se, ci_low, ci_high, printed p or None for "<0.0001", verdict)
REFERENCE_ROWS = [
    # first comparison series
    ("A 20,20", 1.573, 0.118, 1.326, 1.820, None, Verdict.DIFFERENT),
    ("A 40,40", 1.227, 0.478, 0.221, 2.232, 0.0196, Verdict.DIFFERENT),
    ("A 60,60", 1.744, 0.980, -0.314, 3.802, 0.0918, Verdict.INSIGNIFICANT),
    ("A 80,80", 1.025, 1.864, -2.891, 4.941, 0.5891, Verdict.INSIGNIFICANT),
    ("A 100,100", 1.890, 3.721, -5.927, 9.707, 0.6176, Verdict.INSIGNIFICANT),
    # second comparison series
    ("B 20,20", 3.289, 0.121, 3.036, 3.542, None, Verdict.DIFFERENT),
    ("B 40,40", 2.946, 0.475, 1.948, 3.944, None, Verdict.DIFFERENT),
    ("B 60,60", 3.462, 0.977, 1.410, 5.513, 0.0023, Verdict.DIFFERENT),
    ("B 80,80", 2.742, 1.865, -1.176, 6.660, 0.1587, Verdict.INSIGNIFICANT),
    ("B 100,100", 3.606, 3.719, -4.208, 11.421, 0.3451, Verdict.INSIGNIFICANT),
]


def test_criterion_1_reference_table_reproduction():
    with criterion("criterion 1: reference tables reproduce"):
        start = time.perf_counter()
        for label, diff, se, lo, hi, p, verdict in REFERENCE_ROWS:
            t = test_from_summary(diff, se, df=18, alpha=0.05)
            assert abs(t.ci_low - lo) <= 0.002, label
            assert abs(t.ci_high - hi) <= 0.002, label
            if p is None:
                assert t.p_value < 0.0001, label
            else:
                assert abs(t.p_value - p) <= 0.0005, label
            assert t.verdict is verdict, label
        assert time.perf_counter() - start < 1.0


def test_criterion_2_calibration_anchors():
    with criterion("criterion 2: zero-jitter anchors at (100, 100)"):
        base = run_scenario(
            ScenarioConfig(ScenarioKind.BASELINE, 100, 100, QUIET, seed=0)
        ).mean_time
        direct = run_scenario(
            ScenarioConfig(ScenarioKind.DIRECT, 100, 100, QUIET, seed=0)
        ).mean_time
        central = run_scenario(
            ScenarioConfig(ScenarioKind.CENTRALIZED, 100, 100, QUIET, seed=0)
        ).mean_time
        assert abs(base - 12.012) <= 0.02
        assert abs(direct - 13.902) <= 0.02
        assert abs(central - 15.618) <= 0.02
        assert abs((direct - base) - 1.890) <= 1e-12
        assert abs((central - base) - 3.606) <= 1e-12


def test_criterion_3_additivity_and_monotonicity():
    with criterion("criterion 3: exact additivity, strict monotonicity"):
        grid = [(u, r) for u in (20, 40, 60, 80, 100) for r in (20, 40, 60, 80, 100)]
        means = {}
        for u, r in grid:
            b = run_scenario(ScenarioConfig(ScenarioKind.BASELINE, u, r, QUIET, 0)).mean_time
            d = run_scenario(ScenarioConfig(ScenarioKind.DIRECT, u, r, QUIET, 0)).mean_time
            c = run_scenario(ScenarioConfig(ScenarioKind.CENTRALIZED, u, r, QUIET, 0)).mean_time
            assert abs((d - b) - QUIET.t_ws) <= 1e-12
            assert abs((c - d) - QUIET.t_registry) <= 1e-12
            means[(u, r)] = (b, d, c)
        for u, r in grid:
            for du, dr in ((20, 0), (0, 20)):
                neighbor = (u + du, r + dr)
                if neighbor in means:
                    assert all(hi > lo for hi, lo in zip(means[neighbor], means[(u, r)]))


def test_criterion_4_significance_pattern():
    with criterion("criterion 4: significance pattern over 200 base seeds"):
        config = Config()  # default calibrated jitter
        hits = 0
        n_seeds = 200
        for base_seed in range(n_seeds):
            verdicts = {}
            sweeps = {}
            for kind in (ScenarioKind.BASELINE, ScenarioKind.DIRECT):
                spec = SweepSpec(
                    points=((20, 20), (100, 100)),
                    replications=10,
                    base_seed=base_seed,
                    scenarios=(kind,),
                )
                sweeps[kind] = run_sweep(spec, config)
            for row in analyze(sweeps[ScenarioKind.DIRECT], sweeps[ScenarioKind.BASELINE]):
                verdicts[(row.users, row.resources)] = row.test.verdict
            hits += (
                verdicts[(20, 20)] is Verdict.DIFFERENT
                and verdicts[(100, 100)] is Verdict.INSIGNIFICANT
            )
        rate = hits / n_seeds
        print(f"  pattern rate: {hits}/{n_seeds} = {rate:.3f}")
        assert rate >= 0.90


def test_criterion_5_resolver_against_brute_force():
    with criterion("criterion 5: resolver vs whole-tree oracle, 1000 topologies"):
        rng = random.Random(0xD15C0)
        found = notfound = 0
        for _ in range(1000):
            topo, records = random_topology(rng, max_nodes=50)
            query = random_query(rng)
            origin = rng.choice(sorted(topo.shape.parent))
            candidates = brute_force_candidates(records, query)
            before = cache_snapshot(topo)
            try:
                res = topo.resolve(origin, query)
            except NotFound:
                notfound += 1
                assert candidates == [], "resolver missed an existing candidate"
                assert cache_snapshot(topo) == before, "failed resolve touched a cache"
                continue
            found += 1
            assert res.record.finder_id in candidates
            again = topo.resolve(origin, query)
            assert again.hop_count == 1
            if res.record.finder_id not in topo.records.get(origin, {}):
                assert again.cache_hit
        print(f"  found={found} notfound={notfound}")
        assert found > 100 and notfound > 100


def test_criterion_6_distributed_best_case_equality():
    with criterion("criterion 6: distributed equals centralized in the best case"):
        for latency in (QUIET, LatencyModel()):
            for seed in (0, 1, 2):
                for depth, branching in ((2, 2), (3, 2), (3, 3)):
                    dist = run_scenario(
                        ScenarioConfig(
                            ScenarioKind.DISTRIBUTED, 12, 12, latency, seed,
                            topology=TopologySpec(depth=depth, branching=branching),
                            query=ResourceQuery(),
                        )
                    )
                    central = run_scenario(
                        ScenarioConfig(ScenarioKind.CENTRALIZED, 12, 12, latency, seed)
                    )
                    assert dist.per_user_times == central.per_user_times
                    assert dist.mean_time == central.mean_time
                    assert dist.trace_summary == central.trace_summary
                    assert dist.failed_users == ()


def test_criterion_7_special_function_accuracy():
    with criterion("criterion 7: t-distribution accuracy vs quadrature oracle"):
        dfs = list(range(1, 31)) + [100, 1000]
        ts = [-50.0, -20.0, -5.0, -2.0, -0.75, 0.0, 0.75, 2.0, 5.0, 20.0, 50.0]
        worst = 0.0
        for df in dfs:
            for t in ts:
                err = abs(t_cdf(t, df) - oracle_t_cdf(t, df))
                worst = max(worst, err)
        print(f"  worst |t_cdf - oracle| = {worst:.3e}")
        assert worst <= 1e-10

        assert abs(t_quantile(0.975, 18) - 2.101) <= 0.001
        for df in (1, 2, 5, 18, 30, 100, 1000):
            for p in (0.005, 0.1, 0.35, 0.62, 0.9, 0.975, 0.995):
                assert abs(t_cdf(t_quantile(p, df), df) - p) <= 1e-9


def test_criterion_8_byte_identical_sweeps(tmp_path):
    with criterion("criterion 8: byte-identical sweeps, serial and parallel"):
        scenarios = (ScenarioKind.BASELINE, ScenarioKind.DIRECT, ScenarioKind.CENTRALIZED)
        spec = SweepSpec(points=((20, 20), (40, 40), (60, 60)), replications=5, base_seed=123,
                         scenarios=scenarios)
        first = format_observations(run_sweep(spec, Config())).encode()
        second = format_observations(run_sweep(spec, Config())).encode()
        sweep = [sys.executable, "-m", "gridrd.cli", "sweep", "--points", "20", "40", "60",
                 "--replications", "5", "--seed", "123"]
        every = [arg for kind in scenarios for arg in ("--scenario", kind.value)]

        def start(args: list[str], out: Path, **env: str) -> subprocess.Popen:
            return subprocess.Popen([*sweep, *args, "--out", str(out)], env=cli_env(**env),
                                    stdout=subprocess.DEVNULL)

        # two fresh processes whose sets iterate in different orders (str enums hash as strings),
        # then one process per scenario, all three running at once
        for hash_seed in ("0", "3"):
            assert start(every, tmp_path / f"hash-{hash_seed}.csv", PYTHONHASHSEED=hash_seed).wait(120) == 0
        shards = [start(["--scenario", kind.value], tmp_path / f"{kind.value}.csv") for kind in scenarios]
        assert [shard.wait(120) for shard in shards] == [0, 0, 0]
        files = [(tmp_path / f"{kind.value}.csv").read_bytes() for kind in scenarios]
        sharded = files[0] + b"".join(file.split(b"\n", 1)[1] for file in files[1:])
        fresh = [(tmp_path / f"hash-{seed}.csv").read_bytes() for seed in ("0", "3")]
        assert first == second == fresh[0] == fresh[1] == sharded
