"""The benchmark's four workloads.

Each workload turns (workload seed, input index) into one op's input during
set-up, runs the op through gridrd's public entry points, and turns what the
op produced into output bytes for the digest check.  ``execute`` is the timed
part; ``collect`` reads the outputs back and checks what can be checked
without a second implementation of gridrd.  Op ``i`` uses input
``i % inputs``, so a run repeats each input and the digests of the repeats
must agree.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import random
from pathlib import Path


class OpFailed(Exception):
    """An op exited non-zero or produced output that fails a check."""


def _rng(workload: str, seed: int, index: int) -> random.Random:
    # String seeds hash through SHA-512, so inputs are identical on every
    # platform and interpreter build.
    return random.Random(f"perfbench:{workload}:{seed}:{index}")


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise OpFailed(message)


def call_cli(cli, argv: list[str]) -> str:
    """Run ``gridrd <argv>`` in-process; return its stdout, raise on non-zero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)  # looked up per call, so the traced run sees its wrapper
        except SystemExit as exc:
            code = exc.code
    if code != 0:
        raise OpFailed(f"gridrd {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _read_csv(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def check_analysis(report: str, obs_a: str, obs_b: str, alpha: float = 0.05) -> None:
    """Check an analysis CSV against the two observation CSVs it came from.

    The mean difference is recomputed exactly (compensated sums, as the
    README specifies); p-values and intervals are checked for range and for
    agreement with the verdict rule.
    """
    points: dict[tuple[int, int], list[list[float]]] = {}
    for side, text in enumerate((obs_a, obs_b)):
        for row in _read_csv(text)[1:]:
            point = (int(row[1]), int(row[2]))
            points.setdefault(point, [[], []])[side].append(float(row[5]))
    rows = _read_csv(report)
    _check(rows[0] == "users,resources,pair,mean_diff,se,ci_low,ci_high,p_value,verdict".split(","),
           "analysis CSV header changed")
    _check(len(rows) - 1 == len(points), f"analysis has {len(rows) - 1} rows for {len(points)} points")
    for row in rows[1:]:
        a, b = points[(int(row[0]), int(row[1]))]
        mean_diff, se, lo, hi, p = map(float, row[3:8])
        expected = math.fsum(a) / len(a) - math.fsum(b) / len(b)
        _check(mean_diff == expected, f"mean_diff {row[3]} at {row[:2]} should be {expected!r}")
        _check(se > 0 and lo <= mean_diff <= hi and 0.0 <= p <= 1.0, f"bad test row {row}")
        insignificant = lo <= 0.0 <= hi or p > alpha
        _check(row[8] == ("Insignificant" if insignificant else "Different"), f"verdict wrong in {row}")


class PaperSweep:
    """The paper's pipeline: sweep two scenarios, then analyze the pair."""

    name = "paper-sweep"
    inputs = 16
    trace_ops = 24

    def __init__(self, gridrd, seed: int, work: Path):
        self.cli = gridrd.cli
        self.seeds = [_rng(self.name, seed, i).getrandbits(32) for i in range(self.inputs)]
        self.paths = (work / "baseline.csv", work / "direct.csv", work / "analysis.csv")

    def execute(self, index: int):
        baseline, direct, report = self.paths
        seed = str(self.seeds[index % self.inputs])
        said = [
            call_cli(self.cli, ["sweep", "--scenario", scenario, "--points", "20", "100",
                                "--replications", "10", "--seed", seed, "--out", str(path)])
            for scenario, path in (("baseline", baseline), ("direct", direct))
        ]
        table = call_cli(self.cli, ["analyze", str(direct), str(baseline), "--out", str(report)])
        return said, table

    def collect(self, index: int, raw) -> bytes:
        said, table = raw
        baseline, direct, report = (path.read_text(encoding="utf-8") for path in self.paths)
        for line, path in zip(said, self.paths):
            _check(line == f"wrote 20 observations to {path}\n", f"sweep said {line!r}")
        for text in (baseline, direct):
            _check(text.count("\n") == 21, "a sweep CSV should hold a header and 20 rows")
        _check(table.count("\n") == 3, "the analysis table should hold a header and 2 rows")
        check_analysis(report, direct, baseline)
        return "".join((baseline, direct, table, report)).encode()


class AnalyzeBatch:
    """``gridrd analyze`` alone, on synthesized fixed-users observation files."""

    name = "analyze-batch"
    inputs = 32
    trace_ops = 96
    FIXED_USERS = (20, 60, 100)
    RESOURCES = (20, 40, 60, 80, 100)
    REPLICATIONS = 10

    def __init__(self, gridrd, seed: int, work: Path):
        self.cli = gridrd.cli
        self.report = work / "analysis.csv"
        self.files = []
        for i in range(self.inputs):
            rng = _rng(self.name, seed, i)
            pair = []
            for scenario, overhead in (("direct", 1.89), ("baseline", 0.0)):
                path, text = work / f"{scenario}-{i}.csv", self._observations(rng, scenario, overhead)
                path.write_text(text, encoding="utf-8")
                pair.append((path, text))
            self.files.append(pair)

    def _observations(self, rng: random.Random, scenario: str, overhead: float) -> str:
        # Spread grows with load, so low loads test Different and high loads
        # Insignificant, as in the paper.  Only random() is used: its stream
        # is fixed across Python versions.
        lines = ["scenario,users,resources,replication,seed,discovery_time_s"]
        for users in self.FIXED_USERS:
            for resources in self.RESOURCES:
                mean = 0.06006 * (users + resources) + overhead
                spread = min(0.55, 0.3 * math.sqrt(users * resources / 400.0)) * math.sqrt(3.0)
                for rep in range(self.REPLICATIONS):
                    value = mean * (1.0 + spread * (2.0 * rng.random() - 1.0))
                    lines.append(f"{scenario},{users},{resources},{rep},{rng.getrandbits(63)},{value!r}")
        return "\n".join(lines) + "\n"

    def execute(self, index: int):
        (a, _), (b, _) = self.files[index % self.inputs]
        return call_cli(self.cli, ["analyze", str(a), str(b), "--out", str(self.report)])

    def collect(self, index: int, table: str) -> bytes:
        (_, text_a), (_, text_b) = self.files[index % self.inputs]
        report = self.report.read_text(encoding="utf-8")
        _check(table.count("\n") == 16, "the analysis table should hold a header and 15 rows")
        check_analysis(report, text_a, text_b)
        return (table + report).encode()


class TreeRun:
    """One distributed run over a uniform repository tree, via run_scenario."""

    name: str
    inputs: int
    trace_ops: int
    depth: int
    branching: int
    users: int
    resources: int
    finders: int
    cache_capacity: int | None

    def __init__(self, gridrd, seed: int, work: Path):
        self.gridrd = gridrd
        spec = gridrd.TopologySpec(depth=self.depth, branching=self.branching)
        leaves = gridrd.build_topology(spec).leaves()
        self.configs = []
        for i in range(self.inputs):
            rng = _rng(self.name, seed, i)
            self.configs.append(gridrd.ScenarioConfig(
                kind=gridrd.ScenarioKind.DISTRIBUTED,
                n_users=self.users,
                n_resources=self.resources,
                seed=rng.getrandbits(63),
                topology=spec,
                query=gridrd.ResourceQuery(),
                finder_zones=tuple(sorted(rng.sample(leaves, self.finders))),
                policy=gridrd.ResolutionPolicy(cache_capacity=self.cache_capacity),
            ))

    def execute(self, index: int):
        return self.gridrd.run_scenario(self.configs[index % self.inputs])

    def collect(self, index: int, result) -> bytes:
        times = result.per_user_times
        _check(len(times) == self.users, f"{len(times)} user times for {self.users} users")
        _check(all(math.isfinite(t) and t > 0 for t in times), "a user time is not positive")
        _check(result.mean_time == math.fsum(times) / len(times), "mean_time is not the mean")
        # The query is empty, so every user finds a finder.
        _check(result.failed_users == (), f"users failed: {result.failed_users}")
        expected = {"registry_lookup": self.users, "resource_register": self.resources,
                    "service_call": self.users, "user_query": self.users}
        _check(dict(result.trace_summary) == expected, f"trace summary {dict(result.trace_summary)}")
        lines = [f"mean_time={result.mean_time!r}"]
        lines += [f"{kind}={count}" for kind, count in result.trace_summary.items()]
        lines += [repr(t) for t in times]
        return ("\n".join(lines) + "\n").encode()


class TreeCached(TreeRun):
    """Depth 6 x branching 4 (1365 repositories), 1024 users: mostly cache reads."""

    name = "tree-cached"
    inputs = 16
    trace_ops = 24
    depth, branching = 6, 4
    users, resources, finders = 1024, 256, 8
    cache_capacity = None


class TreeUncached(TreeRun):
    """Depth 5 x branching 4, caches of size 0: every resolve searches and inserts."""

    name = "tree-uncached"
    inputs = 256
    trace_ops = 64
    depth, branching = 5, 4
    users, resources, finders = 64, 256, 4
    cache_capacity = 0


WORKLOADS = {w.name: w for w in (PaperSweep, AnalyzeBatch, TreeCached, TreeUncached)}
