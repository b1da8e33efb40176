"""Experiment orchestration: sweeps, observation CSVs, analysis reports.

A sweep spec is plain data, its (users, resources) points listed; every
output byte follows from it and the config.  Each sweep cell's seed is

    mix64(base_seed, scenario_ordinal, users, resources, replication)

so cells are statistically decoupled yet exactly reproducible.  A sweep runs
point by point: the cells of one (scenario, point) differ only in their
seed, so the point's run is configured once, its seed-free work (a
distributed run's resolution) is done once, and the seed prefix
``mix64(base_seed, scenario_ordinal, users, resources)`` is folded once and
then once more per replication.  A sweep runs its points one after another,
in row order.  A row depends only on its own scenario, point and seed, so the
per-scenario sweeps of a spec, concatenated, are its one sweep.

File formats (fixed; the test suite pins them with golden files):

* observations CSV, header ``scenario,users,resources,replication,seed,discovery_time_s``;
  a file with several bad lines is rejected naming the first, and each line is
  checked in this order: field count, values, counts, finiteness, duplicate
* analysis CSV, header ``users,resources,pair,mean_diff,se,ci_low,ci_high,p_value,verdict``
* plot series: two whitespace-separated columns, one ``x mean`` point per line
"""

from __future__ import annotations

import csv
import io
import math
from itertools import groupby, repeat
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

from . import stats
from .config import Config, ConfigError
from .domain import Frozen, as_tuple, check_field
from .scenarios import ConfigMismatch, ScenarioConfig, ScenarioKind, mean_times
from .simkern import mix64
from .stats import MeanDifferenceTest, unpaired_t_test

OBSERVATION_HEADER = "scenario,users,resources,replication,seed,discovery_time_s"
ANALYSIS_HEADER = "users,resources,pair,mean_diff,se,ci_low,ci_high,p_value,verdict"
_SCENARIO_OF = {kind.value: kind for kind in ScenarioKind}  # a scenario field's kind


class HarnessError(Exception):
    pass


class ParseError(HarnessError):
    pass


class GridMismatch(HarnessError):
    pass


# A sweep's default points, the paper's diagonal, and its default scenarios; the CLI reads both.
DIAGONAL_POINTS = tuple((d, d) for d in range(20, 101, 20))
PAPER_SCENARIOS = (ScenarioKind.BASELINE, ScenarioKind.DIRECT, ScenarioKind.CENTRALIZED)


class SweepSpec(Frozen):
    """A sweep: every (users, resources) point of ``points``, run ``replications`` times per scenario.

    ``points`` is stored as a tuple of (users, resources) tuples and ``scenarios`` as a
    tuple of ScenarioKind members, so specs hash.
    """

    __slots__ = ("points", "replications", "base_seed", "scenarios")

    def __init__(self, points: tuple[tuple[int, int], ...] = DIAGONAL_POINTS, replications: int = 10,
                 base_seed: int = 0, scenarios: tuple[ScenarioKind, ...] = PAPER_SCENARIOS) -> None:
        points = as_tuple("points", points, "(users, resources) pairs", ConfigError)
        points = tuple(map(_grid_point, points))
        if not points:
            raise ConfigError("sweep needs at least one grid point")
        for name, value in (("replications", replications), ("base_seed", base_seed)):
            check_field(name, value, "an integer", ConfigError)
        if replications < 1:
            raise ConfigError("replications must be >= 1")
        scenarios = as_tuple("scenarios", scenarios, "a list of scenarios", ConfigError)
        if not scenarios:
            raise ConfigError("sweep needs at least one scenario")
        if not all(isinstance(kind, ScenarioKind) for kind in scenarios):
            raise ConfigError(f"scenarios must be ScenarioKind members, got {scenarios!r}")
        self._bind(points, replications, base_seed, scenarios)


def _grid_point(point) -> tuple[int, int]:
    pair = tuple(point) if isinstance(point, (tuple, list)) else ()
    if len(pair) != 2 or not all(isinstance(n, int) and not isinstance(n, bool) and n >= 1 for n in pair):
        raise ConfigError(f"a sweep point must be a (users, resources) pair of integers >= 1, got {point!r}")
    return pair


class ObservationRow(NamedTuple):
    scenario: ScenarioKind
    users: int
    resources: int
    replication: int
    seed: int
    discovery_time_s: float


class AnalysisRow(NamedTuple):
    users: int
    resources: int
    pair: str
    test: MeanDifferenceTest


def scenario_config(config: Config, kind: ScenarioKind, users: int, resources: int,
                    seed: int) -> ScenarioConfig:
    """The ScenarioConfig of one run under ``config``, for ``gridrd run`` and every sweep cell."""
    if kind is ScenarioKind.DISTRIBUTED and config.topology is None:
        raise ConfigError("distributed runs need topology.depth/branching or topology.zones")
    try:
        return ScenarioConfig(kind, users, resources, config.latency, seed,
                              topology=config.topology, policy=config.policy)
    except ConfigMismatch as exc:  # e.g. a count too large for a float
        raise ConfigError(str(exc)) from None


def run_sweep(spec: SweepSpec, config: Config) -> list[ObservationRow]:
    """Run every distinct (scenario, point, replication) cell of the sweep once.

    Rows come in row order: scenario ordinal, then (users, resources), then
    replication, so a repeated scenario or point adds no duplicate row.  The
    run is configured per point, every point before any runs, so a config
    error raises before any simulation; cells of a point share its resolution
    and differ only in their seed (see ``scenarios.mean_times``).
    """
    points = [  # each configured with seed 0: mean_times takes the cells' seeds instead
        (scenario_config(config, kind, users, resources, 0),
         mix64(spec.base_seed, kind.ordinal, users, resources))
        for kind in sorted(set(spec.scenarios), key=lambda s: s.ordinal)
        for (users, resources) in sorted(set(spec.points))
    ]
    rows = []
    for cfg, prefix in points:
        seeds = [mix64(rep, prefix=prefix) for rep in range(spec.replications)]
        rows += [ObservationRow(cfg.kind, cfg.n_users, cfg.n_resources, rep, seed, mean)
                 for rep, (seed, mean) in enumerate(zip(seeds, mean_times(cfg, seeds)))]
    return rows


# -- observation CSV ---------------------------------------------------------


def format_observations(rows: list[ObservationRow]) -> str:
    out = [OBSERVATION_HEADER]
    for r in rows:
        out.append(
            f"{r.scenario.value},{r.users},{r.resources},{r.replication},"
            f"{r.seed},{r.discovery_time_s!r}"
        )
    return "\n".join(out) + "\n"


def write_observations(rows: list[ObservationRow], path: str | Path) -> None:
    Path(path).write_text(format_observations(rows), encoding="utf-8", newline="")


def parse_observations(text: str, source: str = "<string>") -> list[ObservationRow]:
    """An observations CSV's rows, checked a column at a time; ``_raise_first_fault`` names a bad file's fault."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(f"{source}:1: empty observations file") from None
    except csv.Error as exc:
        raise ParseError(f"{source}:1: {exc}") from None
    if header != OBSERVATION_HEADER.split(","):
        raise ParseError(f"{source}:1: bad header {','.join(header)!r}")
    try:
        fields = [record for record in reader if record]
        if set(map(len, fields)) != {6}:
            raise ValueError
        kinds, users, resources, replications, seeds, times = zip(*fields)
        kinds = tuple(map(_SCENARIO_OF.__getitem__, kinds))
        users, resources, replications, seeds = (tuple(map(int, column))
                                                 for column in (users, resources, replications, seeds))
        times = tuple(map(float, times))
        keys = set(zip(kinds, users, resources, replications))
        if (min(users) < 1 or min(resources) < 1 or min(replications) < 0
                or not all(map(math.isfinite, times)) or len(keys) != len(fields)):
            raise ValueError
    except (csv.Error, KeyError, ValueError):
        _raise_first_fault(text, source)
        raise ParseError(f"{source}: no observation rows") from None
    columns = zip(kinds, users, resources, replications, seeds, times)
    return list(map(tuple.__new__, repeat(ObservationRow), columns))


def _raise_first_fault(text: str, source: str) -> None:
    """Raise the ParseError of the file's first bad line, each line checked in the documented order.

    A row is named by the line it starts on; a quoted field may span lines.
    Returns only when no line is bad: then the file holds no rows.
    """
    reader = csv.reader(io.StringIO(text))
    next(reader)  # the header, already checked
    first_seen: dict[tuple, int] = {}
    next_line = reader.line_num + 1
    try:
        for record in reader:
            lineno, next_line = next_line, reader.line_num + 1
            if not record:
                continue
            if len(record) != 6:
                raise ParseError(f"{source}:{lineno}: expected 6 fields, got {len(record)}")
            try:  # ScenarioKind() raises the error that names a bad scenario
                kind = _SCENARIO_OF.get(record[0]) or ScenarioKind(record[0])
                users, resources, replication, _ = map(int, record[1:5])
                time_s = float(record[5])
            except ValueError as exc:
                raise ParseError(f"{source}:{lineno}: {exc}") from None
            for name, value, least in (("users", users, 1), ("resources", resources, 1),
                                       ("replication", replication, 0)):
                if value < least:
                    raise ParseError(f"{source}:{lineno}: {name} must be >= {least}, got {value}")
            if not math.isfinite(time_s):
                raise ParseError(f"{source}:{lineno}: discovery_time_s {record[5]!r} is not finite")
            key = (kind, users, resources, replication)
            if key in first_seen:
                raise ParseError(f"{source}:{lineno}: duplicate of the row on line {first_seen[key]}")
            first_seen[key] = lineno
    except csv.Error as exc:  # raised by the reader, in the row after the last one read
        raise ParseError(f"{source}:{next_line}: {exc}") from None


def read_observations(path: str | Path) -> list[ObservationRow]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    return parse_observations(text, source=str(path))


# -- analysis ----------------------------------------------------------------


def _single_scenario(rows: list[ObservationRow], source: str) -> ScenarioKind:
    kinds = set(map(itemgetter(0), rows))
    if len(kinds) != 1:
        names = ", ".join(sorted(k.value for k in kinds))
        raise GridMismatch(f"{source} mixes scenarios ({names}); analyze one per side")
    return kinds.pop()


def _by_point(rows: list[ObservationRow]) -> dict[tuple[int, int], tuple[list[int], list[float]]]:
    """Each (users, resources) point's replications and times, in replication order; points sorted."""
    grouped = {}
    for point, cell in groupby(sorted(rows, key=itemgetter(1, 2, 3)), key=itemgetter(1, 2)):
        cell = list(cell)
        grouped[point] = list(map(itemgetter(3), cell)), list(map(itemgetter(5), cell))
    return grouped


def analyze(rows_a: list[ObservationRow], rows_b: list[ObservationRow],
            alpha: float = 0.05) -> list[AnalysisRow]:
    """Pointwise unpaired comparison: mean(a) - mean(b) at each grid point.

    Both inputs must cover the same (users, resources, replication) grid;
    row order is irrelevant.  A StatsError names the point it arose at.
    """
    kind_a = _single_scenario(rows_a, "first input")
    kind_b = _single_scenario(rows_b, "second input")
    grid_a, grid_b = _by_point(rows_a), _by_point(rows_b)
    if grid_a.keys() != grid_b.keys():
        only_a = sorted(grid_a.keys() - grid_b.keys())
        only_b = sorted(grid_b.keys() - grid_a.keys())
        raise GridMismatch(f"grids differ: only in first {only_a}, only in second {only_b}")
    pair = f"{kind_a.value}-vs-{kind_b.value}"
    out = []
    for point, (reps_a, times_a) in grid_a.items():
        reps_b, times_b = grid_b[point]
        if reps_a != reps_b:
            raise GridMismatch(f"replication sets differ at point {point}")
        try:
            test = unpaired_t_test(times_a, times_b, alpha=alpha)
        except stats.InvalidAlpha:
            raise
        except stats.StatsError as exc:
            raise type(exc)(f"at (users, resources) = {point}: {exc}") from None
        out.append(AnalysisRow(users=point[0], resources=point[1], pair=pair, test=test))
    return out


def format_analysis_csv(rows: list[AnalysisRow]) -> str:
    out = [ANALYSIS_HEADER]
    for r in rows:
        t = r.test
        out.append(
            f"{r.users},{r.resources},{r.pair},{t.mean_diff!r},{t.se!r},"
            f"{t.ci_low!r},{t.ci_high!r},{t.p_value!r},{t.verdict.value}"
        )
    return "\n".join(out) + "\n"


def _fmt_p(p: float) -> str:
    return "<0.0001" if p < 0.0001 else f"{p:.4f}"


def format_analysis_table(rows: list[AnalysisRow]) -> str:
    """Aligned text report, one line per grid point."""
    if not rows:
        return "(no analysis rows)\n"
    alpha = rows[0].test.alpha
    level = f"{100 * (1 - alpha):.12g}"  # 12 digits: alpha 1e-7 is not 100%
    if level == "100":  # alpha below about 5e-13: the exact level, at most 32 digits as alpha >= 2**-53
        import decimal  # here only: slow to import
        context = decimal.Context(prec=40)
        level = str(context.normalize(context.subtract(100, decimal.Decimal(repr(alpha)).scaleb(2))))
    header = [
        "Users,Resources",
        "Mean Difference",
        "SE of Mean Difference",
        f"Confidence Interval {level}%",
        "p-Value",
        "Verdict",
    ]
    body = []
    for r in rows:
        t = r.test
        body.append([
            f"{r.users},{r.resources}",
            f"{t.mean_diff:.3f}",
            f"{t.se:.3f}",
            f"({t.ci_low:.3f}, {t.ci_high:.3f})",
            _fmt_p(t.p_value),
            t.verdict.value,
        ])
    widths = [max(len(line[i]) for line in [header] + body) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip()
             for line in [header] + body]
    return "\n".join(lines) + "\n"


def write_analysis(rows: list[AnalysisRow], path: str | Path) -> None:
    Path(path).write_text(format_analysis_csv(rows), encoding="utf-8", newline="")


# -- plot series -------------------------------------------------------------


def plot_data(rows: list[ObservationRow], group_by: str, out_dir: str | Path) -> list[Path]:
    """Write one ``x mean_time`` series file per (scenario, fixed value).

    ``group_by`` names the fixed axis: "users" (x is resources),
    "resources" (x is users), or "diagonal" (x is the common count).
    Returns the written paths, sorted.
    """
    if group_by not in ("users", "resources", "diagonal"):
        raise ParseError(f"unknown group_by {group_by!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    series: dict[tuple[ScenarioKind, int | None], dict[int, list[float]]] = {}
    for row in rows:
        if group_by == "diagonal":
            if row.users != row.resources:
                continue
            key, x = (row.scenario, None), row.users
        elif group_by == "users":
            key, x = (row.scenario, row.users), row.resources
        else:
            key, x = (row.scenario, row.resources), row.users
        series.setdefault(key, {}).setdefault(x, []).append(row.discovery_time_s)
    if not series:
        raise ParseError(f"no rows usable for group_by={group_by!r}")

    paths = []
    for (scenario, fixed), points in sorted(series.items(), key=lambda kv: (kv[0][0].ordinal, kv[0][1] or 0)):
        name = (f"{scenario.value}_diagonal.dat" if fixed is None
                else f"{scenario.value}_{group_by}{fixed}.dat")
        path = out / name
        lines = [f"{x} {stats.mean(times)!r}" for x, times in sorted(points.items())]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")
        paths.append(path)
    return sorted(paths)
