import csv
import io
import math
import random
import re
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from gridrd import stats
from gridrd.config import Config, ConfigError, parse_config
from gridrd.harness import (
    OBSERVATION_HEADER,
    _SCENARIO_OF,
    GridMismatch,
    ObservationRow,
    ParseError,
    SweepSpec,
    analyze,
    format_analysis_csv,
    format_analysis_table,
    format_observations,
    parse_observations,
    plot_data,
    read_observations,
    run_sweep,
    write_observations,
)
from gridrd.scenarios import MAX_USERS, ScenarioError, ScenarioKind
from gridrd.simkern import LatencyModel, mix64
from gridrd.stats import StatsError, Verdict
from tests.conftest import engineered_sample

QUIET_CONFIG = Config(latency=LatencyModel(jitter_enabled=False))
GOLDEN = Path(__file__).parent / "golden"


def _rows(scenario, point_values, users=20, resources=20):
    return [
        ObservationRow(scenario=scenario, users=users, resources=resources,
                       replication=i, seed=1000 + i, discovery_time_s=v)
        for i, v in enumerate(point_values)
    ]


class TestSweep:
    def test_diagonal_baseline_counts_and_anchor(self):
        spec = SweepSpec(replications=1, scenarios=(ScenarioKind.BASELINE,))
        rows = run_sweep(spec, QUIET_CONFIG)
        assert len(rows) == 5
        anchor = [r for r in rows if r.users == 100][0]
        assert anchor.discovery_time_s == pytest.approx(12.012, abs=0.02)

    def test_fixed_users_grid_size(self):
        spec = SweepSpec(points=tuple((20, r) for r in range(20, 101, 20)),
                         replications=3, scenarios=(ScenarioKind.BASELINE,))
        rows = run_sweep(spec, QUIET_CONFIG)
        assert len(rows) == 5 * 3
        assert {r.users for r in rows} == {20}
        assert {r.resources for r in rows} == {20, 40, 60, 80, 100}

    def test_byte_identical_reruns(self):
        spec = SweepSpec(replications=4, base_seed=77)
        a = format_observations(run_sweep(spec, Config()))
        b = format_observations(run_sweep(spec, Config()))
        assert a == b

    def test_rows_sorted_by_scenario_point_replication(self):
        spec = SweepSpec(replications=2, points=((40, 40), (20, 20)))
        rows = run_sweep(spec, QUIET_CONFIG)
        keys = [(r.scenario.ordinal, r.users, r.resources, r.replication) for r in rows]
        assert keys == sorted(keys)

    def test_every_row_seed_is_the_documented_hash(self):
        spec = SweepSpec(points=((20, 40), (40, 20), (3, 3)), replications=3, base_seed=-5,
                         scenarios=(ScenarioKind.DISTRIBUTED, ScenarioKind.BASELINE, ScenarioKind.DIRECT))
        rows = run_sweep(spec, parse_config("topology.depth = 2\ntopology.branching = 2\n"))
        assert len(rows) == 3 * 3 * 3
        for row in rows:
            assert row.seed == mix64(-5, row.scenario.ordinal, row.users, row.resources, row.replication)
        assert len({row.seed for row in rows}) == len(rows)  # no collisions across the cells
        assert {kind.value: kind.ordinal for kind in ScenarioKind} == {
            "baseline": 0, "direct": 1, "centralized": 2, "distributed": 3}

    # a time that overflows to inf, and finite times whose sum overflows, as a run checks them
    @pytest.mark.parametrize("latency, resources", [
        (LatencyModel(t_reg=1e307), 30),
        (LatencyModel(t_reg=1e307, jitter_enabled=False), 10),
    ], ids=["inf-time", "sum-overflow"])
    @pytest.mark.parametrize("replications", [1, 2])
    def test_a_sweep_checks_its_latency_overflow(self, latency, resources, replications):
        spec = SweepSpec(points=((3, resources),), replications=replications,
                         scenarios=(ScenarioKind.BASELINE,))
        with pytest.raises(ScenarioError, match="latency overflows"):
            run_sweep(spec, Config(latency=latency))

    def test_every_point_is_configured_before_any_runs(self):
        # the first point's times overflow, and the second point's user count is out of bounds
        spec = SweepSpec(points=((3, 30), (MAX_USERS + 1, 30)), replications=1,
                         scenarios=(ScenarioKind.BASELINE,))
        with pytest.raises(ConfigError, match=f"n_users must be at most {MAX_USERS}"):
            run_sweep(spec, Config(latency=LatencyModel(t_reg=1e307)))

    def test_distributed_sweep_needs_topology(self):
        spec = SweepSpec(scenarios=(ScenarioKind.DISTRIBUTED,))
        with pytest.raises(ConfigError):
            run_sweep(spec, QUIET_CONFIG)

    def test_distributed_sweep_runs_with_topology(self):
        cfg = parse_config("topology.depth = 2\ntopology.branching = 2\njitter_enabled = false\n")
        spec = SweepSpec(points=((20, 20),), replications=2,
                         scenarios=(ScenarioKind.DISTRIBUTED,))
        rows = run_sweep(spec, cfg)
        assert len(rows) == 2

    def test_replications_validated(self):
        for bad in ({"replications": 0}, {"points": ()}, {"scenarios": ()}, {"points": "20,20"},
                    {"points": ((0, 20),)}, {"points": ((20, -1),)}, {"points": ((True, 20),)},
                    {"points": ((20.0, 20),)}, {"points": ((20,),)}, {"points": ((20, 20, 20),)},
                    {"points": ("ab",)}, {"points": (20,)}):
            with pytest.raises(ConfigError):
                SweepSpec(**bad)

    def test_points_given_as_lists_are_stored_as_tuples(self):
        spec = SweepSpec(points=((20, 20), [40, 40]), replications=1,
                         scenarios=(ScenarioKind.BASELINE,))
        assert spec.points == ((20, 20), (40, 40))
        assert hash(spec) == hash(SweepSpec(points=[[20, 20], (40, 40)], replications=1,
                                            scenarios=(ScenarioKind.BASELINE,)))
        assert [(r.users, r.resources) for r in run_sweep(spec, QUIET_CONFIG)] == [(20, 20), (40, 40)]

    @pytest.mark.parametrize("bad, message", [
        ({"replications": 2.5}, "replications must be an integer, got 2.5"),
        ({"replications": True}, "replications must be an integer, got True"),
        ({"base_seed": "7"}, "base_seed must be an integer, got '7'"),
        ({"base_seed": False}, "base_seed must be an integer, got False"),
        ({"base_seed": 7.0}, "base_seed must be an integer, got 7.0"),
        ({"scenarios": ("baseline",)}, "scenarios must be ScenarioKind members"),
        ({"scenarios": (ScenarioKind.BASELINE, 1)}, "scenarios must be ScenarioKind members"),
        ({"scenarios": "baseline"}, "scenarios must be a list of scenarios, not the string 'baseline'"),
        ({"scenarios": ScenarioKind.DIRECT}, "not the string <ScenarioKind.DIRECT"),
        ({"points": 5}, "points must be (users, resources) pairs, not 5"),
        ({"scenarios": 5}, "scenarios must be a list of scenarios, not 5"),
        ({"scenarios": None}, "scenarios must be a list of scenarios, not None"),
    ])
    def test_fields_of_the_wrong_type_are_config_errors(self, bad, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            SweepSpec(**bad)

    def test_scenarios_given_as_a_list_are_stored_as_a_tuple(self):
        spec = SweepSpec(points=((20, 20),), replications=1,
                         scenarios=[ScenarioKind.DIRECT, ScenarioKind.BASELINE])
        assert spec.scenarios == (ScenarioKind.DIRECT, ScenarioKind.BASELINE)
        assert hash(spec) == hash(SweepSpec(points=((20, 20),), replications=1,
                                            scenarios=(ScenarioKind.DIRECT, ScenarioKind.BASELINE)))
        assert [row.scenario for row in run_sweep(spec, QUIET_CONFIG)] == [
            ScenarioKind.BASELINE, ScenarioKind.DIRECT]


class TestObservationCsv:
    def test_roundtrip(self):
        spec = SweepSpec(replications=2, points=((20, 20), (40, 40)))
        rows = run_sweep(spec, Config())
        parsed = parse_observations(format_observations(rows))
        assert parsed == rows

    def test_write_and_read(self, tmp_path):
        rows = _rows(ScenarioKind.BASELINE, [1.0, 2.0])
        path = tmp_path / "obs.csv"
        write_observations(rows, path)
        assert read_observations(path) == rows

    def test_empty_file_is_an_error(self):
        with pytest.raises(ParseError, match="empty"):
            parse_observations("")

    def test_header_only_is_an_error(self):
        with pytest.raises(ParseError, match="no observation rows"):
            parse_observations("scenario,users,resources,replication,seed,discovery_time_s\n")

    def test_bad_header(self):
        with pytest.raises(ParseError, match=":1:"):
            parse_observations("a,b,c\n1,2,3\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_time_reports_line(self, value):
        text = ("scenario,users,resources,replication,seed,discovery_time_s\n"
                "baseline,20,20,0,1,1.5\n"
                f"baseline,20,20,1,1,{value}\n")
        with pytest.raises(ParseError, match=":3: discovery_time_s .* is not finite"):
            parse_observations(text)

    def test_duplicate_row_reports_both_lines(self):
        text = ("scenario,users,resources,replication,seed,discovery_time_s\n"
                "baseline,20,20,0,1,1.5\n"
                "baseline,20,20,1,1,1.5\n"
                "baseline,20,20,0,2,2.5\n")
        with pytest.raises(ParseError, match=":4: duplicate of the row on line 2"):
            parse_observations(text)

    @pytest.mark.parametrize("name", ["quantum", "BASELINE", " baseline", ""])
    def test_unknown_scenario_reports_line_and_name(self, name):
        text = ("scenario,users,resources,replication,seed,discovery_time_s\n"
                "baseline,20,20,0,1,1.5\n"
                f"{name},20,20,1,1,1.5\n")
        with pytest.raises(ParseError) as exc_info:
            parse_observations(text, source="obs.csv")
        assert str(exc_info.value) == f"obs.csv:3: {name!r} is not a valid ScenarioKind"

    def test_a_row_is_an_immutable_named_tuple(self):
        row = parse_observations("scenario,users,resources,replication,seed,discovery_time_s\n"
                                 "direct,20,40,1,7,1.5\n")[0]
        scenario, users, resources, replication, seed, time_s = row
        assert (scenario, users, resources, replication, seed, time_s) == (
            ScenarioKind.DIRECT, 20, 40, 1, 7, 1.5)
        assert scenario is ScenarioKind.DIRECT and row == tuple(row)
        with pytest.raises(AttributeError):
            row.users = 21

    @pytest.mark.parametrize("users, resources, replication, message", [
        (-5, 0, -2, "users must be >= 1, got -5"),
        (0, 20, 1, "users must be >= 1, got 0"),
        (20, 0, 1, "resources must be >= 1, got 0"),
        (20, -3, 1, "resources must be >= 1, got -3"),
        (20, 20, -1, "replication must be >= 0, got -1"),
    ])
    def test_impossible_count_reports_line_and_field(self, users, resources, replication, message):
        text = ("scenario,users,resources,replication,seed,discovery_time_s\n"
                "baseline,20,20,0,1,1.5\n"
                f"baseline,{users},{resources},{replication},1,2.0\n")
        with pytest.raises(ParseError) as exc_info:
            parse_observations(text, source="obs.csv")
        assert str(exc_info.value) == f"obs.csv:3: {message}"

    def test_bad_value_reports_line(self):
        text = ("scenario,users,resources,replication,seed,discovery_time_s\n"
                "baseline,20,20,0,1,1.5\n"
                "baseline,20,twenty,1,1,1.5\n")
        with pytest.raises(ParseError, match=":3:"):
            parse_observations(text)


# The row-wise parser that the column-wise parse_observations replaced: the reference it must agree with.
def reference_parse(text: str, source: str = "<string>") -> list[ObservationRow]:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(f"{source}:1: empty observations file") from None
    if header != OBSERVATION_HEADER.split(","):
        raise ParseError(f"{source}:1: bad header {','.join(header)!r}")
    rows = []
    first_seen: dict[tuple, int] = {}
    next_line = reader.line_num + 1
    for record in reader:  # a row is named by the line it starts on
        lineno, next_line = next_line, reader.line_num + 1
        if not record:
            continue
        if len(record) != 6:
            raise ParseError(f"{source}:{lineno}: expected 6 fields, got {len(record)}")
        try:
            row = ObservationRow(  # ScenarioKind() raises the error that names a bad scenario
                _SCENARIO_OF.get(record[0]) or ScenarioKind(record[0]),
                int(record[1]), int(record[2]), int(record[3]), int(record[4]), float(record[5]),
            )
        except ValueError as exc:
            raise ParseError(f"{source}:{lineno}: {exc}") from None
        if row.users < 1 or row.resources < 1 or row.replication < 0:
            name = "users" if row.users < 1 else "resources" if row.resources < 1 else "replication"
            least = 0 if name == "replication" else 1
            raise ParseError(f"{source}:{lineno}: {name} must be >= {least}, got {getattr(row, name)}")
        if not math.isfinite(row.discovery_time_s):
            raise ParseError(f"{source}:{lineno}: discovery_time_s {record[5]!r} is not finite")
        key = (row.scenario, row.users, row.resources, row.replication)
        if key in first_seen:
            raise ParseError(f"{source}:{lineno}: duplicate of the row on line {first_seen[key]}")
        first_seen[key] = lineno
        rows.append(row)
    if not rows:
        raise ParseError(f"{source}: no observation rows")
    return rows


_OBSERVATIONS = st.lists(
    st.builds(ObservationRow, st.sampled_from(ScenarioKind), st.integers(1, 10**6), st.integers(1, 10**6),
              st.integers(0, 10**6), st.integers(0, 2**64 - 1), st.floats(allow_nan=False, allow_infinity=False)),
    min_size=1, max_size=10, unique_by=lambda row: row[:4])


def _set(index: int, values: list[str]):
    """A fault that puts one of ``values`` into field ``index`` of a line that has it."""
    def fault(draw, fields):
        if index < len(fields):
            fields[index] = draw(st.sampled_from(values))
        return [",".join(fields)]
    return fault


# Each fault turns one line's fields into the lines that replace it.
_FAULTS = {
    "short row": lambda draw, fields: [",".join(fields[:-1])],
    "long row": lambda draw, fields: [",".join(fields + [draw(st.sampled_from(["", "7", "x"]))])],
    "bad users": _set(1, ["x", "1.5", "", "2e3", "0x10"]),
    "bad seed": _set(4, ["-", "one", " "]),
    "bad time": _set(5, ["x", "", "1.2.3", "--1", "1e"]),
    "unknown scenario": _set(0, ["quantum", "BASELINE", " baseline", ""]),
    "non-finite time": _set(5, ["nan", "inf", "-inf", "NaN", "Infinity"]),
    "users out of range": _set(1, ["0", "-3"]),
    "resources out of range": _set(2, ["0", "-1"]),
    "replication out of range": _set(3, ["-1", "-20"]),
    "duplicate": lambda draw, fields: [",".join(fields)] * 2,
    "duplicate, other values": lambda draw, fields: [",".join(fields), ",".join(fields[:4] + ["1", "2.5"])],
    "blank lines": lambda draw, fields: [",".join(fields), *[""] * draw(st.integers(1, 2))],
}
# What every parser must read as it is: the csv quoting rules and int()'s and float()'s spellings.
_ACCEPTED = {
    "quoted field": lambda draw, fields: [",".join(f'"{field}"' for field in fields)],
    "padded count": _set(2, [" 7", "+7", "0_7", "7 "]),
    "spelled time": _set(5, ["1e3", " 2.5", "-0.0", "1_0.5", ".5"]),
    # a quoted last field that ends on the next line, so later rows start a line further on
    "line break in a field": lambda draw, fields: (
        [",".join(fields)] if '"' in ",".join(fields) else [",".join(fields[:-1] + ['"' + fields[-1]]), '"']),
}


@st.composite
def _faulty_files(draw) -> str:
    """A file format_observations wrote, with one to three faults put into its rows."""
    lines = format_observations(draw(_OBSERVATIONS)).splitlines()
    for name in draw(st.lists(st.sampled_from(sorted(_FAULTS)), min_size=1, max_size=3)):
        event(name)
        at = draw(st.integers(1, len(lines) - 1))
        lines[at:at + 1] = _FAULTS[name](draw, lines[at].split(","))
    for name in draw(st.lists(st.sampled_from(sorted(_ACCEPTED)), max_size=2)):
        at = draw(st.integers(1, len(lines) - 1))
        lines[at:at + 1] = _ACCEPTED[name](draw, lines[at].split(","))
    return "\n".join(lines) + "\n"


def _outcome(parse, text: str):
    """The parser's rows, or the type and text of what it raised."""
    try:
        rows = parse(text, source="obs.csv")
    except Exception as exc:
        return type(exc), str(exc)
    assert all(type(row) is ObservationRow and type(row.scenario) is ScenarioKind for row in rows)
    return rows


class TestParseIsTheRowWiseReference:
    """parse_observations accepts what the row-wise reference accepts and raises what it raises."""

    @given(_OBSERVATIONS)
    def test_a_written_file_reads_back_as_its_rows(self, rows):
        text = format_observations(rows)
        assert _outcome(parse_observations, text) == _outcome(reference_parse, text) == rows

    @settings(max_examples=600)
    @given(_faulty_files())
    def test_a_faulty_file_fails_as_the_reference_does(self, text):
        expected = _outcome(reference_parse, text)
        event("rejected" if isinstance(expected, tuple) else "accepted")
        assert _outcome(parse_observations, text) == expected

    def test_the_first_bad_line_is_named(self):
        text = (f"{OBSERVATION_HEADER}\n"
                "baseline,20,20,0,1,1.5\n"
                "baseline,20,twenty,1,1,1.5\n"
                "baseline,20,20,2,1,1.5\n"
                "baseline,20,20,3,1\n")
        expected = "obs.csv:3: invalid literal for int() with base 10: 'twenty'"
        assert _outcome(parse_observations, text) == _outcome(reference_parse, text) == (ParseError, expected)

    def test_a_row_is_named_by_the_line_it_starts_on(self):
        # line 2's quoted time ends on line 3, so the bad value is on line 4, in the third record
        text = f'{OBSERVATION_HEADER}\nbaseline,20,20,0,1,"1.5\n"\nbaseline,20,20,1,1,x\n'
        expected = "obs.csv:4: could not convert string to float: 'x'"
        assert _outcome(parse_observations, text) == _outcome(reference_parse, text) == (ParseError, expected)

    @pytest.mark.parametrize("line_2, error", [("baseline,20,20,0,1,1.5", csv.Error),
                                               ("baseline,20,20,0,1,nan", ParseError)])
    def test_a_field_over_the_csv_limit_fails_where_the_reference_fails(self, line_2, error):
        # csv.reader raises csv.Error on such a field, which names the file and line as a
        # ParseError; a bad line before it is still named first
        text = f"{OBSERVATION_HEADER}\n{line_2}\nbaseline,20,20,1,1,1.5\nbaseline,20,20,2,1,{'1' * 140_000}\n"
        expected = _outcome(reference_parse, text)
        assert expected[0] is error
        if error is csv.Error:
            assert expected[1] == "field larger than field limit (131072)"
            expected = (ParseError, "obs.csv:4: field larger than field limit (131072)")
        assert _outcome(parse_observations, text) == expected


class TestAnalyze:
    def test_engineered_point_reproduces_reference_row(self):
        sd = 0.118 * math.sqrt(5)
        a = _rows(ScenarioKind.DIRECT, engineered_sample(1.573, sd))
        b = _rows(ScenarioKind.BASELINE, engineered_sample(0.0, sd))
        [row] = analyze(a, b, alpha=0.05)
        assert row.pair == "direct-vs-baseline"
        assert row.test.mean_diff == pytest.approx(1.573, abs=1e-9)
        assert row.test.ci_low == pytest.approx(1.326, abs=2e-3)
        assert row.test.ci_high == pytest.approx(1.820, abs=2e-3)
        assert row.test.verdict is Verdict.DIFFERENT

    def test_identical_inputs_are_insignificant(self):
        rng = random.Random(1)
        values = [rng.uniform(1, 5) for _ in range(10)]
        a = _rows(ScenarioKind.BASELINE, values)
        [row] = analyze(a, list(a))
        assert row.test.mean_diff == 0.0
        assert row.test.verdict is Verdict.INSIGNIFICANT

    def test_row_order_is_irrelevant(self):
        rng = random.Random(2)
        a = _rows(ScenarioKind.DIRECT, [rng.uniform(2, 4) for _ in range(8)])
        b = _rows(ScenarioKind.BASELINE, [rng.uniform(1, 3) for _ in range(8)])
        sorted_result = analyze(a, b)
        shuffled_a, shuffled_b = list(a), list(b)
        rng.shuffle(shuffled_a)
        rng.shuffle(shuffled_b)
        assert analyze(shuffled_a, shuffled_b) == sorted_result

    def test_grid_mismatch(self):
        a = _rows(ScenarioKind.DIRECT, [1.0, 2.0], users=20)
        b = _rows(ScenarioKind.BASELINE, [1.0, 2.0], users=40)
        with pytest.raises(GridMismatch):
            analyze(a, b)

    def test_mixed_scenarios_rejected(self):
        a = _rows(ScenarioKind.DIRECT, [1.0, 2.0]) + _rows(ScenarioKind.BASELINE, [1.0, 2.0])
        b = _rows(ScenarioKind.BASELINE, [1.0, 2.0])
        with pytest.raises(GridMismatch):
            analyze(a, b)

    def test_pipeline_closure_without_jitter(self):
        spec_b = SweepSpec(points=((20, 20), (60, 60)), replications=3,
                           scenarios=(ScenarioKind.BASELINE,))
        spec_d = SweepSpec(points=((20, 20), (60, 60)), replications=3,
                           scenarios=(ScenarioKind.DIRECT,))
        rows_b = run_sweep(spec_b, QUIET_CONFIG)
        rows_d = run_sweep(spec_d, QUIET_CONFIG)
        for row in analyze(rows_d, rows_b):
            assert row.test.mean_diff == pytest.approx(QUIET_CONFIG.latency.t_ws, abs=1e-12)
            assert row.test.se == 0.0
            assert row.test.degenerate
            assert row.test.verdict is Verdict.DIFFERENT

    def test_table_formatting(self):
        t = analyze(
            _rows(ScenarioKind.DIRECT, engineered_sample(1.573, 0.118 * math.sqrt(5))),
            _rows(ScenarioKind.BASELINE, engineered_sample(0.0, 0.118 * math.sqrt(5))),
        )
        table = format_analysis_table(t)
        lines = table.splitlines()
        assert lines[0].startswith("Users,Resources")
        assert "20,20" in lines[1]
        assert "Different" in lines[1]
        csv_text = format_analysis_csv(t)
        assert csv_text.startswith("users,resources,pair,")

    @pytest.mark.parametrize("alpha, level", [(0.05, "95"), (0.001, "99.9"), (1e-7, "99.99999"),
                                              (1e-12, "99.9999999999"), (1e-13, "99.99999999999"),
                                              (math.nextafter(2**-53, 1), "99.999999999999988897769753748432")])
    def test_the_header_names_the_confidence_level_of_a_small_alpha(self, alpha, level):
        # no alpha that analyze accepts reads as 100%; the smallest is the float after 2**-53
        rows = analyze(
            _rows(ScenarioKind.DIRECT, engineered_sample(1.573, 0.118 * math.sqrt(5))),
            _rows(ScenarioKind.BASELINE, engineered_sample(0.0, 0.118 * math.sqrt(5))),
            alpha=alpha,
        )
        header = format_analysis_table(rows).splitlines()[0]
        assert re.search(r"Confidence Interval (\S+)%", header).group(1) == level

    def test_overflowing_spread_names_the_point(self):
        a = _rows(ScenarioKind.DIRECT, [1e200, 3e200, 2e200], users=40, resources=60)
        b = _rows(ScenarioKind.BASELINE, [1.0, 2.0, 3.0], users=40, resources=60)
        with pytest.raises(StatsError, match=r"at \(users, resources\) = \(40, 60\): "
                                             "the spread of the sample overflows"):
            analyze(a, b)

    def test_bytes_do_not_depend_on_earlier_analyses(self):
        # The critical value is cached per (alpha, df); an analysis must give
        # the same bytes on a cold cache and after others filled it.
        rng = random.Random(44)
        cases = []
        for alpha, reps in [(0.05, 10), (0.01, 10), (0.2, 3), (0.05, 7), (0.01, 4)]:
            rows = [_rows(kind, [rng.uniform(1, 9) for _ in range(reps)], users=u, resources=r)
                    for kind in (ScenarioKind.DIRECT, ScenarioKind.BASELINE)
                    for u, r in [(20, 20), (20, 60)]]
            cases.append((rows[0] + rows[1], rows[2] + rows[3], alpha))
        cold = []
        for a, b, alpha in cases:
            stats._critical_value.cache_clear()
            cold.append(format_analysis_csv(analyze(a, b, alpha=alpha)))
        warm = [format_analysis_csv(analyze(a, b, alpha=alpha)) for a, b, alpha in reversed(cases)]
        assert warm[::-1] == cold

    def test_tiny_p_prints_as_less_than(self):
        sd = 0.01 * math.sqrt(5)
        rows = analyze(
            _rows(ScenarioKind.DIRECT, engineered_sample(5.0, sd)),
            _rows(ScenarioKind.BASELINE, engineered_sample(0.0, sd)),
        )
        assert "<0.0001" in format_analysis_table(rows)


class TestPlotData:
    def _sweep_rows(self):
        spec = SweepSpec(points=tuple((u, r) for u in (20, 60, 100) for r in range(20, 101, 20)),
                         replications=2)
        return run_sweep(spec, QUIET_CONFIG)

    def test_fixed_users_series_count(self, tmp_path):
        paths = plot_data(self._sweep_rows(), "users", tmp_path)
        assert len(paths) == 9  # 3 scenarios x 3 fixed values
        assert all(p.name.endswith(".dat") for p in paths)

    def test_series_content_is_x_and_mean(self, tmp_path):
        rows = _rows(ScenarioKind.BASELINE, [2.0, 4.0], users=20, resources=40)
        [path] = plot_data(rows, "users", tmp_path)
        assert path.name == "baseline_users20.dat"
        assert path.read_text() == "40 3.0\n"

    def test_diagonal_series_strictly_increasing(self, tmp_path):
        spec = SweepSpec(replications=1, scenarios=(ScenarioKind.BASELINE,))
        [path] = plot_data(run_sweep(spec, QUIET_CONFIG), "diagonal", tmp_path)
        ys = [float(line.split()[1]) for line in path.read_text().splitlines()]
        assert ys == sorted(ys) and len(set(ys)) == len(ys)

    def test_unusable_rows_error(self, tmp_path):
        rows = _rows(ScenarioKind.BASELINE, [1.0], users=20, resources=40)
        with pytest.raises(ParseError):
            plot_data(rows, "diagonal", tmp_path)

    def test_unknown_group_by(self, tmp_path):
        with pytest.raises(ParseError):
            plot_data(_rows(ScenarioKind.BASELINE, [1.0]), "color", tmp_path)


class TestJitterCalibration:
    """The default jitter scale should land replication-level standard
    errors in the same regime as the reference experiment: within a factor
    of two at the (20,20) and (100,100) diagonal anchors (0.118 and 3.721),
    averaged over seeds."""

    ANCHORS = {20: 0.118, 100: 3.721}

    def test_replication_se_within_factor_two_of_anchors(self):
        n_seeds = 40
        se_sums = {20: 0.0, 100: 0.0}
        for base_seed in range(n_seeds):
            sweeps = {}
            for kind in (ScenarioKind.BASELINE, ScenarioKind.DIRECT):
                spec = SweepSpec(points=((20, 20), (100, 100)), replications=10,
                                 base_seed=base_seed, scenarios=(kind,))
                sweeps[kind] = run_sweep(spec, Config())
            for row in analyze(sweeps[ScenarioKind.DIRECT], sweeps[ScenarioKind.BASELINE]):
                se_sums[row.users] += row.test.se
        for point, anchor in self.ANCHORS.items():
            ratio = (se_sums[point] / n_seeds) / anchor
            assert 0.5 <= ratio <= 2.0, f"point {point}: mean se off by {ratio:.2f}x"


class TestGoldenFiles:
    """Freeze the output formats byte for byte."""

    SPEC = SweepSpec(points=((20, 20), (60, 60)), replications=3, base_seed=42,
                     scenarios=(ScenarioKind.BASELINE, ScenarioKind.DIRECT))

    def _observations(self):
        return run_sweep(self.SPEC, Config())

    def test_observation_csv_bytes(self):
        expected = (GOLDEN / "observations.csv").read_text(encoding="utf-8")
        assert format_observations(self._observations()) == expected

    def test_analysis_csv_bytes(self):
        rows = self._observations()
        direct = [r for r in rows if r.scenario is ScenarioKind.DIRECT]
        base = [r for r in rows if r.scenario is ScenarioKind.BASELINE]
        report = analyze(direct, base, alpha=0.05)
        expected = (GOLDEN / "analysis.csv").read_text(encoding="utf-8")
        assert format_analysis_csv(report) == expected

    def test_analysis_table_bytes(self):
        rows = self._observations()
        direct = [r for r in rows if r.scenario is ScenarioKind.DIRECT]
        base = [r for r in rows if r.scenario is ScenarioKind.BASELINE]
        report = analyze(direct, base, alpha=0.05)
        expected = (GOLDEN / "analysis.txt").read_text(encoding="utf-8")
        assert format_analysis_table(report) == expected
