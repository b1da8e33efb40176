"""Command-line surface: run, sweep, analyze, plot-data.

Exit codes: 0 success, 1 usage error, 2 configuration error, 3 runtime
error (bad input files, impossible scenarios, simulation failures), 141
(128 + SIGPIPE, as a shell reports for a killed writer) when stdout's reader
has closed it, as ``gridrd run | head -1`` can.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .config import Config, ConfigError, load_config
from .harness import (
    DIAGONAL_POINTS,
    PAPER_SCENARIOS,
    SweepSpec,
    analyze,
    format_analysis_table,
    plot_data,
    read_observations,
    run_sweep,
    scenario_config,
    write_analysis,
    write_observations,
)
from .scenarios import ScenarioKind, run_scenario

USAGE_EXIT = 1
CONFIG_EXIT = 2
RUNTIME_EXIT = 3
CLOSED_PIPE_EXIT = 141


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _scenario(name: str) -> ScenarioKind:
    try:
        return ScenarioKind(name)
    except ValueError:
        names = ", ".join(k.value for k in ScenarioKind)
        raise argparse.ArgumentTypeError(f"unknown scenario {name!r} (choose from {names})")


def _count(what: str):
    """An argparse type: an integer of at least 1, else a usage error naming ``what``."""

    def parse(text: str) -> int:
        if not text.strip().isdecimal() or int(text) < 1:
            raise argparse.ArgumentTypeError(f"{what} must be an integer >= 1, got {text!r}")
        return int(text)

    return parse


def _range(text: str) -> tuple[int, int, int]:
    """``START:STOP:STEP`` as integers, with START >= 1, STEP >= 1 and STOP >= START."""
    try:
        start, stop, step = map(int, text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"wants integers START:STOP:STEP, got {text!r}") from None
    if start < 1 or step < 1 or stop < start:
        raise argparse.ArgumentTypeError(
            f"wants START >= 1, STEP >= 1 and STOP >= START, got {text!r}")
    return start, stop, step


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gridrd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", type=Path, default=None, help="key = value config file")
        p.add_argument("--no-jitter", action="store_true", help="disable timing jitter")

    p_run = sub.add_parser("run", parents=[], help="run one scenario once")
    common(p_run)
    p_run.add_argument("--scenario", type=_scenario, default=ScenarioKind.BASELINE)
    p_run.add_argument("--users", type=_count("user count"), default=100)
    p_run.add_argument("--resources", type=_count("resource count"), default=100)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--out", type=Path, default=None, help="write per-user times CSV")

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep with replications")
    common(p_sweep)
    p_sweep.add_argument("--sweep-kind", default="diagonal",
                         choices=("fixed-users", "fixed-resources", "diagonal"))
    p_sweep.add_argument("--scenario", type=_scenario, action="append", default=None,
                         help="repeatable; default: baseline, direct, centralized")
    p_sweep.add_argument("--fixed-values", type=_count("fixed value"), nargs="+", default=None)
    p_sweep.add_argument("--range", dest="varying", type=_range, default=None,
                         metavar="START:STOP:STEP")
    p_sweep.add_argument("--points", type=_count("diagonal point"), nargs="+", default=None,
                         help="diagonal points (users = resources)")
    p_sweep.add_argument("--replications", type=_count("replication count"), default=10)
    p_sweep.add_argument("--seed", type=int, default=0, help="base seed")
    p_sweep.add_argument("--out", type=Path, required=True, help="observations CSV path")
    p_sweep.set_defaults(grid=lambda args: _sweep_points(p_sweep, args))

    p_an = sub.add_parser("analyze", help="pointwise mean-difference tests of two sweeps")
    p_an.add_argument("csv_a", type=Path)
    p_an.add_argument("csv_b", type=Path)
    p_an.add_argument("--alpha", type=float, default=0.05)
    p_an.add_argument("--out", type=Path, default=None, help="analysis CSV path")

    p_plot = sub.add_parser("plot-data", help="emit plot-ready series files")
    p_plot.add_argument("csv", type=Path)
    p_plot.add_argument("--group-by", choices=("users", "resources", "diagonal"),
                        required=True)
    p_plot.add_argument("--out-dir", type=Path, default=Path("."))

    return parser


def _load(args: argparse.Namespace) -> Config:
    cfg = load_config(args.config) if args.config else Config()
    if getattr(args, "no_jitter", False):
        cfg = cfg._replace(latency=cfg.latency.without_jitter())
    return cfg


def _cmd_run(args: argparse.Namespace) -> int:
    result = run_scenario(scenario_config(_load(args), args.scenario, args.users,
                                          args.resources, args.seed))
    print(f"scenario = {args.scenario.value}")
    print(f"users = {args.users}")
    print(f"resources = {args.resources}")
    print(f"seed = {args.seed}")
    print(f"mean_time_s = {result.mean_time!r}")
    for kind, count in result.trace_summary.items():
        print(f"events.{kind} = {count}")
    if result.failed_users:
        print(f"failed_users = {','.join(map(str, result.failed_users))}")
    if args.out is not None:
        lines = ["user,discovery_time_s"]
        lines += [f"{j},{t!r}" for j, t in enumerate(result.per_user_times)]
        args.out.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")
    return 0


def _sweep_points(parser: argparse.ArgumentParser, args: argparse.Namespace) -> tuple:
    """The chosen sweep kind's (users, resources) points, or a usage error for an option it ignores."""
    kind = args.sweep_kind
    ignored = ({"--fixed-values": args.fixed_values, "--range": args.varying} if kind == "diagonal"
               else {"--points": args.points})
    for option, value in ignored.items():
        if value is not None:
            parser.error(f"argument {option}: a {kind} sweep does not use it")
    if kind == "diagonal":
        return DIAGONAL_POINTS if args.points is None else tuple((d, d) for d in args.points)
    start, stop, step = args.varying or (20, 100, 20)
    varying = range(start, stop + 1, step)
    fixed = args.fixed_values or (20, 60, 100)
    if kind == "fixed-users":
        return tuple((u, r) for u in fixed for r in varying)
    return tuple((u, r) for r in fixed for u in varying)


def _cmd_sweep(args: argparse.Namespace) -> int:
    points = args.grid(args)  # a usage error exits before the config is read
    cfg = _load(args)
    spec = SweepSpec(
        points=points,
        replications=args.replications,
        base_seed=args.seed,
        scenarios=args.scenario or PAPER_SCENARIOS,
    )
    rows = run_sweep(spec, cfg)
    write_observations(rows, args.out)
    print(f"wrote {len(rows)} observations to {args.out}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    rows = analyze(read_observations(args.csv_a), read_observations(args.csv_b),
                   alpha=args.alpha)
    sys.stdout.write(format_analysis_table(rows))
    if args.out is not None:
        write_analysis(rows, args.out)
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    paths = plot_data(read_observations(args.csv), args.group_by, args.out_dir)
    for path in paths:
        print(path)
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "analyze": _cmd_analyze,
    "plot-data": _cmd_plot,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = _COMMANDS[args.command](args)
        sys.stdout.flush()  # so that a closed stdout raises here, not at exit
        return status
    except BrokenPipeError:  # Python's signal docs, "Note on SIGPIPE": the exit's own flush must not fail too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return CLOSED_PIPE_EXIT
    except ConfigError as exc:
        print(f"gridrd: config error: {exc}", file=sys.stderr)
        return CONFIG_EXIT
    except Exception as exc:  # runtime failures: bad inputs, impossible runs
        print(f"gridrd: error: {exc}", file=sys.stderr)
        return RUNTIME_EXIT


if __name__ == "__main__":
    sys.exit(main())
