"""Compare two result sets of the benchmark: a parent and a change.

    python3 perfbench/compare.py RESULTS/parent RESULTS/change

Each directory is one label's output of ``suite.py`` (``<workload>/seed-<n>.json``).
Runs are paired by seed.  For every workload and end-to-end metric it prints
each side's median and quartiles and a verdict:

* improved: the change wins at least 9 of 10 pairs (ties count for neither)
  and the medians differ by more than the parent's interquartile range;
* unresolved: the parent's own spread is wider than the metric's bound and
  not every change run beats every parent run;
* regressed: the change's median is worse than the parent's by more than
  the bound;
* unchanged: otherwise.

``ok_rate`` has no tolerance: a change run below its parent run of the same
seed is regressed.  Output digests of the same seed and input must agree
between the two sets.  Exits 1 if any metric regressed, any output differs,
or any change run is not correct or fails more ops than its parent run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
EXACT = {"ok_rate"}  # judged run by run, with no relative bound


def end_to_end() -> list[dict]:
    return json.loads(BENCHMARK.read_text())["end_to_end"]


def load(directory: Path) -> dict[str, dict[int, dict]]:
    """{workload: {seed: {"meta": ..., "result": ...}}} for untraced runs."""
    runs: dict[str, dict[int, dict]] = {}
    for path in sorted(directory.glob("*/seed-*.json")):
        record = json.loads(path.read_text())
        if record["meta"]["trace"] == 0:
            runs.setdefault(record["meta"]["workload"], {})[record["meta"]["seed"]] = record
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float,
            exact: bool = False) -> str:
    """The choosing-metrics rule for one metric on one workload, runs paired by index."""
    sign = 1.0 if better == "higher" else -1.0
    if exact and any(sign * (c - p) < 0 for p, c in zip(parent, change)):
        return "regressed"
    if len(parent) < 2:
        return "unresolved"
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    q1, median, q3 = quartiles(parent)
    gain = sign * (statistics.median(change) - median)
    if wins >= 0.9 * len(parent) and gain > q3 - q1:
        return "improved"
    beats_all = all(sign * (c - p) > 0 for c in change for p in parent)
    if (q3 - q1) > bound * abs(median) and not beats_all:
        return "unresolved"
    if -gain > bound * abs(median):
        return "regressed"
    return "unchanged"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    parent, change = load(args.parent), load(args.change)
    bad = False
    print(f"{'workload':14} {'metric':12} {'unit':6} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32}  pairs  verdict")
    for workload in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        for seed in seeds:
            before, after = parent[workload][seed]["result"], change[workload][seed]["result"]
            if not after["correct"] or after["failed"] > before["failed"]:
                print(f"{workload} seed {seed}: change run correct={after['correct']}, "
                      f"failed {after['failed']} (parent {before['failed']})")
                bad = True
            digests = zip(parent[workload][seed]["meta"]["digests"],
                          change[workload][seed]["meta"]["digests"])
            for index, (a, b) in enumerate(digests):
                if a and b and a != b:
                    print(f"{workload} seed {seed} input {index}: output differs ({a} vs {b})")
                    bad = True
        for metric in end_to_end():
            name = metric["name"]
            values = [[runs[workload][s]["result"]["metrics"][name]["value"] for s in seeds]
                      for runs in (parent, change)]
            result = verdict(values[0], values[1], metric["better"], metric["bound"],
                             name in EXACT)
            bad |= result == "regressed"
            cells = ["{:.6g} [{:.6g}, {:.6g}]".format(q2, q1, q3)
                     for q1, q2, q3 in map(quartiles, values)]
            print(f"{workload:14} {name:12} {metric['unit']:6} {cells[0]:>32} {cells[1]:>32}  "
                  f"{len(seeds):5}  {result}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
