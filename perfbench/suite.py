"""Run every workload over several seeds and summarize the spread.

    python3 perfbench/suite.py --seeds 0-9
    python3 perfbench/suite.py --seeds 0-9 --checkout ../parent --checkout . --out results
    python3 perfbench/suite.py --seeds 0 --trace

Each run is ``run.py`` of the checkout under test, in a process of its own,
one at a time.  With several checkouts the order alternates from seed to
seed.  Results go to ``OUT/<label>/<workload>/seed-<n>.json``; compare two
labels with ``compare.py``.  The summary gives, per workload and metric,
the median, the quartiles and the spread (interquartile range over median)
against the metric's bound from BENCHMARK.json.

``--trace`` runs the traced variant twice per workload and seed and fails
when any per-layer count differs between the two runs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import compare
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNT_FREE_UNITS = ("ms/op", "x")  # per-layer units that are times, not counts


def seed_list(text: str) -> list[int]:
    if "-" in text:
        first, last = map(int, text.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def run_once(checkout: Path, workload: str, seed: int, seconds: int, traced: int) -> dict:
    command = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(traced)]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(command[1:])} exited {proc.returncode}: {proc.stderr[-2000:]}")
    record = {**json.loads(lines[-2]), "result": json.loads(lines[-1])}
    if not record["result"]["correct"]:
        print(f"  INCORRECT: {workload} seed {seed} in {checkout}\n{proc.stderr[-2000:]}",
              file=sys.stderr)
    return record


def summarize(label: str, directory: Path, benchmark: dict) -> None:
    print(f"\n== {label}: median [q1, q3] over seeds; spread = (q3 - q1) / median")
    runs = compare.load(directory)
    for workload in sorted(runs):
        seeds = sorted(runs[workload])
        for metric in benchmark["end_to_end"]:
            values = [runs[workload][s]["result"]["metrics"][metric["name"]]["value"] for s in seeds]
            q1, q2, q3 = compare.quartiles(values)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            flag = ("" if spread <= metric["bound"] / 3
                    else "  over bound/3" if spread <= metric["bound"] else "  OVER BOUND")
            print(f"{workload:14} {metric['name']:12} {q2:12.6g} [{q1:.6g}, {q3:.6g}] {metric['unit']:6}"
                  f" spread {spread:7.2%} bound {metric['bound']:.0%} n={len(values)}{flag}")


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads(compare.BENCHMARK.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=[0], help="e.g. 0-9 or 1,5,7")
    parser.add_argument("--checkout", type=Path, action="append", default=None,
                        help="repeatable; default: this checkout")
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench-results")
    parser.add_argument("--trace", action="store_true", help="traced runs, twice each")
    args = parser.parse_args(argv)

    checkouts = [path.resolve() for path in (args.checkout or [ROOT])]
    labels = [f"{i}-{path.name}" if len(checkouts) > 1 else path.name or "root"
              for i, path in enumerate(checkouts)]
    mine = {path.name: path.read_bytes() for path in HERE.glob("*.py")}
    for checkout in checkouts:
        theirs = {path.name: path.read_bytes() for path in (checkout / "perfbench").glob("*.py")}
        if theirs != mine:
            print(f"warning: {checkout}/perfbench differs from {HERE}", file=sys.stderr)

    seconds = benchmark["run_seconds"]
    ok = True
    for k, seed in enumerate(args.seeds):
        order = list(zip(labels, checkouts))
        if k % 2:
            order.reverse()
        for workload in workloads.WORKLOADS:
            for label, checkout in order:
                if args.trace:
                    first, second = (run_once(checkout, workload, seed, seconds, 1)
                                     for _ in range(2))
                    counts = [{name: m["value"] for name, m in r["result"]["metrics"].items()
                               if m["unit"] not in COUNT_FREE_UNITS} for r in (first, second)]
                    same = counts[0] == counts[1]
                    ok &= same and first["result"]["correct"] and second["result"]["correct"]
                    record = first
                    print(f"{label} {workload} seed {seed}: traced counts "
                          f"{'repeat' if same else 'DIFFER'}; overhead "
                          f"{first['result']['metrics']['trace_overhead']['value']:.3f}x")
                    name = f"seed-{seed}-trace.json"
                else:
                    record = run_once(checkout, workload, seed, seconds, 0)
                    ok &= record["result"]["correct"]
                    metrics = record["result"]["metrics"]
                    print(f"{label} {workload} seed {seed}: " + ", ".join(
                        f"{name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()))
                    name = f"seed-{seed}.json"
                target = args.out / label / workload / name
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_text(json.dumps(record, indent=1) + "\n")
    if not args.trace:
        for label in labels:
            summarize(label, args.out / label, benchmark)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
