"""gridrd benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload paper-sweep --seed 0 --seconds 25 --trace 0

Run from anywhere; the program under test is ``src/gridrd`` of the checkout
that holds this file.  Set-up (a fresh import of gridrd plus input
generation) is done several times and its median reported.  Then ops run
back to back (a closed loop, one client) for ``--seconds``; every op's
output is checked.  Set-up and op times are reported at a reference speed
of the machine, measured next to them (see ``scale``).  With ``--trace 1``
a fixed number of ops runs once untraced and twice traced instead, and the
per-layer metrics come from the traced passes, whose counts must agree.

Standard output ends with two JSON lines: the run's metadata, then the
result ``{"correct", "attempted", "failed", "metrics"}``.  A readable table
goes to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import heapq
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PINS = Path(__file__).resolve().parent / "pins.json"
SETUPS = 15
PINNED_OPS = 2
REF_STEPS = 1000
# reference_s() on an idle 2-core x86-64 VM with Python 3.11.7.  Timings are
# reported at this reference speed; see scale().
NOMINAL_REF_S = 0.00125


def fresh_import():
    """Import gridrd (and its CLI) from scratch, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "gridrd" or n.startswith("gridrd.")]:
        del sys.modules[name]
    gridrd = importlib.import_module("gridrd")
    importlib.import_module("gridrd.cli")
    return gridrd


def digest(out: bytes) -> str:
    """The reference form of an op's output: sha256, first 128 bits in hex."""
    return hashlib.sha256(out).hexdigest()[:32]


def src_loc() -> int:
    return sum(len(path.read_bytes().splitlines()) for path in SRC.glob("gridrd/*.py"))


def reference_s() -> float:
    """Wall time of a fixed piece of pure-Python work, with gc off.

    Heap pushes and pops, dict updates and integer arithmetic, the kind of
    interpreter work gridrd's ops do.  It runs next to the ops, so its time
    tracks the speed the machine has at the moment; gc stays off so that
    objects a gridrd op leaves alive cannot slow it down.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        heap: list[tuple[int, int]] = []
        counts: dict[int, int] = {}
        for i in range(REF_STEPS):
            key = (i * 2654435761) & 0xFFFF
            heapq.heappush(heap, (key, i))
            counts[key & 63] = counts.get(key & 63, 0) + 1
        acc = 0
        while heap:
            acc ^= heapq.heappop(heap)[0]
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(ref: list[float]) -> float:
    """Factor that turns times measured next to ``ref`` into reference-speed times.

    The shared machines this runs on change speed by up to 40%, both from
    one second to the next and for minutes at a time, and pure-Python work
    slows alike.  Times scaled by the reference loop's, measured right next
    to them, keep what the program costs and drop most of what the
    machine's speed adds.
    """
    return NOMINAL_REF_S / statistics.median(ref)


def describe(workload: str, seed: int, seconds: float, traced: int) -> dict:
    """Where and on what this run measures."""
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    sources = hashlib.sha256()
    for path in sorted(SRC.glob("gridrd/*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": traced,
        "commit": commit, "src_sha256": sources.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "platform": platform.platform(),
        "loadavg_start": os.getloadavg(),
        "caches": "warm: the benchmark drops or flushes no cache",
        "machine_settings": "none changed",
    }


class Checker:
    """Runs ops, times them, and checks each op's output digest.

    For a seed in pins.json each digest must equal the pinned one.  For any
    other seed, repeats of an input must give the first run's digest; the
    digests are also printed so that ``compare.py`` can hold a change to
    the parent's digests for the same seed.
    """

    def __init__(self, workload, seed: int, pinned: list[str] | None):
        self.workload = workload
        self.seed = seed
        self.pinned = pinned
        self.digests: list[str | None] = [None] * workload.inputs
        self.attempted = self.failed = 0

    def run(self, index: int) -> float:
        """One op; returns its wall time in seconds, failed or not."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            raw = self.workload.execute(index)
            elapsed = time.perf_counter() - start
            out = self.workload.collect(index, raw)
        except Exception as exc:  # any failure of an op is counted, and the run goes on
            elapsed = time.perf_counter() - start
            self._fail(index, f"{type(exc).__name__}: {exc}")
            return elapsed
        found = digest(out)
        slot = index % self.workload.inputs
        expected = self.pinned[slot] if self.pinned else self.digests[slot]
        if self.digests[slot] is None:
            self.digests[slot] = found
        if expected is not None and found != expected:
            self._fail(index, f"output digest {found} != {expected}")
        return elapsed

    def _fail(self, index: int, why: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"seed {self.seed} op {index} failed: {why}", file=sys.stderr)


def _p90(ms: list[float]) -> float:
    return statistics.quantiles(ms, n=10, method="inclusive")[8] if len(ms) > 1 else ms[0]


def _timings(op_ms: list[float]) -> dict:
    return {
        "ops_per_s": (1000.0 * len(op_ms) / sum(op_ms), "1/s"),
        "op_ms.p50": (statistics.median(op_ms), "ms"),
        "op_ms.p90": (_p90(op_ms), "ms"),
    }


def measure(checker: Checker, seconds: float) -> tuple[dict, dict]:
    """Timed ops for ``seconds``: (timings at reference speed, wall-clock timings).

    The reference loop runs before the first op and after every op, and
    each op's time is scaled by the two reference times around it.
    """
    checker.run(0)  # warm-up: lazy imports and first-call costs stay out of the timings
    times, refs, index = [], [reference_s()], 1
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        times.append(checker.run(index) * 1000.0)
        refs.append(reference_s())
        index += 1
    scaled = [t * scale(refs[i:i + 2]) for i, t in enumerate(times)]
    return _timings(scaled), {**_timings(times), "ref_ms": (1000.0 * statistics.median(refs), "ms")}


def measure_traced(checker: Checker, ops: int) -> tuple[dict, bool]:
    """Untraced pass, then two traced passes over the same ops."""
    checker.run(0)  # warm-up, as in measure()
    untraced = sum(checker.run(i) for i in range(ops))
    tracer, passes = spans.Tracer(), []
    tracer.install()
    try:
        for _ in range(2):
            totals, elapsed = spans.Totals(), 0.0
            for i in range(ops):
                tracer.op = i
                elapsed += checker.run(i)
                tracer.reduce(totals)
            passes.append((totals, elapsed))
    finally:
        tracer.uninstall()
    (first, t1), (second, t2) = passes
    repeat = first.exact() == second.exact()
    if not repeat:
        print("per-layer counts differ between the two traced passes", file=sys.stderr)
    metrics = spans.layer_metrics(first, ops)
    # Self times: mean of the two passes.
    for name, (value, unit) in spans.layer_metrics(second, ops).items():
        if unit == spans.TIME_UNIT:
            metrics[name] = ((metrics[name][0] + value) / 2.0, unit)
    metrics["trace_overhead"] = ((t1 + t2) / 2.0 / untraced, "x")
    return metrics, repeat


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "gridrd" / "__init__.py").is_file():
        print(f"perfbench: no gridrd sources under {SRC}", file=sys.stderr)
        return 2

    meta = describe(args.workload, args.seed, args.seconds, args.trace)
    kind = workloads.WORKLOADS[args.workload]
    pins = json.loads(PINS.read_text()) if PINS.is_file() else {}
    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    sys.path.insert(0, str(SRC))
    try:
        setups, refs = [], [reference_s()]
        for _ in range(SETUPS):
            shutil.rmtree(work, ignore_errors=True)
            gc.collect()  # the last import's garbage is not this set-up's cost
            start = time.perf_counter()
            gridrd = fresh_import()
            work.mkdir(parents=True)
            workload = kind(gridrd, args.seed, work)
            setups.append(time.perf_counter() - start)
            refs.append(reference_s())
        if not Path(gridrd.__file__).resolve().is_relative_to(SRC):
            print(f"perfbench: imported gridrd from {gridrd.__file__}, not {SRC}", file=sys.stderr)
            return 2
        pinned = pins.get(args.workload, {})
        checker = Checker(workload, args.seed, pinned.get(str(args.seed)))
        checkers = [checker]
        if pinned:
            # Whatever the run's own seed, a few ops of a pinned seed are
            # checked against their reference digests before timing starts.
            ref = sorted(pinned, key=int)[args.seed % len(pinned)]
            (work / "pinned").mkdir()
            checkers.append(Checker(kind(gridrd, int(ref), work / "pinned"), int(ref), pinned[ref]))
            for i in range(PINNED_OPS):
                checkers[-1].run(args.seed + i)
        wall = {"setup_s": (statistics.median(setups), "s")}
        if args.trace:
            metrics, repeat = measure_traced(checker, workload.trace_ops)
        else:
            (metrics, timings), repeat = measure(checker, args.seconds), True
            wall.update(timings)
        attempted = sum(c.attempted for c in checkers)
        failed = sum(c.failed for c in checkers)
        if not args.trace:
            metrics.update({
                "ok_rate": ((attempted - failed) / attempted, "ratio"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
                "src_loc": (src_loc(), "lines"),
                "setup_s": (statistics.median(t * scale(refs[i:i + 2])
                                              for i, t in enumerate(setups)), "s"),
            })
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:14} {name:38} {value:14.6g} {unit}", file=sys.stderr)
    meta["wall"] = {name: value for name, (value, unit) in wall.items()}
    meta["digests"] = checker.digests
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0 and repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
