"""Regenerate pins.json, the reference output digests that run.py checks.

    python3 perfbench/pin.py

Pins cover seeds 0-9 and every input of every workload.  Run it only at a
commit whose outputs are known to be right: gridrd's outputs are frozen
byte for byte, so a change that alters them on purpose regenerates the
pins in a change of its own.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads

SEEDS = range(10)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    gridrd = run.fresh_import()
    work = run.ROOT / ".perfbench-work" / f"pin-{os.getpid()}"
    pins: dict[str, dict[str, list[str]]] = {}
    try:
        for name, kind in workloads.WORKLOADS.items():
            for seed in SEEDS:
                work.mkdir(parents=True, exist_ok=True)
                workload = kind(gridrd, seed, work)
                pins.setdefault(name, {})[str(seed)] = [
                    run.digest(workload.collect(i, workload.execute(i)))
                    for i in range(workload.inputs)
                ]
                shutil.rmtree(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()
    run.PINS.write_text(json.dumps(pins, indent=1) + "\n")
    print(f"wrote {sum(len(d) for p in pins.values() for d in p.values())} digests to {run.PINS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
