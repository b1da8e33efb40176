"""gridrd's outputs against the benchmark's pinned digests.

``perfbench/pins.json`` holds the sha256 digest of every op output of the
benchmark's workloads.  Recomputing the seed-0 outputs of all four
workloads here means a change to any byte a sweep, an analysis or a
distributed run produces fails the test suite, not only a manual
``perfbench/pin.py`` run.  The traced run's span targets are checked
against gridrd here too.  The benchmark's files are only read.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

import gridrd
import gridrd.cli  # the CLI workloads read gridrd.cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    # imported without writing bytecode next to them
    sys.path.insert(0, str(PERFBENCH))
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        return tuple(map(importlib.import_module, ("run", "workloads", "spans")))
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = dont_write


@pytest.mark.parametrize("name", ["paper-sweep", "analyze-batch", "tree-cached", "tree-uncached"])
def test_seed_zero_outputs_match_the_pins(perfbench, name, tmp_path):
    run, workloads, _ = perfbench
    pinned = json.loads(run.PINS.read_text())[name]["0"]
    workload = workloads.WORKLOADS[name](gridrd, 0, tmp_path)
    digests = [run.digest(workload.collect(i, workload.execute(i))) for i in range(workload.inputs)]
    assert digests == pinned


# PATCHES targets of layers deleted from gridrd, and harness.run_scenario: a sweep
# runs point by point through scenarios.mean_times.  Their per-layer metrics read 0.
DEAD_SPAN_TARGETS = {("gridrd.scenarios", "sample_jitter"), ("gridrd.simkern", "Engine.schedule"),
                     ("gridrd.simkern", "Engine.run"), ("gridrd.harness", "run_scenario")}


def test_span_targets_resolve_except_the_known_dead_ones(perfbench):
    # the traced run skips a target it cannot find, so a renamed gridrd
    # function would read as zero calls instead of failing anywhere
    *_, spans = perfbench
    missing = set()
    for module, attr, _, _ in spans.PATCHES:
        owner = importlib.import_module(module)
        *cls, name = attr.split(".")
        if cls:
            owner = getattr(owner, cls[0], None)
        if getattr(owner, "__dict__", {}).get(name) is None:
            missing.add((module, attr))
    assert missing == DEAD_SPAN_TARGETS
