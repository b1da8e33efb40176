"""Registry outputs against the benchmark's pinned digests.

``perfbench/pins.json`` holds the sha256 digest of every op output of the
benchmark's workloads.  Recomputing the seed-0 outputs of the two tree
workloads here means a change to any byte a distributed run produces fails
the test suite, not only a manual ``perfbench/pin.py`` run.  The benchmark's
files are only read.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

import gridrd

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    # imported without writing bytecode next to them
    sys.path.insert(0, str(PERFBENCH))
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        return importlib.import_module("run"), importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = dont_write


@pytest.mark.parametrize("name", ["tree-cached", "tree-uncached"])
def test_seed_zero_outputs_match_the_pins(perfbench, name, tmp_path):
    run, workloads = perfbench
    pinned = json.loads(run.PINS.read_text())[name]["0"]
    workload = workloads.WORKLOADS[name](gridrd, 0, tmp_path)
    digests = [run.digest(workload.collect(i, workload.execute(i))) for i in range(workload.inputs)]
    assert digests == pinned
