"""Deterministic simulator and analysis toolkit for grid resource discovery.

Subpackages by responsibility: ``domain`` (queries, finder summaries, zone
names), ``registry`` (the DNS-style repository tree, its repositories named
by their zones), ``simkern`` (splitmix64 seed hash, lane-packed jitter
kernel, latency model), ``scenarios`` (the measured architectures, computed
in closed form), ``stats`` (mean-difference testing),
``harness``/``config``/``cli`` (experiments, files, command line).
"""

from .config import Config, load_config
from .domain import FinderRecord, MetadataSummary, ResourceQuery
from .harness import ObservationRow, SweepSpec, analyze, plot_data, run_sweep
from .registry import ResolutionPolicy, Topology, TopologySpec, build_topology
from .scenarios import RunResult, ScenarioConfig, ScenarioKind, run_scenario
from .simkern import LatencyModel, mix64
from .stats import MeanDifferenceTest, Verdict, test_from_summary, unpaired_t_test

__version__ = "0.1.0"

__all__ = [
    "Config",
    "FinderRecord",
    "LatencyModel",
    "MeanDifferenceTest",
    "MetadataSummary",
    "ObservationRow",
    "ResolutionPolicy",
    "ResourceQuery",
    "RunResult",
    "ScenarioConfig",
    "ScenarioKind",
    "SweepSpec",
    "Topology",
    "TopologySpec",
    "Verdict",
    "analyze",
    "build_topology",
    "load_config",
    "mix64",
    "plot_data",
    "run_scenario",
    "run_sweep",
    "test_from_summary",
    "unpaired_t_test",
    "__version__",
]
