"""repro — a reproduction of Primo (ICDE 2023).

Primo is a distributed transaction protocol that eliminates two-phase commit
by combining write-conflict-free concurrency control (exclusive read locks for
distributed transactions + TicToc for local ones) with a watermark-based
asynchronous distributed group commit.  This package implements Primo, the six
baseline protocols the paper compares against, the storage / logging /
replication substrates they run on, the YCSB and TPC-C workloads, and a
benchmark harness that regenerates every figure of the paper's evaluation on a
discrete-event simulator.

Quickstart — the declarative scenario API is the front door::

    import repro

    spec = repro.ScenarioSpec(protocol="primo", workload="ycsb", scale="small")
    result = repro.run(spec)
    print(f"{result.throughput_ktps:.0f} kTPS at {result.mean_latency_ms:.1f} ms")

Scenarios are JSON-round-trippable and validate eagerly (typo'd names and
override keys raise at construction with a did-you-mean suggestion);
``repro.scenarios.sweep`` expands one spec into a grid.  New protocols,
durability schemes, workloads and figures plug in through
:mod:`repro.registry` without touching any core module.  The lower-level
objects (``Cluster``, ``SystemConfig``, workload classes) remain available
for code that wants to assemble a cluster by hand.
"""

# Part of every orchestrator cache key and campaign manifest (the "substrate
# version"): bump it when results or their serialized form change, so stale
# caches degrade to misses and old manifests ask to be recompiled.  The
# history of past bumps is in CHANGES.md.
__version__ = "1.5.0"

from .arrivals import ArrivalSpec, arrival
from .cluster import Cluster, RunResult, Server, SystemConfig
from .cluster.config import DURABILITY_SCHEMES, PROTOCOLS
from .core import (
    AnalysisParameters,
    ConflictRateModel,
    PrimoProtocol,
    WatermarkGroupCommit,
)
from .faults import FaultEvent, FaultPlan, fault, standard_storm
from .registry import (
    ARRIVAL_REGISTRY,
    DURABILITY_REGISTRY,
    FAULT_REGISTRY,
    FIGURE_REGISTRY,
    PROTOCOL_REGISTRY,
    SCALE_REGISTRY,
    WORKLOAD_REGISTRY,
    register_arrival,
    register_durability,
    register_fault,
    register_figure,
    register_protocol,
    register_scale,
    register_workload,
)
from .scales import SCALES, TINY_SCALE, BenchScale
from .scenario import ScenarioSpec, build, run, sweep
from .sim.topology import RegionTopology
from . import scenario as scenarios
from .workloads import (
    MixedConfig,
    MixedWorkload,
    SmallbankConfig,
    SmallbankWorkload,
    TATPConfig,
    TATPWorkload,
    TPCCConfig,
    TPCCWorkload,
    YCSBConfig,
    YCSBWorkload,
)

#: Workload names accepted by ``ScenarioSpec.workload`` (the registry itself).
WORKLOADS = WORKLOAD_REGISTRY

__all__ = [
    "ARRIVAL_REGISTRY",
    "AnalysisParameters",
    "ArrivalSpec",
    "BenchScale",
    "Cluster",
    "ConflictRateModel",
    "DURABILITY_REGISTRY",
    "DURABILITY_SCHEMES",
    "FAULT_REGISTRY",
    "FIGURE_REGISTRY",
    "FaultEvent",
    "FaultPlan",
    "MixedConfig",
    "MixedWorkload",
    "PROTOCOL_REGISTRY",
    "PROTOCOLS",
    "PrimoProtocol",
    "RegionTopology",
    "RunResult",
    "SCALE_REGISTRY",
    "SCALES",
    "ScenarioSpec",
    "Server",
    "SmallbankConfig",
    "SmallbankWorkload",
    "SystemConfig",
    "TATPConfig",
    "TATPWorkload",
    "TINY_SCALE",
    "TPCCConfig",
    "TPCCWorkload",
    "WORKLOAD_REGISTRY",
    "WORKLOADS",
    "WatermarkGroupCommit",
    "YCSBConfig",
    "YCSBWorkload",
    "__version__",
    "arrival",
    "build",
    "fault",
    "register_arrival",
    "register_durability",
    "register_fault",
    "register_figure",
    "register_protocol",
    "register_scale",
    "register_workload",
    "run",
    "scenarios",
    "standard_storm",
    "sweep",
]
