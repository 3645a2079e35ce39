"""Discrete-event simulation substrate (engine, network, RNG, measurement)."""

from .engine import Environment, Event, Process, SimulationError, Timeout, all_of
from .network import Network, NodeUnreachable
from .randgen import DeterministicRandom, ZipfGenerator, derive_seed
from .stats import (
    BREAKDOWN_COMPONENTS,
    BreakdownTimer,
    Counter,
    LatencyRecorder,
    RunMetrics,
)

__all__ = [
    "Environment",
    "Event",
    "Process",
    "SimulationError",
    "Timeout",
    "all_of",
    "Network",
    "NodeUnreachable",
    "DeterministicRandom",
    "ZipfGenerator",
    "derive_seed",
    "BREAKDOWN_COMPONENTS",
    "BreakdownTimer",
    "Counter",
    "LatencyRecorder",
    "RunMetrics",
]
