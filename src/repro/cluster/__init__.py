"""Cluster runtime: configuration, servers, workers, recovery and results."""

from .cluster import Cluster
from .config import DURABILITY_SCHEMES, PROTOCOLS, SystemConfig
from .recovery import RecoveryCoordinator
from .results import RunResult
from .server import ActiveTxnRegistry, Server

__all__ = [
    "ActiveTxnRegistry",
    "Cluster",
    "DURABILITY_SCHEMES",
    "PROTOCOLS",
    "RecoveryCoordinator",
    "RunResult",
    "Server",
    "SystemConfig",
]
