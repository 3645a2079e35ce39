"""Concurrency-control protocols: Primo and the six baselines of §6.1.1."""

from .aria import AriaProtocol
from .base import BaseProtocol, install_write_entries
from .silo import SiloProtocol
from .sundial import SundialProtocol
from .tapir import TapirProtocol
from .two_pc import TwoPhaseCommitProtocol
from .two_pl import TwoPLNoWaitProtocol, TwoPLWaitDieProtocol

__all__ = [
    "AriaProtocol",
    "BaseProtocol",
    "SiloProtocol",
    "SundialProtocol",
    "TapirProtocol",
    "TwoPhaseCommitProtocol",
    "TwoPLNoWaitProtocol",
    "TwoPLWaitDieProtocol",
    "install_write_entries",
    "create_protocol",
]


def create_protocol(name: str, cluster) -> BaseProtocol:
    """Factory used by the cluster to instantiate the configured protocol."""
    from ..registry import PROTOCOL_REGISTRY

    return PROTOCOL_REGISTRY.get(name)(cluster)
