"""Workload interface.

A workload knows how to (1) load its tables onto every partition and (2)
produce an endless stream of transaction specifications for a given partition.
Transaction logic is written once against :class:`~repro.txn.context.TxnContext`
and therefore runs unchanged under every protocol.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Generator, Optional

from ..sim.randgen import DeterministicRandom, derive_seed, stable_hash

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.cluster import Cluster
    from ..txn.context import TxnContext

__all__ = ["TransactionSpec", "TxnSource", "Workload"]


@dataclass(slots=True)
class TransactionSpec:
    """One transaction to execute: a name (for stats) and its logic generator."""

    name: str
    logic: Callable[["TxnContext"], Generator]
    read_only: bool = False


class TxnSource(abc.ABC):
    """An endless, deterministic stream of transactions for one service
    fiber (closed loop) or one arrival stream (open loop).

    Draw-order contract
    -------------------
    A source owns its RNG(s), and each ``next()`` call consumes the underlying
    uniform stream in a fixed, documented pattern — nothing else may draw from
    the stream between calls.  Callers in turn pin *when* ``next()`` runs: the
    closed loop draws once per transaction it starts, and the open loop
    (:mod:`repro.arrivals`) draws exactly once per arrival, in arrival order:
    when a service fiber dequeues the arrival, or earlier — every queued
    arrival at once, in FIFO order — just before a drop (whose transaction
    is drawn and discarded) or a :meth:`set_hot_skew` shift.  An arrival
    still queued when the run stops is never drawn.  Both schedules are fully
    determined by the run seed, so fixed-seed transaction sequences are
    reproducible across interpreter processes and pool workers.
    """

    @abc.abstractmethod
    def next(self) -> TransactionSpec:
        """Produce the next transaction specification."""

    def set_hot_skew(self, theta: Optional[float]) -> None:
        """Shift the stream's key-popularity skew mid-run (flash crowds).

        ``theta`` selects the new skew; ``None`` restores the configured
        baseline.  The default is a no-op: sources without a tunable
        key-popularity notion ignore the shift.  Implementations must keep
        drawing from the source's own RNG so the draw-order contract above
        (and with it fixed-seed determinism) holds across the shift.
        """


class Workload(abc.ABC):
    """Base class for YCSB, TPC-C, TATP and Smallbank."""

    name = "workload"

    @abc.abstractmethod
    def load(self, cluster: "Cluster") -> None:
        """Create tables and populate the initial database on every partition."""

    @abc.abstractmethod
    def make_source(self, cluster: "Cluster", partition_id: int, stream_id: int) -> TxnSource:
        """Create a per-worker transaction stream rooted at ``partition_id``."""

    def rng(self, cluster: "Cluster", partition_id: int, stream_id: int) -> DeterministicRandom:
        """Deterministic RNG derived from the run seed, partition and stream.

        Uses :func:`~repro.sim.randgen.stable_hash` so the derived seed is
        identical in every interpreter process (``hash(str)`` is randomized).
        """
        return DeterministicRandom(
            derive_seed(
                cluster.config.seed, stable_hash(self.name) & 0xFFFF, partition_id, stream_id
            )
        )
