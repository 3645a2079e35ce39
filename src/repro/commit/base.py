"""Durability-scheme interface.

After a protocol has installed a transaction's writes (and released its
locks), the transaction is *executed* but its result may not yet be returned
to the client: the durability scheme decides when it is safe to acknowledge.
This is where the schemes compared in §6.4 differ:

* ``sync`` — flush the involved partitions' logs on the critical path;
* ``coco`` — COCO's epoch-based synchronous distributed group commit;
* ``clv``  — controlled lock violation (background flusher + dependency wait);
* ``wm``   — Primo's watermark-based asynchronous group commit
  (implemented in :mod:`repro.core.watermark`);
* ``none`` — acknowledge immediately (unit tests and micro-benches).

The worker loop calls :meth:`transaction_executed` and attaches a
:class:`CommitReceipt` to the returned event; the event's value is
``"durable"`` or ``"crash_aborted"``.

**Lifetime contract.**  Commit is the end of an attempt's life: read what you
need from ``txn`` *inside* :meth:`transaction_executed` (``effective_ts()``,
``all_partitions()``, per-partition ``last_lsn``); keep no reference.  What
waits for durability is the event, those scalars and the receipt — not the
read-set, row snapshots, write-set and indexes — so the state awaiting a group
commit is O(1) per transaction (``tests/commit/test_commit_lifetime.py``).

**Crash state** lives on ``Server`` (``crashed``, ``partition_watermark``);
a scheme keeps no copy.  Its crash hooks are :meth:`notify_crash`, called by
``Server.crash()``, and :meth:`resolve_after_crash`, called by recovery.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..sim.engine import Event

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.cluster import Cluster
    from ..cluster.server import Server
    from ..txn.transaction import Transaction

__all__ = ["CommitReceipt", "DurabilityScheme", "DURABLE", "CRASH_ABORTED"]

DURABLE = "durable"
CRASH_ABORTED = "crash_aborted"


class CommitReceipt:
    """All that outlives a committed attempt: the durability-event callback.

    Holds what the cluster's accounting reads once the outcome is known —
    the end-to-end latency anchor, the commit instant (the ``return``
    component runs from it), the breakdown dict, *moved* from the
    transaction, which nothing touches after commit, and ``counted_at``: the
    instant :meth:`~repro.cluster.cluster.Cluster.record_commit` counted the
    commit, or ``None`` when it fell outside the measurement window.
    """

    __slots__ = ("cluster", "first_start_time", "commit_end_time", "breakdown",
                 "counted_at")

    def __init__(self, cluster: "Cluster", txn: "Transaction",
                 counted_at: Optional[float]):
        self.cluster = cluster
        self.first_start_time = txn.first_start_time
        self.commit_end_time = txn.commit_end_time
        self.breakdown = txn.breakdown
        self.counted_at = counted_at

    def __call__(self, event: Event) -> None:
        if event._value == DURABLE:
            self.cluster.record_durable(self)
        else:
            self.cluster.record_crash_abort(self)


class DurabilityScheme:
    """Base class: acknowledge immediately (the ``none`` scheme)."""

    name = "none"

    def __init__(self, cluster: "Cluster"):
        self.cluster = cluster
        self.env = cluster.env
        self.config = cluster.config

    def start(self) -> None:
        """Spawn any background processes (epoch manager, flushers, ...)."""

    def transaction_executed(self, server: "Server", txn: "Transaction") -> Event:
        """Return an event that fires when the result may be returned."""
        event = self.env.event()
        event.succeed(DURABLE)
        return event

    def admission_gate(self, server: "Server") -> Optional[Event]:
        """If non-None, the worker must wait on it before starting a transaction."""
        return None

    def transaction_begin(self, server: "Server") -> None:
        """A worker started (an attempt of) a transaction on ``server``."""

    def transaction_finished(self, server: "Server") -> None:
        """The attempt finished executing (committed or aborted)."""

    def execution_overhead_us(self, txn: "Transaction") -> float:
        """Extra critical-path CPU time this scheme adds per transaction."""
        return 0.0

    def set_message_delay(self, partition_id: int, delay_us: float) -> None:
        """Delay this scheme's own coordination messages from one partition.

        Used by the watermark/epoch *lagging* experiment (Fig. 13a): only the
        group-commit control messages are delayed, not data traffic.
        """

    def notify_crash(self, partition_id: int) -> None:
        """A partition leader crashed; fail whatever cannot survive it."""

    def resolve_after_crash(self, agreed_wg: float) -> None:
        """Recovery agreed on the global watermark ``agreed_wg`` (§5.2 step 3)."""
