"""TicToc optimistic concurrency control: the commit-phase building blocks.

Primo processes single-partition transactions with TicToc (§4.2): reads take
no locks and record the observed ``[wts, rts]`` interval (the shared
:meth:`~repro.txn.context.TxnContext.read` with no ``local_lock``); at commit
the write-set is locked, a commit timestamp is derived from the constraints

* ``ts >= wts`` of every record read,
* ``ts >  rts`` of every record written,

and the read-set is validated — a read is still valid if the commit timestamp
fits the record's (possibly extended) interval.  Extension of ``rts`` is what
makes the scheme robust to Primo's extra exclusive read locks: a lock held by
a distributed transaction only aborts a local transaction when the local
transaction *needs* to extend the record's ``rts`` (§4.2.1).

The commit phase lives with its protocol (Primo's local mode in
:mod:`repro.core.primo`, the 2PC-based variant in
:mod:`repro.protocols.sundial`); what they share is here: the write-set lock
loop (also Silo's and 2PL's), the lock order and the timestamp rule.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Iterable

from ..storage.lock import LockMode
from ..txn.transaction import AbortReason, Transaction, WriteEntry

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.server import Server

__all__ = ["compute_commit_ts", "in_key_order", "lock_write_set"]


def in_key_order(writes: Iterable[WriteEntry]) -> list:
    """The deterministic order the optimistic protocols lock a write-set in."""
    return sorted(writes, key=lambda w: (w.table, str(w.key)))


def lock_write_set(server: "Server", txn: Transaction, writes: Iterable[WriteEntry],
                   records: dict) -> Generator:
    """Exclusive-lock the records ``writes`` target on ``server``, in the order given.

    ``records`` maps ``(partition, table, key)`` to record handles the caller
    already holds (an execution context's ``records``; ``{}`` looks every key
    up).  An insert of a key that does not exist yet has nothing to lock.
    Returns ``None`` once everything is locked, else why not:
    ``AbortReason.VALIDATION`` (a target no longer exists) or
    ``AbortReason.LOCK_CONFLICT`` (a lock was refused).
    """
    lock_manager = server.store.lock_manager
    for entry in writes:
        record = records.get((entry.partition, entry.table, entry.key))
        if record is None:
            record = server.store.table(entry.table).get(entry.key)
            if record is None:
                if entry.is_insert:
                    continue
                return AbortReason.VALIDATION
        ok = lock_manager.acquire_nowait(txn.tid, record, LockMode.EXCLUSIVE)
        if type(ok) is not bool:
            ok = yield ok
        if not ok:
            return AbortReason.LOCK_CONFLICT
    return None


def compute_commit_ts(txn: Transaction, ts_floor: float = 0.0) -> float:
    """Minimal logical timestamp satisfying TicToc's constraints (§4.2.1).

    ``ts_floor`` is the partition-watermark constraint of §5.1 (the commit
    timestamp must exceed the coordinator's current watermark so that the
    published watermark stays a lower bound for future transactions).
    """
    commit_ts = ts_floor + 1
    written = {(w.partition, w.table, w.key) for w in txn.write_set}
    for read in txn.read_set:
        if read.wts > commit_ts:
            commit_ts = read.wts
        if (read.partition, read.table, read.key) in written:
            bound = read.rts + 1
            if bound > commit_ts:
                commit_ts = bound
    return commit_ts
