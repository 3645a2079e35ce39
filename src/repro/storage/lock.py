"""Per-partition lock manager.

Implements shared/exclusive record locks with the two deadlock-handling
policies used in the paper's baselines and in Primo itself:

* ``NO_WAIT``  — a conflicting request aborts immediately (2PL(NW)).
* ``WAIT_DIE`` — an *older* requester (smaller TID) waits for the holder, a
  *younger* one aborts (2PL(WD) and Primo's WCF, §4.2 "Deadlock Prevention").

The manager owns the lock table: one insertion-ordered dict record →
:class:`LockState` whose entries exist only while the record has a holder or
a waiter.  Almost every row a run touches is locked once, briefly and without
contention (Primo exclusive-locks what a distributed transaction reads,
TicToc its write-set at commit), so releasing the last holder drops the entry
and recycles its state through a free list: lock memory is bounded by
concurrency, not by the rows ever touched, the steady state allocates
nothing, records carry no lock field and the queries only look.

There is one acquire path, :meth:`LockManager.acquire_nowait`: it resolves
the common uncontended case synchronously (``True``/``False``) and only
returns an :class:`~repro.sim.engine.Event` to wait on when the request
actually queues, so protocols pay no generator frame for an immediately
granted lock.  The manager never grants conflicting locks and always wakes
waiters in FIFO order subject to mode compatibility, which tests verify as
an invariant.

Hot-path notes: a request for a record with no entry is granted without a
compatibility check, the wait deque is allocated lazily on first contention,
an exclusive-holder count answers "may a reader join?" without scanning
holders, and compatibility checks compare dict sizes instead of
materializing sets.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import TYPE_CHECKING, Optional, Union

from ..sim.engine import Environment, Event
from ..sim.stats import Counter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .record import Record

__all__ = ["LockMode", "LockPolicy", "LockState", "LockManager", "LockRequest"]


class LockMode(enum.Enum):
    SHARED = "shared"
    EXCLUSIVE = "exclusive"


class LockPolicy(enum.Enum):
    NO_WAIT = "no_wait"
    WAIT_DIE = "wait_die"


class LockRequest:
    """A pending lock request parked on a record's wait queue."""

    __slots__ = ("txn_id", "mode", "event")

    def __init__(self, txn_id, mode: LockMode, event: Event):
        self.txn_id = txn_id
        self.mode = mode
        self.event = event


class LockState:
    """Lock bookkeeping for one record while it is held or awaited."""

    __slots__ = ("holders", "waiters", "n_exclusive")

    def __init__(self) -> None:
        # txn_id -> LockMode currently granted.
        self.holders: dict = {}
        # Allocated lazily on first contention: uncontended records never pay
        # for a deque.
        self.waiters: Optional[deque[LockRequest]] = None
        # Number of holders in EXCLUSIVE mode, so "can a reader join?" is
        # O(1) on grant/release instead of a scan of holders.
        self.n_exclusive = 0

    def compatible(self, txn_id, mode: LockMode) -> bool:
        """Can ``txn_id`` be granted ``mode`` right now?"""
        holders = self.holders
        if not holders:
            return True
        if len(holders) == 1 and txn_id in holders:
            # Only holder is the requester itself: re-entrant / upgrade.
            return True
        if mode is LockMode.SHARED and self.n_exclusive == 0:
            return True
        return False


class LockManager:
    """Grants, queues and releases record locks for one partition."""

    def __init__(self, env: Environment, policy: LockPolicy = LockPolicy.WAIT_DIE,
                 counters: Optional[Counter] = None):
        self.env = env
        self.policy = policy
        self.counters = counters if counters is not None else Counter()
        # record -> LockState while the record is held (dict records hash by
        # identity, columnar handles by row).  Every entry has a holder: the
        # head of a queue behind none is granted by the release that emptied it.
        self._table: dict = {}
        # States of released records, reused by the next first holder.
        self._free: list = []
        # txn_id -> records it holds locks on, as an insertion-ordered dict so
        # release_all wakes waiters in acquisition order; records hash by
        # address, so a set here would make the run depend on the allocator.
        self._held: dict = {}

    # -- queries (never create state) ---------------------------------------
    def holders_of(self, record: "Record") -> dict:
        state = self._table.get(record)
        return {} if state is None else dict(state.holders)

    def is_locked(self, record: "Record") -> bool:
        return record in self._table

    def held_by(self, txn_id, record: "Record") -> Optional[LockMode]:
        state = self._table.get(record)
        return None if state is None else state.holders.get(txn_id)

    def locked_by_other(self, txn_id, record: "Record") -> bool:
        """Does anyone but ``txn_id`` hold ``record``?  (What an optimistic
        validator asks before extending ``rts`` or trusting a version.)"""
        state = self._table.get(record)
        if state is not None:
            for holder in state.holders:
                if holder != txn_id:
                    return True
        return False

    def locks_held(self, txn_id) -> set:
        return set(self._held.get(txn_id, ()))

    # -- acquisition --------------------------------------------------------
    def acquire_nowait(
        self, txn_id, record: "Record", mode: LockMode
    ) -> Union[bool, Event]:
        """Uncontended-first acquire: bool when resolved synchronously.

        Returns ``True`` (granted), ``False`` (the caller must abort: NO_WAIT
        conflict, or WAIT_DIE with a younger requester), or an
        :class:`~repro.sim.engine.Event` the caller must ``yield``; the
        event's value is the grant flag.  The fast path — nobody holds or
        awaits the record, a re-entrant or an immediately compatible request
        — touches no queue machinery and allocates nothing.

        Grants are FIFO-fair: a new request never overtakes queued waiters
        (otherwise a steady stream of shared readers starves lock upgrades on
        hot records).  To keep WAIT_DIE deadlock-free with parallel lock
        acquisition (2PC prepares fan out to several partitions at once), the
        age check therefore covers both the current holders and every queued
        waiter: a transaction only ever waits for strictly younger ones.
        """
        state = self._table.get(record)
        if state is None:
            free = self._free
            self._table[record] = state = free.pop() if free else LockState()
            self._grant(state, txn_id, record, mode)
            return True
        held = state.holders.get(txn_id)
        if held is not None and (held is mode or held is LockMode.EXCLUSIVE):
            # Re-entrant request (or downgrade request): already satisfied.
            return True
        if not state.waiters and state.compatible(txn_id, mode):
            self._grant(state, txn_id, record, mode)
            return True
        if self.policy is LockPolicy.NO_WAIT:
            return False
        # WAIT_DIE: wait only if strictly older than every conflicting holder
        # and every transaction already queued ahead of us.
        conflicting = [holder for holder in state.holders if holder != txn_id]
        if state.waiters:
            conflicting.extend(request.txn_id for request in state.waiters)
        if any(txn_id >= other for other in conflicting):
            return False
        self.counters.increment("lock_waits")
        event = self.env.event()
        request = LockRequest(txn_id, mode, event)
        if state.waiters is None:
            state.waiters = deque()
        state.waiters.append(request)
        return event

    def _grant(self, state: LockState, txn_id, record: "Record", mode: LockMode) -> None:
        holders = state.holders
        previous = holders.get(txn_id)
        granted = (
            LockMode.EXCLUSIVE
            if mode is LockMode.EXCLUSIVE or previous is LockMode.EXCLUSIVE
            else LockMode.SHARED
        )
        holders[txn_id] = granted
        if granted is LockMode.EXCLUSIVE and previous is not LockMode.EXCLUSIVE:
            state.n_exclusive += 1
        held = self._held.get(txn_id)
        if held is None:
            self._held[txn_id] = held = {}
        held[record] = None

    # -- release ------------------------------------------------------------
    def release(self, txn_id, record: "Record") -> None:
        """Release one lock (no-op if the transaction does not hold it)."""
        state = self._table.get(record)
        if state is None:
            return
        removed = state.holders.pop(txn_id, None)
        if removed is None:
            return
        if removed is LockMode.EXCLUSIVE:
            state.n_exclusive -= 1
        held = self._held.get(txn_id)
        if held is not None:
            held.pop(record, None)
            if not held:
                del self._held[txn_id]
        if state.waiters:
            self._wake_waiters(state, record)
        elif not state.holders:
            # Last holder, nobody queued: the entry dies with the lock.
            del self._table[record]
            self._free.append(state)

    def release_all(self, txn_id) -> None:
        """Release every lock held by ``txn_id``."""
        held = self._held.get(txn_id)
        if not held:
            return
        for record in list(held):
            self.release(txn_id, record)

    def _wake_waiters(self, state: LockState, record: "Record") -> None:
        """Grant queued requests that are now compatible (FIFO, no overtaking).

        A waiter wakes when its grant event is dispatched, after the whole
        round is recorded: a burst of shared readers released by an
        exclusive unlock wakes in queue order onto a table that already
        lists all of them.
        """
        waiters = state.waiters
        while waiters:
            request = waiters[0]
            if not state.compatible(request.txn_id, request.mode):
                break
            waiters.popleft()
            self._grant(state, request.txn_id, record, request.mode)
            request.event.succeed(True)
            if request.mode is LockMode.EXCLUSIVE:
                break

    # -- failure handling -----------------------------------------------------
    def abort_waiters(self, record: "Record") -> None:
        """Fail every queued request on a record (crash/rollback path)."""
        state = self._table.get(record)
        if state is None:
            return
        waiters = state.waiters
        if waiters:
            for request in waiters:
                request.event.succeed(False)
            waiters.clear()
        if not state.holders:
            del self._table[record]
            self._free.append(state)

    def force_release_everything(self) -> None:
        """Drop all lock state (used when a partition crashes and restarts)."""
        for txn_id, held in self._held.items():
            for record in held:
                state = self._table[record]
                if state.holders.pop(txn_id) is LockMode.EXCLUSIVE:
                    state.n_exclusive -= 1
                self.abort_waiters(record)
        self._held.clear()
