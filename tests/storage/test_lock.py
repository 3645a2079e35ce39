"""Tests for the lock manager: modes, policies, fairness and invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Environment
from repro.storage.columnar import ColumnarTable, TableSchema
from repro.storage.lock import LockManager, LockMode, LockPolicy
from repro.storage.record import Record
from repro.txn.transaction import TxnId


def make_manager(policy=LockPolicy.WAIT_DIE):
    env = Environment()
    return env, LockManager(env, policy)


def acquire(env, manager, tid, record, mode):
    """Acquire, let a queued request run for a while, and return the grant
    flag (``None`` while still waiting)."""
    outcome = manager.acquire_nowait(tid, record, mode)
    if type(outcome) is bool:
        return outcome
    env.run(until=env.now + 1_000)
    return outcome.value if outcome.triggered else None


def test_shared_locks_are_compatible():
    env, manager = make_manager()
    record = Record(1, (), ())
    assert acquire(env, manager, TxnId(1, 0), record, LockMode.SHARED) is True
    assert acquire(env, manager, TxnId(2, 0), record, LockMode.SHARED) is True
    assert len(manager.holders_of(record)) == 2


def test_exclusive_lock_blocks_everyone():
    env, manager = make_manager(LockPolicy.NO_WAIT)
    record = Record(1, (), ())
    assert acquire(env, manager, TxnId(1, 0), record, LockMode.EXCLUSIVE) is True
    assert acquire(env, manager, TxnId(2, 0), record, LockMode.SHARED) is False
    assert acquire(env, manager, TxnId(3, 0), record, LockMode.EXCLUSIVE) is False


def test_reentrant_acquisition_is_a_noop():
    env, manager = make_manager()
    record = Record(1, (), ())
    tid = TxnId(5, 0)
    assert acquire(env, manager, tid, record, LockMode.EXCLUSIVE) is True
    assert acquire(env, manager, tid, record, LockMode.EXCLUSIVE) is True
    assert acquire(env, manager, tid, record, LockMode.SHARED) is True
    assert manager.holders_of(record) == {tid: LockMode.EXCLUSIVE}


def test_upgrade_by_sole_holder_succeeds():
    env, manager = make_manager()
    record = Record(1, (), ())
    tid = TxnId(1, 0)
    assert acquire(env, manager, tid, record, LockMode.SHARED) is True
    assert acquire(env, manager, tid, record, LockMode.EXCLUSIVE) is True
    assert manager.held_by(tid, record) is LockMode.EXCLUSIVE


def test_no_wait_policy_never_waits():
    env, manager = make_manager(LockPolicy.NO_WAIT)
    record = Record(1, (), ())
    assert acquire(env, manager, TxnId(2, 0), record, LockMode.EXCLUSIVE) is True
    assert acquire(env, manager, TxnId(1, 0), record, LockMode.EXCLUSIVE) is False
    assert manager.counters.get("lock_waits") == 0


def test_wait_die_older_waits_and_gets_lock_on_release():
    env, manager = make_manager(LockPolicy.WAIT_DIE)
    record = Record(1, (), ())
    young, old = TxnId(10, 0), TxnId(1, 0)
    assert acquire(env, manager, young, record, LockMode.EXCLUSIVE) is True
    waiter = manager.acquire_nowait(old, record, LockMode.EXCLUSIVE)
    env.run(until=env.now + 10)
    assert not waiter.triggered  # still waiting
    manager.release_all(young)
    env.run(until=env.now + 10)
    assert waiter.triggered and waiter.value is True
    assert manager.held_by(old, record) is LockMode.EXCLUSIVE


def test_wait_die_younger_dies():
    env, manager = make_manager(LockPolicy.WAIT_DIE)
    record = Record(1, (), ())
    old, young = TxnId(1, 0), TxnId(9, 0)
    assert acquire(env, manager, old, record, LockMode.EXCLUSIVE) is True
    assert acquire(env, manager, young, record, LockMode.EXCLUSIVE) is False


def test_new_requests_do_not_overtake_queued_waiters():
    """FIFO fairness: shared readers must not starve a queued upgrade."""
    env, manager = make_manager(LockPolicy.WAIT_DIE)
    record = Record(1, (), ())
    holder = TxnId(5, 0)
    upgrader = TxnId(1, 0)  # older, so it waits
    assert acquire(env, manager, holder, record, LockMode.SHARED) is True
    waiter = manager.acquire_nowait(upgrader, record, LockMode.EXCLUSIVE)
    env.run(until=env.now + 5)
    assert not waiter.triggered
    # A brand-new shared request (even an old one) must not jump the queue.
    late_reader = TxnId(2, 0)
    assert acquire(env, manager, late_reader, record, LockMode.SHARED) is False
    manager.release_all(holder)
    env.run(until=env.now + 5)
    assert waiter.triggered and waiter.value is True


def test_wait_die_considers_queued_waiters_for_age_check():
    env, manager = make_manager(LockPolicy.WAIT_DIE)
    record = Record(1, (), ())
    holder = TxnId(10, 0)
    oldest = TxnId(1, 0)
    middle = TxnId(5, 0)
    assert acquire(env, manager, holder, record, LockMode.EXCLUSIVE) is True
    manager.acquire_nowait(oldest, record, LockMode.EXCLUSIVE)
    env.run(until=env.now + 5)
    # ``middle`` is older than the holder but younger than the queued waiter,
    # so it must die (waiting would allow wait-for cycles with parallel 2PC).
    assert acquire(env, manager, middle, record, LockMode.EXCLUSIVE) is False


def test_release_wakes_compatible_shared_waiters_together():
    env, manager = make_manager(LockPolicy.WAIT_DIE)
    record = Record(1, (), ())
    holder = TxnId(50, 0)
    # Enqueue the younger reader first: the older one may queue behind it
    # (waiting only for younger transactions keeps WAIT_DIE deadlock-free).
    readers = [TxnId(2, 0), TxnId(1, 0)]
    assert acquire(env, manager, holder, record, LockMode.EXCLUSIVE) is True
    procs = [manager.acquire_nowait(r, record, LockMode.SHARED) for r in readers]
    env.run(until=env.now + 5)
    manager.release_all(holder)
    env.run(until=env.now + 5)
    assert all(p.triggered and p.value for p in procs)
    assert len(manager.holders_of(record)) == 2


def test_readers_released_together_wake_onto_a_table_listing_all_of_them():
    """An exclusive unlock grants the whole burst of queued readers before
    the first of them wakes, so each woken reader sees every other one."""
    env, manager = make_manager(LockPolicy.WAIT_DIE)
    record = Record(1, (), ())
    holder = TxnId(50, 0)
    readers = [TxnId(3, 0), TxnId(2, 0), TxnId(1, 0)]
    assert acquire(env, manager, holder, record, LockMode.EXCLUSIVE) is True
    seen = []

    def reader(tid):
        granted = yield manager.acquire_nowait(tid, record, LockMode.SHARED)
        seen.append((tid, granted, set(manager.holders_of(record))))

    for tid in readers:
        env.process(reader(tid))
    env.run(until=env.now + 5)
    assert seen == []
    manager.release_all(holder)
    env.run(until=env.now + 5)
    assert seen == [(tid, True, set(readers)) for tid in readers]


def test_release_all_clears_every_lock():
    env, manager = make_manager()
    records = [Record(i, (), ()) for i in range(5)]
    tid = TxnId(1, 0)
    for record in records:
        assert acquire(env, manager, tid, record, LockMode.EXCLUSIVE) is True
    assert manager.locks_held(tid) == set(records)
    manager.release_all(tid)
    assert manager.locks_held(tid) == set()
    assert not any(manager.is_locked(r) for r in records)


def test_release_is_idempotent_for_non_holders():
    env, manager = make_manager()
    record = Record(1, (), ())
    manager.release(TxnId(1, 0), record)  # no-op, no error
    assert not manager.is_locked(record)


def test_abort_waiters_fails_queued_requests():
    env, manager = make_manager(LockPolicy.WAIT_DIE)
    record = Record(1, (), ())
    holder, waiter_tid = TxnId(9, 0), TxnId(1, 0)
    assert acquire(env, manager, holder, record, LockMode.EXCLUSIVE) is True
    waiter = manager.acquire_nowait(waiter_tid, record, LockMode.EXCLUSIVE)
    env.run(until=env.now + 5)
    manager.abort_waiters(record)
    env.run(until=env.now + 5)
    assert waiter.triggered and waiter.value is False


def test_force_release_everything_clears_state():
    env, manager = make_manager()
    records = [Record(i, (), ()) for i in range(3)]
    for i, record in enumerate(records):
        assert acquire(env, manager, TxnId(i + 1, 0), record, LockMode.EXCLUSIVE) is True
    manager.force_release_everything()
    assert all(not manager.is_locked(r) for r in records)


def _three_records(backend):
    if backend == "dict":
        return [Record(key, (), ()) for key in range(3)]
    table = ColumnarTable("t", TableSchema((("a", "i"),)))
    table.insert_many(range(3), {"a": 0})
    return [table.get(key) for key in range(3)]


@pytest.mark.parametrize("backend", ["dict", "columnar"])
def test_lock_queries_leave_no_state_behind(backend):
    """Validators ask about rows nobody locked; asking must not plant state."""
    env, manager = make_manager()
    never_locked, released, held = _three_records(backend)
    tid, other = TxnId(1, 0), TxnId(2, 0)
    assert acquire(env, manager, tid, released, LockMode.EXCLUSIVE) is True
    manager.release(tid, released)
    assert acquire(env, manager, other, held, LockMode.SHARED) is True
    recycled = list(manager._free)
    for record in (never_locked, released):
        assert manager.holders_of(record) == {}
        assert not manager.is_locked(record)
        assert manager.held_by(tid, record) is None
        assert not manager.locked_by_other(tid, record)
        manager.abort_waiters(record)
        manager.release(tid, record)
    assert list(manager._table) == [held] and manager._free == recycled
    # The answers themselves: a copy of the holders, and "someone else?".
    holders = manager.holders_of(held)
    holders.clear()
    assert manager.holders_of(held) == {other: LockMode.SHARED}
    assert manager.locked_by_other(tid, held) and not manager.locked_by_other(other, held)
    assert acquire(env, manager, tid, held, LockMode.SHARED) is True
    assert manager.locked_by_other(tid, held) and manager.locked_by_other(other, held)
    manager.release(other, held)
    assert not manager.locked_by_other(tid, held)
    manager.release(tid, held)
    assert not manager._table


class _HashedRecord(Record):
    """A record whose hash is chosen by the test instead of by its address."""

    __slots__ = ("_hash",)

    def __init__(self, key, hash_value):
        super().__init__(key, (), ())
        self._hash = hash_value

    def __hash__(self):
        return self._hash


@pytest.mark.parametrize("release", ["release_all", "force_release_everything"])
def test_release_wakes_waiters_in_acquisition_order_not_hash_order(release):
    """Records hash by address, so a hash-ordered held-set made fixed-seed
    runs diverge between processes (perf/README.md "Found while building")."""
    env, manager = make_manager(LockPolicy.WAIT_DIE)
    # Hash order (0 before 1) is the reverse of acquisition order.
    first, second = _HashedRecord("first", 1), _HashedRecord("second", 0)
    assert list({first, second}) == [second, first]
    holder = TxnId(9, 0)
    for record in (first, second):
        assert acquire(env, manager, holder, record, LockMode.EXCLUSIVE) is True
    woken = []

    def waiter(tid, record):
        yield manager.acquire_nowait(tid, record, LockMode.EXCLUSIVE)
        woken.append(record.key)

    # Older transactions wait (WAIT_DIE); queue them against hash order too.
    env.process(waiter(TxnId(2, 0), second))
    env.process(waiter(TxnId(1, 0), first))
    env.run(until=env.now + 5)
    assert woken == []
    if release == "release_all":
        manager.release_all(holder)
    else:
        manager.force_release_everything()
    env.run(until=env.now + 5)
    assert woken == ["first", "second"]
    assert manager.locks_held(holder) == set()


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=6),   # transaction number
            st.integers(min_value=0, max_value=3),   # record number
            st.booleans(),                            # exclusive?
        ),
        min_size=1,
        max_size=40,
    )
)
def test_lock_invariants_hold_under_random_schedules(ops):
    """Property: never two exclusive holders; shared/exclusive never coexist."""
    env, manager = make_manager(LockPolicy.NO_WAIT)
    records = [Record(i, (), ()) for i in range(4)]
    held_since_release: dict = {}
    for txn_number, record_number, exclusive in ops:
        tid = TxnId(txn_number, 0)
        record = records[record_number]
        mode = LockMode.EXCLUSIVE if exclusive else LockMode.SHARED
        acquire(env, manager, tid, record, mode)
        holders = manager.holders_of(record)
        exclusive_holders = [t for t, m in holders.items() if m is LockMode.EXCLUSIVE]
        assert len(exclusive_holders) <= 1
        if exclusive_holders:
            assert len(holders) == 1
    for record in records:
        # Releasing everything leaves no lock state behind.
        for tid in list(manager.holders_of(record)):
            manager.release(tid, record)
        assert not manager.is_locked(record)
