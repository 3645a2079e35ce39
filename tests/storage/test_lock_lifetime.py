"""A lock entry lives as long as the lock (the ``storage/lock.py`` contract).

Almost every row a run touches is locked once, briefly and without
contention, so the state a partition keeps for its locks must follow what is
held or awaited *now* — a few dozen ``LockState`` objects — and not the set of
rows that were ever locked, which grows for as long as the run does.  The
collector is off and everything here counts objects; nothing depends on the
machine.
"""

import gc

import pytest

import repro
from repro.sim.engine import Environment
from repro.storage.lock import LockManager, LockMode, LockPolicy, LockState
from repro.storage.record import Record
from repro.txn.transaction import TxnId

X, S = LockMode.EXCLUSIVE, LockMode.SHARED


def live_states() -> int:
    return sum(1 for obj in gc.get_objects() if type(obj) is LockState)


def record_granted_rows(monkeypatch) -> set:
    """Every (manager, row key) a synchronous acquire has granted so far."""
    granted = set()
    inner = LockManager.acquire_nowait

    def spy(self, txn_id, record, *args):
        outcome = inner(self, txn_id, record, *args)
        if outcome is True:
            granted.add((id(self), record.key))
        return outcome

    monkeypatch.setattr(LockManager, "acquire_nowait", spy)
    return granted


@pytest.mark.parametrize("protocol, durability", [
    ("primo", "wm"), ("sundial", "coco"), ("2pl_wd", None)])
def test_live_lock_entries_are_bounded_by_the_fibers_not_by_the_rows_touched(
        protocol, durability, no_collector, monkeypatch):
    granted = record_granted_rows(monkeypatch)
    before = live_states()
    cluster = repro.build(repro.ScenarioSpec(
        protocol=protocol, durability=durability, workload="ycsb", scale="small"))
    config = cluster.config
    fibers = (config.n_partitions * config.workers_per_partition
              * config.inflight_per_worker)
    # Per fiber: the attempt executing plus the few whose one-way commit or
    # abort messages are still on the wire, each holding at most its
    # read- and write-set.
    bound = 4 * fibers * cluster.workload.config.ops_per_txn
    cluster.start()
    high_water = 0
    for now_ms in range(1, int(config.warmup_us + config.duration_us) // 1000 + 1):
        cluster.env.run(until=now_ms * 1000.0)
        high_water = max(high_water, live_states() - before)
        assert high_water <= bound
    # ... while far more rows than that have been locked and released.
    assert len(granted) > 5_000
    assert 0 < high_water


@pytest.mark.parametrize("outcome", ["granted", "failed"])
def test_a_waiter_keeps_the_entry_until_it_is_granted_or_failed(outcome, no_collector):
    env = Environment()
    manager = LockManager(env, LockPolicy.WAIT_DIE)
    record = Record(1, (), ())
    young, old = TxnId(10, 0), TxnId(1, 0)
    assert manager.acquire_nowait(young, record, X) is True
    waiting = manager.acquire_nowait(old, record, X)
    assert type(waiting) is not bool
    (state,) = manager._table.values()
    if outcome == "granted":
        manager.release(young, record)
        # The entry outlived its first holder: the waiter owns it now.
        assert manager._table == {record: state}
        assert manager.held_by(old, record) is X
        env.run()
        assert waiting.value is True
        manager.release(old, record)
    else:
        manager.abort_waiters(record)
        assert manager._table == {record: state}   # still held
        env.run()
        assert waiting.value is False
        manager.release(young, record)
    assert not manager._table and not manager._held
    assert manager._free == [state]
    assert not state.holders and not state.waiters and state.n_exclusive == 0


def test_force_release_everything_leaves_table_and_free_list_consistent(no_collector):
    env = Environment()
    manager = LockManager(env, LockPolicy.WAIT_DIE)
    exclusive, shared, idle = (Record(key, (), ()) for key in range(3))
    assert manager.acquire_nowait(TxnId(10, 0), exclusive, X) is True
    assert manager.acquire_nowait(TxnId(11, 0), shared, S) is True
    assert manager.acquire_nowait(TxnId(12, 0), shared, S) is True
    waiters = [manager.acquire_nowait(TxnId(1, 0), exclusive, X),
               manager.acquire_nowait(TxnId(2, 0), shared, X)]
    assert all(type(waiting) is not bool for waiting in waiters)
    states = set(map(id, manager._table.values()))
    assert len(states) == 2

    manager.force_release_everything()   # the partition crashed
    env.run()
    assert [waiting.value for waiting in waiters] == [False, False]
    assert not manager._table and not manager._held
    # Each state went back exactly once (the shared one had two holders), clean.
    assert len(manager._free) == 2 and set(map(id, manager._free)) == states
    for state in manager._free:
        assert not state.holders and not state.waiters and state.n_exclusive == 0

    # After the restart the same records lock as if nothing had happened,
    # on recycled states.
    allocated = live_states()
    newcomer = TxnId(20, 0)
    for record in (exclusive, shared, idle):
        assert manager.acquire_nowait(newcomer, record, X) is True
        assert manager.holders_of(record) == {newcomer: X}
    assert live_states() == allocated + 1   # the third record's
    manager.release_all(newcomer)
    assert not manager._table and not manager._held and len(manager._free) == 3
