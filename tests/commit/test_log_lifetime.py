"""The log keeps only what recovery reads (the ``commit/logging.py`` contract).

A group commit leaves a whole interval of commits in the log until the next
flush, so whatever a record carries is multiplied by throughput × epoch
length.  Only the §5.2 recovery sweep reads a payload — undo images for the
rollback, Primo's shipped write-sets for re-delivery — and it only runs under
a fault plan.  On a fault-free run no row is copied for the log, no
write-set or commit-decision record carries a payload, and a record dies
once its flush is done.  The collector is off where objects are counted, and
everything here counts objects or calls; nothing depends on the machine.

Under a fault plan the log keeps what a recovery can still read, so a faulted
run's retained history is bounded too, and forgetting the rest changes no
result.
"""

import gc
import json

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.recovery import RecoveryCoordinator
from repro.commit import DURABILITY_REGISTRY
from repro.commit.logging import LogManager, LogRecord, LogRecordKind
from repro.faults import fault, standard_storm
from repro.scenario import ScenarioSpec, build
from repro.storage.columnar import ColumnarRecord
from repro.storage.record import Record

from tests.conftest import elections, tiny_config, tiny_ycsb


def count_row_copies(monkeypatch) -> list:
    """Every row copy taken from now on, as ``(record class, method name)``.

    Both copying methods are spied on separately, so neither can hide behind
    the other (an alias of one would escape a spy on the other)."""
    taken = []
    for cls in (Record, ColumnarRecord):
        for name in ("snapshot", "undo_image"):
            def spy(self, _inner=getattr(cls, name), _name=name):
                taken.append((type(self), _name))
                return _inner(self)

            monkeypatch.setattr(cls, name, spy)
    return taken


def live_log_records() -> tuple:
    """How many ``LogRecord``s are allocated, and how many of them are
    write-set or commit-decision records that carry a payload."""
    live = carrying = 0
    for obj in gc.get_objects():
        if type(obj) is LogRecord:
            live += 1
            carrying += obj.payload is not None and obj.kind in (
                LogRecordKind.WRITESET, LogRecordKind.COMMIT_DECISION)
    return live, carrying


@pytest.mark.parametrize("backend", ["auto", "dict"])
@pytest.mark.parametrize("scheme", sorted(DURABILITY_REGISTRY.names()))
@pytest.mark.parametrize("protocol", ["primo", "sundial"])
def test_fault_free_log_records_carry_nothing_and_die_once_flushed(
        protocol, scheme, backend, request, monkeypatch, no_collector):
    if backend == "dict":
        request.getfixturevalue("dict_tables")
    copies = count_row_copies(monkeypatch)
    cluster = Cluster(tiny_config(protocol, durability=scheme), tiny_ycsb())
    logs = [server.log for server in cluster.servers.values()]
    cluster.start()
    high_water = 0
    for now in range(1_000, 17_000, 500):
        cluster.env.run(until=float(now))
        live, carrying = live_log_records()
        # Appended and not yet durable: the unflushed tail plus the batch a
        # flush is replicating (``durable_lsn`` moves when the flush ends).
        assert live <= sum(log.last_lsn - log.durable_lsn for log in logs)
        assert carrying == 0
        high_water = max(high_water, live)

    assert copies == []
    appended = sum(log.last_lsn for log in logs)
    assert appended > 0
    if scheme != "none":   # the one scheme that never flushes keeps its tail
        assert appended > 4 * high_water


@pytest.mark.parametrize("protocol", ["primo", "sundial"])
def test_a_crash_plan_keeps_undo_images_and_no_redo_list(protocol, monkeypatch):
    copies = count_row_copies(monkeypatch)
    config = tiny_config(protocol, duration_us=20_000.0, heartbeat_interval_us=500.0,
                         heartbeat_timeout_us=2_000.0)
    cluster = Cluster(config, tiny_ycsb(), faults=[fault("crash", at_us=10_000.0, target=1)])
    # Under WM the watermark ticks forget history from about 5 ms on, and a
    # drained run has forgotten all of it: look before anything is forgotten.
    cluster.start()
    cluster.env.run(until=4_000.0)
    logs = [server.log for server in cluster.servers.values()]
    assert all(len(log.records()) == log.last_lsn for log in logs)

    writesets = [record for log in logs for record in log.records(LogRecordKind.WRITESET)]
    assert writesets
    # One flat (table, key, image) tuple per record; a ycsb row is columnar,
    # so its image is a tuple of column values (None: an insert).
    assert all(type(record.payload) is tuple and len(record.payload) % 3 == 0
               for record in writesets)
    images = [image for record in writesets for _, _, image in record.undo_images()]
    assert any(type(image) is tuple for image in images)
    assert all(image is None or type(image) is tuple for image in images)
    # The images are copies of the rows, taken at install by undo_image().
    assert copies and set(copies) == {(ColumnarRecord, "undo_image")}
    if protocol == "primo":
        decisions = [record for log in logs
                     for record in log.records(LogRecordKind.COMMIT_DECISION)]
        assert decisions
        # {partition: tuple of shipped writes}, no wrapper.
        assert all(type(record.payload) is dict and record.payload
                   and all(type(partition) is int and type(writes) is tuple
                           for partition, writes in record.payload.items())
                   for record in decisions)

    result = cluster.run()
    assert elections(cluster) >= 1 and result.committed > 0
    # The crash, the rollback and the re-delivery copied no row either.
    assert set(copies) == {(ColumnarRecord, "undo_image")}


#: primo at ``tiny`` under three fault plans, (workload, plan) -> (config
#: overrides, faults).  TPC-C runs shorter windows to keep tier-1 fast; each
#: window is long enough that some recovery finds history already forgotten.
FAULTED = {
    ("ycsb", "one_crash"): ({"duration_us": 30_000.0},
                            [fault("crash", at_us=10_000.0, target=1)]),
    ("ycsb", "standard_storm"): ({"duration_us": 40_000.0},
                                 standard_storm(2_000.0, 40_000.0)),
    ("ycsb", "rolling_crashes"): ({"n_partitions": 3, "duration_us": 40_000.0},
                                  [fault("crash", at_us=8_000.0, target=1),
                                   fault("crash", at_us=24_000.0, target=2)]),
    ("tpcc", "one_crash"): ({"duration_us": 15_000.0},
                            [fault("crash", at_us=9_000.0, target=1)]),
    ("tpcc", "standard_storm"): ({"duration_us": 20_000.0},
                                 standard_storm(2_000.0, 20_000.0)),
    ("tpcc", "rolling_crashes"): ({"n_partitions": 3, "duration_us": 16_000.0},
                                  [fault("crash", at_us=4_000.0, target=1),
                                   fault("crash", at_us=10_000.0, target=2)]),
}


def run_faulted(workload, plan):
    overrides, faults = FAULTED[workload, plan]
    cluster = build(ScenarioSpec(
        protocol="primo", workload=workload, scale="tiny", faults=faults,
        config_overrides={"heartbeat_interval_us": 500.0, "heartbeat_timeout_us": 2_000.0,
                          **overrides}))
    return cluster, cluster.run()


@pytest.mark.parametrize("workload, plan", sorted(FAULTED))
def test_forgetting_log_history_changes_no_result(workload, plan, monkeypatch):
    """Each result document is byte-identical with the forgetting a no-op.

    On the ycsb storm the forgetting run also retains a tenth of what it
    appended at most."""
    forgotten = []
    rollback = RecoveryCoordinator._rollback_partition

    def spy(recovery, server, agreed):
        forgotten.append(server.log.last_lsn - len(server.log.records()))
        return rollback(recovery, server, agreed)

    monkeypatch.setattr(RecoveryCoordinator, "_rollback_partition", spy)
    cluster, bounded = run_faulted(workload, plan)
    assert max(forgotten) > 0    # some rollback ran on a log that had forgotten records
    if (workload, plan) == ("ycsb", "standard_storm"):
        logs = [server.log for server in cluster.servers.values()]
        retained = sum(len(log.records()) for log in logs)
        assert retained <= 0.1 * sum(log.last_lsn for log in logs)
    monkeypatch.setattr(LogManager, "forget", lambda log, *floors: None)
    _, unbounded = run_faulted(workload, plan)
    assert (json.dumps(bounded.to_json_dict(), sort_keys=True)
            == json.dumps(unbounded.to_json_dict(), sort_keys=True))
