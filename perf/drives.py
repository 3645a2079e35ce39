"""Layer drives: a workload's generated inputs replayed against one layer.

Each drive calls a layer through its public API with no simulator around it
and is timed from outside, so ``ns/op`` times the exact per-commit count of
the traced run predicts the layer's ``self_us_per_commit`` (README "Drives"
says where the prediction holds).  All four take a freshly built, never run
cluster of the workload under test, so the storage drive sees that
workload's tables (columnar for ycsb, dict for tpcc) and key distribution.
"""

from __future__ import annotations

import gc
import statistics
import time
from types import SimpleNamespace

__all__ = ["run_drives"]

#: Transactions generated per drive (each touches ~10-30 keys).
N_SPECS = 20_000
N_TIMEOUTS = 100_000
N_RECORDS = 10_000
REPEATS = 5


def _median_ns(body, ops: int) -> float:
    """Median over REPEATS of ``body()``'s wall time, in ns per op."""
    times = []
    for _ in range(REPEATS):
        gc.collect()
        start = time.perf_counter()
        body()
        times.append(time.perf_counter() - start)
    return statistics.median(times) / ops * 1e9


class _KeyRecorder:
    """Stands in for a ``TxnContext``: reads come straight from the store,
    writes are dropped, and every key the logic reads or updates is kept."""

    def __init__(self, cluster):
        self.protocol = SimpleNamespace(cluster=cluster)
        self._server_of = cluster.server_of
        self.accesses: list = []

    def _table(self, partition, table):
        return self._server_of(partition).store.table(table)

    def read(self, partition, table, key):
        self.accesses.append((partition, table, key))
        record = self._table(partition, table).get(key)
        return None if record is None else record.snapshot()
        yield  # pragma: no cover - makes this a generator, like the real one

    read_for_update = read

    def update(self, partition, table, key, updates):
        self.accesses.append((partition, table, key))
        return
        yield  # pragma: no cover

    def insert(self, partition, table, key, value):
        return
        yield  # pragma: no cover

    def delete(self, partition, table, key):
        return
        yield  # pragma: no cover

    def index_lookup(self, partition, table, index, index_key):
        return self._table(partition, table).index_lookup(index, index_key)
        yield  # pragma: no cover


def _drive_specs(cluster):
    """``workloads.drive_ns_per_spec``; also returns the generated specs."""
    specs: list = []

    def body():
        source = cluster.new_txn_source(0, 0)
        specs.clear()
        for _ in range(N_SPECS):
            specs.append(source.next())

    return _median_ns(body, N_SPECS), specs


def _drive_gets(cluster, specs):
    """``storage.drive_ns_per_get``: table.get(key) plus one field read."""
    recorder = _KeyRecorder(cluster)
    for spec in specs:
        for _ in spec.logic(recorder):
            pass
    tables, columns, triples = {}, {}, []
    for partition, table_name, key in recorder.accesses:
        handle = (partition, table_name)
        table = tables.get(handle)
        if table is None:
            table = tables[handle] = cluster.server_of(partition).store.table(table_name)
        record = table.get(key)
        if record is None:
            continue
        column = columns.get(handle)
        if column is None:
            column = columns[handle] = next(iter(record.snapshot()))
        triples.append((table, key, column))

    def body():
        for table, key, column in triples:
            table.get(key).get(column)

    return _median_ns(body, len(triples))


def _drive_timeouts(cluster):
    """``sim.engine.drive_ns_per_timeout``: schedule, dispatch, resume."""
    environment = type(cluster.env)
    fibers = 16
    per_fiber = N_TIMEOUTS // fibers

    def fiber(env, offset):
        for i in range(per_fiber):
            yield env.timeout(0.5 + (i + offset) % 7)

    def body():
        env = environment()
        for offset in range(fibers):
            env.process(fiber(env, offset))
        env.run()

    return _median_ns(body, per_fiber * fibers)


def _drive_records(cluster):
    """``sim.stats.drive_ns_per_record``: record + the report's percentiles."""
    recorder_cls = type(cluster.metrics.latency)
    latencies = [100.0 + (i * 7919) % 10_007 for i in range(N_RECORDS)]

    def body():
        recorder = recorder_cls()
        record = recorder.record
        for latency in latencies:
            record(latency)
        recorder.p50, recorder.p99

    return _median_ns(body, N_RECORDS)


def run_drives(cluster) -> tuple[dict, dict]:
    """All four drives: ``(metric -> ns/op, metric -> why it is missing)``.

    A drive that raises — a layer's API moved — reads as missing, with the
    error kept, instead of taking the traced run down with it.
    """
    values, errors = {}, {}
    specs: list = []

    def attempt(name, drive):
        try:
            values[name] = drive()
        except Exception as exc:  # a moved API must not fail the benchmark
            errors[name] = f"drive failed: {type(exc).__name__}: {exc}"

    def spec_drive():
        ns, generated = _drive_specs(cluster)
        specs.extend(generated)
        return ns

    attempt("workloads.drive_ns_per_spec", spec_drive)
    attempt("storage.drive_ns_per_get", lambda: _drive_gets(cluster, specs))
    attempt("sim.engine.drive_ns_per_timeout", lambda: _drive_timeouts(cluster))
    attempt("sim.stats.drive_ns_per_record", lambda: _drive_records(cluster))
    return values, errors
