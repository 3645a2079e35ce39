"""Integration tests for the million-key scale tiers and the columnar backend.

Pins the plumbing the ``xlarge``/``web`` tiers depend on: the tiers are
registered scales, fixed-schema workloads get columnar tables (and TPC-C
keeps the dict reference), the ``dict_tables`` fixture forces a bit-identical
A/B run, and fault-free runs drop log history (the other half of the memory
budget) while faulted runs keep it for recovery.
"""

import json

import pytest

import repro
from repro.scales import SCALES, resolve_scale
from repro.scenario import ScenarioSpec, build, run
from repro.storage.columnar import ColumnarTable
from repro.storage.table import Table
from repro.workloads.ycsb import TABLE as YCSB_TABLE, YCSBWorkload


def tiny(workload: str, **kwargs) -> ScenarioSpec:
    return ScenarioSpec(protocol="primo", workload=workload, scale="tiny", **kwargs)


# -- tier registration ---------------------------------------------------------

def test_million_key_tiers_are_registered_scales():
    assert "xlarge" in SCALES and "web" in SCALES
    xlarge, web = resolve_scale("xlarge"), resolve_scale("web")
    # 4 partitions x keys_per_partition = 1M / 5M YCSB keys.
    assert xlarge.ycsb_keys_per_partition == 250_000
    assert web.ycsb_keys_per_partition == 1_250_000
    # 200 / 500 concurrent clients across the default 4 partitions.
    assert 4 * xlarge.workers_per_partition * xlarge.inflight_per_worker == 200
    assert 4 * web.workers_per_partition * web.inflight_per_worker == 500


def test_scenario_spec_accepts_the_new_tiers():
    spec = ScenarioSpec(protocol="primo", workload="ycsb", scale="xlarge")
    assert resolve_scale(spec.scale).name == "xlarge"


# -- backend selection ---------------------------------------------------------

def test_fixed_schema_workloads_get_columnar_tables():
    cluster = build(tiny("ycsb"))
    for server in cluster.servers.values():
        assert isinstance(server.store.table(YCSB_TABLE), ColumnarTable)
    cluster = build(tiny("smallbank"))
    for server in cluster.servers.values():
        assert isinstance(server.store.table("checking"), ColumnarTable)
        assert isinstance(server.store.table("savings"), ColumnarTable)


def test_dynamic_schema_workload_keeps_dict_tables():
    cluster = build(tiny("tpcc"))
    for server in cluster.servers.values():
        for name in server.store.tables:
            assert isinstance(server.store.table(name), Table), name


def test_a_spec_still_carrying_the_removed_selector_is_rejected():
    with pytest.raises(ValueError, match="unknown config override 'storage_backend'"):
        tiny("ycsb", config_overrides={"storage_backend": "dict"})


# -- backend parity ------------------------------------------------------------

@pytest.mark.parametrize("workload", ["ycsb", "smallbank"])
def test_columnar_and_dict_backends_are_bit_identical(workload, request):
    """The columnar backend must not change simulation semantics at all."""
    auto = run(tiny(workload)).to_json_dict()
    request.getfixturevalue("dict_tables")
    cluster = build(tiny(workload))
    for server in cluster.servers.values():
        assert all(isinstance(server.store.table(name), Table)
                   for name in server.store.tables)
    assert cluster.run().to_json_dict() == auto


def _load_per_row(table, columns, rows):
    """The reference loader: one ``insert`` of a row dict per row."""
    for key, cells in rows:
        table.insert(key, dict(zip(columns, cells)))


@pytest.mark.parametrize("backend", ["auto", "dict"])
@pytest.mark.parametrize("workload", ["ycsb", "smallbank", "tpcc", "tatp"])
def test_bulk_load_and_per_row_load_are_byte_identical(workload, backend, monkeypatch, request):
    """``Table.load`` (and ``insert_many`` on top of it) is only a faster way
    to run the loaders' insert loop: a bulk load on either backend runs like
    a per-row load of dict tables."""
    if backend == "dict":
        request.getfixturevalue("dict_tables")
    spec = tiny(workload)
    bulk = json.dumps(run(spec).to_json_dict(), sort_keys=True)
    request.getfixturevalue("dict_tables")
    monkeypatch.setattr(Table, "load", _load_per_row)
    assert json.dumps(run(spec).to_json_dict(), sort_keys=True) == bulk


def _table_state(table):
    """Everything a loaded dict table holds: keys in order, cells, metadata
    and index buckets."""
    return {
        "records": [(key, record._names, record._cells, record.wts, record.rts,
                     record.version, record.deleted)
                    for key, record in table._records.items()],
        "len": len(table),
        "indexes": {name: (index.columns, {k: list(v) for k, v in index._entries.items()})
                    for name, index in table._indexes.items()},
    }


@pytest.mark.parametrize("scale", ["tiny", "small"])
@pytest.mark.parametrize("workload", ["tpcc", "tatp"])
def test_bulk_loaded_tables_equal_per_row_inserts(workload, scale, monkeypatch):
    spec = ScenarioSpec(protocol="primo", workload=workload, scale=scale)
    bulk = build(spec)
    monkeypatch.setattr(Table, "load", _load_per_row)
    reference = build(spec)
    for partition_id, server in bulk.servers.items():
        tables = reference.servers[partition_id].store.tables
        assert list(server.store.tables) == list(tables)
        for name, table in server.store.tables.items():
            assert len(table) > 0 or name == "history"
            assert _table_state(table) == _table_state(tables[name]), name


def _insert_new_key(workload, operations):
    """YCSB logic that inserts one key past the loaded population."""
    def logic(ctx):
        yield from ctx.insert(operations[0][0], YCSB_TABLE, 10**9, {"field0": 1})

    return logic


def test_a_run_that_inserts_into_a_schema_table_raises(monkeypatch, request):
    """A columnar table holds a fixed population: a schema workload that
    inserts stops the run, where the same workload on dict tables completes."""
    monkeypatch.setattr(YCSBWorkload, "make_logic", _insert_new_key)
    with pytest.raises(AttributeError, match="'ColumnarTable' object has no attribute 'insert'"):
        repro.run(tiny("ycsb"))
    request.getfixturevalue("dict_tables")
    assert repro.run(tiny("ycsb")).committed > 0


# -- log retention (the other half of the memory budget) -----------------------

def test_fault_free_runs_drop_log_history():
    cluster = build(tiny("ycsb"))
    cluster.run()
    for server in cluster.servers.values():
        assert not server.log.retain_history
        with pytest.raises(RuntimeError, match="log history was not retained"):
            server.log.records()


def test_faulted_runs_keep_log_history_for_recovery():
    spec = tiny("ycsb", faults=[{"kind": "crash", "at_us": 4_000, "target": 1}])
    cluster = build(spec)
    for server in cluster.servers.values():
        assert server.log.retain_history
    cluster.run()
    # The recovery sweep consumed the retained history without tripping the
    # fault-free guard.
    assert cluster.servers[1].log.records() is not None
