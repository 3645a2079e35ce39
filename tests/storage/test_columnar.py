"""Tests for the columnar storage backend (fixed-schema tables).

The columnar table must be a drop-in behind the ``Table``/``Record``
interface: same values, same unique-key/missing-key errors, same record
semantics — just arrays instead of boxed objects, and no cells at all for a
bulk-loaded row until it is first accessed.  The memory tests pin the reason
the backend exists: a several-fold smaller footprint per row, and a 4-byte
slot for a row no transaction touches.
"""

import random
import tracemalloc

import pytest

from repro.storage.columnar import ColumnarRecord, ColumnarTable, TableSchema
from repro.storage.lock import LockManager, LockMode
from repro.storage.partition import PartitionStore
from repro.storage.table import Table, TableError
from repro.sim.engine import Environment
from repro.txn.transaction import TxnId

SCHEMA = TableSchema((("a", "i"), ("b", "f")))


def make_table():
    return ColumnarTable("t", SCHEMA)


# -- schema validation ---------------------------------------------------------

def test_schema_rejects_bad_kind_duplicate_and_empty():
    with pytest.raises(ValueError):
        TableSchema((("x", "s"),))
    with pytest.raises(ValueError):
        TableSchema((("x", "i"), ("x", "f")))
    with pytest.raises(ValueError):
        TableSchema(())


# -- Table interface parity ----------------------------------------------------

def test_insert_get_require_matches_dict_table():
    columnar, reference = make_table(), Table("t")
    for table in (columnar, reference):
        table.insert(0, {"a": 1, "b": 2.5})
    assert columnar.get(0).value == reference.get(0).value == {"a": 1, "b": 2.5}
    assert columnar.get(7) is None and reference.get(7) is None
    with pytest.raises(TableError):
        columnar.require(7)
    assert len(columnar) == 1
    assert 0 in columnar and 7 not in columnar


def test_duplicate_insert_rejected():
    table = make_table()
    table.insert(0, {"a": 1, "b": 0.0})
    with pytest.raises(TableError):
        table.insert(0, {"a": 2, "b": 0.0})


def test_delete_hides_and_reinsert_reuses_the_row():
    table = make_table()
    table.insert(0, {"a": 1, "b": 0.0})
    table.insert(1, {"a": 2, "b": 0.0})
    table.delete(0)
    assert table.get(0) is None and 0 not in table
    assert list(table.keys()) == [1]
    rows_before = table._n_rows
    table.insert(0, {"a": 9, "b": 9.0})  # tombstone reuse, no new row
    assert table._n_rows == rows_before
    assert table.get(0).value == {"a": 9, "b": 9.0}
    assert len(table) == 2


def test_upsert_overwrites_and_revives():
    table = make_table()
    table.insert(0, {"a": 1, "b": 1.0})
    table.upsert(0, {"a": 2, "b": 2.0})
    assert table.get(0).value == {"a": 2, "b": 2.0}
    table.delete(0)
    table.upsert(0, {"a": 3, "b": 3.0})
    assert table.get(0).value == {"a": 3, "b": 3.0}
    assert len(table) == 1


def test_unknown_column_raises_table_error():
    table = make_table()
    with pytest.raises(TableError, match="not in the fixed schema"):
        table.insert(0, {"a": 1, "c": 2})
    table.insert(0, {"a": 1, "b": 0.0})
    with pytest.raises(TableError, match="not in the fixed schema"):
        table.get(0).install_fields({"c": 5}, ts=1.0)


def test_non_numeric_value_rolls_back_cleanly():
    table = make_table()
    table.insert(0, {"a": 1, "b": 0.0})
    with pytest.raises(TableError, match="numeric"):
        table.insert(1, {"a": "oops", "b": 0.0})
    # Nothing was appended: arrays stay rectangular and the next insert works.
    assert table._n_rows == 1
    table.insert(1, {"a": 2, "b": 0.0})
    assert table.get(1).value == {"a": 2, "b": 0.0}


def test_non_numeric_write_to_an_existing_row_raises_table_error():
    """Overwrites report a bad value the way appends do, not as a raw TypeError."""
    table = make_table()
    record = table.insert(0, {"a": 1, "b": 0.0})
    message = "column 'a' of columnar table 't' is numeric; got 'x'"
    with pytest.raises(TableError, match=message):
        record.install_fields({"a": "x"}, ts=1.0)
    with pytest.raises(TableError, match=message):
        record.value = {"a": "x"}
    with pytest.raises(TableError, match=message):
        table.upsert(0, {"a": "x"})
    # The failed writes installed nothing: timestamps and version are untouched.
    assert (record.wts, record.rts, record.version) == (0.0, 0.0, 0)
    table.delete(0)
    with pytest.raises(TableError, match=message):
        table.insert(0, {"a": "x"})  # tombstone re-insert overwrites in place
    assert table.get(0) is None and len(table) == 0


def rectangular(table):
    """The physical arrays hold one cell per materialized row each, and the
    slot array one entry per row."""
    lengths = {len(arr) for _, arr in table._columns}
    lengths |= {len(table._wts), len(table._rts), len(table._version),
                len(table._deleted)}
    return len(lengths) == 1 and len(table._slot) == table._n_rows


@pytest.mark.parametrize("huge, col", [(2**70, "a"), (-2**70, "a"), (10**400, "b")],
                         ids=["int_too_large", "int_too_small", "float_overflow"])
def test_out_of_range_value_is_a_table_error_like_a_non_numeric_one(huge, col):
    """``array`` raises OverflowError, not TypeError, for an int that does not
    fit the 64-bit cell; it must change nothing and report the same way."""
    good = {"a": 1, "b": 0.0}
    bad = {**good, col: huge}
    message = f"column '{col}' of columnar table 't' is numeric; got {huge}"
    table = make_table()
    record = table.insert(0, good)

    with pytest.raises(TableError, match=message):
        table.insert(1, bad)            # append path: nothing appended
    assert table._n_rows == 1 and rectangular(table) and table._dense
    with pytest.raises(TableError, match=message):
        table.insert("k", bad)          # sparse append: rejected before the key map
    assert table._n_rows == 1 and rectangular(table) and table.get("k") is None
    assert table._dense
    with pytest.raises(TableError, match=message):
        table.insert_many([1, 2], bad)  # per-row loop
    assert table._n_rows == 1 and rectangular(table)
    with pytest.raises(TableError, match=message):
        record.install_fields({col: huge}, ts=1.0)
    with pytest.raises(TableError, match=message):
        table.upsert(0, bad)
    assert (record.wts, record.rts, record.version) == (0.0, 0.0, 0)
    table.delete(0)
    with pytest.raises(TableError, match=message):
        table.insert(0, bad)            # tombstone re-insert overwrites in place
    assert table.get(0) is None and len(table) == 0
    table.insert(2, good)
    assert table.get(2).value == good and rectangular(table)

    dense = make_table()
    with pytest.raises(TableError, match=message):
        dense.insert_many(range(4), bad)  # vectorised path: appends nothing
    assert dense._n_rows == 0 and len(dense) == 0 and rectangular(dense)
    assert not dense._template_cells
    dense.insert_many(range(4), good)
    assert len(dense) == 4 and rectangular(dense)
    # A template row takes the same errors once materialized.
    with pytest.raises(TableError, match=message):
        dense.get(1).install_fields({col: huge}, ts=1.0)
    with pytest.raises(TableError, match=message):
        dense.upsert(2, bad)
    assert dense.get(1).value == dense.get(2).value == good and rectangular(dense)


# -- record semantics ----------------------------------------------------------

def test_record_install_updates_timestamps_and_version():
    table = make_table()
    record = table.insert(0, {"a": 1, "b": 0.0})
    assert record.wts == 0.0 and record.rts == 0.0 and record.version == 0
    record.install_fields({"a": 2}, ts=7.0)
    assert record.value == {"a": 2, "b": 0.0}
    assert record.wts == 7.0 and record.rts == 7.0 and record.version == 1


def test_record_install_fields_merges_columns():
    table = make_table()
    record = table.insert(0, {"a": 1, "b": 2.0})
    record.install_fields({"b": 5.0}, ts=3.0)
    assert record.value == {"a": 1, "b": 5.0}
    assert record.valid_at(3.0)


def test_record_extend_rts_never_shrinks():
    table = make_table()
    record = table.insert(0, {"a": 0, "b": 0.0})
    record.install_fields({}, ts=5.0)
    record.extend_rts(3.0)
    assert record.rts == 5.0
    record.extend_rts(9.0)
    assert record.rts == 9.0
    assert record.valid_at(7.0) and not record.valid_at(4.0)


def test_record_snapshot_is_a_copy_and_get_defaults():
    table = make_table()
    record = table.insert(0, {"a": 1, "b": 2.0})
    snapshot = record.snapshot()
    snapshot["a"] = 99
    assert record.value["a"] == 1
    assert record.get("a") == 1
    assert record.get("nope", "dflt") == "dflt"


@pytest.mark.parametrize("backend", ["columnar", "dict"])
def test_restore_of_an_undo_image_puts_the_row_back_exactly(backend):
    """The §5.2 rollback's contract: an image taken before a write restores
    every column — one the write did not touch included — and no metadata."""
    table = make_table() if backend == "columnar" else Table("t")
    record = table.insert(0, {"a": 1, "b": 2.5})
    image = record.undo_image()
    # Columnar: the column values in schema order; dict: the (names, cells) pair.
    expected = (1, 2.5) if backend == "columnar" else (("a", "b"), (1, 2.5))
    assert image == expected
    record.install_fields({"a": 7}, ts=3.0)
    record.install_fields({"b": 9.0}, ts=4.0)     # a column the first write did not touch
    record.restore(image)
    assert record.value == {"a": 1, "b": 2.5}
    assert type(record.get("a")) is int and type(record.get("b")) is float
    assert (record.wts, record.rts, record.version) == (4.0, 4.0, 2)
    # Neither side aliases the other afterwards.
    record.install_fields({"a": 8}, ts=5.0)
    assert image == expected and record.get("a") == 8


def test_views_of_one_row_share_state_and_identity():
    """Two handles of one row are the same record to the lock manager."""
    table, other_table = make_table(), make_table()
    for t in (table, other_table):
        t.insert(0, {"a": 1, "b": 0.0})
        t.insert(1, {"a": 2, "b": 0.0})
    first, second = table.get(0), table.get(0)
    assert first is not second and type(second) is ColumnarRecord
    assert first == second and hash(first) == hash(second)
    assert len({first, second}) == 1  # the lock table and held-lock dicts rely on this
    assert first != table.get(1)
    assert first != other_table.get(0)
    assert first.key == 0 and table.get(1).key == 1
    first.wts = 42.0
    assert second.wts == 42.0  # write-through to the shared arrays
    # A lock taken through one handle is released through the other.
    manager = LockManager(Environment())
    tid = TxnId(1, 0)
    assert manager.acquire_nowait(tid, first, LockMode.EXCLUSIVE) is True
    assert manager.held_by(tid, second) is LockMode.EXCLUSIVE
    assert not manager.is_locked(other_table.get(0))
    manager.release(tid, second)
    assert not manager.is_locked(first) and manager.locks_held(tid) == set()
    assert not manager._table


# -- dense keys and sparse fallback --------------------------------------------

def test_dense_mode_stores_no_key_objects():
    table = make_table()
    for key in range(100):
        table.insert(key, {"a": key, "b": 0.0})
    assert table._dense and table._keys is None and table._key_rows is None
    assert list(table.keys()) == list(range(100))
    assert [r.key for r in table.records()][:3] == [0, 1, 2]


@pytest.mark.parametrize("odd_key", [5, "user7", -3])
def test_out_of_order_key_falls_back_to_sparse(odd_key):
    table = make_table()
    table.insert(0, {"a": 0, "b": 0.0})
    table.insert(1, {"a": 1, "b": 0.0})
    table.insert(odd_key, {"a": 9, "b": 0.0})
    assert not table._dense
    # Pre-existing rows keep their keys; the odd key resolves too.
    assert table.get(0).value["a"] == 0
    assert table.get(1).value["a"] == 1
    assert table.get(odd_key).value["a"] == 9
    assert list(table.keys()) == [0, 1, odd_key]


def test_sparse_fallback_preserves_record_identity():
    table = make_table()
    table.insert(0, {"a": 0, "b": 0.0})
    before = table.get(0)
    table.insert("odd", {"a": 1, "b": 0.0})
    after = table.get(0)
    assert before == after  # same (table, row) even across the mode switch


# -- secondary indexes ---------------------------------------------------------

def test_secondary_index_tracks_insert_delete_upsert():
    table = make_table()
    table.insert(0, {"a": 1, "b": 0.0})
    table.create_index("by_a", lambda row: row["a"])
    table.insert(1, {"a": 1, "b": 0.0})
    table.insert(2, {"a": 2, "b": 0.0})
    assert sorted(table.index_lookup("by_a", 1)) == [0, 1]
    table.delete(1)
    assert table.index_lookup("by_a", 1) == [0]
    table.upsert(2, {"a": 1, "b": 0.0})
    assert sorted(table.index_lookup("by_a", 1)) == [0, 2]
    assert table.index_lookup("by_a", 2) == []
    with pytest.raises(TableError):
        table.create_index("by_a", lambda row: row["a"])
    with pytest.raises(TableError):
        table.index("nope")


# -- template rows: bulk-loaded, materialized on first access ------------------

def test_membership_length_keys_and_index_materialize_nothing():
    table = make_table()
    table.insert_many(range(100), {"a": 3, "b": 0.5})
    before = table.nbytes
    assert 0 in table and 99 in table and 100 not in table and "x" not in table
    assert len(table) == 100
    assert list(table.keys()) == list(range(100))
    index = table.create_index("by_a", lambda row: (row["a"], row["b"]))
    assert index.lookup((3, 0.5)) == list(range(100))
    assert table.nbytes == before and len(table._deleted) == 0
    # A materialized, deleted row is absent to `in` without a second look.
    table.delete(7)
    assert 7 not in table and len(table._deleted) == 1 and len(table) == 99
    assert 7 not in table.index_lookup("by_a", (3, 0.5))


def test_bulk_loaded_table_behaves_like_a_dict_table_under_a_seeded_sequence():
    """Every operation a run or a recovery applies, in random key order, on
    two bulk templates: the columnar table must read like the per-row dict
    reference throughout, whichever rows happen to be materialized."""
    rng = random.Random(1234)
    templates = ({"a": 3, "b": 0.5}, {"a": -8, "b": 2.25})
    columnar, reference = make_table(), Table("t")
    columnar.insert_many(range(0, 40), templates[0])
    columnar.insert_many(range(40, 80), templates[1])
    for key in range(80):
        reference.insert(key, templates[key >= 40])
    # A tombstone reuse bumps a columnar row's version (a stale handle's
    # validation must fail); the dict table builds a fresh record at 0.
    # Versions are compared as counted from the row's latest insert.
    version_base = {}
    # Sixty of the eighty loaded keys and four past the load are operated on;
    # the other twenty are only ever seen through `in`, `len` and `keys()`.
    touched = rng.sample(range(80), 60) + [80, 81, 82, 83]
    ts = 0.0
    for _ in range(1_500):
        key = rng.choice(touched)
        ts += 1.0
        row = {"a": rng.randrange(-50, 50), "b": float(rng.randrange(100))}
        untouched = rng.randrange(80)
        assert (untouched in columnar) == (untouched in reference)
        assert (key in columnar) == (key in reference)
        pair = columnar.get(key), reference.get(key)
        assert (pair[0] is None) == (pair[1] is None)
        if pair[0] is None:
            op = rng.choice(("insert", "upsert"))
            getattr(columnar, op)(key, row)
            getattr(reference, op)(key, row)
            version_base[key] = columnar.get(key).version - reference.get(key).version
            continue
        op = rng.choice(("read", "install_row", "install_fields", "extend_rts",
                         "delete", "upsert", "restore"))
        if op == "install_row":
            for record in pair:
                record.install_fields(row, ts)
        elif op == "install_fields":
            column = rng.choice(("a", "b"))
            for record in pair:
                record.install_fields({column: row[column]}, ts)
        elif op == "extend_rts":
            bump = ts + rng.choice((-500.0, 0.0, 3.0))
            for record in pair:
                record.extend_rts(bump)
        elif op == "delete":
            columnar.delete(key)
            reference.delete(key)
        elif op == "upsert":
            columnar.upsert(key, row)
            reference.upsert(key, row)
        elif op == "restore":
            images = [record.undo_image() for record in pair]
            for record, image in zip(pair, images):
                record.install_fields({"a": row["a"]}, ts)
                record.restore(image)
        if op != "delete":
            mine, theirs = columnar.get(key), reference.get(key)
            assert mine.value == theirs.value
            assert (mine.wts, mine.rts) == (theirs.wts, theirs.rts)
            assert mine.version - version_base.get(key, 0) == theirs.version
        assert len(columnar) == len(reference)
        assert list(columnar.keys()) == list(reference.keys())
    # The rows never operated on still cost only their slot.
    assert [row for row, slot in enumerate(columnar._slot) if slot < 0] == sorted(
        set(range(80)) - set(touched))
    assert rectangular(columnar) and not columnar._dense
    for key in reference.keys():
        mine, theirs = columnar.get(key), reference.get(key)
        assert (mine.value, mine.wts, mine.rts) == (theirs.value, theirs.wts, theirs.rts)
        assert mine.version - version_base.get(key, 0) == theirs.version


# -- partition-store backend selection -----------------------------------------

def test_partition_store_selects_backend_by_schema():
    store = PartitionStore(Environment(), 0)
    assert isinstance(store.create_table("cols", schema=SCHEMA), ColumnarTable)
    assert isinstance(store.create_table("dicts"), Table)


def test_partition_store_dict_backend_overrides_schema(dict_tables):
    """The reference backend is a test fixture now, not a store option."""
    store = PartitionStore(Environment(), 0)
    assert isinstance(store.create_table("cols", schema=SCHEMA), Table)


def test_partition_store_rejects_unknown_backend():
    """The schema declaration is the only selector: no backend keyword."""
    with pytest.raises(TypeError, match="backend"):
        PartitionStore(Environment(), 0, backend="mmap")
    assert not hasattr(PartitionStore(Environment(), 0), "backend")


# -- the point of the backend: memory ------------------------------------------

N_MEMORY_ROWS = 50_000
ROW = {"a": 0, "b": 0.0}


def traced_bytes(build):
    """Bytes still allocated after ``build()``; its result is kept alive."""
    tracemalloc.start()
    try:
        base = tracemalloc.take_snapshot()
        table = build()
        grown = sum(
            s.size_diff for s in tracemalloc.take_snapshot().compare_to(base, "filename")
        )
    finally:
        tracemalloc.stop()
    assert len(table) == N_MEMORY_ROWS
    return grown


def load_per_row(table):
    for key in range(N_MEMORY_ROWS):
        table.insert(key, ROW)
    return table


def test_columnar_rows_are_at_least_4_5x_smaller_than_dict_rows():
    """Rows inserted one at a time, at a CI-friendly size: 41 B of cells and
    metadata plus a 4-byte slot against ≈ 228 B for a dict row (4.83x on
    Python 3.11)."""
    dict_bytes = traced_bytes(lambda: load_per_row(Table("d")))
    columnar_bytes = traced_bytes(lambda: load_per_row(ColumnarTable("c", SCHEMA)))
    assert columnar_bytes * 4.5 <= dict_bytes, (
        f"columnar rows should be >=4.5x smaller: {columnar_bytes:,} B vs "
        f"{dict_bytes:,} B for {N_MEMORY_ROWS:,} rows"
    )


def test_untouched_bulk_loaded_rows_are_at_least_40x_smaller_than_dict_rows():
    """What the million-key tiers hold for every row no transaction reads:
    its 4-byte slot."""
    dict_bytes = traced_bytes(lambda: load_per_row(Table("d")))

    def bulk_load():
        table = ColumnarTable("c", SCHEMA)
        table.insert_many(range(N_MEMORY_ROWS), ROW)
        return table

    columnar_bytes = traced_bytes(bulk_load)
    assert columnar_bytes * 40 <= dict_bytes, (
        f"untouched bulk-loaded rows should be >=40x smaller: {columnar_bytes:,} B "
        f"vs {dict_bytes:,} B for {N_MEMORY_ROWS:,} rows"
    )
