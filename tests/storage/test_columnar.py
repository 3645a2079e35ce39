"""Tests for the columnar storage backend (fixed-schema tables).

The columnar table must read and update like the ``Table``/``Record``
interface it stands in for: same values, same missing-key errors, same
record semantics — just arrays instead of boxed objects over the dense keys
``0..n-1``, and no cells at all for a loaded row until it is first accessed.
The memory tests pin the reason the backend exists: a several-fold smaller
footprint per touched row, and a 4-byte slot for a row no transaction
touches.
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


def loaded(row, n=1):
    """A columnar table holding ``n`` copies of ``row`` at keys ``0..n-1``."""
    table = make_table()
    table.insert_many(range(n), row)
    return table


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
        table.insert_many(range(1), {"a": 1, "b": 2.5})
    assert columnar.get(0).value == reference.get(0).value == {"a": 1, "b": 2.5}
    assert columnar.get(7) is None and reference.get(7) is None
    with pytest.raises(TableError):
        columnar.require(7)
    assert len(columnar) == 1
    assert 0 in columnar and 7 not in columnar


def test_duplicate_insert_rejected():
    table = loaded({"a": 1, "b": 0.0})
    with pytest.raises(TableError):
        table.insert_many(range(1), {"a": 2, "b": 0.0})
    assert len(table) == 1 and table.get(0).value == {"a": 1, "b": 0.0}


def test_unknown_column_raises_table_error():
    table = make_table()
    with pytest.raises(TableError, match="not in the fixed schema"):
        table.insert_many(range(1), {"a": 1, "c": 2})
    table.insert_many(range(1), {"a": 1, "b": 0.0})
    with pytest.raises(TableError, match="not in the fixed schema"):
        table.get(0).install_fields({"c": 5}, ts=1.0)


def test_non_numeric_value_rolls_back_cleanly():
    table = make_table()
    with pytest.raises(TableError, match="numeric"):
        table.insert_many(range(2), {"a": "oops", "b": 0.0})
    # Nothing was loaded: the table still takes its one load.
    assert len(table) == 0
    table.insert_many(range(2), {"a": 2, "b": 0.0})
    assert table.get(1).value == {"a": 2, "b": 0.0}


def test_non_numeric_write_to_an_existing_row_raises_table_error():
    """Writes report a bad value the way loads do, not as a raw TypeError."""
    record = loaded({"a": 1, "b": 0.0}).get(0)
    message = "column 'a' of columnar table 't' is numeric; got 'x'"
    with pytest.raises(TableError, match=message):
        record.install_fields({"a": "x"}, ts=1.0)
    # The failed write installed nothing: timestamps and version are untouched.
    assert (record.wts, record.rts, record.version) == (0.0, 0.0, 0)
    assert record.value == {"a": 1, "b": 0.0}


def rectangular(table):
    """The physical arrays hold one cell per materialized row each (plus a
    loaded table's template row, slot 0), and the slot array one entry per row."""
    lengths = {len(arr) for _, arr in table._columns}
    lengths |= {len(table._wts), len(table._rts), len(table._version)}
    return len(lengths) == 1 and len(table._slot) == len(table)


@pytest.mark.parametrize("huge, col", [(2**70, "a"), (-2**70, "a"), (10**400, "b")],
                         ids=["int_too_large", "int_too_small", "float_overflow"])
def test_out_of_range_value_is_a_table_error_like_a_non_numeric_one(huge, col):
    """``array`` raises OverflowError, not TypeError, for an int that does not
    fit the 64-bit cell; it must change nothing and report the same way."""
    good = {"a": 1, "b": 0.0}
    bad = {**good, col: huge}
    message = f"column '{col}' of columnar table 't' is numeric; got {huge}"
    record = loaded(good).get(0)
    with pytest.raises(TableError, match=message):
        record.install_fields({col: huge}, ts=1.0)
    assert (record.wts, record.rts, record.version) == (0.0, 0.0, 0)
    assert record.value == good

    dense = make_table()
    with pytest.raises(TableError, match=message):
        dense.insert_many(range(4), bad)     # nothing loaded
    assert len(dense) == 0 and rectangular(dense)
    assert len(dense._wts) == 0  # no template row was written
    dense.insert_many(range(4), good)
    assert len(dense) == 4 and rectangular(dense)
    # A template row takes the same errors once materialized.
    with pytest.raises(TableError, match=message):
        dense.get(1).install_fields({col: huge}, ts=1.0)
    assert dense.get(1).value == dense.get(2).value == good and rectangular(dense)


# -- record semantics ----------------------------------------------------------

def test_record_install_updates_timestamps_and_version():
    record = loaded({"a": 1, "b": 0.0}).get(0)
    assert record.wts == 0.0 and record.rts == 0.0 and record.version == 0
    record.install_fields({"a": 2}, ts=7.0)
    assert record.value == {"a": 2, "b": 0.0}
    assert record.wts == 7.0 and record.rts == 7.0 and record.version == 1


def test_record_install_fields_merges_columns():
    record = loaded({"a": 1, "b": 2.0}).get(0)
    record.install_fields({"b": 5.0}, ts=3.0)
    assert record.value == {"a": 1, "b": 5.0}
    assert record.wts <= 3.0 <= record.rts


def test_record_extend_rts_never_shrinks():
    record = loaded({"a": 0, "b": 0.0}).get(0)
    record.install_fields({}, ts=5.0)
    record.extend_rts(3.0)
    assert record.rts == 5.0
    record.extend_rts(9.0)
    assert record.rts == 9.0
    assert record.wts <= 7.0 <= record.rts and not record.wts <= 4.0 <= record.rts


def test_record_snapshot_is_a_copy_and_get_defaults():
    record = loaded({"a": 1, "b": 2.0}).get(0)
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
    table.insert_many(range(1), {"a": 1, "b": 2.5})
    record = table.get(0)
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
    row = {"a": 1, "b": 0.0}
    table, other_table = loaded(row, 2), loaded(row, 2)
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


# -- dense keys: the key is the row --------------------------------------------

def test_dense_mode_stores_no_key_objects():
    table = make_table()
    table.insert_many(range(100), {"a": 0, "b": 0.0})
    assert table.nbytes == table._slot.itemsize * 100  # slots only, no keys
    assert list(table.keys()) == list(range(100))
    assert [r.key for r in table.records()][:3] == [0, 1, 2]


@pytest.mark.parametrize("key", [-1, 3, 2.0, "0", (0,), None],
                         ids=["negative", "past_the_end", "float", "str", "tuple", "none"])
def test_a_key_outside_the_dense_range_is_absent(key):
    table = make_table()
    table.insert_many(range(3), {"a": 0, "b": 0.0})
    assert key not in table and table.get(key) is None
    with pytest.raises(TableError, match="not found"):
        table.require(key)
    assert len(table._wts) - 1 == 0  # nothing was materialized beside the template row


# -- template rows: bulk-loaded, materialized on first access ------------------

def test_membership_length_and_keys_materialize_nothing():
    table = make_table()
    table.insert_many(range(100), {"a": 3, "b": 0.5})
    before = table.nbytes
    assert 0 in table and 99 in table and 100 not in table and "x" not in table
    assert len(table) == 100
    assert list(table.keys()) == list(range(100))
    assert table.nbytes == before and len(table._wts) - 1 == 0


def test_bulk_loaded_table_behaves_like_a_dict_table_under_a_seeded_sequence():
    """Every operation a run or a recovery applies to a loaded row, in random
    key order: the columnar table must read like the dict reference
    throughout, whichever rows happen to be materialized."""
    rng = random.Random(1234)
    columnar, reference = make_table(), Table("t")
    for table in (columnar, reference):
        table.insert_many(range(80), {"a": 3, "b": 0.5})
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
            for table in (columnar, reference):
                with pytest.raises(TableError, match="not found"):
                    table.require(key)
            continue
        op = rng.choice(("read", "install_row", "install_fields", "extend_rts",
                         "restore"))
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
        elif op == "restore":
            images = [record.undo_image() for record in pair]
            for record, image in zip(pair, images):
                record.install_fields({"a": row["a"]}, ts)
                record.restore(image)
        mine, theirs = columnar.get(key), reference.get(key)
        assert mine.read() == theirs.read()
        assert len(columnar) == len(reference)
        assert list(columnar.keys()) == list(reference.keys())
    # The rows never operated on still cost only their slot, which names slot 0.
    assert [row for row, slot in enumerate(columnar._slot) if slot == 0] == sorted(
        set(range(80)) - set(touched))
    assert rectangular(columnar)
    for key in reference.keys():
        assert columnar.get(key).read() == reference.get(key).read()


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


def load(table):
    """The loaders' call: on a dict table, one boxed record per key."""
    table.insert_many(range(N_MEMORY_ROWS), ROW)
    return table


def load_and_touch(table):
    """Load, then ``get`` every row, which gives each columnar row its cells."""
    load(table)
    get = table.get
    for key in range(N_MEMORY_ROWS):
        get(key)
    return table


def test_columnar_rows_are_at_least_4_5x_smaller_than_dict_rows():
    """Rows a transaction has touched, at a CI-friendly size: 40 B of cells
    and metadata plus a 4-byte slot against ≈ 228 B for a dict row (4.94x
    on Python 3.11)."""
    dict_bytes = traced_bytes(lambda: load_and_touch(Table("d")))
    columnar_bytes = traced_bytes(lambda: load_and_touch(ColumnarTable("c", SCHEMA)))
    assert columnar_bytes * 4.5 <= dict_bytes, (
        f"columnar rows should be >=4.5x smaller: {columnar_bytes:,} B vs "
        f"{dict_bytes:,} B for {N_MEMORY_ROWS:,} rows"
    )


def test_untouched_bulk_loaded_rows_are_at_least_40x_smaller_than_dict_rows():
    """What the million-key tiers hold for every row no transaction reads:
    its 4-byte slot."""
    dict_bytes = traced_bytes(lambda: load(Table("d")))
    columnar_bytes = traced_bytes(lambda: load(ColumnarTable("c", SCHEMA)))
    assert columnar_bytes * 40 <= dict_bytes, (
        f"untouched bulk-loaded rows should be >=40x smaller: {columnar_bytes:,} B "
        f"vs {dict_bytes:,} B for {N_MEMORY_ROWS:,} rows"
    )
