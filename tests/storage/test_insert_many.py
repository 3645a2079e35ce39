"""``insert_many(keys, row)`` is ``for k in keys: insert(k, row)`` on both backends.

The dict-backed table runs exactly that loop.  The columnar table records a
step-1 ``range`` that continues a dense, index-free table as template rows —
a 4-byte slot each, cells only once a row is first accessed — and takes the
loop for everything else; these tests keep the loop as the reference and
require equal state — and equal behaviour afterwards — whichever path a call
took.  (``state`` lists the records first, which materializes every row in
row order, so the raw arrays of both paths are comparable.)
"""

import sys

import pytest

from repro.storage.columnar import ColumnarTable, TableSchema
from repro.storage.table import Table, TableError

SCHEMA = TableSchema((("a", "i"), ("b", "f")))
ROW = {"a": 7, "b": 2.5}
BACKENDS = {"dict": lambda: Table("t"), "columnar": lambda: ColumnarTable("t", SCHEMA)}

#: Key collections and whether the columnar table may vectorise them when
#: they arrive at an empty table.
KEY_SHAPES = {
    "dense_range": (range(0, 50), True),
    "empty_range": (range(0, 0), True),
    "offset_range": (range(5, 55), False),
    "stepped_range": (range(0, 100, 2), False),
    "reversed_range": (range(49, -1, -1), False),
    "list_of_keys": (list(range(50)), False),
    "tuple_keys": ([(1, k) for k in range(50)], False),
}


def insert_per_row(table, keys, row):
    for key in keys:
        table.insert(key, row)


def state(table):
    """Everything a caller can observe about a table, plus the raw arrays."""
    observed = {
        "len": len(table),
        "keys": list(table.keys()),
        "records": [
            (r.key, r.value, r.wts, r.rts, r.version, r.deleted)
            for r in table.records()
        ],
    }
    if isinstance(table, ColumnarTable):
        observed.update(
            columns={name: col.tolist() for name, col in table._columns},
            wts=table._wts.tolist(),
            rts=table._rts.tolist(),
            version=table._version.tolist(),
            deleted=bytes(table._deleted),
            nbytes=table.nbytes,
            dense=table._dense,
            n_rows=table._n_rows,
        )
    return observed


def exercise(table, next_key):
    """The operations a run performs on a loaded table, ending in ``state``."""
    trace = [table.get(next_key) is None, table.get(0) is not None]
    table.insert(next_key, {"a": 1, "b": 1.0})         # the next dense key
    table.insert(next_key + 10, {"a": 2, "b": 2.0})    # out of order -> sparse
    table.delete(0)
    table.upsert(0, {"a": 3})
    table.upsert(next_key + 20, {"a": 4, "b": 4.0})
    table.get(1).install_fields({"a": 5}, ts=9.0)
    trace.append(state(table))
    return trace


def count_inserts(table):
    """Spy on a columnar table's per-row ``insert``; returns the call log."""
    calls = []
    insert = table.insert
    table.insert = lambda key, row: (calls.append(key), insert(key, row))[1]
    return calls


# -- equal state, equal behaviour afterwards -----------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("shape", KEY_SHAPES)
def test_insert_many_equals_the_per_row_loop(backend, shape):
    keys, _ = KEY_SHAPES[shape]
    bulk, reference = BACKENDS[backend](), BACKENDS[backend]()
    assert bulk.insert_many(keys, ROW) is None
    insert_per_row(reference, keys, ROW)
    assert state(bulk) == state(reference)
    if shape in ("dense_range", "list_of_keys"):
        assert exercise(bulk, 50) == exercise(reference, 50)


def test_both_backends_hold_the_same_rows_after_a_bulk_load():
    tables = [make() for make in BACKENDS.values()]
    for table in tables:
        table.insert_many(range(20), ROW)
    dict_state, columnar_state = (state(t) for t in tables)
    for field in ("len", "keys", "records"):
        assert dict_state[field] == columnar_state[field]


def test_bulk_rows_do_not_alias_the_template():
    for make in BACKENDS.values():
        table, row = make(), dict(ROW)
        table.insert_many(range(3), row)
        row["a"] = 99
        table.get(0).install_fields({"a": 1}, ts=1.0)
        assert table.get(0).value["a"] == 1
        assert table.get(1).value == ROW


def test_missing_columns_default_to_zero_like_insert():
    bulk, reference = (ColumnarTable("t", SCHEMA) for _ in range(2))
    bulk.insert_many(range(4), {"b": 1})
    insert_per_row(reference, range(4), {"b": 1})
    assert state(bulk) == state(reference)
    assert bulk.get(3).value == {"a": 0, "b": 1.0}


# -- which path a call takes ---------------------------------------------------

@pytest.mark.parametrize("shape", KEY_SHAPES)
def test_only_a_dense_continuing_range_is_vectorised(shape):
    keys, vectorised = KEY_SHAPES[shape]
    table = ColumnarTable("t", SCHEMA)
    calls = count_inserts(table)
    table.insert_many(keys, ROW)
    assert calls == ([] if vectorised else list(keys))
    assert len(table) == len(keys)


def test_second_bulk_call_on_a_dense_table_stays_vectorised():
    table, reference = (ColumnarTable("t", SCHEMA) for _ in range(2))
    table.insert(0, {"a": 1, "b": 1.0})
    reference.insert(0, {"a": 1, "b": 1.0})
    calls = count_inserts(table)
    table.insert_many(range(1, 30), ROW)
    table.insert_many(range(30, 60), {"a": 8})
    insert_per_row(reference, range(1, 30), ROW)
    insert_per_row(reference, range(30, 60), {"a": 8})
    assert calls == []
    assert state(table) == state(reference)
    assert table._dense and table.get(59).value == {"a": 8, "b": 0.0}


def test_sparse_table_takes_the_per_row_loop():
    table, reference = (ColumnarTable("t", SCHEMA) for _ in range(2))
    for t in (table, reference):
        t.insert(3, ROW)  # out of order: sparse from the first row
    calls = count_inserts(table)
    table.insert_many(range(1, 3), ROW)  # start == n_rows, but not dense
    insert_per_row(reference, range(1, 3), ROW)
    assert calls == [1, 2]
    assert state(table) == state(reference)
    assert list(table.keys()) == [3, 1, 2]


@pytest.mark.parametrize("backend", BACKENDS)
def test_secondary_index_is_populated_by_a_bulk_load(backend):
    table = BACKENDS[backend]()
    table.create_index("by_a", lambda row: row["a"])
    calls = count_inserts(table) if backend == "columnar" else None
    table.insert_many(range(10), ROW)
    assert table.index_lookup("by_a", 7) == list(range(10))
    if calls is not None:
        assert calls == list(range(10))


# -- template rows: a slot per row, cells on first access ----------------------

def test_a_bulk_load_costs_at_most_5_bytes_per_row():
    table = ColumnarTable("t", SCHEMA)
    table.insert_many(range(100_000), ROW)
    assert table.nbytes <= 5 * 100_000
    assert len(table._deleted) == 0 and len(table) == 100_000


def test_each_first_get_materializes_exactly_one_row():
    table = ColumnarTable("t", SCHEMA)
    table.insert_many(range(1_000), ROW)
    table.insert_many(range(1_000, 2_000), {"a": 1})
    assert table.nbytes == table._slot.itemsize * 2_000  # no cells yet
    for n, key in enumerate((1_999, 0, 500, 1_000, 999), start=1):
        first = table.get(key)
        assert len(table._deleted) == n and table._slot[key] == n - 1
        assert table.get(key) == first and len(table._deleted) == n  # second get: none
        assert first.value == (ROW if key < 1_000 else {"a": 1, "b": 0.0})
        assert (first.wts, first.rts, first.version) == (0.0, 0.0, 0)
    # Each materialized row costs its cells and metadata: 2 columns x 8 B,
    # wts, rts, version x 8 B and the deleted byte.
    assert table.nbytes == table._slot.itemsize * 2_000 + 5 * (5 * 8 + 1)


# -- rejected input ------------------------------------------------------------

@pytest.mark.parametrize("row, match", [
    ({"a": 1, "c": 2}, "column 'c' not in the fixed schema"),
    ({"a": 1, "b": 2.0, "c": 3}, "column 'c' not in the fixed schema"),
    ({"a": "x", "b": 0.0}, "column 'a' of columnar table 't' is numeric; got 'x'"),
    ({"a": 1, "b": "y"}, "column 'b' of columnar table 't' is numeric; got 'y'"),
    ({"a": 1.5}, "column 'a' of columnar table 't' is numeric; got 1.5"),
])
def test_rejected_template_raises_like_insert_and_appends_nothing(row, match):
    bulk, reference = (ColumnarTable("t", SCHEMA) for _ in range(2))
    for table in (bulk, reference):
        table.insert_many(range(5), ROW)
    before = state(bulk)
    calls = count_inserts(bulk)
    with pytest.raises(TableError, match=match):
        bulk.insert_many(range(5, 10), row)
    with pytest.raises(TableError, match=match):
        reference.insert(5, row)
    assert calls == []  # it was the vectorised path that refused
    assert state(bulk) == before == state(reference)
    bulk.insert_many(range(5, 10), ROW)
    assert len(bulk) == 10


def test_empty_range_checks_nothing_like_an_empty_loop():
    table = ColumnarTable("t", SCHEMA)
    table.insert_many(range(0), {"nope": "x"})
    assert len(table) == 0 and table._n_rows == 0


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("keys", [range(0, 8), range(2, 8), [5, 6, 5, 7]],
                         ids=["from_zero", "overlapping", "repeated_in_list"])
def test_duplicate_key_raises_where_the_loop_would(backend, keys):
    bulk, reference = BACKENDS[backend](), BACKENDS[backend]()
    bulk.insert_many(range(5), ROW)  # columnar: untouched template rows
    insert_per_row(reference, range(5), ROW)
    with pytest.raises(TableError, match="duplicate key"):
        bulk.insert_many(keys, ROW)
    with pytest.raises(TableError, match="duplicate key"):
        insert_per_row(reference, keys, ROW)
    assert state(bulk) == state(reference)


# -- cost: O(columns) Python-level calls, not O(rows) --------------------------

def python_level_calls(fn):
    """Function calls (Python and C) the interpreter makes while running ``fn``."""
    count = 0

    def profiler(frame, event, arg):
        nonlocal count
        if event in ("call", "c_call"):
            count += 1

    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return count


def test_bulk_load_call_count_does_not_depend_on_the_row_count():
    def bulk_load(n):
        table = ColumnarTable("t", SCHEMA)
        table.insert_many(range(n), ROW)
        assert len(table) == n

    small = python_level_calls(lambda: bulk_load(1_000))
    large = python_level_calls(lambda: bulk_load(100_000))
    assert small == large
    # The same probe does see the per-row loop, so equality above is not vacuous.
    looped = python_level_calls(
        lambda: insert_per_row(ColumnarTable("t", SCHEMA), range(1_000), ROW))
    assert looped > 10 * 1_000 > small
