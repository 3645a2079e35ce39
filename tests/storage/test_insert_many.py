"""``insert_many(keys, row)`` loads one copy of ``row`` per key.

On the dict-backed table it is one ``Table.load`` and reads like the
reference loop ``for k in keys: insert(k, row)``, except that a duplicate key
loads nothing.  A columnar table takes one load, ``range(0, n)`` into the
empty table, records it as template rows — a 4-byte slot each, 0 naming the
template row written once at slot 0, cells of its own only once a row is
first accessed — and raises :class:`TableError` for any other
key collection and for a second load, loading nothing.  These tests require
a columnar load to read like the dict load — same rows, timestamps, versions
and errors — before and after the operations a run applies.
"""

import os
import resource
import sys

import pytest

from repro.storage.columnar import ColumnarTable, TableSchema
from repro.storage.table import Table, TableError

SCHEMA = TableSchema((("a", "i"), ("b", "f")))
ROW = {"a": 7, "b": 2.5}
BACKENDS = {"dict": lambda: Table("t"), "columnar": lambda: ColumnarTable("t", SCHEMA)}

#: Key collections, all loaded into an empty table.
KEY_SHAPES = {
    "dense_range": range(0, 50),
    "empty_range": range(0, 0),
    "offset_range": range(5, 55),
    "stepped_range": range(0, 100, 2),
    "reversed_range": range(49, -1, -1),
    "list_of_keys": list(range(50)),
    "tuple_keys": [(1, k) for k in range(50)],
}
#: What a columnar table says when it refuses a load.
ONE_LOAD = r"takes one load, range\(0, count\), into the empty table; got .*"
#: The shapes an empty columnar table takes: ``range(0, n)``.
CONTINUING = ("dense_range", "empty_range")


def insert_per_row(table, keys, row):
    for key in keys:
        table.insert(key, row)


def observed(table):
    """Everything a caller can observe about a table's rows."""
    return {
        "len": len(table),
        "keys": list(table.keys()),
        "records": [(r.key, r.read()) for r in table.records()],
    }


def template(table):
    """Row 0's cells: a loaded columnar table's template row, () when empty."""
    return tuple(cell for _, col in table._columns for cell in col[:1])


def raw(table):
    """A columnar table's physical state: the arrays and the template."""
    return {
        "columns": {name: col.tolist() for name, col in table._columns},
        "wts": table._wts.tolist(),
        "rts": table._rts.tolist(),
        "version": table._version.tolist(),
        "slot": table._slot.tolist(),
        "template": template(table),
        "len": len(table),
        "nbytes": table.nbytes,
    }


def exercise(table):
    """The operations a run performs on a loaded table, ending in ``observed``."""
    trace = [table.get(50) is None, table.get(0) is not None]
    with pytest.raises(TableError, match="not found"):
        table.require(50)
    table.get(1).install_fields({"a": 5}, ts=9.0)
    table.get(2).install_fields({"a": 6, "b": 6.0}, ts=10.0)
    table.get(3).extend_rts(11.0)
    record = table.get(4)
    image = record.undo_image()
    record.install_fields({"b": 1.0}, ts=12.0)
    record.restore(image)
    trace.append(observed(table))
    return trace


# -- the dict table is the per-row loop ----------------------------------------

@pytest.mark.parametrize("shape", KEY_SHAPES)
def test_insert_many_equals_the_per_row_loop(shape):
    keys = KEY_SHAPES[shape]
    bulk, reference = Table("t"), Table("t")
    assert bulk.insert_many(keys, ROW) is None
    insert_per_row(reference, keys, ROW)
    assert observed(bulk) == observed(reference)


# -- a columnar load reads like the dict load ----------------------------------

@pytest.mark.parametrize("shape", CONTINUING)
def test_columnar_load_reads_like_the_dict_load(shape):
    keys = KEY_SHAPES[shape]
    columnar, reference = ColumnarTable("t", SCHEMA), Table("t")
    for table in (columnar, reference):
        assert table.insert_many(keys, ROW) is None
    assert observed(columnar) == observed(reference)
    if keys:
        assert exercise(columnar) == exercise(reference)


@pytest.mark.parametrize("shape", KEY_SHAPES)
def test_only_a_dense_continuing_range_is_vectorised(shape):
    """Into an empty table only ``range(0, n)`` loads, as template rows with
    no cells; every other shape raises and leaves the table empty."""
    keys = KEY_SHAPES[shape]
    table = ColumnarTable("t", SCHEMA)
    empty = raw(table)
    if shape in CONTINUING:
        table.insert_many(keys, ROW)
        # Nothing is materialized: the metadata holds the template row alone.
        assert len(table) == len(keys) and table._wts.tolist() == ([0.0] if keys else [])
        assert table.nbytes == table._slot.itemsize * len(keys)
        assert template(table) == ((7, 2.5) if keys else ())
    else:
        with pytest.raises(TableError, match=ONE_LOAD + " with 0 rows loaded"):
            table.insert_many(keys, ROW)
        assert raw(table) == empty


def test_both_backends_hold_the_same_rows_after_a_bulk_load():
    tables = [make() for make in BACKENDS.values()]
    for table in tables:
        table.insert_many(range(20), ROW)
    dict_state, columnar_state = (observed(t) for t in tables)
    assert dict_state == columnar_state


def test_bulk_rows_do_not_alias_the_template():
    for make in BACKENDS.values():
        table, row = make(), dict(ROW)
        table.insert_many(range(3), row)
        row["a"] = 99
        table.get(0).install_fields({"a": 1}, ts=1.0)
        assert table.get(0).value["a"] == 1
        assert table.get(1).value == ROW


def test_missing_columns_default_to_zero():
    table = ColumnarTable("t", SCHEMA)
    table.insert_many(range(4), {"b": 1})
    assert [r.value for r in table.records()] == [{"a": 0, "b": 1.0}] * 4


def test_a_loaded_columnar_table_refuses_a_second_load():
    """An empty load leaves the table empty; after a real one, every further
    load — the range continuing the table included — raises and loads
    nothing, where the dict table goes on loading."""
    first, second = {"a": 1, "b": 1.0}, {"a": 8, "b": 0.0}
    columnar, reference = ColumnarTable("t", SCHEMA), Table("t")
    for table in (columnar, reference):
        table.insert_many(range(0, 0), second)   # empty: loads nothing
        table.insert_many(range(0, 30), first)
    assert observed(columnar) == observed(reference)
    assert template(columnar) == (1, 1.0)
    before = raw(columnar)
    for keys in (range(30, 60), range(0, 30), range(0, 0)):
        with pytest.raises(TableError, match=ONE_LOAD + " with 30 rows loaded"):
            columnar.insert_many(keys, second)
        assert raw(columnar) == before
    reference.insert_many(range(30, 60), second)
    assert len(reference) == 60


def test_secondary_index_is_populated_by_a_bulk_load():
    table = Table("t")
    table.create_index("by_a", ("a",))
    table.insert_many(range(10), ROW)
    assert table.index_lookup("by_a", 7) == list(range(10))


# -- template rows: a slot per row, cells on first access ----------------------

def test_a_bulk_load_costs_at_most_5_bytes_per_row():
    table = ColumnarTable("t", SCHEMA)
    table.insert_many(range(100_000), ROW)
    assert table.nbytes <= 5 * 100_000
    assert len(table._wts) - 1 == 0 and len(table) == 100_000


def test_each_first_get_materializes_exactly_one_row():
    table = ColumnarTable("t", SCHEMA)
    table.insert_many(range(2_000), ROW)
    assert table.nbytes == table._slot.itemsize * 2_000  # no cells yet
    for n, key in enumerate((1_999, 0, 500, 1_000, 999), start=1):
        first = table.get(key)
        assert len(table._wts) - 1 == n and table._slot[key] == n
        assert table.get(key) == first and len(table._wts) - 1 == n  # second get: none
        assert first.value == ROW
        assert (first.wts, first.rts, first.version) == (0.0, 0.0, 0)
    # Each materialized row costs its cells and metadata: 2 columns x 8 B
    # and wts, rts, version x 8 B.
    assert table.nbytes == table._slot.itemsize * 2_000 + 5 * (5 * 8)


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def test_a_load_touches_no_slot_page():
    """A million-row load maps ≈ 980 pages of slots and writes none of them:
    the kernel supplies each page zeroed on its first touch.  ``nbytes`` still
    counts the whole mapping."""
    table, row = ColumnarTable("t", SCHEMA), dict(ROW)
    before = minor_faults()
    table.insert_many(range(1_000_000), row)
    faults = minor_faults() - before
    assert faults < 32, f"a load took {faults} minor page faults"
    assert table.nbytes == 4 * 1_000_000
    assert table.get(999_999).value == ROW and table._slot[999_999] == 1


def test_slot_memory_is_private_across_fork():
    """A forked worker materializes and writes rows of a table its parent
    loaded; the parent's slots still name the template row, and its arrays
    are unchanged."""
    table = ColumnarTable("t", SCHEMA)
    table.insert_many(range(5_000), ROW)
    before = raw(table)
    pid = os.fork()
    if pid == 0:   # the child: never returns into the test runner
        status = 1
        try:
            for key in (0, 1_234, 4_999):
                record = table.get(key)
                record.wts, record.version = 5.0, 3
            status = 0 if table._slot[4_999] == 3 else 2
        finally:
            os._exit(status)
    _, wait_status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(wait_status) == 0
    assert not any(table._slot) and len(table._wts) == 1
    assert raw(table) == before


# -- rejected input ------------------------------------------------------------

@pytest.mark.parametrize("row, match", [
    ({"a": 1, "c": 2}, "column 'c' not in the fixed schema"),
    ({"a": 1, "b": 2.0, "c": 3}, "column 'c' not in the fixed schema"),
    ({"a": "x", "b": 0.0}, "column 'a' of columnar table 't' is numeric; got 'x'"),
    ({"a": 1, "b": "y"}, "column 'b' of columnar table 't' is numeric; got 'y'"),
    ({"a": 1.5}, "column 'a' of columnar table 't' is numeric; got 1.5"),
])
def test_rejected_template_raises_like_a_write_and_appends_nothing(row, match):
    table = ColumnarTable("t", SCHEMA)
    empty = raw(table)
    with pytest.raises(TableError, match=match):
        table.insert_many(range(5), row)
    assert raw(table) == empty
    table.insert_many(range(5), ROW)   # the refused load was not the one load
    with pytest.raises(TableError, match=match):
        table.get(0).install_fields(row, ts=1.0)   # a write reports it the same way
    assert len(table) == 5


def test_empty_range_checks_nothing_like_an_empty_loop():
    table = ColumnarTable("t", SCHEMA)
    table.insert_many(range(0), {"nope": "x"})
    assert len(table) == 0 and table.nbytes == 0


#: Second loads a columnar table holding keys ``0..4`` must refuse: all of them.
SECOND_LOADS = {
    "continuing": range(5, 10),
    "from_zero": range(0, 8),
    "overlapping": range(2, 8),
    "gap": range(6, 10),
    "stepped": range(5, 15, 2),
    "reversed": range(9, 4, -1),
    "list": [5, 6, 7],
    "tuple": (5, 6, 7),
    "generator": (k for k in range(5, 8)),
    "repeated_in_list": [5, 6, 5, 7],
    "tuple_keys": [(1, 5)],
}


@pytest.mark.parametrize("keys", SECOND_LOADS.values(), ids=SECOND_LOADS)
def test_a_second_load_raises_and_loads_nothing(keys):
    table = ColumnarTable("t", SCHEMA)
    table.insert_many(range(5), ROW)
    table.get(3).install_fields({"a": 1}, ts=2.0)   # one row with cells of its own
    before = raw(table)
    with pytest.raises(TableError, match=ONE_LOAD + " with 5 rows loaded"):
        table.insert_many(keys, ROW)
    assert raw(table) == before


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("keys", [range(0, 8), range(2, 8), [5, 6, 5, 7]],
                         ids=["from_zero", "overlapping", "repeated_in_list"])
def test_duplicate_key_raises_where_the_loop_would(backend, keys):
    """Both backends refuse a key they already hold with a TableError, and
    load nothing: unlike the loop, a bulk load does not stop half-way."""
    bulk, reference = BACKENDS[backend](), Table("t")
    bulk.insert_many(range(5), ROW)  # columnar: untouched template rows
    insert_per_row(reference, range(5), ROW)
    before = observed(bulk)
    match = "duplicate key" if backend == "dict" else ONE_LOAD
    with pytest.raises(TableError, match=match):
        bulk.insert_many(keys, ROW)
    with pytest.raises(TableError, match="duplicate key"):
        insert_per_row(reference, keys, ROW)
    assert observed(bulk) == before


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
    # The same probe does see a per-row loop, so equality above is not vacuous.
    looped = python_level_calls(lambda: insert_per_row(Table("t"), range(1_000), ROW))
    assert looped > 3 * 1_000 > small
