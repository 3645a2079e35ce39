"""Tests for tables, records and secondary indexes."""

import re

import pytest

from repro.storage.record import Record
from repro.storage.table import Table, TableError


def test_record_install_updates_timestamps_and_version():
    record = Record("k", ("v",), (1,))
    assert record.wts == 0.0 and record.rts == 0.0 and record.version == 0
    record.install_fields({"v": 2}, ts=7.0)
    assert record.value == {"v": 2}
    assert record.wts == 7.0 and record.rts == 7.0
    assert record.version == 1


def test_record_install_fields_merges_columns():
    record = Record("k", ("a", "b"), (1, 2))
    record.install_fields({"b": 5}, ts=3.0)
    assert record.value == {"a": 1, "b": 5}
    assert record.wts <= 3.0 <= record.rts


def test_record_extend_rts_never_shrinks():
    record = Record("k", (), ())
    record.install_fields({}, ts=5.0)
    record.extend_rts(3.0)
    assert record.rts == 5.0
    record.extend_rts(9.0)
    assert record.rts == 9.0
    assert record.wts <= 7.0 <= record.rts
    assert not record.wts <= 4.0 <= record.rts


def test_record_snapshot_is_a_copy():
    record = Record("k", ("v",), (1,))
    snapshot = record.snapshot()
    snapshot["v"] = 99
    assert record.value["v"] == 1


def test_table_insert_get_require():
    table = Table("t")
    table.insert(1, {"x": 1})
    assert table.get(1).value == {"x": 1}
    assert table.get(2) is None
    with pytest.raises(TableError):
        table.require(2)
    assert len(table) == 1
    assert 1 in table and 2 not in table


def test_table_duplicate_insert_rejected():
    table = Table("t")
    table.insert(1, {})
    with pytest.raises(TableError):
        table.insert(1, {})


def test_table_upsert_overwrites():
    table = Table("t")
    table.insert(1, {"x": 1})
    table.upsert(1, {"x": 2})
    assert table.get(1).value == {"x": 2}
    table.upsert(2, {"x": 3})
    assert table.get(2).value == {"x": 3}


def test_table_delete_hides_record():
    table = Table("t")
    table.insert(1, {"x": 1})
    table.delete(1)
    assert table.get(1) is None
    assert 1 not in table
    assert list(table.keys()) == []
    # Re-inserting a deleted key is allowed.
    table.insert(1, {"x": 2})
    assert table.get(1).value == {"x": 2}


def test_secondary_index_lookup_and_maintenance():
    table = Table("customer")
    index = table.create_index("by_last", ("last",))
    table.insert(1, {"last": "SMITH"})
    table.insert(2, {"last": "SMITH"})
    table.insert(3, {"last": "JONES"})
    assert sorted(table.index_lookup("by_last", "SMITH")) == [1, 2]
    assert table.index_lookup("by_last", "DOE") == []
    table.delete(2)
    assert table.index_lookup("by_last", "SMITH") == [1]
    assert index.lookup("JONES") == [3]


def test_index_created_after_data_is_backfilled():
    table = Table("t")
    table.insert(1, {"group": "a"})
    table.insert(2, {"group": "b"})
    table.create_index("by_group", ("group",))
    assert table.index_lookup("by_group", "a") == [1]


def test_duplicate_index_name_rejected():
    table = Table("t")
    table.create_index("idx", ("x",))
    with pytest.raises(TableError):
        table.create_index("idx", ("x",))
    with pytest.raises(TableError):
        table.index("missing")


def test_len_is_maintained_across_delete_and_reinsert():
    """__len__ is a maintained counter now, not a scan — pin its bookkeeping."""
    table = Table("t")
    assert len(table) == 0
    for i in range(5):
        table.insert(i, {"x": i})
    assert len(table) == 5
    table.delete(2)
    table.delete(4)
    assert len(table) == 3
    # Re-insert over a deleted key.
    table.insert(2, {"x": 22})
    assert len(table) == 4
    # Upsert over a live key must not change the count...
    table.upsert(0, {"x": 100})
    assert len(table) == 4
    # ...upsert over a deleted key revives it...
    table.upsert(4, {"x": 44})
    assert len(table) == 5
    # ...and upsert of a brand-new key inserts.
    table.upsert(9, {"x": 9})
    assert len(table) == 6
    table.delete(9)
    table.delete(0)
    assert len(table) == 4
    assert len(table) == sum(1 for _ in table.records())  # agrees with a scan


def test_len_agrees_with_scan_under_random_mutation():
    import random

    rng = random.Random(1234)
    table = Table("t")
    live = set()
    for step in range(2_000):
        key = rng.randrange(50)
        action = rng.random()
        if action < 0.4:
            if key not in live:
                table.insert(key, {"v": step})
                live.add(key)
        elif action < 0.7:
            table.upsert(key, {"v": step})
            live.add(key)
        elif live and key in live:
            table.delete(key)
            live.discard(key)
    assert len(table) == len(live) == sum(1 for _ in table.records())


def test_secondary_index_preserves_insertion_order_after_removals():
    """TPC-C customer-by-last-name relies on insertion-ordered lookups."""
    table = Table("customer")
    table.create_index("by_last", ("last",))
    for key in (10, 30, 20, 40, 50):
        table.insert(key, {"last": "BARBARBAR"})
    assert table.index_lookup("by_last", "BARBARBAR") == [10, 30, 20, 40, 50]
    table.delete(20)
    assert table.index_lookup("by_last", "BARBARBAR") == [10, 30, 40, 50]
    table.delete(10)
    table.insert(10, {"last": "BARBARBAR"})  # re-insert goes to the back
    assert table.index_lookup("by_last", "BARBARBAR") == [30, 40, 50, 10]


def test_secondary_index_remove_of_absent_key_is_a_noop():
    table = Table("t")
    index = table.create_index("by_g", ("g",))
    table.insert(1, {"g": "a"})
    index.remove(99, {"g": "a"})  # not indexed: must not raise
    index.remove(1, {"g": "zzz"})  # wrong index key: must not raise
    assert index.lookup("a") == [1]


def test_rows_with_one_column_order_share_one_names_tuple():
    """A row is a cell tuple against a shared column layout: the layout is one
    object per distinct column order, not one per row."""
    table = Table("t")
    for key in range(100):
        table.insert(key, {"a": key, "b": str(key), "c": 0.0})
    table.get(7).install_fields({"b": "x"}, ts=1.0)
    image = table.get(8).undo_image()
    table.get(8).install_fields({"d": 0}, ts=1.0)
    table.get(8).restore(image)   # back onto the shared layout
    table.upsert(9, {"a": 1, "b": "z", "c": 3.0})
    table.delete(10)
    table.insert(10, {"a": 10, "b": "w", "c": 4.0})
    first = table.get(0)._names
    assert all(record._names is first for record in table.records())
    # Rows that gain the same column share the longer layout too.
    for key in (3, 4):
        table.get(key).install_fields({"d": 1}, ts=2.0)
    assert table.get(3)._names is table.get(4)._names
    assert table.get(3)._names == ("a", "b", "c", "d")
    other = Table("u")
    assert other.insert(0, {"a": 0, "b": "", "c": 0.0})._names is first


def test_row_values_match_a_plain_dict_model_under_random_writes():
    """Every write path, against the dict-per-row representation it replaced:
    equal values, the same column order, the same ``get`` answers."""
    import random

    rng = random.Random(2024)
    columns = ("a", "b", "c", "d", "e")
    table, model, images = Table("t"), {}, {}

    def random_row():
        return {column: rng.randrange(100)
                for column in rng.sample(columns, rng.randint(1, 4))}

    for step in range(3_000):
        key = rng.randrange(40)
        action = rng.randrange(6)
        record = table.get(key)
        if action == 0:
            row = random_row()
            if record is None:
                table.insert(key, row)
                model[key] = dict(row)
            else:
                with pytest.raises(TableError):
                    table.insert(key, row)
        elif action == 5:
            row = random_row()
            table.upsert(key, row)
            model[key] = dict(row)
        elif record is None:
            continue
        elif action == 1:
            row = random_row()
            record.value = row
            model[key] = dict(row)
        elif action == 2:
            updates = random_row()   # may name columns the row lacks
            record.install_fields(updates, ts=float(step))
            model[key].update(updates)
        elif action == 3:
            if key in images and rng.random() < 0.5:
                image, expected = images.pop(key)
                record.restore(image)
                model[key] = expected
            else:
                images[key] = (record.undo_image(), dict(model[key]))
        else:
            table.delete(key)
            del model[key]
        assert set(table.keys()) == set(model)
        for live_key, expected in model.items():
            row = table.get(live_key)
            assert list(row.value.items()) == list(expected.items())
            assert row.read()[0] == expected
            assert [row.get(column) for column in columns] == [
                expected.get(column) for column in columns]


def test_value_and_read_return_private_copies():
    table = Table("t")
    row = {"a": 1, "b": 2}
    record = table.insert(1, row)
    row["a"] = 99                      # the caller's dict is not the row
    for copy in (record.value, record.read()[0], record.snapshot()):
        copy["a"] = -1
        copy["new"] = 0
    assert record.value == {"a": 1, "b": 2}
    assert record.value is not record.value
    assert record.get("new", "absent") == "absent"


def test_upsert_moves_record_between_index_keys():
    table = Table("t")
    table.create_index("by_g", ("g",))
    table.insert(1, {"g": "a"})
    table.insert(2, {"g": "a"})
    table.upsert(1, {"g": "b"})
    assert table.index_lookup("by_g", "a") == [2]
    assert table.index_lookup("by_g", "b") == [1]


# -- Table.load: a population in one call --------------------------------------

LOAD_COLUMNS = ("w", "d", "last", "balance")
#: Keys out of order and index keys repeating, as a loader produces them.
LOAD_ROWS = [((w, d), (w, d, f"NAME{(w * d) % 3}", -10.0))
             for w in (2, 1) for d in (3, 1, 2)]


def indexed_table():
    table = Table("t")
    table.create_index("by_name", ("w", "last"))
    table.create_index("by_d", ("d",))
    return table


def table_state(table):
    """Everything a loaded table holds: rows in order, metadata, index buckets."""
    return {
        "records": [(key, record._names, record._cells, record.wts, record.rts,
                     record.version, record.deleted)
                    for key, record in table._records.items()],
        "len": len(table),
        "indexes": {name: {k: list(v) for k, v in index._entries.items()}
                    for name, index in table._indexes.items()},
    }


def test_load_equals_per_row_inserts_and_keeps_the_cells():
    loaded, reference = indexed_table(), indexed_table()
    loaded.load(LOAD_COLUMNS, iter(LOAD_ROWS))       # any iterable of rows
    for key, cells in LOAD_ROWS:
        reference.insert(key, dict(zip(LOAD_COLUMNS, cells)))
    assert table_state(loaded) == table_state(reference)
    assert loaded.index_lookup("by_name", (1, "NAME0")) == [(1, 3)]
    assert loaded.index_lookup("by_d", 1) == [(2, 1), (1, 1)]
    # Built straight from the cells, against one shared column layout.
    for key, cells in LOAD_ROWS:
        assert loaded.get(key)._cells is cells
        assert loaded.get(key)._names is reference.get(key)._names


@pytest.mark.parametrize("rows, key", [
    (LOAD_ROWS + [LOAD_ROWS[2]], (2, 2)),
    ([((9, 9), (9, 9, "X", 0.0))] + LOAD_ROWS[:1], (2, 3)),
], ids=["repeated_in_rows", "already_present"])
def test_load_of_a_duplicate_key_raises_and_loads_nothing(rows, key):
    table = indexed_table()
    table.load(LOAD_COLUMNS, LOAD_ROWS[:1])
    before = table_state(table)
    with pytest.raises(TableError, match=re.escape(f"duplicate key {key!r} in table 't'")):
        table.load(LOAD_COLUMNS, rows)
    assert table_state(table) == before


def test_load_over_a_deleted_key_revives_it_like_insert():
    loaded, reference = indexed_table(), indexed_table()
    for table in (loaded, reference):
        table.load(LOAD_COLUMNS, LOAD_ROWS)
        table.delete((2, 1))
    loaded.load(LOAD_COLUMNS, [((2, 1), (2, 1, "NEW", 1.0))])
    reference.insert((2, 1), dict(zip(LOAD_COLUMNS, (2, 1, "NEW", 1.0))))
    assert table_state(loaded) == table_state(reference)
    assert len(loaded) == len(LOAD_ROWS)


def test_load_without_an_index_column_raises_and_loads_nothing():
    table = indexed_table()
    with pytest.raises(ValueError):
        table.load(("w", "d"), [((1, 1), (1, 1))])
    assert len(table) == 0 and not table._records
