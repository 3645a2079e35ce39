"""Columnar storage backend for fixed-schema tables (the million-key tier).

The dict-backed :class:`~repro.storage.table.Table` pays ≈ 230 bytes of
boxed Python objects per two-field row (a :class:`~repro.storage.record.Record`
instance, the tuple of its cells, its key and its slot in the key map; the
column names are one tuple shared by every row).  At the ``xlarge``/``web``
scale tiers — millions of keys — that overhead, not the event kernel, is what
exhausts memory.  :class:`ColumnarTable` stores a row as one cell in each of
parallel C-backed ``array`` columns (8 bytes per numeric cell) plus flat
metadata arrays for the TicToc timestamps, the Silo version counter and the
deleted flag, and maps the row to its position in those arrays through a
4-byte *slot*: ≈ 47 bytes per row inserted one at a time for YCSB's
two-field schema, a ≈ 4.8x reduction.

A bulk-loaded row costs only its slot until a transaction touches it.  On
the million-key tiers most rows are never read (a ``ycsb_sundial_1m`` pass
at seed 42 touches 54,052 of 1,000,000), so a row that was loaded from a
template and never accessed has no cells of its own: its slot is -1 and
its values are the template's (see "Loading" below).  The first
:meth:`ColumnarTable.get` of such a row *materializes* it — appends the
template's cells and zeroed metadata to the arrays and records the slot —
and from then on it is an ordinary row.  A template row is never deleted, so
``delete``, ``upsert`` and a duplicate ``insert`` reach it through the same
mapping; membership, ``len``, :meth:`~ColumnarTable.keys`,
:meth:`~ColumnarTable.create_index` and :attr:`~ColumnarTable.nbytes` read
it without materializing anything.  The price is one array index per
``get`` and a row append the first time a row is touched.

The columnar table sits behind the exact ``Table``/``Record`` interface the
protocols already use: :meth:`ColumnarTable.get` hands back a
:class:`ColumnarRecord` *handle* — the tuple ``(table, slot, key)`` — whose
attribute reads and writes go straight to the backing arrays.  Handles are
ephemeral (a fresh one per access) and are built, hashed and compared as
tuples, in C: two handles of one row are equal, which is all the lock
manager's table and per-transaction held-lock dicts — keyed by record
identity with the dict backend — need.  No lock state lives here: the lock
manager keeps an entry for a row only while it is held or awaited.

Which backend a table uses is decided at creation time
(:meth:`repro.storage.partition.PartitionStore.create_table`): workloads with
a fixed numeric schema (YCSB, Smallbank) pass a :class:`TableSchema`;
dynamic-schema workloads (TPC-C's mixed-type rows and secondary-index
lookups) pass none and keep the dict backend, which remains the bit-identical
reference (the test suite's ``dict_tables`` fixture forces it everywhere).

Loading.  :meth:`ColumnarTable.insert_many` (the loaders' entry point, same
signature on :class:`~repro.storage.table.Table`) is by definition ``for k
in keys: insert(k, row)``.  When the call itself shows that nothing per-row
can happen — ``keys`` is a step-1 ``range`` starting at the table's row
count, the table is still dense and has no secondary index — the template
row is checked once, its converted cells are recorded with the range's
first row, and the slot array grows by one ``array * n`` extend of -1: no
column or metadata array grows at all, and the call makes O(columns)
Python-level operations for any number of rows.  Every other input (a list
of keys, a stepped or non-contiguous range, a sparse or indexed table) runs
the per-row loop; there is no switch to choose between them.

Simulation semantics are backend-independent by construction: the columnar
path stores the same values, applies the same unique-key/missing-key errors,
and never changes event ordering — fixed-seed runs produce bit-identical
results under either backend (pinned by ``tests/integration``).
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from operator import itemgetter
from typing import Any, Callable, Iterator, Optional

from .table import SecondaryIndex, TableError

__all__ = ["TableSchema", "ColumnarTable", "ColumnarRecord"]

#: Column kind -> array typecode.  ``i`` = signed 64-bit integer, ``f`` =
#: double.  Everything the fixed-schema workloads store is one of the two.
_TYPECODES = {"i": "q", "f": "d"}


class TableSchema:
    """An ordered, typed column layout for one columnar table.

    ``columns`` is a sequence of ``(name, kind)`` pairs; ``kind`` is ``"i"``
    (64-bit signed int) or ``"f"`` (double).  Column order is the dict order
    row snapshots are materialized in, so it should match the order the
    workload's loader writes fields in (keeps row dicts identical across
    backends).
    """

    __slots__ = ("columns", "names", "kinds")

    def __init__(self, columns):
        cols = tuple((str(name), str(kind)) for name, kind in columns)
        if not cols:
            raise ValueError("TableSchema requires at least one column")
        seen = set()
        for name, kind in cols:
            if kind not in _TYPECODES:
                raise ValueError(
                    f"unknown column kind {kind!r} for {name!r}; use 'i' or 'f'"
                )
            if name in seen:
                raise ValueError(f"duplicate column {name!r}")
            seen.add(name)
        self.columns = cols
        self.names = tuple(name for name, _ in cols)
        self.kinds = dict(cols)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        inner = ", ".join(f"{name}:{kind}" for name, kind in self.columns)
        return f"TableSchema({inner})"


class ColumnarRecord(tuple):
    """A handle ``(table, slot, key)`` on one columnar row, API-compatible
    with ``Record``.

    ``slot`` is the row's position in the table's column and metadata
    arrays; only a materialized row has one, so :meth:`ColumnarTable.get`
    materializes a template row before handing out its handle.  Attribute
    reads and writes (``wts``/``rts``/``version``/``deleted``/
    ``value``) go straight to the owning table's arrays, so a handle is safe
    to hold across simulation yields: every handle of a row observes every
    other handle's writes.  Construction, equality and hashing are the
    tuple's own.
    """

    __slots__ = ()

    key = property(itemgetter(2))

    # -- concurrency-control metadata --------------------------------------
    @property
    def wts(self) -> float:
        return self[0]._wts[self[1]]

    @wts.setter
    def wts(self, ts: float) -> None:
        self[0]._wts[self[1]] = ts

    @property
    def rts(self) -> float:
        return self[0]._rts[self[1]]

    @rts.setter
    def rts(self, ts: float) -> None:
        self[0]._rts[self[1]] = ts

    @property
    def version(self) -> int:
        return self[0]._version[self[1]]

    @version.setter
    def version(self, v: int) -> None:
        self[0]._version[self[1]] = v

    @property
    def deleted(self) -> bool:
        return bool(self[0]._deleted[self[1]])

    @deleted.setter
    def deleted(self, flag: bool) -> None:
        self[0]._deleted[self[1]] = 1 if flag else 0

    # -- value access -------------------------------------------------------
    def snapshot(self) -> dict:
        """The row materialized as a column-ordered dict (a private copy)."""
        row = self[1]
        value = {}
        for name, col in self[0]._columns:
            value[name] = col[row]
        return value

    value = property(snapshot)

    @value.setter
    def value(self, new_value: dict) -> None:
        self[0]._write_row(self[1], new_value, full=True)

    def read(self) -> tuple:
        """``(private value copy, wts, rts, version)``: a read entry's fields."""
        t, row, _ = self
        value = {}
        for name, col in t._columns:
            value[name] = col[row]
        return value, t._wts[row], t._rts[row], t._version[row]

    def undo_image(self) -> tuple:
        """The row's column values in schema order, as :meth:`restore` takes them."""
        row = self[1]
        image = []
        for _, col in self[0]._columns:
            image.append(col[row])
        return tuple(image)

    def restore(self, image: tuple) -> None:
        """Put back a row taken by :meth:`undo_image`: every column is written,
        the metadata is untouched."""
        row = self[1]
        for (_, col), cell in zip(self[0]._columns, image):
            col[row] = cell

    def get(self, column: str, default: Any = None) -> Any:
        col = self[0]._by_name.get(column)
        if col is None:
            return default
        return col[self[1]]

    def install_fields(self, updates: dict, ts: float) -> None:
        t, row, _ = self
        t._write_row(row, updates, full=False)
        t._wts[row] = ts
        t._rts[row] = ts
        t._version[row] += 1

    def extend_rts(self, ts: float) -> None:
        rts, row = self[0]._rts, self[1]
        if ts > rts[row]:
            rts[row] = ts

    def valid_at(self, ts: float) -> bool:
        t, row, _ = self
        return t._wts[row] <= ts <= t._rts[row]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ColumnarRecord(key={self.key!r}, wts={self.wts}, rts={self.rts}, "
            f"version={self.version})"
        )


class ColumnarTable:
    """Array-backed fixed-schema table, API-compatible with ``Table``.

    Primary keys are expected to be the dense integers ``0..n-1`` the
    workload loaders produce (rows are addressed by key directly, no per-key
    dict at all); out-of-order or non-contiguous integer keys transparently
    fall back to a sparse ``key -> row`` map, so recovery redelivery and
    ad-hoc inserts stay correct — they just pay the map.

    A *row* is a key's logical position (``0..n-1`` in insertion order); a
    *slot* is where a materialized row's cells sit in the physical arrays.
    """

    def __init__(self, name: str, schema: TableSchema):
        self.name = name
        self.schema = schema
        # One array per column, plus flat metadata arrays, indexed by slot:
        # they hold materialized rows only.
        self._by_name: dict[str, array] = {
            col: array(_TYPECODES[kind]) for col, kind in schema.columns
        }
        self._columns: tuple = tuple(self._by_name.items())
        self._wts = array("d")
        self._rts = array("d")
        self._version = array("q")
        self._deleted = bytearray()
        # Row -> slot; -1 while a bulk-loaded row is still its template row,
        # whose cells are the last template starting at or before it.
        self._slot = array("i")
        self._template_starts: list[int] = []
        self._template_cells: list[tuple] = []
        # Dense mode stores *no key objects at all*: keys are exactly the row
        # indices 0..n-1 (what every workload loader produces), which at 1M
        # rows saves ~36 bytes/row of boxed ints + list slots.  The first
        # out-of-order key materializes `_keys` (row -> key) and `_key_rows`
        # (key -> row) and the table runs sparse from then on.
        self._n_rows = 0
        self._keys: Optional[list] = None       # row -> key (sparse mode only)
        self._key_rows: Optional[dict] = None   # key -> row (sparse mode only)
        self._dense = True
        self._live_count = 0
        self._indexes: dict[str, SecondaryIndex] = {}

    # -- sizing ------------------------------------------------------------
    def __len__(self) -> int:
        return self._live_count

    def __contains__(self, key) -> bool:
        # Not ``get(key) is not None``: a membership test materializes nothing.
        row = self._row_of(key)
        if row < 0:
            return False
        slot = self._slot[row]
        return slot < 0 or not self._deleted[slot]

    @property
    def nbytes(self) -> int:
        """Approximate bytes held by the backing arrays (diagnostics).

        The slot array and the materialized rows; a template's cells are
        O(columns) per bulk load and not counted."""
        total = len(self._deleted) + len(self._slot) * self._slot.itemsize
        for _, col in self._columns:
            total += len(col) * col.itemsize
        for meta in (self._wts, self._rts, self._version):
            total += len(meta) * meta.itemsize
        return total

    # -- key routing ---------------------------------------------------------
    def _row_of(self, key) -> int:
        """Row index for ``key``, or -1 when absent."""
        if self._dense:
            if type(key) is int and 0 <= key < self._n_rows:
                return key
            return -1
        row = self._key_rows.get(key, -1)
        return row

    def _key_of(self, row: int):
        """Primary key of ``row`` (identity in dense mode)."""
        return row if self._dense else self._keys[row]

    def _go_sparse(self) -> None:
        self._dense = False
        self._keys = list(range(self._n_rows))
        self._key_rows = {row: row for row in range(self._n_rows)}

    def _live_rows(self) -> Iterator[int]:
        """Rows not deleted, in row order; materializes nothing."""
        deleted = self._deleted
        return (row for row, slot in enumerate(self._slot)
                if slot < 0 or not deleted[slot])

    # -- template rows -------------------------------------------------------
    def _template_of(self, row: int) -> tuple:
        """The cells of template row ``row``: the last bulk load at or before it."""
        return self._template_cells[bisect_right(self._template_starts, row) - 1]

    def _materialize(self, row: int) -> int:
        """Give template row ``row`` cells of its own; returns its new slot."""
        slot = self._slot[row] = self._append_cells(self._template_of(row))
        return slot

    def _append_cells(self, cells: tuple) -> int:
        """Append one physical row, ``cells`` with zeroed metadata; returns its slot."""
        slot = len(self._deleted)
        for (_, arr), cell in zip(self._columns, cells):
            arr.append(cell)
        self._wts.append(0.0)
        self._rts.append(0.0)
        self._version.append(0)
        self._deleted.append(0)
        return slot

    # -- index management ---------------------------------------------------
    def create_index(self, name: str, key_func: Callable[[dict], Any]) -> SecondaryIndex:
        if name in self._indexes:
            raise TableError(f"index {name!r} already exists on table {self.name!r}")
        index = SecondaryIndex(name, key_func)
        names, columns, slots = self.schema.names, self._columns, self._slot
        for row in self._live_rows():
            slot = slots[row]
            if slot < 0:
                cells = self._template_of(row)
            else:
                cells = [arr[slot] for _, arr in columns]
            index.add(self._key_of(row), dict(zip(names, cells)))
        self._indexes[name] = index
        return index

    def index(self, name: str) -> SecondaryIndex:
        try:
            return self._indexes[name]
        except KeyError as exc:
            raise TableError(f"no index {name!r} on table {self.name!r}") from exc

    def index_lookup(self, index_name: str, index_key) -> list:
        return self.index(index_name).lookup(index_key)

    # -- record access -------------------------------------------------------
    def get(self, key) -> Optional[ColumnarRecord]:
        # _row_of's dense test inlined: every record access comes through here.
        if self._dense and type(key) is int and 0 <= key < self._n_rows:
            row = key
        else:
            row = self._row_of(key)
            if row < 0:
                return None
        slot = self._slot[row]
        if slot < 0:
            slot = self._materialize(row)
        elif self._deleted[slot]:
            return None
        return ColumnarRecord((self, slot, key))

    def require(self, key) -> ColumnarRecord:
        record = self.get(key)
        if record is None:
            raise TableError(f"key {key!r} not found in table {self.name!r}")
        return record

    def _unknown_column(self, col) -> TableError:
        return TableError(
            f"column {col!r} not in the fixed schema of columnar "
            f"table {self.name!r} (columns: {', '.join(self.schema.names)})"
        )

    def _not_numeric(self, col, item) -> TableError:
        """A value the column's array rejects: wrong type, or out of range."""
        return TableError(
            f"column {col!r} of columnar table {self.name!r} is "
            f"numeric; got {item!r}"
        )

    def _cells_of(self, value: dict) -> tuple:
        """``value`` as a row's cells in schema order (a missing column is 0),
        converted as the arrays store them; raises before anything grows."""
        by_name = self._by_name
        for col in value:
            if col not in by_name:
                raise self._unknown_column(col)
        cells = []
        for col, arr in self._columns:
            item = value.get(col, 0)
            try:
                cells.append(array(arr.typecode, [item])[0])
            except (TypeError, OverflowError) as exc:
                raise self._not_numeric(col, item) from exc
        return tuple(cells)

    def _write_row(self, slot: int, values: dict, *, full: bool) -> None:
        by_name = self._by_name
        for col, value in values.items():
            arr = by_name.get(col)
            if arr is None:
                raise self._unknown_column(col)
            try:
                arr[slot] = value
            except (TypeError, OverflowError) as exc:
                raise self._not_numeric(col, value) from exc
        if full:
            for col, arr in self._columns:
                if col not in values:
                    arr[slot] = 0

    def _append_row(self, key, value: dict) -> int:
        """Append a new row with cells of its own; returns its slot."""
        cells = self._cells_of(value)
        row = self._n_rows
        if self._dense and not (type(key) is int and key == row):
            self._go_sparse()
        if not self._dense:
            self._keys.append(key)
            self._key_rows[key] = row
        slot = self._append_cells(cells)
        self._slot.append(slot)
        self._n_rows = row + 1
        return slot

    def insert(self, key, value: dict) -> ColumnarRecord:
        """Insert a new row; duplicate keys are an error (unique-key constraint)."""
        row = self._row_of(key)
        if row >= 0:
            slot = self._slot[row]
            if slot < 0 or not self._deleted[slot]:
                raise TableError(f"duplicate key {key!r} in table {self.name!r}")
            # Reuse the tombstoned row in place.
            self._write_row(slot, value, full=True)
            self._wts[slot] = 0.0
            self._rts[slot] = 0.0
            self._version[slot] += 1
            self._deleted[slot] = 0
        else:
            slot = self._append_row(key, value)
        self._live_count += 1
        record = ColumnarRecord((self, slot, key))
        if self._indexes:
            materialized = record.value
            for index in self._indexes.values():
                index.add(key, materialized)
        return record

    def insert_many(self, keys, row: dict) -> None:
        """Insert one copy of ``row`` per key: ``for k in keys: insert(k, row)``.

        A step-1 ``range`` that continues a dense table with no secondary
        index is recorded as template rows — no key can collide and no index
        needs the materialized rows, so one check of the template stands for
        all of them.  Anything else is the loop above.
        """
        if (type(keys) is range and keys.step == 1 and self._dense
                and keys.start == self._n_rows and not self._indexes):
            if keys:
                self._append_rows(len(keys), row)
            return
        insert = self.insert
        for key in keys:
            insert(key, row)

    def _append_rows(self, n: int, value: dict) -> None:
        """Append ``n`` dense template rows holding ``value`` in O(columns)
        operations: one slot each, no cells until a row is first accessed."""
        cells = self._cells_of(value)
        self._template_starts.append(self._n_rows)
        self._template_cells.append(cells)
        self._slot.extend(array("i", [-1]) * n)
        self._n_rows += n
        self._live_count += n

    def upsert(self, key, value: dict) -> ColumnarRecord:
        """Insert or overwrite without raising on duplicates (loader use only)."""
        row = self._row_of(key)
        if row < 0:
            return self.insert(key, value)
        slot = self._slot[row]
        if slot < 0:
            slot = self._materialize(row)
        if self._indexes:
            old = {col: arr[slot] for col, arr in self._columns}
            for index in self._indexes.values():
                index.remove(key, old)
        self._write_row(slot, value, full=True)
        if self._deleted[slot]:
            self._deleted[slot] = 0
            self._live_count += 1
        record = ColumnarRecord((self, slot, key))
        if self._indexes:
            materialized = record.value
            for index in self._indexes.values():
                index.add(key, materialized)
        return record

    def delete(self, key) -> None:
        record = self.require(key)
        if self._indexes:
            materialized = record.value
            for index in self._indexes.values():
                index.remove(key, materialized)
        self._deleted[record[1]] = 1
        self._live_count -= 1

    def keys(self) -> Iterator:
        if self._dense:
            return self._live_rows()
        keys = self._keys
        return (keys[row] for row in self._live_rows())

    def records(self) -> Iterator[ColumnarRecord]:
        """A handle per live row, in row order (each template row is
        materialized as it is reached)."""
        return (self.get(key) for key in self.keys())
