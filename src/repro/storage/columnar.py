"""Columnar storage backend for fixed-schema tables (the million-key tier).

The dict-backed :class:`~repro.storage.table.Table` pays ≈ 230 bytes of
boxed Python objects per two-field row (a :class:`~repro.storage.record.Record`
instance, the tuple of its cells, its key and its slot in the key map; the
column names are one tuple shared by every row).  At the ``xlarge``/``web``
scale tiers — millions of keys — that overhead, not the event kernel, is what
exhausts memory.  :class:`ColumnarTable` stores a row as one cell in each of
parallel C-backed ``array`` columns (8 bytes per numeric cell) plus flat
metadata arrays for the TicToc timestamps and the Silo version counter, and
maps the row to its position in those arrays through a 4-byte *slot*:
≈ 46 bytes per touched row for a two-field schema, a ≈ 4.9x reduction.

A columnar table holds exactly what the fixed-population loaders (YCSB,
Smallbank) give it: the dense integer keys ``0..n-1``, which transactions
read and update but never insert or delete (§6.1.2).  The key *is* the row
number, so there is no key map and ``get`` is one bounds check and one slot
read.  A loaded row costs only its slot until a transaction touches it.  On
the million-key tiers most rows are never read (a ``ycsb_sundial_1m`` pass
at seed 42 touches 54,052 of 1,000,000), so a row that was loaded from a
template and never accessed has no cells of its own: its slot is 0, which
names the *template row*, physical row 0 of the arrays.  The first
:meth:`ColumnarTable.get` of such a row *materializes* it — appends a copy of
row 0's cells and zeroed metadata to the arrays and records the slot — and
from then on it is an ordinary row.  Membership, ``len``,
:meth:`~ColumnarTable.keys` and :attr:`~ColumnarTable.nbytes` materialize
nothing.

The columnar table sits behind the ``Table``/``Record`` interface the
protocols read and update through: :meth:`ColumnarTable.get` hands back a
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
dynamic-schema workloads (TPC-C's and TATP's inserts, deletes and
secondary-index lookups) pass none and keep the dict backend, which remains
the bit-identical reference (the test suite's ``dict_tables`` fixture forces
it everywhere).

Loading.  :meth:`ColumnarTable.insert_many` (the loaders' entry point, same
signature on :class:`~repro.storage.table.Table`) loads a table once, with
``range(0, n)`` into the empty table: the row is checked once and written as
row 0, and the slot array is a private anonymous mapping of ``n`` slots.  The
kernel hands out a zero page on a page's first touch, so the load writes no
slot and makes O(columns) Python-level operations for any number of rows;
``MAP_PRIVATE`` keeps a forked worker's writes its own.  tracemalloc does not
see the mapping (RSS and :attr:`~ColumnarTable.nbytes` do).  Any other key
collection, and any load into a loaded table, raises :class:`TableError`.

Simulation semantics are backend-independent by construction: the columnar
path stores the same values, applies the same missing-key errors, and never
changes event ordering — fixed-seed runs produce bit-identical results under
either backend (pinned by ``tests/integration``).
"""

from __future__ import annotations

import mmap
import reprlib
from array import array
from operator import itemgetter
from typing import Any, Iterator, Optional

from .table import TableError

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
    with ``Record`` for reads and updates.

    ``slot`` is the row's position in the table's column and metadata
    arrays; only a materialized row has one, so :meth:`ColumnarTable.get`
    materializes a template row before handing out its handle.  Attribute
    reads and writes (``wts``/``rts``/``version``) go straight to the owning
    table's arrays, so a handle is safe to hold across simulation yields:
    every handle of a row observes every other handle's writes.
    Construction, equality and hashing are the tuple's own.
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

    # -- value access -------------------------------------------------------
    def snapshot(self) -> dict:
        """The row materialized as a column-ordered dict (a private copy)."""
        row = self[1]
        value = {}
        for name, col in self[0]._columns:
            value[name] = col[row]
        return value

    value = property(snapshot)

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
        by_name = t._by_name
        for col, value in updates.items():
            arr = by_name.get(col)
            if arr is None:
                raise t._unknown_column(col)
            try:
                arr[row] = value
            except (TypeError, OverflowError) as exc:
                raise t._not_numeric(col, value) from exc
        t._wts[row] = ts
        t._rts[row] = ts
        t._version[row] += 1

    def extend_rts(self, ts: float) -> None:
        rts, row = self[0]._rts, self[1]
        if ts > rts[row]:
            rts[row] = ts

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ColumnarRecord(key={self.key!r}, wts={self.wts}, rts={self.rts}, "
            f"version={self.version})"
        )


class ColumnarTable:
    """Array-backed fixed-schema table over the dense keys ``0..n-1``.

    A *row* is a key (``0..n-1``); a *slot* is where a row's cells sit in
    the physical arrays, slot 0 being the template row.  Rows are loaded by one
    :meth:`insert_many`, read and updated through :meth:`get`, and never
    removed.
    """

    def __init__(self, name: str, schema: TableSchema):
        self.name = name
        self.schema = schema
        # One array per column, plus flat metadata arrays, indexed by slot:
        # slot 0 is a loaded table's template row, the rest materialized rows.
        self._by_name: dict[str, array] = {
            col: array(_TYPECODES[kind]) for col, kind in schema.columns
        }
        self._columns: tuple = tuple(self._by_name.items())
        self._wts = array("d")
        self._rts = array("d")
        self._version = array("q")
        self._arrays = (*self._by_name.values(), self._wts, self._rts, self._version)
        # Row -> slot; 0 while a loaded row is still the template row.
        self._slot = memoryview(b"").cast("i")
        # len(self._slot), kept as an attribute: every get reads it.
        self._n_rows = 0

    # -- sizing ------------------------------------------------------------
    def __len__(self) -> int:
        return self._n_rows

    def __contains__(self, key) -> bool:
        return type(key) is int and 0 <= key < self._n_rows

    @property
    def nbytes(self) -> int:
        """Approximate bytes held by the backing arrays (diagnostics).

        The slot mapping (all of it, touched or not) and the materialized
        rows; the template row is O(columns) and not counted."""
        rows = max(len(self._wts) - 1, 0)
        return self._slot.nbytes + rows * sum(arr.itemsize for arr in self._arrays)

    # -- template rows -------------------------------------------------------
    def _materialize(self, row: int) -> int:
        """Give template row ``row`` a copy of slot 0; returns its new slot."""
        slot = self._slot[row] = len(self._wts)
        for arr in self._arrays:
            arr.append(arr[0])
        return slot

    # -- record access -------------------------------------------------------
    def get(self, key) -> Optional[ColumnarRecord]:
        if type(key) is int and 0 <= key < self._n_rows:
            slot = self._slot[key]
            if not slot:
                slot = self._materialize(key)
            return ColumnarRecord((self, slot, key))
        return None

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

    def insert_many(self, keys, row: dict) -> None:
        """Load one copy of ``row`` per key of ``keys``, which must be
        ``range(0, n)``, into the empty table: a table takes one load.

        The rows are template rows: one check of ``row`` stands for all of
        them, and each costs its slot until it is first accessed.  Any other
        key collection, or a load into a loaded table, raises
        :class:`TableError` and loads nothing.
        """
        if self._n_rows or type(keys) is not range or keys != range(len(keys)):
            raise TableError(
                f"columnar table {self.name!r} takes one load, range(0, count), "
                f"into the empty table; got {reprlib.repr(keys)} with "
                f"{self._n_rows} rows loaded"
            )
        if keys:
            for arr, cell in zip(self._arrays, self._cells_of(row) + (0.0, 0.0, 0)):
                arr.append(cell)
            self._slot = memoryview(
                mmap.mmap(-1, 4 * len(keys), flags=mmap.MAP_PRIVATE)).cast("i")
            self._n_rows = len(keys)

    def keys(self) -> Iterator[int]:
        return iter(range(self._n_rows))

    def records(self) -> Iterator[ColumnarRecord]:
        """A handle per row, in row order (each template row is materialized
        as it is reached)."""
        return (self.get(key) for key in range(self._n_rows))
