"""In-memory tables with a primary hash index and optional secondary indexes.

A :class:`Table` maps primary keys to :class:`Record` instances.  Secondary
indexes map an index key — the values of the index's columns in a row — to
the list of primary keys having that index key: enough to express the TPC-C
lookups (customer by last name, orders by customer, new-orders by district,
...).

Rows arrive two ways.  A workload's loader hands its whole population to
:meth:`Table.load` in one call, as ``(key, cells)`` tuples against one column
tuple, so a loaded row never exists as a dict; a committed transaction's
insert goes through :meth:`Table.insert`, one ``{column: value}`` dict at a
time.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Iterator, Optional

from .record import Record, layout

__all__ = ["Table", "SecondaryIndex", "TableError"]


class TableError(KeyError):
    """Raised for missing keys / duplicate inserts."""


class SecondaryIndex:
    """A non-unique secondary index maintained alongside a table.

    Entries are kept as insertion-ordered dict-backed sets (primary key ->
    ``None``), so :meth:`remove` is O(1) instead of a ``list.remove`` scan
    while :meth:`lookup` still returns keys in insertion order (the TPC-C
    customer-by-last-name path relies on that ordering).  A row's index key
    is the value of the index's one column, or the tuple of its columns'
    values when there are several.
    """

    __slots__ = ("name", "columns", "_key_of", "_entries")

    def __init__(self, name: str, columns: tuple):
        self.name = name
        self.columns = tuple(columns)
        self._key_of = itemgetter(*self.columns)   # a row dict's index key
        self._entries: dict[Any, dict] = {}

    def add(self, primary_key, row: dict) -> None:
        self._entries.setdefault(self._key_of(row), {})[primary_key] = None

    def cells_key(self, columns: tuple) -> itemgetter:
        """The index key of a row's cells laid out in ``columns``; a
        ``ValueError`` if ``columns`` lacks one of the index's columns."""
        return itemgetter(*map(columns.index, self.columns))

    def add_rows(self, key_of: itemgetter, rows: list) -> None:
        """Index ``(primary key, cells)`` rows, in order, by ``key_of``, the
        :meth:`cells_key` of their column tuple."""
        entries = self._entries
        for primary_key, cells in rows:
            entries.setdefault(key_of(cells), {})[primary_key] = None

    def remove(self, primary_key, row: dict) -> None:
        index_key = self._key_of(row)
        keys = self._entries.get(index_key)
        if keys is not None and primary_key in keys:
            del keys[primary_key]
            if not keys:
                del self._entries[index_key]

    def lookup(self, index_key) -> list:
        """Primary keys matching ``index_key`` (possibly empty, insertion order)."""
        return list(self._entries.get(index_key, ()))


class Table:
    """A named collection of records with hash-based primary access."""

    __slots__ = ("name", "_records", "_indexes", "_live_count")

    def __init__(self, name: str):
        self.name = name
        self._records: dict[Any, Record] = {}
        self._indexes: dict[str, SecondaryIndex] = {}
        # Live (non-deleted) record count, maintained on insert/delete/upsert
        # so __len__ is O(1) instead of a full-table scan.
        self._live_count = 0

    def __len__(self) -> int:
        return self._live_count

    def __contains__(self, key) -> bool:
        return self.get(key) is not None

    # -- index management --------------------------------------------------
    def create_index(self, name: str, columns: tuple) -> SecondaryIndex:
        """Index the table by ``columns``, a tuple of column names."""
        if name in self._indexes:
            raise TableError(f"index {name!r} already exists on table {self.name!r}")
        index = SecondaryIndex(name, columns)
        for primary_key, record in self._records.items():
            index.add(primary_key, record.value)
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
    def get(self, key) -> Optional[Record]:
        record = self._records.get(key)
        if record is None or record.deleted:
            return None
        return record

    def require(self, key) -> Record:
        record = self.get(key)
        if record is None:
            raise TableError(f"key {key!r} not found in table {self.name!r}")
        return record

    def _duplicate(self, key) -> TableError:
        return TableError(f"duplicate key {key!r} in table {self.name!r}")

    def insert(self, key, value: dict) -> Record:
        """Insert a new row; duplicate keys are an error (unique-key constraint)."""
        existing = self._records.get(key)
        if existing is not None and not existing.deleted:
            raise self._duplicate(key)
        names = tuple(value)
        record = self._records[key] = Record(key, layout(names, names), tuple(value.values()))
        self._live_count += 1
        if self._indexes:
            for index in self._indexes.values():
                index.add(key, value)
        return record

    def load(self, columns: tuple, rows) -> None:
        """Load a population: one row per ``(key, cells)`` of ``rows``, its
        ``cells`` a tuple of values in ``columns`` order.

        The rows end up as a per-row :meth:`insert` of each would leave them —
        in order, with each secondary index keyed from the cells — but no
        row is ever a dict.  A key repeated in ``rows`` or already live in the
        table raises :class:`TableError`, and an index column missing from
        ``columns`` raises ``ValueError``; either way nothing is loaded.
        """
        names = layout(columns, columns)
        rows = list(rows)
        indexed = [(index, index.cells_key(names)) for index in self._indexes.values()]
        loaded = {key: Record(key, names, cells) for key, cells in rows}
        if len(loaded) != len(rows):
            seen = set()
            for key, _ in rows:
                if key in seen:
                    raise self._duplicate(key)
                seen.add(key)
        records = self._records
        if records:
            for key in loaded:
                existing = records.get(key)
                if existing is not None and not existing.deleted:
                    raise self._duplicate(key)
        records.update(loaded)
        self._live_count += len(loaded)
        for index, key_of in indexed:
            index.add_rows(key_of, rows)

    def insert_many(self, keys, row: dict) -> None:
        """Load one copy of ``row`` per key: :meth:`load` with a cell tuple of
        its own per row, as a per-row :meth:`insert` would give it.

        The fixed-population loaders' entry point (YCSB, Smallbank), shared
        with :meth:`repro.storage.columnar.ColumnarTable.insert_many`, which
        takes only ``range(0, n)`` into an empty table.
        """
        self.load(tuple(row), [(key, tuple(row.values())) for key in keys])

    def upsert(self, key, value: dict) -> Record:
        """Insert or overwrite without raising on duplicates (recovery's log replay)."""
        existing = self._records.get(key)
        if existing is not None:
            if self._indexes:
                old = existing.value
                for index in self._indexes.values():
                    index.remove(key, old)
            existing.value = value
            if existing.deleted:
                existing.deleted = False
                self._live_count += 1
            for index in self._indexes.values():
                index.add(key, value)
            return existing
        return self.insert(key, value)

    def delete(self, key) -> None:
        record = self.require(key)
        record.deleted = True
        self._live_count -= 1
        if self._indexes:
            old = record.value
            for index in self._indexes.values():
                index.remove(key, old)

    def keys(self) -> Iterator:
        return (k for k, r in self._records.items() if not r.deleted)

    def records(self) -> Iterator[Record]:
        return (r for r in self._records.values() if not r.deleted)
