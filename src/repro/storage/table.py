"""In-memory tables with a primary hash index and optional secondary indexes.

A :class:`Table` maps primary keys to :class:`Record` instances.  Secondary
indexes map an index key (any hashable derived from the row) to the list of
primary keys having that index key — enough to express the TPC-C lookups
(customer by last name, orders by customer, new-orders by district, ...).
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Optional

from .record import Record

__all__ = ["Table", "SecondaryIndex", "TableError"]


class TableError(KeyError):
    """Raised for missing keys / duplicate inserts."""


class SecondaryIndex:
    """A non-unique secondary index maintained alongside a table.

    Entries are kept as insertion-ordered dict-backed sets (primary key ->
    ``None``), so :meth:`remove` is O(1) instead of a ``list.remove`` scan
    while :meth:`lookup` still returns keys in insertion order (the TPC-C
    customer-by-last-name path relies on that ordering).
    """

    __slots__ = ("name", "key_func", "_entries")

    def __init__(self, name: str, key_func: Callable[[dict], Any]):
        self.name = name
        self.key_func = key_func
        self._entries: dict[Any, dict] = {}

    def add(self, primary_key, row: dict) -> None:
        self._entries.setdefault(self.key_func(row), {})[primary_key] = None

    def remove(self, primary_key, row: dict) -> None:
        index_key = self.key_func(row)
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
    def create_index(self, name: str, key_func: Callable[[dict], Any]) -> SecondaryIndex:
        if name in self._indexes:
            raise TableError(f"index {name!r} already exists on table {self.name!r}")
        index = SecondaryIndex(name, key_func)
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

    def insert(self, key, value: dict) -> Record:
        """Insert a new row; duplicate keys are an error (unique-key constraint)."""
        existing = self._records.get(key)
        if existing is not None and not existing.deleted:
            raise TableError(f"duplicate key {key!r} in table {self.name!r}")
        record = self._records[key] = Record(key, value)
        self._live_count += 1
        if self._indexes:
            for index in self._indexes.values():
                index.add(key, value)
        return record

    def insert_many(self, keys, row: dict) -> None:
        """Insert one copy of ``row`` per key: ``for k in keys: insert(k, row)``.

        The loaders' bulk entry point, shared with
        :meth:`repro.storage.columnar.ColumnarTable.insert_many`, which takes
        only ``range(len(t), len(t) + n)`` and raises :class:`TableError` for
        any other keys; here every row is a boxed object, so it is the loop.
        """
        insert = self.insert
        for key in keys:
            insert(key, row)

    def upsert(self, key, value: dict) -> Record:
        """Insert or overwrite without raising on duplicates (loader use only)."""
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
