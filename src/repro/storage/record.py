"""Record representation shared by every protocol.

A record carries the TicToc metadata (``wts``/``rts``) used by Primo and
Sundial and a monotone ``version`` used by Silo-style validation.  It carries
nothing about locks: :class:`repro.storage.lock.LockManager` keys its table
by the record itself, for as long as the record is held or awaited.

Values are stored as plain Python dictionaries (column name → value) so that
the TPC-C tables read naturally; YCSB simply stores ``{"field0": ...}``.
"""

from __future__ import annotations

from typing import Any

__all__ = ["Record"]


class Record:
    """A single row plus the concurrency-control metadata attached to it."""

    __slots__ = ("key", "value", "wts", "rts", "version", "deleted")

    def __init__(self, key: Any, value: dict):
        self.key = key
        self.value = dict(value)
        # TicToc valid interval [wts, rts]; fresh records are valid from time 0.
        self.wts: float = 0.0
        self.rts: float = 0.0
        # Monotone write counter used by Silo read-set validation.
        self.version: int = 0
        self.deleted = False

    # -- value access ----------------------------------------------------
    def snapshot(self) -> dict:
        """Copy of the current value (so buffered reads are isolated)."""
        return dict(self.value)

    def read(self) -> tuple:
        """``(private value copy, wts, rts, version)``: a read entry's fields."""
        return dict(self.value), self.wts, self.rts, self.version

    def undo_image(self) -> dict:
        """The row as :meth:`restore` puts it back: a private copy of the value."""
        return dict(self.value)

    def restore(self, image: dict) -> None:
        """Put back a row taken by :meth:`undo_image`; the metadata is untouched."""
        self.value = dict(image)

    def get(self, column: str, default: Any = None) -> Any:
        return self.value.get(column, default)

    def install(self, new_value: dict, ts: float) -> None:
        """Install a committed write at logical time ``ts`` (TicToc semantics)."""
        self.value = dict(new_value)
        self.wts = ts
        self.rts = ts
        self.version += 1

    def install_fields(self, updates: dict, ts: float) -> None:
        """Install a partial update (only the listed columns change)."""
        self.value.update(updates)
        self.wts = ts
        self.rts = ts
        self.version += 1

    def extend_rts(self, ts: float) -> None:
        """Extend the valid interval so that ``ts`` ∈ [wts, rts]."""
        if ts > self.rts:
            self.rts = ts

    def valid_at(self, ts: float) -> bool:
        """True if a read at logical time ``ts`` is consistent with this record."""
        return self.wts <= ts <= self.rts

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Record(key={self.key!r}, wts={self.wts}, rts={self.rts}, "
            f"version={self.version})"
        )
