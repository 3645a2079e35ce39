"""Record representation shared by every protocol.

A record carries the TicToc metadata (``wts``/``rts``) used by Primo and
Sundial and a monotone ``version`` used by Silo-style validation.  It carries
nothing about locks: :class:`repro.storage.lock.LockManager` keys its table
by the record itself, for as long as the record is held or awaited.

A row is stored as two references, not a dict: ``_cells``, the tuple of its
column values, and ``_names``, the tuple of its column names in insertion
order.  ``_names`` is interned once per distinct order (:data:`layout`) and
shared by every row with that order, so an 8-column row costs its record and
one cell tuple, ≈ 190 bytes, where a private dict made it ≈ 350.  A record is
built straight from a layout and a cell tuple: the bulk loader
(:meth:`repro.storage.table.Table.load`) hands over the cells its workload
produced, so a loaded row never exists as a dict.  Readers still see
``{column: value}`` dicts: :attr:`Record.value`, :meth:`read` and
:meth:`snapshot` build a fresh one per call, in the order ``dict.update``
would have left the columns.  That dict is the price: building it from the
two tuples takes about four times as long as copying a dict did.
"""

from __future__ import annotations

from typing import Any

__all__ = ["Record", "layout"]

#: Column-name tuples by themselves: one shared object per distinct order.
_LAYOUTS: dict[tuple, tuple] = {}
#: ``layout(names, names)`` is the shared copy of the column-name tuple
#: ``names`` (a builtin call: every inserted row, whole-row write and new
#: column goes through it).
layout = _LAYOUTS.setdefault


class Record:
    """A single row plus the concurrency-control metadata attached to it."""

    __slots__ = ("key", "_names", "_cells", "wts", "rts", "version", "deleted")

    def __init__(self, key: Any, names: tuple, cells: tuple):
        """``names`` is a shared :data:`layout`; ``cells`` holds one value per name."""
        self.key = key
        self._names = names
        self._cells = cells
        # TicToc valid interval [wts, rts]; fresh records are valid from time 0.
        self.wts: float = 0.0
        self.rts: float = 0.0
        # Monotone write counter used by Silo read-set validation.
        self.version: int = 0
        self.deleted = False

    # -- value access ----------------------------------------------------
    def snapshot(self) -> dict:
        """Copy of the current value (so buffered reads are isolated)."""
        return dict(zip(self._names, self._cells))

    value = property(snapshot)

    @value.setter
    def value(self, new_value: dict) -> None:
        names = tuple(new_value)
        self._names = layout(names, names)
        self._cells = tuple(new_value.values())

    def read(self) -> tuple:
        """``(private value copy, wts, rts, version)``: a read entry's fields."""
        return dict(zip(self._names, self._cells)), self.wts, self.rts, self.version

    def undo_image(self) -> tuple:
        """The row as :meth:`restore` puts it back: the immutable
        ``(names, cells)`` pair itself, which no later write can change."""
        return self._names, self._cells

    def restore(self, image: tuple) -> None:
        """Put back a row taken by :meth:`undo_image`; the metadata is untouched."""
        self._names, self._cells = image

    def get(self, column: str, default: Any = None) -> Any:
        try:
            return self._cells[self._names.index(column)]
        except ValueError:
            return default

    def install_fields(self, updates: dict, ts: float) -> None:
        """Install a committed write at logical time ``ts`` (TicToc
        semantics): only the listed columns change, and a new column is
        appended, as ``dict.update`` would."""
        names = self._names
        cells = list(self._cells)
        for column, cell in updates.items():
            try:
                cells[names.index(column)] = cell
            except ValueError:
                names += (column,)
                cells.append(cell)
        if names is not self._names:
            self._names = layout(names, names)
        self._cells = tuple(cells)
        self.wts = ts
        self.rts = ts
        self.version += 1

    def extend_rts(self, ts: float) -> None:
        """Extend the valid interval so that ``ts`` ∈ [wts, rts]."""
        if ts > self.rts:
            self.rts = ts

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Record(key={self.key!r}, wts={self.wts}, rts={self.rts}, "
            f"version={self.version})"
        )
