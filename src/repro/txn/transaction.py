"""Transaction descriptors: identifiers, read/write sets, abort reasons and timing.

A transaction is created by the worker loop at its *home* partition (the
coordinator, §4.1), given a globally-unique TID (coordinator id + local
counter) and then driven through a protocol.  The read-set and write-set
entries keep enough metadata for every protocol in the repo: observed TicToc
timestamps for Primo/Sundial, observed versions for Silo validation, and the
owning partition for routing the commit phase.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import total_ordering
from typing import Any, Optional

__all__ = [
    "TxnId",
    "ReadEntry",
    "WriteEntry",
    "Transaction",
    "TxnAborted",
    "UserAbort",
    "AbortReason",
]


@total_ordering
class TxnId:
    """Globally unique transaction id: (local counter, coordinator id).

    Ordering follows the counter first, so a smaller TID is (approximately)
    an older transaction — exactly what the WAIT_DIE policy needs.

    TIDs key every lock-holder dict and active-transaction registry, so the
    hash is computed once at construction and cached; ``__hash__`` on the
    hot path is a slot read, not a tuple allocation.
    """

    __slots__ = ("sequence", "coordinator", "_hash")

    def __init__(self, sequence: int, coordinator: int):
        self.sequence = sequence
        self.coordinator = coordinator
        self._hash = hash((sequence, coordinator))

    def _key(self) -> tuple[int, int]:
        return (self.sequence, self.coordinator)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TxnId)
            and self.sequence == other.sequence
            and self.coordinator == other.coordinator
        )

    def __lt__(self, other: "TxnId") -> bool:
        return self._key() < other._key()

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"TxnId({self.sequence}, p{self.coordinator})"


class AbortReason(enum.Enum):
    LOCK_CONFLICT = "lock_conflict"
    VALIDATION = "validation"
    DEADLOCK_PREVENTION = "deadlock_prevention"
    MODE_SWITCH = "mode_switch"      # Primo local→distributed re-check failed
    USER = "user"
    CRASH = "crash"
    RESERVATION = "reservation"      # Aria reservation lost


class TxnAborted(Exception):
    """Raised inside protocol/context code to unwind an aborting transaction."""

    def __init__(self, reason: AbortReason = AbortReason.LOCK_CONFLICT, detail: str = ""):
        super().__init__(f"{reason.value}: {detail}" if detail else reason.value)
        self.reason = reason
        self.detail = detail


class UserAbort(TxnAborted):
    """Explicit Rollback issued by the transaction logic (§4.2 corner cases)."""

    def __init__(self, detail: str = ""):
        super().__init__(AbortReason.USER, detail)


@dataclass(slots=True)
class ReadEntry:
    """One record read by the transaction."""

    partition: int
    table: str
    key: Any
    value: dict
    wts: float = 0.0
    rts: float = 0.0
    version: int = 0
    locked: bool = False          # did we take an exclusive lock for this read (WCF)?
    dummy: bool = False           # dummy read added for blind-write handling
    local: bool = True


@dataclass(slots=True)
class WriteEntry:
    """One buffered write (installed only at commit)."""

    partition: int
    table: str
    key: Any
    updates: dict
    is_insert: bool = False
    is_delete: bool = False
    local: bool = True


@dataclass(slots=True)
class Transaction:
    """Runtime state of a single transaction attempt.

    An attempt ends at commit: the worker keeps a
    :class:`~repro.commit.base.CommitReceipt`, nothing keeps the transaction.
    """

    tid: TxnId
    coordinator: int
    name: str = "txn"
    is_distributed: bool = False
    read_only: bool = False

    # Logical (TicToc) timestamp assigned in the commit phase, and the lower
    # bound used by the watermark scheme before the real ts is known (§5.1 R1).
    ts: Optional[float] = None
    lower_bound_ts: float = 0.0

    read_set: list = field(default_factory=list)
    write_set: list = field(default_factory=list)
    participants: set = field(default_factory=set)
    abort_reason: Optional[AbortReason] = None

    # (partition, table, key) -> entry indices over the two sets, so the
    # per-operation find_read/find_write lookups are O(1) instead of linear
    # scans (a transaction re-reads its own records constantly).
    _read_index: dict = field(default_factory=dict)
    _write_index: dict = field(default_factory=dict)

    # Wall-of-simulation timing marks used for latency/breakdown reporting.
    start_time: float = 0.0
    execute_end_time: float = 0.0
    commit_end_time: float = 0.0
    first_start_time: float = 0.0  # across retries, for end-to-end latency

    # Per-component time (µs) for the latency-breakdown figures; protocols fill
    # in '2pc'/'timestamp'/'commit'/'wait_batch'/'sequence', the worker loop
    # fills in 'execute'/'backoff'/'return'.
    breakdown: dict = field(default_factory=dict)

    def add_breakdown(self, component: str, duration: float) -> None:
        if duration > 0:
            self.breakdown[component] = self.breakdown.get(component, 0.0) + duration

    def effective_ts(self) -> float:
        """The timestamp the watermark scheme should use for this transaction."""
        return self.ts if self.ts is not None else self.lower_bound_ts

    # -- read/write set helpers -------------------------------------------
    def find_read(self, partition: int, table: str, key) -> Optional[ReadEntry]:
        return self._read_index.get((partition, table, key))

    def find_write(self, partition: int, table: str, key) -> Optional[WriteEntry]:
        return self._write_index.get((partition, table, key))

    def add_read(self, entry: ReadEntry) -> None:
        self.read_set.append(entry)
        self._read_index.setdefault((entry.partition, entry.table, entry.key), entry)
        if not entry.local:
            self.is_distributed = True
            self.participants.add(entry.partition)

    def add_write(self, entry: WriteEntry) -> None:
        index_key = (entry.partition, entry.table, entry.key)
        existing = self._write_index.get(index_key)
        if existing is not None and not entry.is_insert:
            existing.updates.update(entry.updates)
            return
        self.write_set.append(entry)
        if existing is None:
            self._write_index[index_key] = entry
        if not entry.local:
            self.is_distributed = True
            self.participants.add(entry.partition)

    def reads_for_partition(self, partition: int) -> list:
        return [e for e in self.read_set if e.partition == partition]

    def writes_for_partition(self, partition: int) -> list:
        return [e for e in self.write_set if e.partition == partition]

    def all_partitions(self) -> set:
        """Every partition the transaction touched, including the coordinator."""
        return {self.coordinator} | set(self.participants)
