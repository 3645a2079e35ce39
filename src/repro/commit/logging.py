"""Per-partition write-ahead log.

Protocols append a record per transaction per involved partition when they
install the write-set; the durability scheme decides *when* the buffered tail
gets persisted (synchronously, per epoch, per watermark interval, or by a
background flusher).  Persistence itself is delegated to the partition's
:class:`~repro.replication.raft.ReplicationGroup` — a quorum ack makes a
prefix durable.

A record holds only what recovery reads, in the smallest form that restores
the same state, and only while the log keeps its history
(``retain_history``, set from the fault plan).  The payload by record kind:

* ``WRITESET`` — the undo images the §5.2 rollback restores, as one flat
  tuple ``(table, key, image, table, key, image, ...)`` in write order.  An
  image is whatever the row's ``undo_image()`` returned (a tuple of column
  values for a columnar row, the immutable ``(names, cells)`` pair of a dict
  row), ``None``
  for an insert.  A key written twice by one write-set appears once, at its
  first write's position, with the last image taken.  Only this module packs
  and unpacks the layout (:meth:`LogManager.append_writeset`,
  :meth:`LogRecord.undo_images`).
* ``COMMIT_DECISION`` (Primo's coordinator) — the remote write-sets
  recovery re-delivers, ``{partition: ((table, key, updates, is_insert,
  is_delete), ...)}``; the record owns the shipped ``updates`` dicts.
* ``WATERMARK`` — ``{"watermark": wp}``; ``EPOCH`` — ``{"epoch": n}``.

A fault-free run can never recover, so its write-set and commit-decision
records carry no payload at all.  No redo copy of a write-set is kept:
nothing replays one.

Under a fault plan the history is bounded too.  Each WM watermark tick has
:meth:`repro.cluster.recovery.RecoveryCoordinator.forget_unreadable_history`
pick the floors and call :meth:`LogManager.forget`, which drops the records
no recovery can read any more: write-sets below the lowest watermark a
recovery can still agree on, commit decisions every target has installed,
and watermark records older than the newest persisted one.  So the retained history is about one
watermark lag, not the whole run.  A rollback that asks for history below what
was forgotten raises, as every helper does on a log that kept no history.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Generator, Iterator, Optional, Union

from ..sim.engine import Environment, Event
from ..sim.stats import Counter
from ..replication.raft import ReplicationGroup

__all__ = ["LogRecordKind", "LogRecord", "LogManager"]


class LogRecordKind(enum.Enum):
    WRITESET = "writeset"        # one transaction's write-set (+ undo images)
    WATERMARK = "watermark"      # persisted partition watermark (WM scheme)
    EPOCH = "epoch"              # COCO epoch boundary marker
    COMMIT_DECISION = "commit"   # 2PC coordinator commit decision
    PREPARE = "prepare"          # 2PC participant prepare record


@dataclass(slots=True)
class LogRecord:
    lsn: int
    kind: LogRecordKind
    txn_ts: Optional[float] = None
    #: ``WRITESET``: flat ``(table, key, image, ...)`` tuple;
    #: ``COMMIT_DECISION``: ``{partition: ((table, key, updates, is_insert,
    #: is_delete), ...)}``; ``WATERMARK`` / ``EPOCH``: ``{"watermark" |
    #: "epoch": value}``; ``None`` when nothing can read it (module docstring).
    payload: Union[tuple, dict, None] = None

    def undo_images(self) -> Iterator[tuple]:
        """A write-set record's ``(table, key, image)`` triples, in write order."""
        flat = self.payload or ()
        return zip(flat[0::3], flat[1::3], flat[2::3])


class LogManager:
    """Append-only log buffer with quorum-replicated flushes."""

    def __init__(
        self,
        env: Environment,
        partition_id: int,
        replication: ReplicationGroup,
        log_write_us: float = 15.0,
        counters: Optional[Counter] = None,
    ):
        self.env = env
        self.partition_id = partition_id
        self.replication = replication
        self.log_write_us = log_write_us
        self._next_lsn = 1
        self._buffer: list[LogRecord] = []
        self._all_records: list[LogRecord] = []
        # Full-history retention feeds the recovery helpers below; the
        # cluster turns it off for fault-free runs (nothing can ever crash,
        # so the history is unreachable) to keep log memory bounded by the
        # unflushed tail instead of growing with every committed transaction.
        self.retain_history = True
        # Every write-set below this was dropped by forget().
        self.forgotten_below = 0.0
        self._flush_in_progress = False
        self._flush_waiters: list[Event] = []
        self.counters = counters if counters is not None else Counter()

    # -- appends ----------------------------------------------------------------
    def append(
        self,
        kind: LogRecordKind,
        txn_ts: Optional[float] = None,
        payload: Union[tuple, dict, None] = None,
    ) -> LogRecord:
        record = LogRecord(self._next_lsn, kind, txn_ts, payload)
        self._next_lsn += 1
        self._buffer.append(record)
        if self.retain_history:
            self._all_records.append(record)
        return record

    def append_writeset(self, txn, undo_images: Optional[dict]) -> LogRecord:
        """Append one transaction's write-set record on this partition.

        ``undo_images`` maps ``(table, key)`` to the row's image before the
        install (``None`` for an insert) when the caller took them; the
        record stores them as the flat tuple the module docstring describes,
        and no payload when there are none.
        """
        payload = None
        if undo_images is not None:
            flat = []
            for (table, key), image in undo_images.items():
                flat += (table, key, image)
            payload = tuple(flat)
        return self.append(LogRecordKind.WRITESET, txn.effective_ts(), payload)

    # -- flush ------------------------------------------------------------------
    @property
    def last_lsn(self) -> int:
        return self._next_lsn - 1

    @property
    def durable_lsn(self) -> int:
        """The replicated prefix; the replication group owns it."""
        return self.replication.durable_lsn

    @property
    def unpersisted_count(self) -> int:
        return len(self._buffer)

    def unpersisted_min_ts(self) -> Optional[float]:
        """Minimum transaction timestamp among unpersisted write-set records."""
        ts_values = [r.txn_ts for r in self._buffer if r.kind is LogRecordKind.WRITESET and r.txn_ts is not None]
        return min(ts_values) if ts_values else None

    def is_durable(self, lsn: int) -> bool:
        return lsn <= self.durable_lsn

    def flush(self) -> Generator[Event, object, int]:
        """Persist everything appended so far; returns the new durable LSN.

        Concurrent callers piggyback on the in-flight flush (group flush): the
        second caller waits for the first flush to finish, then flushes any
        remainder itself.
        """
        if self._flush_in_progress:
            waiter = self.env.event()
            self._flush_waiters.append(waiter)
            yield waiter
            if not self._buffer:
                return self.durable_lsn
        if not self._buffer:
            return self.durable_lsn
        self._flush_in_progress = True
        batch, self._buffer = self._buffer, []
        target_lsn = batch[-1].lsn
        try:
            # Serialise the batch locally, then replicate for the quorum ack.
            yield self.env.timeout(self.log_write_us)
            yield from self.replication.replicate(target_lsn, batch)
        finally:
            self._flush_in_progress = False
            waiters, self._flush_waiters = self._flush_waiters, []
            for waiter in waiters:
                waiter.succeed(None)
        self.counters.increment("log_flushes")
        return self.durable_lsn

    # -- recovery helpers ----------------------------------------------------------
    def _require_history(self) -> None:
        if not self.retain_history:
            raise RuntimeError(
                f"log history was not retained on partition {self.partition_id} "
                "(fault-free run); recovery helpers are unavailable"
            )

    def records(self, kind: Optional[LogRecordKind] = None) -> list[LogRecord]:
        self._require_history()
        if kind is None:
            return list(self._all_records)
        return [r for r in self._all_records if r.kind is kind]

    def writeset_records_at_or_after(self, ts: float) -> list[LogRecord]:
        """Write-set records with transaction timestamp >= ts (rollback targets)."""
        self._require_history()
        if ts < self.forgotten_below:
            raise RuntimeError(
                f"write-sets below {self.forgotten_below} were forgotten on partition "
                f"{self.partition_id}; a rollback from {ts} would undo too little"
            )
        return [
            r
            for r in self._all_records
            if r.kind is LogRecordKind.WRITESET and r.txn_ts is not None and r.txn_ts >= ts
        ]

    def latest_persisted_watermark(self) -> float:
        """The most recent partition watermark known durable (used at fail-over).

        A partition watermark never decreases, so the newest replicated
        ``WATERMARK`` record holds the largest value.
        """
        self._require_history()
        record = self._newest_persisted_watermark()
        return 0.0 if record is None else record.payload["watermark"]

    def _newest_persisted_watermark(self) -> Optional[LogRecord]:
        persisted = self.replication.highest_replicated_lsn()
        for record in reversed(self._all_records):
            if record.kind is LogRecordKind.WATERMARK and record.lsn <= persisted:
                return record
        return None

    def forget(self, writeset_floor: float, decision_floor: float) -> None:
        """Drop the records below the floors the caller computed.

        * A write-set below ``writeset_floor``.
        * A commit decision below ``decision_floor`` whose shipped writes
          hold no insert.
        * Every ``WATERMARK`` record older than the newest persisted one,
          which is all :meth:`latest_persisted_watermark` reads.

        Records of other kinds are kept.  The caller picks the floors and
        says why no recovery reads what they drop:
        :meth:`repro.cluster.recovery.RecoveryCoordinator.forget_unreadable_history`.
        """
        self.forgotten_below = max(self.forgotten_below, writeset_floor)
        newest = self._newest_persisted_watermark()
        newest_watermark = 0 if newest is None else newest.lsn
        kept = []
        for record in self._all_records:
            kind = record.kind
            if kind is LogRecordKind.WRITESET:
                if record.txn_ts < writeset_floor:
                    continue
            elif kind is LogRecordKind.COMMIT_DECISION:
                if record.txn_ts < decision_floor and not _ships_an_insert(record.payload):
                    continue
            elif kind is LogRecordKind.WATERMARK:
                if record.lsn < newest_watermark:
                    continue
            kept.append(record)
        self._all_records = kept


def _ships_an_insert(payload: Optional[dict]) -> bool:
    """Whether a commit decision's shipped write-sets hold an insert."""
    return payload is not None and any(
        write[3] for writes in payload.values() for write in writes)
