"""Transaction context: the one record-access path every protocol runs on.

Workload transactions are written once and run unchanged under every
protocol.  They are simulation generators receiving a :class:`TxnContext`:

    def new_order(ctx):
        warehouse = yield from ctx.read(w_partition, "warehouse", w_id)
        ...
        yield from ctx.update(w_partition, "district", d_key, {"d_next_o_id": next_o_id})

:meth:`TxnContext.read` and :meth:`TxnContext.update` / ``insert`` /
``delete`` are the *only* implementation of an access: each is one generator
frame that charges ``cpu_record_access_us`` once, and ``read`` dedupes
against the read-set, fetches the record (taking the protocol's lock),
reads it in one call, records the :class:`ReadEntry`, lets the ``stale_read``
fault observe the read and overlays the transaction's own buffered writes.
Protocols do **not** override them.  A protocol's context subclass supplies
only what genuinely differs:

``local_lock``
    Lock a first read of a local record takes: ``None`` (optimistic),
    ``LockMode.SHARED`` or ``LockMode.EXCLUSIVE``.  May change mid-transaction
    (Primo's local → distributed switch).
``registers_lower_bound``
    TicToc family: the first local read registers the transaction's
    watermark lower bound (§5.1 R1).
``_remote_read(partition, table, key)``
    Generator returning the finished, not yet registered :class:`ReadEntry`
    of a record on a foreign partition, or raising :class:`TxnAborted`.  The
    default asks ``protocol.remote_read``.
``_before_write(entry)``
    Runs after the charge and before the write is buffered.  Returns ``None``
    when there is nothing to wait for, else a generator to delegate to (the
    shape of ``LockManager.acquire_nowait``: the common case pays no frame).
"""

from __future__ import annotations

from typing import Generator, Optional

from .transaction import AbortReason, ReadEntry, Transaction, TxnAborted, UserAbort, WriteEntry

__all__ = ["TxnContext"]


class TxnContext:
    """Execution-phase context; optimistic lock-free reads unless subclassed."""

    local_lock = None
    registers_lower_bound = False

    def __init__(self, protocol, server, txn: Transaction):
        self.protocol = protocol
        self.server = server
        self.txn = txn
        self.env = server.env
        # (partition, table, key) -> record, for every local record read.
        self.records: dict = {}
        # One attribute read per operation instead of two chained lookups
        # (config) and a method resolution (timeout).
        self._access_cost = protocol.config.cpu_record_access_us
        self._timeout = server.env.timeout

    # -- operations used by workload logic ---------------------------------
    def read(self, partition: int, table: str, key, *, dummy: bool = False) -> Generator:
        """Read a record; returns its value dictionary (a private copy).

        ``dummy=True`` is Primo's cover for a blind write (§4.2): the record
        is locked and joins the read-set exactly as a read would, but the
        transaction logic did not ask for it, so nothing is charged (the
        write already was), the ``stale_read`` fault does not observe it and
        nothing is returned.
        """
        if not dummy:
            cost = self._access_cost
            if cost > 0:
                yield self._timeout(cost)
        txn = self.txn
        entry = txn.find_read(partition, table, key)
        if entry is not None:
            value = dict(entry.value)
        else:
            server = self.server
            if partition == server.partition_id:
                record = server.store.table(table).get(key)
                if record is None:
                    raise TxnAborted(AbortReason.VALIDATION, f"missing record {table}:{key}")
                mode = self.local_lock
                if mode is not None:
                    ok = server.store.lock_manager.acquire_nowait(txn.tid, record, mode)
                    if type(ok) is not bool:
                        ok = yield ok
                    if not ok:
                        raise TxnAborted(
                            AbortReason.LOCK_CONFLICT, f"{mode.value} lock {table}:{key}"
                        )
                entry = ReadEntry(
                    partition, table, key, *record.read(), locked=mode is not None)
                self.records[(partition, table, key)] = record
                if self.registers_lower_bound and txn.lower_bound_ts == 0.0:
                    txn.lower_bound_ts = max(entry.wts, server.ts_floor + 1)
            else:
                entry = yield from self._remote_read(partition, table, key)
                entry.dummy = dummy
            txn.add_read(entry)
            value = entry.value
        if dummy:
            return None
        cluster = self.server.cluster
        if cluster.stale_read_active:
            # A stale_read fault window is open: this read may observe the
            # pre-durable snapshot (counted, protocol-independent).
            cluster.note_read(partition)
        if txn.write_set:
            write = txn.find_write(partition, table, key)
            if write is not None:
                value = {**value, **write.updates}
        return value

    def update(self, partition: int, table: str, key, updates: dict) -> Generator:
        """Buffer an update of selected columns of an existing record."""
        return self._write(WriteEntry(
            partition, table, key, dict(updates),
            local=partition == self.server.partition_id,
        ))

    def insert(self, partition: int, table: str, key, value: dict) -> Generator:
        """Buffer insertion of a new record."""
        return self._write(WriteEntry(
            partition, table, key, dict(value), is_insert=True,
            local=partition == self.server.partition_id,
        ))

    def delete(self, partition: int, table: str, key) -> Generator:
        """Buffer deletion of a record."""
        return self._write(WriteEntry(
            partition, table, key, {}, is_delete=True,
            local=partition == self.server.partition_id,
        ))

    def _write(self, entry: WriteEntry) -> Generator:
        cost = self._access_cost
        if cost > 0:
            yield self._timeout(cost)
        pending = self._before_write(entry)
        if pending is not None:
            yield from pending
        self.txn.add_write(entry)

    def index_lookup(self, partition: int, table: str, index: str, index_key) -> Generator:
        """Primary keys matching a secondary-index key (not transactionally
        protected, like DBx1000)."""
        cost = self._access_cost
        if cost > 0:
            yield self._timeout(cost)
        server = self.server
        if partition == server.partition_id:
            return server.store.table(table).index_lookup(index, index_key)
        target = self.protocol.server_of(partition)

        def remote_lookup():
            return target.store.table(table).index_lookup(index, index_key)

        keys = yield from self.protocol.network.rpc(server.partition_id, partition, remote_lookup)
        return keys

    def abort(self, detail: str = "") -> None:
        """User-specified abort (Rollback); never retried by the worker loop."""
        raise UserAbort(detail)

    # -- hooks a protocol's context may override ----------------------------
    def _remote_read(self, partition: int, table: str, key) -> Generator:
        return self.protocol.remote_read(self.server, self.txn, partition, table, key)

    def _before_write(self, entry: WriteEntry) -> Optional[Generator]:
        return None
