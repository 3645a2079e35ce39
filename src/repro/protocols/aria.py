"""Aria: deterministic batch execution without prior read/write-set knowledge.

Aria (Lu et al., VLDB'20) processes transactions in batches.  Within a batch
every transaction reads the snapshot produced by the previous batch and makes
*reservations* for its writes; a barrier then lets every partition learn the
reservations, and the commit phase deterministically aborts transactions that
lost a write-after-write reservation or read a record a smaller-ID transaction
reserves for writing.  Aborted transactions rerun in the next batch.

What the model captures (matching §2.2 / §6.2 of the Primo paper):

* no per-transaction 2PC and no write-set logging (inputs are logged by the
  sequencing layer, off the critical path);
* two synchronisation barriers per batch (one round trip each) plus the
  sequencing epoch, which show up as the ``wait_batch``/``sequence`` latency
  components;
* conflict aborts that grow quickly with contention because the reservation
  window spans the whole batch.

Aria replaces the per-worker closed loop: the cluster starts
:meth:`AriaProtocol.run_loop` instead of spawning workers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from ..commit.base import CommitReceipt
from ..sim.engine import all_of
from ..storage.lock import LockPolicy
from ..txn.context import TxnContext
from ..txn.transaction import AbortReason, Transaction, TxnAborted, UserAbort, WriteEntry
from ..registry import register_protocol
from .base import BaseProtocol, install_write_entries

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.server import Server

__all__ = ["AriaProtocol", "AriaContext"]


class AriaContext(TxnContext):
    """Snapshot reads + write reservations."""

    def _before_write(self, entry: WriteEntry) -> None:
        # Reservation messages are batched with the execution phase: no
        # blocking round trip, the reservation table is updated directly.
        self.protocol.reserve_write(entry.partition, entry.table, entry.key, self.txn.tid)


@register_protocol("aria", default_durability="none",
                   description="deterministic batch execution")
class AriaProtocol(BaseProtocol):
    name = "aria"
    lock_policy = LockPolicy.NO_WAIT
    runs_own_loop = True
    context_class = AriaContext

    def __init__(self, cluster):
        super().__init__(cluster)
        # partition -> {(table, key): smallest reserving TID}
        self._write_reservations: dict[int, dict] = {}

    def run_transaction(self, server, txn, logic):  # pragma: no cover - not used
        raise NotImplementedError("Aria uses its own batch loop (run_loop)")

    # -- reservations -----------------------------------------------------------
    def reserve_write(self, partition: int, table: str, key, tid) -> None:
        reservations = self._write_reservations.setdefault(partition, {})
        current = reservations.get((table, key))
        if current is None or tid < current:
            reservations[(table, key)] = tid

    def _lost_reservation(self, txn: Transaction) -> bool:
        for entry in txn.write_set:
            owner = self._write_reservations.get(entry.partition, {}).get(
                (entry.table, entry.key)
            )
            if owner is not None and owner < txn.tid:
                return True
        return False

    def _reads_conflict(self, txn: Transaction) -> bool:
        for entry in txn.read_set:
            owner = self._write_reservations.get(entry.partition, {}).get(
                (entry.table, entry.key)
            )
            if owner is not None and owner < txn.tid:
                return True
        return False

    # -- the batch loop ----------------------------------------------------------------
    def run_loop(self) -> Generator:
        """Main Aria driver started by the cluster instead of worker fibers."""
        config = self.config
        sources = {
            p: self.cluster.new_txn_source(p, stream_id=0)
            for p in range(config.n_partitions)
        }
        # Transactions carried over from the previous batch after an abort.
        carry_over: dict[int, list] = {p: [] for p in range(config.n_partitions)}
        while not self.cluster.stopped:
            batch_start = self.env.now
            self._write_reservations = {p: {} for p in range(config.n_partitions)}
            self.cluster.counters.increment("aria_batches")

            # ---- sequencing: assemble the batch -------------------------------
            batch: dict[int, list] = {}
            for partition in range(config.n_partitions):
                entries = list(carry_over[partition])
                while len(entries) < config.aria_batch_size_per_partition:
                    spec = sources[partition].next()
                    server = self.cluster.servers[partition]
                    txn = server.new_transaction(spec.name)
                    txn.first_start_time = self.env.now
                    entries.append((spec, txn))
                batch[partition] = entries
                carry_over[partition] = []

            # ---- execution phase ------------------------------------------------
            execution_results: list = []
            partition_processes = []
            for partition, entries in batch.items():
                server = self.cluster.servers[partition]
                partition_processes.append(
                    self.env.process(
                        self._execute_partition(server, entries, execution_results),
                        name=f"aria-exec-p{partition}",
                    )
                )
            yield all_of(self.env, partition_processes)
            execution_end = self.env.now

            # ---- barrier 1: exchange reservations --------------------------------
            yield from self._barrier()

            # ---- commit phase ------------------------------------------------------
            for txn, spec, ok, server in execution_results:
                if not ok:
                    txn.abort_reason = txn.abort_reason or AbortReason.VALIDATION
                    self.cluster.record_abort(server, txn)
                    if txn.abort_reason is not AbortReason.USER:
                        fresh = server.new_transaction(spec.name)
                        fresh.first_start_time = txn.first_start_time
                        carry_over[server.partition_id].append((spec, fresh))
                    continue
                if self._lost_reservation(txn) or self._reads_conflict(txn):
                    txn.abort_reason = AbortReason.RESERVATION
                    self.cluster.record_abort(server, txn)
                    fresh = server.new_transaction(spec.name)
                    fresh.first_start_time = txn.first_start_time
                    carry_over[server.partition_id].append((spec, fresh))
                    continue
                commit_ts = server.highest_ts_seen + 1
                txn.ts = commit_ts
                for partition in sorted(txn.all_partitions()):
                    target = self.server_of(partition)
                    writes = txn.writes_for_partition(partition)
                    if writes:
                        install_write_entries(target, txn, writes, commit_ts, log=False)
                        target.note_ts(commit_ts)
                txn.commit_end_time = self.env.now
                txn.add_breakdown("wait_batch", max(0.0, execution_end - txn.execute_end_time))
                txn.add_breakdown("sequence", self.config.epoch_length_us / 2.0)
                counted_at = self.cluster.record_commit(server, txn)
                self.cluster.record_durable(
                    CommitReceipt(self.cluster, txn, counted_at))
            # Commit ends an attempt's life: hold none across the barrier.
            execution_results.clear()
            batch = entries = partition_processes = txn = None

            # ---- barrier 2: all partitions agree the batch is done -----------------
            yield from self._barrier()
            # Avoid spinning when the simulation is otherwise idle.
            if self.env.now - batch_start < self.config.cpu_txn_logic_us:
                yield self.env.timeout(self.config.cpu_txn_logic_us)

    def _execute_partition(self, server: "Server", entries: list, results: list) -> Generator:
        """Execute the partition's share of the batch on its worker fibers."""
        queue = list(entries)
        fibers = []
        for _ in range(self.config.concurrency_per_partition):
            fibers.append(
                self.env.process(self._partition_worker(server, queue, results))
            )
        yield all_of(self.env, fibers)

    def _partition_worker(self, server: "Server", queue: list, results: list) -> Generator:
        while queue:
            spec, txn = queue.pop(0)
            txn.start_time = self.env.now
            context = self.create_context(server, txn)
            ok = True
            try:
                yield from self.cpu(self.config.cpu_txn_logic_us)
                yield from spec.logic(context)
            except UserAbort:
                txn.abort_reason = AbortReason.USER
                ok = False
            except TxnAborted as aborted:
                txn.abort_reason = aborted.reason
                ok = False
            txn.execute_end_time = self.env.now
            txn.add_breakdown("execute", txn.execute_end_time - txn.start_time)
            results.append((txn, spec, ok, server))

    def _barrier(self) -> Generator:
        """One synchronisation round across all partitions (coordinator at 0)."""
        round_trip = self.network.roundtrip_us(0, (self.config.n_partitions - 1) or 0)
        handling = self.config.cpu_message_handling_us * 2 * self.config.n_partitions
        yield self.env.timeout(round_trip + handling)
