"""The recovery protocol of §5.2.

Crashes are injected declaratively — ``ScenarioSpec(faults=[...])`` /
``Cluster(faults=...)``, applied by :class:`repro.faults.FaultScheduler`
(the experiment of Fig. 12b kills one partition leader after a fixed
interval; storms and rolling crashes are longer plans).

``RecoveryCoordinator`` reacts to the membership service's failure
notification and runs the paper's recovery sequence:

1. the failed partition elects a new leader from its replication group, which
   by Raft's guarantees has every transaction below the last persisted
   partition watermark;
2. every partition publishes its latest partition watermark under a fresh
   TERM-ID; the agreed global watermark is the maximum published value;
3. transactions with ``ts`` at or above the agreed watermark are rolled back
   (their results were never returned to clients) using the undo images in the
   partitions' logs, everything below is acknowledged;
4. normal processing resumes.

Crash state lives on ``Server`` (``crashed``, ``partition_watermark``); the
scheme's crash hooks are ``notify_crash`` (run by ``Server.crash()``) and
``resolve_after_crash`` (step 3 here).

The history these steps read is bounded, and this module alone decides
where: :meth:`RecoveryCoordinator.forget_unreadable_history`, which every WM
watermark tick calls, computes both floors and drops what lies below them
from every log.  So a faulted run keeps about a watermark lag of history,
not the whole run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from ..commit.logging import LogRecordKind

if TYPE_CHECKING:  # pragma: no cover
    from .cluster import Cluster

__all__ = ["RecoveryCoordinator"]


class RecoveryCoordinator:
    """Runs watermark agreement + rollback after a partition-leader failure."""

    def __init__(self, cluster: "Cluster"):
        self.cluster = cluster
        self.env = cluster.env
        self._in_progress: set[int] = set()
        # Terms whose watermarks are published and whose rollback has not run.
        self._agreeing: set[int] = set()

    def start(self) -> None:
        self.cluster.membership.on_failure(self._on_failure)

    def _on_failure(self, partition_id: int) -> None:
        # Deduplicate: a fault-scheduled recovery (`trigger`) and the
        # heartbeat monitor's failure notification can race to the same
        # conclusion; whichever fires second must not start a second
        # concurrent recovery for the partition.
        if partition_id in self._in_progress:
            return
        self._in_progress.add(partition_id)
        self.env.process(self._recover(partition_id), name=f"recovery-p{partition_id}")

    def trigger(self, partition_id: int) -> None:
        """Explicitly recover a crashed partition (``recover`` fault events).

        No-ops when the partition is up or a recovery for it is already in
        flight, so a scheduled recovery composes safely with heartbeat-based
        failure detection racing to the same conclusion.
        """
        if not self.cluster.servers[partition_id].crashed:
            return
        self._on_failure(partition_id)

    # -- the recovery sequence ------------------------------------------------------
    def _recover(self, partition_id: int) -> Generator:
        cluster = self.cluster
        failed = cluster.servers[partition_id]
        recovery_started = self.env.now

        # (1) leader re-election inside the failed partition's replica group.
        yield from failed.replication.elect_new_leader()

        # (1b) quiesce: pause new transactions, abort orphaned transactions
        # coordinated by the failed partition, and let in-flight commit
        # messages drain so the rollback below sees a settled state.
        cluster.pause_event = self.env.event()
        for server in cluster.servers.values():
            for txn in list(server.active_txns._active.values()):
                if txn.coordinator == partition_id:
                    server.store.lock_manager.release_all(txn.tid)
                    server.active_txns.deregister(txn)
        for _ in range(200):
            survivors_idle = all(
                len(server.active_txns) == 0
                for pid, server in cluster.servers.items()
                if pid != partition_id
            )
            if survivors_idle:
                break
            yield self.env.timeout(100.0)

        # (2) watermark agreement via the membership service (TERM-ID keyed).
        term = cluster.membership.new_recovery_term()
        for pid, watermark in self.watermarks_to_publish(partition_id).items():
            cluster.membership.publish_watermark(term, pid, watermark)
        # Publishing goes through the membership service's consensus: charge a
        # round trip per partition (they run in parallel, so one round trip).
        # Until the rollback, what this term publishes bounds what logs forget.
        self._agreeing.add(term)
        yield self.env.timeout(cluster.network.roundtrip_us(0, partition_id))
        agreed = cluster.membership.agreed_global_watermark(term) or 0.0

        # (3) roll back transactions with ts >= agreed on every partition.
        rolled_back = 0
        for server in cluster.servers.values():
            rolled_back += self._rollback_partition(server, agreed)
        self._agreeing.discard(term)
        cluster.counters.increment("recovery_rolled_back", rolled_back)

        # (3b) re-deliver remote writes of kept transactions whose one-way
        # commit message to the crashed partition was lost in flight.
        redelivered = self._redeliver_lost_writes(partition_id, agreed)
        cluster.counters.increment("recovery_redelivered", redelivered)

        cluster.durability.resolve_after_crash(agreed)

        # (4) resume normal processing.
        failed.recover_as_new_leader()
        cluster.membership.mark_recovered(partition_id)
        if cluster.pause_event is not None and not cluster.pause_event.triggered:
            cluster.pause_event.succeed(None)
        cluster.pause_event = None
        self._in_progress.discard(partition_id)
        cluster.counters.increment("recoveries_completed")
        # Elapsed simulated time of the whole §5.2 sequence (election through
        # resume) — the storm figure reports it alongside degradation depth.
        # Counters are integer-valued; whole microseconds are plenty here.
        cluster.counters.increment(
            "recovery_time_us", int(round(self.env.now - recovery_started))
        )

    # -- the cut ------------------------------------------------------------------------
    def watermarks_to_publish(self, failed_partition: int) -> dict[int, float]:
        """What every partition would publish now if ``failed_partition`` failed.

        The failed partition offers the last watermark its log persisted, the
        others their partition watermark.  Only WM sets one, so under every
        other scheme each value is 0.0.  No value ever decreases.
        """
        return {
            pid: (server.log.latest_persisted_watermark() if pid == failed_partition
                  else server.partition_watermark)
            for pid, server in self.cluster.servers.items()
        }

    def lowest_agreeable_watermark(self) -> float:
        """The lowest global watermark any recovery can still agree on.

        A recovery agrees on the maximum of what its partitions publish, and
        no published value decreases.  So a recovery that publishes later
        agrees on at least the minimum, over the partition that fails, of the
        maximum :meth:`watermarks_to_publish` gives now.  A recovery that has
        published but not rolled back yet agrees on what it published.  No
        rollback can select a write-set below the result.
        """
        membership = self.cluster.membership
        lowest = min(max(self.watermarks_to_publish(pid).values())
                     for pid in self.cluster.servers)
        for term in self._agreeing:
            lowest = min(lowest, membership.agreed_global_watermark(term))
        return lowest

    def forget_unreadable_history(self) -> None:
        """Drop from every log the history no recovery can read any more.

        * Write-sets below :meth:`lowest_agreeable_watermark`: step 3 selects
          only write-sets at or above the agreed watermark.
        * Commit decisions below the lowest partition watermark that ship no
          insert.  Every target of a non-insert write registered the
          transaction at its dummy read (§4.2 blind-write handling), which
          holds the target's watermark at or below the commit timestamp until
          the write is installed.  :meth:`_redeliver_lost_writes` would find
          each row at that timestamp already and skip it.  An insert
          registers nothing, so a decision that ships one is kept.
        * ``WATERMARK`` records older than the newest persisted one, which is
          all :meth:`watermarks_to_publish` reads of a failed partition.

        The floors move with every partition's watermark, and under WM the
        partitions tick at the same instants.  Trimming only the ticking
        partition's log would use the floors from before the later ticks of
        that instant, so the first partition to tick would keep an extra
        interval of history: every log is trimmed at once.
        """
        servers = self.cluster.servers
        writeset_floor = self.lowest_agreeable_watermark()
        decision_floor = min(server.partition_watermark for server in servers.values())
        for server in servers.values():
            server.log.forget(writeset_floor, decision_floor)

    def _redeliver_lost_writes(self, crashed_partition: int, agreed_watermark: float) -> int:
        """Re-install writes below the agreed watermark that never reached the
        crashed partition (its leader died before the one-way message landed)."""
        target = self.cluster.servers[crashed_partition]
        redelivered = 0
        for pid, server in self.cluster.servers.items():
            if pid == crashed_partition:
                continue
            for record in server.log.records(LogRecordKind.COMMIT_DECISION):
                if record.txn_ts is None or record.txn_ts >= agreed_watermark:
                    continue
                if record.payload is None:
                    continue
                writes = record.payload.get(crashed_partition)
                if not writes:
                    continue
                for table_name, key, updates, is_insert, is_delete in writes:
                    table = target.store.table(table_name)
                    existing = table.get(key)
                    if is_delete:
                        if existing is not None and existing.wts < record.txn_ts:
                            table.delete(key)
                        continue
                    if existing is None:
                        if is_insert or updates:
                            fresh = table.upsert(key, updates)
                            fresh.wts = fresh.rts = record.txn_ts
                            redelivered += 1
                        continue
                    if existing.wts < record.txn_ts:
                        existing.install_fields(updates, record.txn_ts)
                        redelivered += 1
        return redelivered

    def _rollback_partition(self, server, agreed_watermark: float) -> int:
        """Undo installed writes of transactions above the agreed watermark."""
        records = server.log.writeset_records_at_or_after(agreed_watermark)
        rolled_back = 0
        for record in reversed(records):
            for table_name, key, image in record.undo_images():
                table = server.store.table(table_name)
                if image is None:
                    # The write was an insert: remove the record again.
                    if table.get(key) is not None:
                        table.delete(key)
                    continue
                target = table.get(key)
                if target is not None:
                    target.restore(image)
                    target.version += 1
            rolled_back += 1
        return rolled_back
