"""Watermark-based asynchronous distributed group commit (WM, §5).

Every partition leader runs an independent loop each ``epoch_length_us``
(the paper's interval ``t_m``):

1. flush its log (quorum replication), so everything executed so far on the
   partition is durable;
2. compute its partition watermark ``Wp`` — the minimum logical timestamp
   (or lower bound ``lts``) of its active transactions, kept monotone
   (Rule 1 / requirements R1 & R2 of §5.1);
3. persist a watermark log record and broadcast ``Wp`` to the other
   partitions with one-way messages (no synchronisation);
4. under a fault plan, have the recovery coordinator drop from every log
   the history no recovery can read any more
   (:meth:`repro.cluster.recovery.RecoveryCoordinator.forget_unreadable_history`).

Each partition keeps a table of the last watermark heard from every other
partition; the minimum of that table is the global watermark ``Wg``, and every
executed transaction with ``ts < Wg`` is acknowledged to its client.

Force update (§5.1 "lagging partitions"): when a partition's watermark falls
behind the average of the others, it raises the *timestamp floor* used for new
transactions (and, when idle, its own watermark) by the difference, so a slow
or idle partition cannot indefinitely hold back the global watermark.

On a crash, the recovery coordinator (``repro.cluster.recovery``) agrees on a
global watermark via the membership service; transactions with ``ts`` at or
above the agreed value are rolled back (crash-induced aborts), everything
below is durable — this scheme exposes :meth:`resolve_after_crash` for that.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..commit.base import CRASH_ABORTED, DURABLE, DurabilityScheme
from ..commit.logging import LogRecordKind
from ..registry import register_durability
from ..sim.engine import Event

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.server import Server
    from ..txn.transaction import Transaction

__all__ = ["WatermarkGroupCommit"]


class _PartitionWatermarkState:
    """Per-partition WM bookkeeping; ``Wp`` is ``Server.partition_watermark``."""

    def __init__(self, n_partitions: int, partition_id: int):
        self.partition_id = partition_id
        # Last watermark heard from every partition (including ourselves).
        self.table = {p: 0.0 for p in range(n_partitions)}
        self.wg = 0.0
        # Executed transactions waiting for the global watermark: (ts, event).
        self.pending: list = []


@register_durability("wm", description="Primo's watermark-based asynchronous group commit")
class WatermarkGroupCommit(DurabilityScheme):
    name = "wm"

    def __init__(self, cluster):
        super().__init__(cluster)
        self._states = {
            p: _PartitionWatermarkState(self.config.n_partitions, p)
            for p in range(self.config.n_partitions)
        }
        self._message_delay_us: dict[int, float] = {}

    def set_message_delay(self, partition_id: int, delay_us: float) -> None:
        self._message_delay_us[partition_id] = float(delay_us)

    # -- worker-facing API ---------------------------------------------------------
    def start(self) -> None:
        for partition_id in range(self.config.n_partitions):
            self.env.process(
                self._watermark_loop(partition_id), name=f"wm-loop-p{partition_id}"
            )

    def transaction_executed(self, server: "Server", txn: "Transaction") -> Event:
        done = self.env.event()
        state = self._states[server.partition_id]
        ts = txn.effective_ts()
        if ts < state.wg:
            # Already below the global watermark (can happen for read-only or
            # very fast transactions): durable immediately.
            done.succeed(DURABLE)
            return done
        state.pending.append((ts, done))
        return done

    # -- the per-partition loop -------------------------------------------------------
    def _watermark_loop(self, partition_id: int):
        server = self.cluster.servers[partition_id]
        state = self._states[partition_id]
        while True:
            yield self.env.timeout(self.config.epoch_length_us)
            if server.crashed:
                continue
            # (1) make everything executed so far durable on this partition.
            if server.log.unpersisted_count > 0:
                yield from server.log.flush()
            # (2) compute the new partition watermark.
            wp = server.partition_watermark = self._compute_wp(server)
            # Advance the timestamp floor to the partition's logical-time
            # frontier: every transaction that starts from now on commits with
            # ts above everything already installed here, so the *next*
            # interval's watermark covers everything committed during this one
            # and the acknowledgement delay stays at interval scale.  This
            # strengthens the paper's "ts > Wp" constraint; raising a TicToc
            # commit timestamp is always legal.
            server.ts_floor = max(server.ts_floor, wp, server.highest_ts_seen)
            # Force update for lagging/idle partitions.
            if self.config.watermark_force_update:
                self._force_update(server, state)
            # (3) persist and broadcast what force update left.
            wp = server.partition_watermark
            server.log.append(LogRecordKind.WATERMARK, payload={"watermark": wp})
            self._receive_watermark(partition_id, partition_id, wp)
            delay = self._message_delay_us.get(partition_id, 0.0)
            for other in range(self.config.n_partitions):
                if other == partition_id:
                    continue
                self.env.process(
                    self._broadcast(partition_id, other, wp, delay),
                    name=f"wm-broadcast-p{partition_id}",
                )
            # (4) drop the log history no recovery can read any more.
            if server.log.retain_history:
                self.cluster.recovery.forget_unreadable_history()

    def _broadcast(self, source: int, destination: int, wp: float, delay_us: float):
        """Send one watermark message, optionally lagged (Fig. 13a injection)."""
        if delay_us > 0:
            yield self.env.timeout(delay_us)
        else:
            yield self.env.timeout(0.0)
        self.cluster.network.send(
            source, destination, self._receive_watermark, destination, source, wp
        )

    def _compute_wp(self, server: "Server") -> float:
        wp = server.partition_watermark
        candidates = []
        active_min = server.active_txns.min_effective_ts()
        if active_min is not None:
            candidates.append(active_min)
        unpersisted_min = server.log.unpersisted_min_ts()
        if unpersisted_min is not None:
            candidates.append(unpersisted_min)
        if candidates:
            return max(wp, min(candidates))
        # Idle partition: everything it has seen is durable, so the watermark
        # may advance to just past the highest timestamp it assigned/installed.
        return max(wp, server.highest_ts_seen + 1)

    def _force_update(self, server: "Server", state: _PartitionWatermarkState) -> None:
        others = [
            w for p, w in state.table.items() if p != state.partition_id
        ]
        if not others:
            return
        average = sum(others) / len(others)
        wp = server.partition_watermark
        if wp >= average:
            return
        delta = average - wp
        self.cluster.counters.increment("watermark_force_updates")
        # Future transactions on this partition must pick timestamps above the
        # average so the next watermark can catch up (R2 + Δ, §5.1).
        server.ts_floor = max(server.ts_floor, wp + delta)
        if server.active_txns.is_empty() and server.log.unpersisted_count == 0:
            server.partition_watermark = wp + delta

    # -- watermark propagation ------------------------------------------------------------
    def _receive_watermark(self, at_partition: int, from_partition: int, wp: float) -> None:
        state = self._states[at_partition]
        if wp > state.table.get(from_partition, 0.0):
            state.table[from_partition] = wp
        new_wg = min(state.table.values())
        if new_wg > state.wg:
            state.wg = new_wg
            self._release_pending(state)

    def _release_pending(self, state: _PartitionWatermarkState) -> None:
        still_pending = []
        wg = state.wg
        for pending in state.pending:
            if pending[1].triggered:
                continue
            if pending[0] < wg:
                pending[1].succeed(DURABLE)
            else:
                still_pending.append(pending)
        state.pending = still_pending

    # -- failure handling -------------------------------------------------------------------
    def resolve_after_crash(self, agreed_wg: float) -> dict[str, int]:
        """Apply the recovery decision: ack below ``agreed_wg``, abort the rest.

        Counts the acknowledged ones in ``recovery_durable`` and returns both
        counts (the crash-abort-rate experiment, Fig. 12b).
        """
        outcome = {"durable": 0, "crash_aborted": 0}
        for state in self._states.values():
            state.wg = max(state.wg, agreed_wg)
            for p in state.table:
                state.table[p] = max(state.table[p], agreed_wg)
            for ts, event in state.pending:
                if event.triggered:
                    continue
                if ts < agreed_wg:
                    event.succeed(DURABLE)
                    outcome["durable"] += 1
                else:
                    event.succeed(CRASH_ABORTED)
                    outcome["crash_aborted"] += 1
            state.pending = []
        self.cluster.counters.increment("recovery_durable", outcome["durable"])
        return outcome
