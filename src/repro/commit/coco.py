"""COCO-style epoch-based distributed group commit (§2.3).

One partition (partition 0) acts as the epoch coordinator.  Every
``epoch_length_us`` it runs the synchronous protocol:

1. ``GROUP-PREPARE`` to every partition.  A partition closes admission of new
   transactions, waits for in-flight transactions of the epoch to drain,
   flushes its log, and answers ``GROUP-READY``.
2. Once every partition is ready the coordinator sends ``GROUP-COMMIT``;
   partitions acknowledge all transactions of the epoch to their clients and
   re-open admission.
3. If a partition has crashed the coordinator sends ``GROUP-ABORT`` and every
   transaction of the epoch is aborted (crash-induced abort).

The synchronous barrier is exactly what limits COCO's scalability in the
paper (Figs. 13 and 14): the stall seen by every partition is the *maximum*
drain+flush time over all partitions plus the coordinator's message handling,
both of which grow with the number of partitions.
"""

from __future__ import annotations

from typing import Optional

from ..registry import register_durability
from ..sim.engine import Event, all_of
from ..sim.network import NodeUnreachable
from .base import CRASH_ABORTED, DURABLE, DurabilityScheme
from .logging import LogRecordKind

__all__ = ["CocoGroupCommit"]


class _PartitionEpochState:
    """Per-partition admission gate and pending-transaction lists."""

    def __init__(self, env):
        self.env = env
        self.closed = False
        self.open_event: Optional[Event] = None
        # epoch number -> completion events of the epoch's transactions
        self.pending: dict[int, list] = {}
        self.inflight = 0
        self.drained_event: Optional[Event] = None

    def gate(self) -> Optional[Event]:
        if not self.closed:
            return None
        if self.open_event is None or self.open_event.triggered:
            self.open_event = self.env.event()
        return self.open_event

    def close(self) -> None:
        self.closed = True

    def open(self) -> None:
        self.closed = False
        if self.open_event is not None and not self.open_event.triggered:
            self.open_event.succeed(None)
        self.open_event = None


@register_durability("coco", description="COCO epoch-based synchronous group commit")
class CocoGroupCommit(DurabilityScheme):
    name = "coco"

    def __init__(self, cluster):
        super().__init__(cluster)
        self.epoch = 0
        self.coordinator_partition = 0
        self._states = {p: _PartitionEpochState(self.env) for p in range(self.config.n_partitions)}
        self._message_delay_us: dict[int, float] = {}

    def set_message_delay(self, partition_id: int, delay_us: float) -> None:
        self._message_delay_us[partition_id] = float(delay_us)

    # -- worker-facing API ---------------------------------------------------
    def start(self) -> None:
        self.env.process(self._epoch_loop(), name="coco-epoch-manager")

    def admission_gate(self, server) -> Optional[Event]:
        return self._states[server.partition_id].gate()

    def transaction_begin(self, server) -> None:
        self._states[server.partition_id].inflight += 1

    def transaction_finished(self, server) -> None:
        state = self._states[server.partition_id]
        state.inflight -= 1
        if state.inflight <= 0 and state.drained_event is not None and not state.drained_event.triggered:
            state.drained_event.succeed(None)

    def transaction_executed(self, server, txn) -> Event:
        done = self.env.event()
        state = self._states[server.partition_id]
        state.pending.setdefault(self.epoch, []).append(done)
        return done

    # -- epoch protocol ---------------------------------------------------------
    def _epoch_loop(self):
        rng = self.cluster.rng_for("coco-epoch")
        while True:
            yield self.env.timeout(self.config.epoch_length_us)
            committing_epoch = self.epoch
            ready = []
            aborted = False
            for partition_id in range(self.config.n_partitions):
                if self.cluster.servers[partition_id].crashed:
                    aborted = True
                    continue
                # Coordinator-side handling cost per message (prepare + ready).
                yield self.env.timeout(self.config.cpu_message_handling_us * 2)
                ready.append(
                    self.env.process(
                        self._prepare_partition(partition_id, rng),
                        name=f"coco-prepare-p{partition_id}",
                    )
                )
            if ready:
                results = yield all_of(self.env, ready)
                if any(isinstance(r, Exception) or r is False for r in results):
                    aborted = True
            if aborted or any(self.cluster.servers[p].crashed for p in range(self.config.n_partitions)):
                self._abort_epoch(committing_epoch)
            else:
                self._commit_epoch(committing_epoch)
            self.epoch += 1
            # GROUP-COMMIT / GROUP-ABORT delivery: one-way message, partitions
            # re-open admission when it arrives.
            for partition_id in range(self.config.n_partitions):
                self._states[partition_id].open()

    def _prepare_partition(self, partition_id: int, rng):
        """GROUP-PREPARE handling at one partition (runs remotely via RPC)."""
        server = self.cluster.servers[partition_id]
        state = self._states[partition_id]

        def handle_prepare():
            state.close()
            # Wait for in-flight transactions of this epoch to drain.
            if state.inflight > 0:
                state.drained_event = self.env.event()
                yield state.drained_event
                state.drained_event = None
            # Flush the epoch's log records (plus OS-noise jitter).
            jitter = rng.exponential(self.config.epoch_jitter_us)
            yield self.env.timeout(jitter)
            yield from server.log.flush()
            server.log.append(LogRecordKind.EPOCH, payload={"epoch": self.epoch})
            return True

        try:
            result = yield from self.cluster.network.rpc(
                self.coordinator_partition, partition_id, handle_prepare
            )
        except NodeUnreachable:
            return False
        # Lagging epoch message (GROUP-READY delayed on the wire, Fig. 13a):
        # the whole epoch barrier waits for it.
        delay = self._message_delay_us.get(partition_id, 0.0)
        if delay > 0:
            yield self.env.timeout(delay)
        return result

    def _resolve_epoch(self, epoch: int, outcome: str) -> None:
        """Acknowledge every pending transaction of ``epoch`` (and earlier),
        partition by partition, epoch by epoch, in commit order."""
        for state in self._states.values():
            for pending_epoch in [e for e in state.pending if e <= epoch]:
                for done in state.pending.pop(pending_epoch):
                    if not done.triggered:
                        done.succeed(outcome)

    def _commit_epoch(self, epoch: int) -> None:
        self.cluster.counters.increment("epochs_committed")
        self._resolve_epoch(epoch, DURABLE)

    def _abort_epoch(self, epoch: int) -> None:
        self.cluster.counters.increment("epochs_aborted")
        self._resolve_epoch(epoch, CRASH_ABORTED)
