"""Worker fibers: the transaction drivers on every partition.

Each partition runs ``workers_per_partition × inflight_per_worker`` fibers in
one of two modes sharing a single retry body (:func:`_drive`):

* **closed loop** (:func:`worker_loop`, the default): a fiber repeatedly
  takes the next transaction from its own workload stream and drives it
  back-to-back — offered load is whatever the system sustains.
* **open loop** (:func:`open_worker_loop`, :mod:`repro.arrivals`): fibers
  drain the partition's bounded admission queue, fed by schedulable arrival
  processes.  Latency is measured from *arrival* time, so queueing delay is
  part of every reported percentile — the offered-load methodology.

A fiber drives each transaction through the cluster's protocol with
exponential back-off on aborts (§6.1.3), hands the committed transaction to
the durability scheme, and — without blocking on the group commit — moves on
to the next transaction.  What waits for durability is a
:class:`~repro.commit.base.CommitReceipt` (one slotted callback per committed
transaction, attached straight to the durability event), not the transaction:
the attempt — read-set, snapshots, write-set, context — dies when
:func:`_drive` returns.  The receipt records end-to-end latency once the
result is durable, so latency includes the ``return`` component without
stalling the execution pipeline.  A group commit releasing ``k``
transactions succeeds their ``k`` durability events in commit order; each
runs its receipt's callback directly, with no process to resume.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from ..commit.base import CommitReceipt
from ..sim.network import NodeUnreachable
from ..txn.transaction import AbortReason

if TYPE_CHECKING:  # pragma: no cover
    from .cluster import Cluster
    from .server import Server
    from ..arrivals import AdmissionQueue
    from ..workloads.base import TxnSource

__all__ = ["open_worker_loop", "worker_loop"]


def _drive(cluster: "Cluster", server: "Server", spec, first_start: float,
           queue_wait_us=None) -> Generator:
    """Drive one transaction spec to completion with retry/back-off.

    The shared body of both fiber modes.  ``first_start`` anchors the
    end-to-end latency measurement: the draw instant in the closed loop, the
    *arrival* instant in the open loop (where ``queue_wait_us`` additionally
    surfaces the admission-queue delay as a breakdown component; the closed
    loop passes ``None`` so its breakdowns stay byte-identical to before the
    open loop existed).
    """
    config = cluster.config
    protocol = cluster.protocol
    durability = cluster.durability
    env = cluster.env
    # Bound-method hoists for the per-attempt loop body.
    new_transaction = server.new_transaction
    run_transaction = protocol.run_transaction
    timeout = env.timeout
    backoff_us = config.backoff_initial_us
    total_backoff = 0.0

    for _attempt in range(config.max_retries):
        if cluster.stopped or server.crashed:
            break
        if cluster.pause_event is not None and not cluster.pause_event.triggered:
            yield cluster.pause_event
        txn = new_transaction(spec.name)
        txn.first_start_time = first_start
        txn.read_only = spec.read_only
        txn.start_time = env._now
        durability.transaction_begin(server)
        try:
            committed = yield from run_transaction(server, txn, spec.logic)
        except NodeUnreachable:
            # A participant crashed mid-transaction; clean up and retry.
            protocol.release_locks_everywhere(txn)
            txn.abort_reason = AbortReason.CRASH
            committed = False
        finally:
            durability.transaction_finished(server)

        if committed:
            txn.add_breakdown("execute", txn.execute_end_time - txn.start_time)
            txn.add_breakdown("backoff", total_backoff)
            if queue_wait_us is not None:
                txn.add_breakdown("queue", queue_wait_us)
            overhead = durability.execution_overhead_us(txn)
            if overhead > 0:
                yield timeout(overhead)
            counted_at = cluster.record_commit(server, txn)
            durable_event = durability.transaction_executed(server, txn)
            durable_event.add_callback(CommitReceipt(cluster, txn, counted_at))
            break

        cluster.record_abort(server, txn)
        if txn.abort_reason is AbortReason.USER:
            break
        # Exponential back-off before retrying the aborted transaction.
        yield timeout(backoff_us)
        total_backoff += backoff_us
        backoff_us = min(backoff_us * config.backoff_multiplier, config.backoff_max_us)


def worker_loop(cluster: "Cluster", server: "Server", source: "TxnSource",
                think_time_us: float = 0.0) -> Generator:
    """The closed-loop driver for one worker fiber.

    ``think_time_us`` is the interactive-client pause (``arrival={"kind":
    "closed", "think_time_us": ...}``): after each transaction completes the
    fiber sleeps that long before drawing its next request, the classic
    N-clients model where offered load is governed by the client count and
    the think time.  The default 0 takes no extra branch on the hot path, so
    the historical back-to-back loop stays bit-identical.
    """
    config = cluster.config
    durability = cluster.durability
    env = cluster.env
    next_spec = source.next

    while not cluster.stopped:
        if server.crashed:
            # The partition leader is down: idle until fail-over completes.
            yield env.timeout(config.heartbeat_interval_us)
            continue
        if cluster.pause_event is not None and not cluster.pause_event.triggered:
            # Recovery is quiescing the cluster: wait for it to finish.
            yield cluster.pause_event
            continue
        gate = durability.admission_gate(server)
        if gate is not None:
            yield gate
            continue

        spec = next_spec()
        yield from _drive(cluster, server, spec, env._now)
        if think_time_us > 0.0:
            yield env.timeout(think_time_us)


def open_worker_loop(cluster: "Cluster", server: "Server",
                     queue: "AdmissionQueue") -> Generator:
    """The open-loop service fiber: drain the partition's admission queue.

    ``queue.take()`` hands over the oldest arrival with its transaction,
    drawn from the arrival's source on dequeue (or earlier, in arrival order,
    if a drop or a skew shift came first); this fiber executes it, anchoring
    latency at the queued arrival time so the reported percentiles include
    admission-queue delay.
    """
    config = cluster.config
    durability = cluster.durability
    env = cluster.env

    while not cluster.stopped:
        if server.crashed:
            # The partition leader is down: idle until fail-over completes
            # (arrivals keep queueing — and dropping once the queue fills).
            yield env.timeout(config.heartbeat_interval_us)
            continue
        if cluster.pause_event is not None and not cluster.pause_event.triggered:
            yield cluster.pause_event
            continue
        gate = durability.admission_gate(server)
        if gate is not None:
            yield gate
            continue

        item = queue.take()
        if item is None:
            yield queue.wait()
            continue
        arrival_us, spec = item
        yield from _drive(cluster, server, spec, arrival_us,
                          queue_wait_us=env._now - arrival_us)
