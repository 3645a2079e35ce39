"""Service fibers: the transaction drivers on every partition.

Each partition runs ``concurrency_per_partition`` fibers of one loop,
:func:`service_loop`, which differs between modes only in where a fiber takes
its next transaction from:

* **closed loop** (the default): from its own workload stream, back-to-back
  (or after a fixed think time) — offered load is whatever the system
  sustains.
* **open loop** (:mod:`repro.arrivals`): from the partition's bounded
  admission queue, fed by schedulable arrival processes.  Latency is
  measured from *arrival* time, so queueing delay is part of every reported
  percentile — the offered-load methodology.

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

__all__ = ["service_loop"]


def _drive(cluster: "Cluster", server: "Server", spec,
           arrival_us: float) -> Generator:
    """Drive one transaction spec to completion with retry/back-off.

    ``arrival_us`` anchors the end-to-end latency measurement: the draw
    instant in the closed loop, the queued *arrival* instant in the open
    loop.  The time from it to now is the ``queue`` breakdown component —
    exactly 0 in the closed loop, which :meth:`Transaction.add_breakdown`
    does not record.
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
    queue_us = env._now - arrival_us

    for _attempt in range(config.max_retries):
        if cluster.stopped or server.crashed:
            break
        if cluster.pause_event is not None and not cluster.pause_event.triggered:
            yield cluster.pause_event
        txn = new_transaction(spec.name)
        txn.first_start_time = arrival_us
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
            txn.add_breakdown("queue", queue_us)
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


def service_loop(cluster: "Cluster", server: "Server", take, wait,
                 think_time_us: float = 0.0) -> Generator:
    """One service fiber: take a transaction, drive it, repeat.

    ``take()`` returns ``(arrival_us, spec)``, or ``None`` when there is
    nothing to do, in which case the fiber yields the event ``wait()``
    returns.  The closed loop's ``take`` draws from the fiber's own stream
    at the current instant and never returns ``None`` (its ``wait`` is
    unused); the open loop's pair is :meth:`AdmissionQueue.take` /
    :meth:`AdmissionQueue.wait`.

    ``think_time_us`` is the interactive-client pause (``arrival={"kind":
    "closed", "think_time_us": ...}``): after each transaction completes the
    fiber sleeps that long before taking its next request, the classic
    N-clients model where offered load is governed by the client count and
    the think time.
    """
    config = cluster.config
    durability = cluster.durability
    env = cluster.env

    while not cluster.stopped:
        if server.crashed:
            # The partition leader is down: idle until fail-over completes
            # (open-loop arrivals keep queueing — and dropping once the
            # queue fills).
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

        item = take()
        if item is None:
            yield wait()
            continue
        arrival_us, spec = item
        yield from _drive(cluster, server, spec, arrival_us)
        if think_time_us > 0.0:
            yield env.timeout(think_time_us)
