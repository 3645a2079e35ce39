"""The public entry point: a simulated shared-nothing cluster.

Typical use (see ``examples/quickstart.py``)::

    from repro import Cluster, SystemConfig
    from repro.workloads import YCSBWorkload, YCSBConfig

    config = SystemConfig.for_protocol("primo", n_partitions=4)
    workload = YCSBWorkload(YCSBConfig(zipf_theta=0.6))
    result = Cluster(config, workload).run()
    print(result.throughput_ktps, result.mean_latency_ms)

``Cluster`` wires together the simulation environment, the network, one
server per partition, the configured protocol and durability scheme, the
membership/recovery machinery and the workload, runs the closed-loop workers
for the configured (simulated) duration and returns a :class:`RunResult`.
"""

from __future__ import annotations

import gc
from collections import defaultdict
from typing import Optional

from ..arrivals import AdmissionQueue, ArrivalSpec, start_open_loop
from ..commit import create_durability_scheme
from ..commit.base import CommitReceipt
from ..faults import FaultPlan, FaultScheduler
from ..protocols import create_protocol
from ..replication.membership import MembershipService
from ..sim.engine import Environment, Process
from ..sim.network import Network
from ..sim.randgen import DeterministicRandom, derive_seed, stable_hash
from ..sim.stats import RunMetrics, WindowedRecorder
from ..sim.topology import RegionTopology
from ..txn.transaction import Transaction
from ..workloads.base import Workload
from .config import SystemConfig
from .recovery import RecoveryCoordinator
from .results import RunResult
from .server import Server, follower_node_base
from .worker import worker_loop

__all__ = ["Cluster"]


class Cluster:
    """A simulated cluster running one protocol on one workload.

    ``faults`` is an optional declarative :class:`~repro.faults.FaultPlan`
    (or a list of fault events) — the only way to inject a failure.
    ``arrival`` is an optional :class:`~repro.arrivals.ArrivalSpec` (or its
    kind name / JSON form) selecting an open-loop arrival process; ``None`` —
    and the explicit ``"closed"`` kind — run the historical closed-loop
    worker pool bit-identically.  ``topology`` is an optional
    :class:`~repro.sim.topology.RegionTopology` (or its JSON form) placing
    partition leaders and their replication followers into regions behind a
    region×region latency matrix; ``None`` keeps the scalar base latency.
    """

    def __init__(self, config: SystemConfig, workload: Workload,
                 faults: Optional[FaultPlan] = None,
                 arrival: Optional[ArrivalSpec] = None,
                 topology: Optional[RegionTopology] = None):
        config.validate()
        self.config = config
        self.workload = workload
        self.arrival = ArrivalSpec.coerce(arrival)
        self.topology = RegionTopology.coerce(topology)
        # Per-partition open-loop admission queues (empty for closed loops);
        # their drop/depth accounting folds into ``counters`` at run end.
        self.admission_queues: dict[int, AdmissionQueue] = {}
        # The top-level fibers (workers, arrival streams, the protocol's own
        # loop, heartbeats).  Nothing awaits them, so a fiber that raises only
        # records the exception on its Process; run() re-raises it.
        self.fibers: list[Process] = []
        self.env = Environment()
        # The run's one counter: every component increments the metrics' own.
        self.metrics = RunMetrics()
        self.counters = self.metrics.counters
        self.network = Network(
            self.env,
            one_way_latency_us=config.one_way_network_latency_us,
            local_latency_us=config.local_message_latency_us,
            counters=self.counters,
        )
        if self.topology is not None:
            self.network.install_topology(
                self._resolve_node_regions(self.topology),
                self.topology.latency_us,
            )
        self.stopped = False
        # ``stale_read`` fault state: per-partition fractions of reads served
        # from the pre-durable follower snapshot during an injection window.
        # The flag keeps the per-read check to one attribute load when no
        # window is active, and the RNG is created lazily on first use so
        # plans without stale_read draw nothing extra.
        self.stale_read_active = False
        self._stale_read_fraction: dict[int, float] = {}
        self._stale_read_rng: Optional[DeterministicRandom] = None
        # Set by the recovery coordinator while it quiesces and rolls back;
        # workers wait on it before starting new transaction attempts.
        self.pause_event = None

        # Protocol first (its lock policy configures the partitions' lock managers).
        self.protocol = create_protocol(config.protocol, self)
        if self.arrival is not None and self.protocol.runs_own_loop:
            raise ValueError(
                f"protocol {config.protocol!r} drives its own execution loop "
                "and does not support arrival processes (open loops or "
                "closed-loop think time)"
            )
        self.servers: dict[int, Server] = {
            p: Server(self, p, self.protocol.lock_policy)
            for p in range(config.n_partitions)
        }
        self.durability = create_durability_scheme(config.durability, self)
        self.membership = MembershipService(
            self.env,
            config.n_partitions,
            heartbeat_interval_us=config.heartbeat_interval_us,
            heartbeat_timeout_us=config.heartbeat_timeout_us,
        )
        self.recovery = RecoveryCoordinator(self)
        self.fault_plan = FaultPlan.coerce(faults) or FaultPlan()
        self.fault_scheduler = FaultScheduler(self, self.fault_plan)
        # The logs' full record history — and the undo images and redelivery
        # payloads in it — exists only for the recovery sweep after an
        # injected fault (§5.2 rollback, watermark agreement, re-delivery).
        # A fault-free run can never call those helpers, so its records carry
        # no payload and are dropped once flushed: log memory stays bounded by
        # the unflushed tail.  Retention does not affect event timing, so
        # results stay bit-identical either way.
        if not self.fault_plan.events:
            for server in self.servers.values():
                server.log.retain_history = False

        # Measurement state.
        self._measure_start = config.warmup_us
        self._measure_end = config.warmup_us + config.duration_us
        if self.fault_plan.events:
            # Windowed throughput/latency time series for degradation and
            # recovery analysis.  Only fault-plan runs pay for (and report)
            # it, so fault-free runs keep byte-identical result documents.
            self.metrics.timeline = WindowedRecorder(
                window_us=config.epoch_length_us / 4.0,
                origin_us=self._measure_start,
            )
        self._per_txn_type: dict[str, int] = defaultdict(int)
        self._abort_reasons: dict[str, int] = defaultdict(int)
        self._started = False

        # Populate the database.  The cyclic collector is paused meanwhile:
        # the population is long-lived and acyclic, so the passes its
        # allocations trigger find nothing (tpcc_primo at seed 42: 121 gen-0,
        # 11 gen-1 and 1 gen-2 passes, ≈ 25 % of the build), and run()
        # freezes it anyway.  The caller's setting comes back either way.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            self.workload.load(self)
        finally:
            if gc_was_enabled:
                gc.enable()

    def _resolve_node_regions(self, topology: RegionTopology) -> dict[int, int]:
        """Map every node id — leaders and followers — to its region index."""
        node_regions: dict[int, int] = {}
        n_partitions = self.config.n_partitions
        n_followers = self.config.replicas_per_partition - 1
        for partition_id in range(n_partitions):
            node_regions[partition_id] = topology.partition_region_index(partition_id)
            base = follower_node_base(n_partitions, partition_id)
            for index in range(n_followers):
                node_regions[base + index] = topology.follower_region_index(
                    partition_id, index)
        return node_regions

    # -- stale-read fault surface ------------------------------------------------
    def set_stale_read_fraction(self, partition_id: int, fraction: float) -> None:
        """Serve ``fraction`` of the partition's reads from the pre-durable
        follower snapshot (0 clears the window)."""
        if fraction:
            if not 0.0 < fraction <= 1.0:
                raise ValueError(
                    f"stale_read fraction must be in (0, 1], got {fraction}"
                )
            self._stale_read_fraction[partition_id] = float(fraction)
            if self._stale_read_rng is None:
                self._stale_read_rng = self.rng_for("stale_read")
        else:
            self._stale_read_fraction.pop(partition_id, None)
        self.stale_read_active = bool(self._stale_read_fraction)

    def note_read(self, partition_id: int) -> None:
        """Called per read while a stale_read window is active: draw whether
        this read observed the follower snapshot at the durable watermark.

        The model is observational — the read's *freshness* degrades (counted
        as ``stale_reads``), the value itself is the snapshot the §5.2
        guarantee would serve — so timing and commit counts stay identical to
        the no-fault run; the RNG draws only inside the window.
        """
        fraction = self._stale_read_fraction.get(partition_id)
        if not fraction:
            return
        if self._stale_read_rng.boolean(fraction):
            self.counters.increment("stale_reads")

    # -- helpers used by protocols / schemes / workloads ----------------------------
    def rng_for(self, label: str) -> DeterministicRandom:
        # stable_hash, not hash(): str hashing is randomized per process, which
        # made fixed-seed runs non-reproducible across interpreter invocations.
        return DeterministicRandom(derive_seed(self.config.seed, stable_hash(label)))

    def new_txn_source(self, partition_id: int, stream_id: int):
        return self.workload.make_source(self, partition_id, stream_id)

    def server_of(self, partition_id: int) -> Server:
        return self.servers[partition_id]

    # -- measurement -------------------------------------------------------------------
    def _in_window(self, time_us: float) -> bool:
        return self._measure_start <= time_us < self._measure_end

    def record_commit(self, server: Server, txn: Transaction) -> None:
        """A transaction finished its commit phase (writes installed)."""
        if not self._in_window(self.env._now):
            return
        self.metrics.committed += 1
        self._per_txn_type[txn.name] += 1
        txn.breakdown["_counted"] = 1.0
        if self.metrics.timeline is not None:
            # The throughput series counts *commits* as they happen: durable
            # notifications resolve in batches (and a crash can swallow them
            # entirely), which would erase the degradation curve the timeline
            # exists to show.  Latency is attributed to the commit window when
            # the durable notification resolves it (see record_durable).
            self.metrics.timeline.record(self.env._now)
            txn.breakdown["_commit_time"] = self.env._now

    def record_durable(self, receipt: CommitReceipt) -> None:
        """The transaction's result was returned to the client (now)."""
        breakdown = receipt.breakdown
        if "_counted" not in breakdown:
            return
        metrics = self.metrics
        durable_time = self.env.now
        latency = max(0.0, durable_time - receipt.first_start_time)
        metrics.latency.record(latency)
        if metrics.timeline is not None:
            # Attributed to the commit window (stamped in record_commit); the
            # latency itself runs through to durability, so a pre-crash commit
            # that waits out recovery shows up as a latency spike in the
            # window where it committed.
            metrics.timeline.record_latency(
                breakdown.get("_commit_time", durable_time), latency
            )
        if durable_time > receipt.commit_end_time:
            breakdown["return"] = durable_time - receipt.commit_end_time
        timer = metrics.breakdown
        for component, value in breakdown.items():
            if not component.startswith("_"):
                timer.add(component, value)
        timer.finish_transaction()

    def record_abort(self, server: Server, txn: Transaction) -> None:
        if not self._in_window(self.env._now):
            return
        self.metrics.aborted += 1
        reason = txn.abort_reason.value if txn.abort_reason else "unknown"
        self._abort_reasons[reason] += 1

    def record_crash_abort(self, receipt: CommitReceipt) -> None:
        if "_counted" in receipt.breakdown:
            # The transaction had been counted committed but its epoch /
            # watermark batch was lost to a crash: undo the count.
            self.metrics.committed -= 1
            if self.metrics.timeline is not None and "_commit_time" in receipt.breakdown:
                self.metrics.timeline.unrecord(receipt.breakdown["_commit_time"])
        self.metrics.crash_aborted += 1
        self._abort_reasons["crash"] += 1

    # -- run -----------------------------------------------------------------------------
    def start(self) -> None:
        """Spawn all background processes and worker fibers (idempotent)."""
        if self._started:
            return
        self._started = True
        self.durability.start()
        self.recovery.start()
        self.fault_scheduler.start()
        if self.fault_plan.requires_membership:
            self.membership.start()
            for server in self.servers.values():
                self.fibers.append(self.env.process(
                    self._heartbeat_loop(server), name=f"heartbeat-p{server.partition_id}"))
        if self.protocol.runs_own_loop:
            self.fibers.append(
                self.env.process(self.protocol.run_loop(), name="protocol-loop"))
            return
        if self.arrival is not None and self.arrival.open_loop:
            start_open_loop(self)
            return
        # Closed loop; a non-None arrival here is "closed" with think time
        # (ArrivalSpec.coerce normalizes the trivial think_time_us=0 form to
        # None, so this branch cost exists only for genuinely thinking runs).
        think_time_us = 0.0
        if self.arrival is not None:
            think_time_us = float(
                self.arrival.effective_params().get("think_time_us", 0.0))
        for partition_id, server in self.servers.items():
            for worker_id in range(self.config.workers_per_partition):
                for fiber_id in range(self.config.inflight_per_worker):
                    stream_id = worker_id * self.config.inflight_per_worker + fiber_id
                    source = self.new_txn_source(partition_id, stream_id)
                    self.fibers.append(self.env.process(
                        worker_loop(self, server, source,
                                    think_time_us=think_time_us),
                        name=f"worker-p{partition_id}-{stream_id}",
                    ))

    def _messages_sent(self) -> int:
        return self.counters.get("rpc_calls") + self.counters.get("one_way_messages")

    def _heartbeat_loop(self, server: Server):
        # Keeps running through the post-measurement drain so the failure
        # detector does not report spurious failures once workers stop.
        while True:
            if not server.crashed:
                self.membership.heartbeat(server.partition_id)
            yield self.env.timeout(self.config.heartbeat_interval_us)

    def run(self, duration_us: Optional[float] = None) -> RunResult:
        """Run the simulation and return the measured results."""
        if duration_us is not None:
            self._measure_end = self._measure_start + duration_us
        self.start()
        total = self._measure_end + self.config.epoch_length_us * 3
        # The loaded database (hundreds of thousands of records per run) is
        # live for the whole simulation; without freezing it, every full GC
        # pass re-traverses it.  freeze() parks everything allocated so far —
        # tables, records, workload state — in the GC's permanent generation
        # for the duration of the run; per-event garbage stays collectable as
        # usual, and the engine keeps finished processes/messages acyclic so
        # the collector finds nothing anyway (0 objects in a whole run).
        # unfreeze() restores normal behavior so dropped clusters are
        # reclaimed between orchestrator cells.  The gen-0 threshold is raised
        # for the run as well: the default 700 triggers thousands of
        # young-generation passes over event-churn allocations that die by
        # refcount anyway.  What remains is paid per *survivor*, and since a
        # committed transaction no longer waits for its group commit (a
        # receipt does, see commit/base.py) few objects survive a pass.
        # gc.callbacks on the perf workloads at seed 42, transactions retained
        # -> receipts: ycsb_primo 61 gen-0 + 5 gen-1 passes and 0.21-0.27 s in
        # the collector of a 1.7-2.1 s run -> 25 + 2 passes, 0.10-0.11 s;
        # tpcc_primo 92 + 8 passes, 0.28-0.36 s -> 41 + 3 passes, 0.14 s.
        gc_thresholds = gc.get_threshold()
        gc.freeze()
        gc.set_threshold(10_000, gc_thresholds[1], gc_thresholds[2])
        warmup_messages = 0
        try:
            if self._measure_start > 0 and self.env.now < self._measure_start:
                # Drain the warmup phase; the reported message count covers
                # only what is sent from here on.
                self.env.run(until=self._measure_start)
                warmup_messages = self._messages_sent()
            self.env.run(until=self._measure_end)
            self.stopped = True
            # Let in-flight group commits / watermarks drain so latency samples
            # of already-counted transactions are recorded.
            self.env.run(until=total)
        finally:
            gc.set_threshold(*gc_thresholds)
            gc.unfreeze()
        for fiber in self.fibers:
            if not fiber._ok:
                # A bug in a fiber, not a simulated fault (a fiber on a
                # crashed partition idles until fail-over and returns when
                # the run stops): the run is one client short and its
                # numbers mean nothing.  (Slots read directly, like
                # env._now above: no engine call is added to a run.)
                raise fiber._value
        self.metrics.duration_us = self._measure_end - self._measure_start
        if self.admission_queues:
            # Fold the open-loop admission accounting into the run's counters
            # so it survives the RunResult JSON round trip (orchestrator cache).
            queues = self.admission_queues.values()
            self.counters.increment("arrivals_offered",
                                    sum(q.offered for q in queues))
            self.counters.increment("arrivals_dropped",
                                    sum(q.dropped for q in queues))
            self.counters.increment("admission_queue_peak_depth",
                                    max(q.peak_depth for q in queues))
        return RunResult(
            protocol=self.config.protocol,
            durability=self.config.durability,
            workload=self.workload.name,
            n_partitions=self.config.n_partitions,
            metrics=self.metrics,
            network_messages=self._messages_sent() - warmup_messages,
            per_txn_type=dict(self._per_txn_type),
            abort_reasons=dict(self._abort_reasons),
            extra={"config": self.config},
        )
