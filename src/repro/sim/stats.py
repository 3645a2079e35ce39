"""Measurement utilities: counters, latency recorders and breakdown timers.

The paper's evaluation reports throughput (committed transactions / second),
average and 99th-percentile latency, abort rates, and a latency *breakdown*
into components (execute, 2PC, timestamp, commit, backoff, return, wait_batch,
sequence — Figs. 4c/5c).  These classes collect exactly those quantities.

Hot-path notes: every committed transaction touches these classes several
times, so recording is kept allocation-free.

* :class:`Counter` is slotted and increments through a plain dict (no
  ``defaultdict`` factory call per new key).
* :class:`LatencyRecorder` appends to a C-backed ``array('d')`` and sorts
  on demand: the sorted view is computed once and cached until the next
  append invalidates it, so ``p50``/``p99``/``max`` after a run each cost a
  cached lookup instead of a fresh full sort.  Every sample is kept (8 bytes
  each) and serialized, so percentiles are exact at any run length.
* :class:`BreakdownTimer` keeps one ``{component: total}`` dict per timer;
  ``add()`` on the commit path is one dict lookup and one store.

A run has one :class:`Counter` (``Cluster.counters`` *is* the metrics'),
incremented directly by every component under the names in :data:`COUNTERS`.
Nothing merges results across cells or processes: a pool worker returns its
cell's whole document.
"""

from __future__ import annotations

from array import array
from math import ceil
from statistics import median
from typing import Iterable

__all__ = [
    "COUNTERS",
    "Counter",
    "LatencyRecorder",
    "BreakdownTimer",
    "RunMetrics",
    "WindowedRecorder",
    "BREAKDOWN_COMPONENTS",
]

# Latency components reported in the paper's breakdown figures.
BREAKDOWN_COMPONENTS = (
    "execute",
    "2pc",
    "timestamp",
    "commit",
    "backoff",
    "return",
    "wait_batch",
    "sequence",
)


#: Every run counter, name -> meaning, as README's "Run counters" table lists
#: them.  Increments are unchecked; tests/api/test_run_counters.py checks runs.
COUNTERS: dict[str, str] = {
    "crashes_injected": "partition-leader crashes injected (crash and leader_flap faults)",
    "leader_flaps": "leader_flap cycles that crashed a live leader",
    "partitions_isolated": "network_partition faults applied",
    "follower_crashes_injected": "follower_crash faults applied",
    "stale_reads": "reads served from the pre-durable follower snapshot in a stale_read window",
    "arrivals_offered": "open-loop arrivals offered to the admission queues",
    "arrivals_dropped": "open-loop arrivals shed at a full admission queue",
    "admission_queue_peak_depth": "deepest any admission queue got (a maximum, not a sum)",
    "recoveries_completed": "leader recoveries that resumed processing",
    "recovery_time_us": "simulated time spent in recoveries, election through resume (µs)",
    "recovery_rolled_back": "write-set log records undone at or above the agreed watermark",
    "recovery_redelivered": "remote writes of kept transactions re-delivered after a crash",
    "recovery_durable": "pending WM commits a recovery acknowledged durable",
    "lock_waits": "lock requests that queued behind a conflicting holder (WAIT_DIE)",
    "log_flushes": "log flushes completed (one quorum-replicated batch each)",
    "quorum_stalls": "quorum polls an append spent waiting for enough live followers",
    "watermark_force_updates": "WM force updates of a lagging partition's timestamp floor",
    "epochs_committed": "COCO epochs group-committed",
    "epochs_aborted": "COCO epochs group-aborted (a partition was down or unreachable)",
    "aria_batches": "Aria batches started",
    "rpc_calls": "request/response round trips started",
    "one_way_messages": "one-way messages sent",
    "messages_dropped": "messages and responses lost to an unreachable node",
}


class Counter:
    """Named integer counters."""

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts: dict[str, int] = {}

    def increment(self, name: str, amount: int = 1) -> None:
        counts = self._counts
        counts[name] = counts.get(name, 0) + amount

    def get(self, name: str) -> int:
        return self._counts.get(name, 0)

    def as_dict(self) -> dict[str, int]:
        return dict(self._counts)

    @classmethod
    def from_dict(cls, counts: dict) -> "Counter":
        counter = cls()
        for name, value in counts.items():
            counter._counts[name] = int(value)
        return counter

    def merge(self, other: "Counter") -> None:
        counts = self._counts
        for name, value in other._counts.items():
            counts[name] = counts.get(name, 0) + value


class LatencyRecorder:
    """Collects latency samples and reports mean / nearest-rank percentiles."""

    __slots__ = ("_samples", "_sorted")

    def __init__(self) -> None:
        self._samples: array = array("d")
        # Cached ascending view; invalidated by every append so the sort runs
        # once per batch of percentile queries, not once per query.
        self._sorted: array | None = None

    def record(self, latency: float) -> None:
        self._samples.append(latency)
        self._sorted = None

    def _ordered(self) -> array:
        ordered = self._sorted
        if ordered is None:
            ordered = array("d", sorted(self._samples))
            self._sorted = ordered
        return ordered

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def mean(self) -> float:
        if not self._samples:
            return 0.0
        return sum(self._samples) / len(self._samples)

    def percentile(self, pct: float) -> float:
        """Nearest-rank percentile (pct in [0, 100])."""
        if not self._samples:
            return 0.0
        ordered = self._ordered()
        if pct <= 0:
            return ordered[0]
        if pct >= 100:
            return ordered[-1]
        # Nearest rank is ceil(pct/100 * n), 1-based.  The guard keeps a
        # product that lands a rounding error above an integer on that
        # integer: 99.9 * 41,000 / 100 is 40,959.00000000001, rank 40,959.
        n = len(ordered)
        rank = min(n, max(1, ceil(pct * n / 100.0 - 1e-9)))
        return ordered[rank - 1]

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    @property
    def p999(self) -> float:
        """99.9th percentile — the tail the open-loop load curves report."""
        return self.percentile(99.9)

    @property
    def max(self) -> float:
        if not self._samples:
            return 0.0
        return self._ordered()[-1]

    @property
    def samples(self) -> list[float]:
        """The raw samples in recording order (used for serialization)."""
        return list(self._samples)

    @classmethod
    def from_samples(cls, samples: Iterable[float]) -> "LatencyRecorder":
        recorder = cls()
        recorder._samples = array("d", (float(s) for s in samples))
        return recorder


class BreakdownTimer:
    """Accumulates per-component time for the latency-breakdown figures."""

    __slots__ = ("_totals", "_txn_count")

    def __init__(self) -> None:
        self._totals: dict[str, float] = {}
        self._txn_count = 0

    def add(self, component: str, duration: float) -> None:
        if duration < 0:
            raise ValueError(f"negative duration for {component}: {duration}")
        totals = self._totals
        totals[component] = totals.get(component, 0.0) + duration

    def finish_transaction(self) -> None:
        """Mark that one transaction's breakdown has been fully recorded."""
        self._txn_count += 1

    def total(self, component: str) -> float:
        return self._totals.get(component, 0.0)

    def per_transaction(self) -> dict[str, float]:
        """Average time per committed transaction for each component."""
        if self._txn_count == 0:
            return {component: 0.0 for component in BREAKDOWN_COMPONENTS}
        return {
            component: self.total(component) / self._txn_count
            for component in BREAKDOWN_COMPONENTS
        }

    def to_json_dict(self) -> dict:
        totals = {name: total for name, total in self._totals.items() if total != 0.0}
        return {"totals": totals, "txn_count": self._txn_count}

    @classmethod
    def from_json_dict(cls, data: dict) -> "BreakdownTimer":
        timer = cls()
        timer._totals = {
            component: float(value)
            for component, value in data.get("totals", {}).items()
        }
        timer._txn_count = int(data.get("txn_count", 0))
        return timer


class WindowedRecorder:
    """Time-sliced throughput/latency: fixed-width windows, bounded memory.

    The degradation/recovery instrumentation behind the "standard storm"
    figure: commits are bucketed into fixed-width time windows (per-window
    count + latency sum), so a run's throughput time series — the dip when a
    fault lands and the climb back after recovery — survives into the
    :class:`RunMetrics` JSON round trip.

    Memory is bounded: when a recording would exceed ``max_windows`` windows,
    the window width *doubles* (adjacent windows merge pairwise), so an
    arbitrarily long run costs O(``max_windows``) floats at correspondingly
    coarser resolution.  No totals are ever dropped.

    Analysis accessors (used by :class:`~repro.cluster.results.RunResult`):

    * :meth:`degradation_depth` — ``1 - min_window / median_window`` over the
      completed windows, i.e. how deep the worst dip cut relative to the
      run's typical throughput (0.0 = no dip, 1.0 = a full stall);
    * :meth:`time_to_recovery_us` — time from the worst window to the first
      later window back at ``threshold`` × the median (``None`` = never
      recovered within the run).
    """

    __slots__ = ("window_us", "origin_us", "max_windows", "_counts",
                 "_latency_counts", "_latency_sums")

    def __init__(self, window_us: float = 1_000.0, origin_us: float = 0.0,
                 max_windows: int = 512):
        if window_us <= 0:
            raise ValueError(f"window_us must be > 0, got {window_us}")
        if max_windows < 2:
            raise ValueError(f"max_windows must be >= 2, got {max_windows}")
        self.window_us = float(window_us)
        self.origin_us = float(origin_us)
        self.max_windows = int(max_windows)
        self._counts: list[int] = []
        # Latency is tracked separately from the throughput counts: under
        # group-commit durability a committed transaction's latency is only
        # known when the batch resolves, and a crash can leave commits whose
        # durability never resolves within the run — the throughput series
        # must not lose those windows.
        self._latency_counts: list[int] = []
        self._latency_sums: list[float] = []

    def _coarsen(self) -> None:
        """Double the window width, merging adjacent windows pairwise."""
        merged = []
        for series, pad in ((self._counts, 0), (self._latency_counts, 0),
                            (self._latency_sums, 0.0)):
            if len(series) % 2:
                series.append(pad)
            merged.append(
                [series[i] + series[i + 1] for i in range(0, len(series), 2)]
            )
        self._counts, self._latency_counts, self._latency_sums = merged
        self.window_us *= 2.0

    def _index_for(self, time_us: float) -> int:
        """Window index for a timestamp, coarsening to stay within bounds."""
        index = int((time_us - self.origin_us) / self.window_us)
        if index < 0:
            index = 0
        while index >= self.max_windows:
            self._coarsen()
            index = int((time_us - self.origin_us) / self.window_us)
        counts = self._counts
        if index >= len(counts):
            grow = index + 1 - len(counts)
            counts.extend([0] * grow)
            self._latency_counts.extend([0] * grow)
            self._latency_sums.extend([0.0] * grow)
        return index

    def record(self, time_us: float) -> None:
        """Count one completion (a commit) in the window of ``time_us``."""
        # Resolve the index *before* touching the list: _index_for may
        # coarsen, which rebinds the series to freshly merged lists.
        index = self._index_for(time_us)
        self._counts[index] += 1

    def unrecord(self, time_us: float) -> None:
        """Undo one :meth:`record` (a counted commit rolled back by a crash)."""
        index = self._index_for(time_us)
        self._counts[index] -= 1

    def record_latency(self, time_us: float, latency_us: float) -> None:
        """Attribute one resolved end-to-end latency to ``time_us``'s window."""
        index = self._index_for(time_us)
        self._latency_counts[index] += 1
        self._latency_sums[index] += latency_us

    # -- series accessors --------------------------------------------------
    @property
    def windows(self) -> int:
        return len(self._counts)

    @property
    def total_count(self) -> int:
        return sum(self._counts)

    def counts(self) -> list[int]:
        return list(self._counts)

    def throughput_tps(self) -> list[float]:
        scale = 1_000_000.0 / self.window_us
        return [count * scale for count in self._counts]

    def mean_latency_us(self) -> list[float]:
        return [
            (total / count) if count else 0.0
            for count, total in zip(self._latency_counts, self._latency_sums)
        ]

    # -- recovery analysis -------------------------------------------------
    def _completed_counts(self) -> list[int]:
        """Windows up to the last one that saw traffic (the final window is a
        partial slice of the post-measurement drain; trailing silence after
        it is not a 'dip', it is the end of the run)."""
        counts = self._counts
        end = len(counts)
        while end > 0 and counts[end - 1] == 0:
            end -= 1
        return counts[:end]

    def degradation_depth(self) -> float:
        """``1 - min/median`` over completed windows, clamped to [0, 1]."""
        counts = self._completed_counts()
        if len(counts) < 2:
            return 0.0
        baseline = median(counts)
        if baseline <= 0:
            return 0.0
        return min(1.0, max(0.0, 1.0 - min(counts) / baseline))

    def time_to_recovery_us(self, threshold: float = 0.9) -> "float | None":
        """Time from the worst window back to ``threshold`` × the median.

        0.0 when the run never dipped below the threshold; ``None`` when it
        dipped and never came back within the recorded windows.
        """
        counts = self._completed_counts()
        if len(counts) < 2:
            return 0.0
        baseline = median(counts)
        if baseline <= 0:
            return 0.0
        bar = threshold * baseline
        trough = counts.index(min(counts))
        if counts[trough] >= bar:
            return 0.0
        for index in range(trough + 1, len(counts)):
            if counts[index] >= bar:
                return (index - trough) * self.window_us
        return None

    # -- JSON round trip ----------------------------------------------------
    def to_json_dict(self) -> dict:
        return {
            "window_us": self.window_us,
            "origin_us": self.origin_us,
            "max_windows": self.max_windows,
            "counts": list(self._counts),
            "latency_counts": list(self._latency_counts),
            "latency_sums": list(self._latency_sums),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "WindowedRecorder":
        recorder = cls(
            window_us=float(data["window_us"]),
            origin_us=float(data.get("origin_us", 0.0)),
            max_windows=int(data.get("max_windows", 512)),
        )
        recorder._counts = [int(v) for v in data.get("counts", ())]
        recorder._latency_counts = [int(v) for v in data.get("latency_counts", ())]
        recorder._latency_sums = [float(v) for v in data.get("latency_sums", ())]
        # The three series are kept index-aligned everywhere; repair documents
        # that carried fewer latency windows than count windows.
        for series, pad in ((recorder._latency_counts, 0),
                            (recorder._latency_sums, 0.0)):
            if len(series) < len(recorder._counts):
                series.extend([pad] * (len(recorder._counts) - len(series)))
        return recorder


class RunMetrics:
    """Everything a single simulated run reports back to the harness."""

    __slots__ = (
        "duration_us",
        "committed",
        "aborted",
        "crash_aborted",
        "counters",
        "latency",
        "breakdown",
        "timeline",
    )

    def __init__(
        self,
        duration_us: float = 0.0,
        committed: int = 0,
        aborted: int = 0,
        crash_aborted: int = 0,
        counters: Counter | None = None,
        latency: LatencyRecorder | None = None,
        breakdown: BreakdownTimer | None = None,
        timeline: WindowedRecorder | None = None,
    ):
        self.duration_us = duration_us
        self.committed = committed
        self.aborted = aborted
        self.crash_aborted = crash_aborted
        self.counters = counters if counters is not None else Counter()
        self.latency = latency if latency is not None else LatencyRecorder()
        self.breakdown = breakdown if breakdown is not None else BreakdownTimer()
        # Optional windowed throughput/latency time series; only fault-plan
        # runs record one (see Cluster), so fault-free result documents are
        # byte-identical to their pre-timeline form.
        self.timeline = timeline

    @property
    def throughput_tps(self) -> float:
        """Committed transactions per (simulated) second."""
        if self.duration_us <= 0:
            return 0.0
        return self.committed / (self.duration_us / 1_000_000.0)

    @property
    def throughput_ktps(self) -> float:
        return self.throughput_tps / 1000.0

    @property
    def abort_rate(self) -> float:
        """Fraction of transaction *attempts* that aborted."""
        attempts = self.committed + self.aborted
        if attempts == 0:
            return 0.0
        return self.aborted / attempts

    @property
    def crash_abort_rate(self) -> float:
        total = self.committed + self.crash_aborted
        if total == 0:
            return 0.0
        return self.crash_aborted / total

    @property
    def mean_latency_ms(self) -> float:
        return self.latency.mean / 1000.0

    @property
    def p50_latency_ms(self) -> float:
        return self.latency.p50 / 1000.0

    @property
    def p99_latency_ms(self) -> float:
        return self.latency.p99 / 1000.0

    @property
    def p999_latency_ms(self) -> float:
        return self.latency.p999 / 1000.0

    def summary(self) -> dict:
        """Flat dictionary used by the bench report printers."""
        return {
            "throughput_ktps": self.throughput_ktps,
            "committed": self.committed,
            "aborted": self.aborted,
            "abort_rate": self.abort_rate,
            "crash_abort_rate": self.crash_abort_rate,
            "mean_latency_ms": self.mean_latency_ms,
            "p99_latency_ms": self.p99_latency_ms,
            "breakdown_us": self.breakdown.per_transaction(),
        }

    def to_json_dict(self) -> dict:
        """Lossless JSON form (inverse of :meth:`from_json_dict`).

        Unlike :meth:`summary` this keeps the raw latency samples and counter
        values, so a deserialized ``RunMetrics`` reports byte-identical
        statistics — the property the orchestrator's on-disk cache relies on.
        """
        data = {
            "duration_us": self.duration_us,
            "committed": self.committed,
            "aborted": self.aborted,
            "crash_aborted": self.crash_aborted,
            "counters": self.counters.as_dict(),
            "breakdown": self.breakdown.to_json_dict(),
            "latency_samples": self.latency.samples,
        }
        if self.timeline is not None:
            data["timeline"] = self.timeline.to_json_dict()
        return data

    @classmethod
    def from_json_dict(cls, data: dict) -> "RunMetrics":
        # A missing sample list is a KeyError, not an empty run: the result
        # cache reads it as a miss and recomputes the cell.
        latency = LatencyRecorder.from_samples(data["latency_samples"])
        timeline_doc = data.get("timeline")
        return cls(
            duration_us=float(data["duration_us"]),
            committed=int(data["committed"]),
            aborted=int(data["aborted"]),
            crash_aborted=int(data.get("crash_aborted", 0)),
            counters=Counter.from_dict(data.get("counters", {})),
            latency=latency,
            breakdown=BreakdownTimer.from_json_dict(data.get("breakdown", {})),
            timeline=(WindowedRecorder.from_json_dict(timeline_doc)
                      if timeline_doc is not None else None),
        )
