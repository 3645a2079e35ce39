"""Shared substrate micro-benchmark bodies.

Single source of truth for the hot-path workloads measured both by the
pytest-benchmark suite (``benchmarks/bench_micro_substrate.py``) and by the
regression gate (``scripts/bench_gate.py``): if the two measured different
code, the committed ``BENCH_substrate.json`` trajectory would stop meaning
what the local benchmark numbers say.

Every body takes an iteration count and runs the workload to completion;
callers time the call.
"""

from __future__ import annotations

from ..sim.engine import Environment, Event
from ..sim.network import Network
from ..sim.randgen import DeterministicRandom, ZipfGenerator

__all__ = [
    "bench_engine_dispatch",
    "bench_engine_timeout",
    "bench_process_spawn",
    "bench_network_rpc",
    "bench_network_send",
    "bench_zipf",
    "bench_zipf_1m",
    "MICRO_BENCHMARKS",
]


def bench_engine_dispatch(n: int) -> None:
    """Zero-delay succeed() chains through the fast-dispatch lane."""
    env = Environment()

    def proc():
        for _ in range(n):
            event = Event(env)
            event.succeed(None)
            yield event

    env.process(proc())
    env.run()


def bench_engine_timeout(n: int) -> None:
    """Heap-scheduled timeout events."""
    env = Environment()

    def proc():
        for _ in range(n):
            yield env.timeout(1.0)

    env.process(proc())
    env.run()


def bench_process_spawn(n: int) -> None:
    """Spawn-and-await trivial child processes."""
    env = Environment()

    def child():
        return 1
        yield  # pragma: no cover - generator marker

    def proc():
        for _ in range(n):
            yield env.process(child())

    env.process(proc())
    env.run()


def bench_network_rpc(n: int) -> None:
    """Local request/response round trips with a plain handler."""
    env = Environment()
    network = Network(env)

    def handler(value):
        return value + 1

    def proc():
        for i in range(n):
            yield from network.rpc(0, 0, handler, i)

    env.process(proc())
    env.run()


def bench_network_send(n: int) -> None:
    """One-way sends with a plain handler (Timeout-callback delivery)."""
    env = Environment()
    network = Network(env)
    sink = []
    for i in range(n):
        network.send(0, 1, sink.append, i)
    env.run()


def bench_zipf(n: int) -> None:
    """Zipf key draws at YCSB's default skew."""
    zipf = ZipfGenerator(100_000, 0.6, DeterministicRandom(7))
    draw = zipf.next
    for _ in range(n):
        draw()


def bench_zipf_1m(n: int) -> None:
    """Zipf key draws over a million-key population (xlarge-tier hot path).

    Setup cost (the generator's harmonic tables over 1M keys) is part of the
    timed body on purpose: the xlarge tiers pay it once per worker stream, so
    a regression there is a real regression of the large-tier load phase.
    """
    zipf = ZipfGenerator(1_000_000, 0.6, DeterministicRandom(7))
    draw = zipf.next
    for _ in range(n):
        draw()


#: name -> (body, default iteration count), as measured by the bench gate.
MICRO_BENCHMARKS = {
    "engine_dispatch": (bench_engine_dispatch, 200_000),
    "engine_timeout": (bench_engine_timeout, 200_000),
    "process_spawn": (bench_process_spawn, 50_000),
    "network_rpc": (bench_network_rpc, 50_000),
    "network_send": (bench_network_send, 100_000),
    "zipf": (bench_zipf, 200_000),
    "zipf_1m": (bench_zipf_1m, 200_000),
}
