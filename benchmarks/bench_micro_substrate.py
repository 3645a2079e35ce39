"""Micro-benchmarks of the substrate the protocols run on.

These are not paper figures; they guard against performance regressions in
the discrete-event engine, the lock manager and the Zipf generator, all of
which dominate the wall-clock cost of regenerating the figures.
"""

import pytest

from repro.sim.engine import Environment
from repro.sim.randgen import DeterministicRandom, ZipfGenerator
from repro.storage.lock import LockManager, LockMode, LockPolicy
from repro.storage.record import Record
from repro.txn.transaction import TxnId


@pytest.mark.benchmark(group="micro")
def test_engine_timeout_throughput(benchmark):
    """Schedule and drain 20k timeout events."""

    def run():
        env = Environment()

        def proc():
            for _ in range(20_000):
                yield env.timeout(1.0)

        env.process(proc())
        env.run(until=30_000)
        return env.now

    assert benchmark(run) > 0


@pytest.mark.benchmark(group="micro")
def test_lock_manager_grant_release(benchmark):
    """Uncontended exclusive grant + release cycles."""
    env = Environment()
    manager = LockManager(env, LockPolicy.WAIT_DIE)
    records = [Record(i, ("v",), (0,)) for i in range(64)]

    def run():
        for sequence in range(2_000):
            tid = TxnId(sequence, 0)
            for record in records[:8]:
                assert manager.acquire_nowait(tid, record, LockMode.EXCLUSIVE) is True
            manager.release_all(tid)
        return manager.stats["grants"]

    assert benchmark(run) > 0


@pytest.mark.benchmark(group="micro")
def test_zipf_generation(benchmark):
    """Draw 100k Zipf keys at the default skew."""
    rng = DeterministicRandom(7)
    zipf = ZipfGenerator(100_000, 0.6, rng)

    def run():
        return sum(zipf.next() for _ in range(100_000))

    assert benchmark(run) >= 0


@pytest.mark.benchmark(group="micro")
def test_zipf_generation_million_keys(benchmark):
    """Draw 50k Zipf keys from a 1M-key population (gate: ``zipf_1m``)."""
    from repro.bench.micro import bench_zipf_1m

    benchmark(bench_zipf_1m, 50_000)


@pytest.mark.benchmark(group="micro")
def test_engine_zero_delay_dispatch(benchmark):
    """Drain 100k immediate succeed() chains through the fast-dispatch lane.

    Shares its body with ``scripts/bench_gate.py`` (``engine_dispatch``):
    process kick-offs, lock grants and local completions all take this path.
    """
    from repro.bench.micro import bench_engine_dispatch

    benchmark(bench_engine_dispatch, 100_000)


@pytest.mark.benchmark(group="micro")
def test_process_spawn_throughput(benchmark):
    """Spawn-and-await 20k trivial child processes (gate: ``process_spawn``)."""
    from repro.bench.micro import bench_process_spawn

    benchmark(bench_process_spawn, 20_000)


@pytest.mark.benchmark(group="micro")
def test_network_rpc_roundtrips(benchmark):
    """20k local RPC round trips with a plain handler (gate: ``network_rpc``)."""
    from repro.bench.micro import bench_network_rpc

    benchmark(bench_network_rpc, 20_000)


@pytest.mark.benchmark(group="micro")
def test_network_one_way_sends(benchmark):
    """50k one-way sends with a plain handler (gate: ``network_send``)."""
    from repro.bench.micro import bench_network_send

    benchmark(bench_network_send, 50_000)


@pytest.mark.benchmark(group="micro")
def test_ycsb_end_to_end_small(benchmark):
    """A complete (tiny) fixed-seed YCSB cluster run through the full stack."""
    from repro.cluster.cluster import Cluster
    from repro.cluster.config import SystemConfig
    from repro.workloads.ycsb import YCSBConfig, YCSBWorkload

    def run():
        config = SystemConfig.for_protocol(
            "primo",
            n_partitions=2,
            workers_per_partition=2,
            inflight_per_worker=1,
            duration_us=10_000.0,
            warmup_us=2_000.0,
            epoch_length_us=2_000.0,
            seed=7,
        )
        workload = YCSBWorkload(
            YCSBConfig(keys_per_partition=2_000, zipf_theta=0.6, distributed_pct=0.2)
        )
        result = Cluster(config, workload).run()
        return result.metrics.committed

    assert benchmark(run) > 0
