"""YCSB workload (§6.1.2).

Each transaction performs ``ops_per_txn`` (default 10) key accesses drawn from
a Zipf distribution over the home partition's key space.  By default half the
operations are reads and half read-modify-writes (the paper's 50% write
ratio); a configurable fraction of transactions is *distributed*, in which
case ``remote_ops`` of the accesses go to uniformly-chosen remote partitions.
The knobs map one-to-one to the sweeps in §6.3:

* ``zipf_theta``        — contention (Fig. 6),
* ``distributed_pct``   — fraction of distributed transactions (Fig. 7),
* ``write_pct``         — fraction of write operations (Fig. 8),
* ``blind_write_pct``   — fraction of writes issued without a prior read (Fig. 9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator

from ..registry import register_workload
from ..sim.randgen import DeterministicRandom, ZipfGenerator
from ..storage.columnar import TableSchema
from .base import TransactionSpec, TxnSource, Workload

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.cluster import Cluster
    from ..txn.context import TxnContext

__all__ = ["YCSBConfig", "YCSBWorkload", "YCSBSource"]

TABLE = "usertable"
FIELDS = 2  # number of payload columns per record

#: Fixed integer schema: makes the partition store pick the array-backed
#: columnar tables, which is what makes the xlarge/web million-key tiers fit
#: in memory.  Column order matches the loader's insert dict, so snapshots
#: are bit-identical to the dict backend.
SCHEMA = TableSchema(tuple((f"field{i}", "i") for i in range(FIELDS)))


@dataclass
class YCSBConfig:
    """Tunable parameters of the YCSB workload."""

    keys_per_partition: int = 50_000
    ops_per_txn: int = 10
    zipf_theta: float = 0.6
    write_pct: float = 0.5        # fraction of the ops that modify data
    distributed_pct: float = 0.2  # fraction of transactions that are distributed
    remote_ops: int = 2           # remote accesses per distributed transaction
    blind_write_pct: float = 0.0  # fraction of writes issued without a read

    def validate(self) -> None:
        if self.keys_per_partition <= self.ops_per_txn:
            raise ValueError("keys_per_partition must exceed ops_per_txn")
        for name in ("write_pct", "distributed_pct", "blind_write_pct"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if not 0 <= self.remote_ops <= self.ops_per_txn:
            raise ValueError("remote_ops must be within the transaction size")


# Operation kinds; operations are plain (partition, key, kind) tuples — a
# spec is built per transaction attempt stream step, so construction stays
# allocation-lean on the hot path.
_READ = 0
_RMW = 1
_BLIND_WRITE = 2


class YCSBSource(TxnSource):
    """Per-worker transaction stream."""

    def __init__(self, workload: "YCSBWorkload", cluster: "Cluster",
                 partition_id: int, rng: DeterministicRandom):
        self.workload = workload
        self.cluster = cluster
        self.partition_id = partition_id
        self.rng = rng
        self.zipf = ZipfGenerator(
            workload.config.keys_per_partition, workload.config.zipf_theta, rng
        )
        self.n_partitions = cluster.config.n_partitions

    def set_hot_skew(self, theta) -> None:
        # A fresh Zipf table over the same key space, fed by the *same* RNG:
        # the uniform stream keeps its pinned draw order across the shift.
        config = self.workload.config
        target = config.zipf_theta if theta is None else float(theta)
        self.zipf = ZipfGenerator(config.keys_per_partition, target, self.rng)

    def next(self) -> TransactionSpec:
        # The RNG draw sequence below is pinned by the determinism goldens:
        # distributed flag, remote slot draws, then per slot key/kind draws.
        config = self.workload.config
        rng = self.rng
        ops_per_txn = config.ops_per_txn
        n_partitions = self.n_partitions
        home = self.partition_id
        distributed = n_partitions > 1 and rng.boolean(config.distributed_pct)
        remote_slots: set[int] = set()
        if distributed:
            want = min(config.remote_ops, ops_per_txn)
            while len(remote_slots) < want:
                remote_slots.add(rng.uniform_int(0, ops_per_txn - 1))
        operations: list[tuple[int, int, int]] = []
        chosen: set[tuple[int, int]] = set()
        zipf_next = self.zipf.next
        boolean = rng.boolean
        write_pct = config.write_pct
        blind_write_pct = config.blind_write_pct
        read_only = True
        for slot in range(ops_per_txn):
            if slot in remote_slots:
                partition = rng.uniform_int(0, n_partitions - 2)
                if partition >= home:
                    partition += 1
            else:
                partition = home
            key = zipf_next()
            while (partition, key) in chosen:
                key = zipf_next()
            chosen.add((partition, key))
            if boolean(write_pct):
                kind = _BLIND_WRITE if boolean(blind_write_pct) else _RMW
                read_only = False
            else:
                kind = _READ
            operations.append((partition, key, kind))
        return TransactionSpec(
            name="ycsb",
            logic=self.workload.make_logic(operations),
            read_only=read_only,
        )


@register_workload(
    "ycsb",
    config_cls=YCSBConfig,
    scale_defaults={"keys_per_partition": "ycsb_keys_per_partition"},
    description="Zipf key-value mix; knobs map to the sweeps of §6.3",
)
class YCSBWorkload(Workload):
    name = "ycsb"

    def __init__(self, config: YCSBConfig | None = None):
        self.config = config or YCSBConfig()
        self.config.validate()

    # -- loading ------------------------------------------------------------------
    def load(self, cluster: "Cluster") -> None:
        row = {f"field{i}": 0 for i in range(FIELDS)}
        keys = range(self.config.keys_per_partition)
        for server in cluster.servers.values():
            server.store.create_table(TABLE, schema=SCHEMA).insert_many(keys, row)

    # -- transaction streams --------------------------------------------------------
    def make_source(self, cluster: "Cluster", partition_id: int, stream_id: int) -> YCSBSource:
        return YCSBSource(self, cluster, partition_id, self.rng(cluster, partition_id, stream_id))

    # -- transaction logic -------------------------------------------------------------
    def make_logic(self, operations: list[tuple[int, int, int]]):
        def logic(ctx: "TxnContext") -> Generator:
            for partition, key, kind in operations:
                if kind == _READ:
                    yield from ctx.read(partition, TABLE, key)
                elif kind == _RMW:
                    value = yield from ctx.read(partition, TABLE, key)
                    yield from ctx.update(
                        partition, TABLE, key, {"field0": value.get("field0", 0) + 1}
                    )
                else:  # blind write: no prior read
                    yield from ctx.update(partition, TABLE, key, {"field1": 1})

        return logic
