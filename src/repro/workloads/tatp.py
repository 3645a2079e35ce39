"""TATP (Telecom Application Transaction Processing) workload.

A read-heavy telecom benchmark the paper cites as a typical workload whose
read-set covers its write-set (§1).  Included as an extension workload for the
examples and for ablation benches: ~80% of the transactions are single-record
reads, the rest are updates of the same records, so it exercises Primo's
TicToc local path and the low-contention regime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator

from ..registry import register_workload
from ..sim.randgen import DeterministicRandom
from .base import TransactionSpec, TxnSource, Workload

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.cluster import Cluster
    from ..txn.context import TxnContext

__all__ = ["TATPConfig", "TATPWorkload"]


@dataclass
class TATPConfig:
    subscribers_per_partition: int = 20_000
    distributed_pct: float = 0.1
    # Mix (percent): GetSubscriberData, GetAccessData, UpdateSubscriberData,
    # UpdateLocation.
    get_subscriber_pct: float = 35.0
    get_access_pct: float = 35.0
    update_subscriber_pct: float = 15.0
    update_location_pct: float = 15.0

    def validate(self) -> None:
        if self.subscribers_per_partition < 10:
            raise ValueError("need at least ten subscribers per partition")
        total = (
            self.get_subscriber_pct + self.get_access_pct
            + self.update_subscriber_pct + self.update_location_pct
        )
        if not 99.0 <= total <= 101.0:
            raise ValueError("transaction mix must sum to ~100")


class _TATPSource(TxnSource):
    def __init__(self, workload: "TATPWorkload", cluster: "Cluster",
                 partition_id: int, rng: DeterministicRandom):
        self.workload = workload
        self.cluster = cluster
        self.partition_id = partition_id
        self.rng = rng

    def _pick_partition(self) -> int:
        n = self.cluster.config.n_partitions
        if n > 1 and self.rng.boolean(self.workload.config.distributed_pct):
            other = self.rng.uniform_int(0, n - 2)
            return other + 1 if other >= self.partition_id else other
        return self.partition_id

    def next(self) -> TransactionSpec:
        config = self.workload.config
        s_id = self.rng.uniform_int(0, config.subscribers_per_partition - 1)
        partition = self._pick_partition()
        roll = self.rng.uniform(0.0, 100.0)
        if roll < config.get_subscriber_pct:
            return TransactionSpec(
                "tatp_get_subscriber", self.workload.get_subscriber(partition, s_id),
                read_only=True,
            )
        if roll < config.get_subscriber_pct + config.get_access_pct:
            ai_type = self.rng.uniform_int(1, 4)
            return TransactionSpec(
                "tatp_get_access", self.workload.get_access_data(partition, s_id, ai_type),
                read_only=True,
            )
        if roll < 100.0 - config.update_location_pct:
            return TransactionSpec(
                "tatp_update_subscriber",
                self.workload.update_subscriber(partition, s_id, self.rng.uniform_int(0, 255)),
            )
        return TransactionSpec(
            "tatp_update_location",
            self.workload.update_location(partition, s_id, self.rng.uniform_int(0, 1 << 16)),
        )


@register_workload(
    "tatp",
    config_cls=TATPConfig,
    scale_defaults={"subscribers_per_partition": "tatp_subscribers_per_partition"},
    description="read-heavy telecom mix (read-set covers write-set, §1)",
)
class TATPWorkload(Workload):
    name = "tatp"

    def __init__(self, config: TATPConfig | None = None):
        self.config = config or TATPConfig()
        self.config.validate()

    def load(self, cluster: "Cluster") -> None:
        """Every partition holds the same subscriber ids, so one set of
        ``(key, cells)`` rows is built and each table loads it."""
        subscribers = range(self.config.subscribers_per_partition)
        subscriber_rows = [
            (s_id, (s_id, s_id % 2, 0, 0, f"{s_id:015d}")) for s_id in subscribers
        ]
        access_info_rows = [
            ((s_id, ai_type), (s_id, ai_type, ai_type * 7))
            for s_id in subscribers for ai_type in range(1, 5)
        ]
        for server in cluster.servers.values():
            server.store.create_table("subscriber").load(
                ("s_id", "bit_1", "vlr_location", "msc_location", "sub_nbr"), subscriber_rows)
            server.store.create_table("access_info").load(
                ("s_id", "ai_type", "data1"), access_info_rows)

    def make_source(self, cluster: "Cluster", partition_id: int, stream_id: int) -> _TATPSource:
        return _TATPSource(self, cluster, partition_id, self.rng(cluster, partition_id, stream_id))

    # -- transaction logic ------------------------------------------------------------
    def get_subscriber(self, partition: int, s_id: int):
        def logic(ctx: "TxnContext") -> Generator:
            yield from ctx.read(partition, "subscriber", s_id)

        return logic

    def get_access_data(self, partition: int, s_id: int, ai_type: int):
        def logic(ctx: "TxnContext") -> Generator:
            yield from ctx.read(partition, "access_info", (s_id, ai_type))

        return logic

    def update_subscriber(self, partition: int, s_id: int, bit: int):
        def logic(ctx: "TxnContext") -> Generator:
            row = yield from ctx.read(partition, "subscriber", s_id)
            yield from ctx.update(partition, "subscriber", s_id, {"bit_1": bit ^ row["bit_1"]})

        return logic

    def update_location(self, partition: int, s_id: int, location: int):
        def logic(ctx: "TxnContext") -> Generator:
            yield from ctx.read(partition, "subscriber", s_id)
            yield from ctx.update(partition, "subscriber", s_id, {"vlr_location": location})

        return logic
