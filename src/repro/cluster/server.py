"""A partition server (the partition's leader).

Owns the partition's storage, lock manager, write-ahead log, replication
group, active-transaction registry (used by the watermark scheme) and the TID
counter.  Worker fibers (see :mod:`repro.cluster.worker`) run on the server and
drive transactions through the cluster's protocol.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..commit.logging import LogManager
from ..replication.raft import ReplicationGroup
from ..sim.engine import Environment
from ..storage.lock import LockPolicy
from ..storage.partition import PartitionStore
from ..txn.transaction import Transaction, TxnId

if TYPE_CHECKING:  # pragma: no cover
    from .cluster import Cluster

__all__ = ["ActiveTxnRegistry", "Server", "follower_node_base"]


def follower_node_base(n_partitions: int, partition_id: int) -> int:
    """First follower node id of a partition's replication group.

    Follower node ids live above the partition id space so the network
    charges normal inter-node latency for replication traffic; the cluster's
    topology resolution maps the same ids into regions, so the formula lives
    here once.
    """
    return n_partitions + partition_id * 10


class ActiveTxnRegistry:
    """Transactions currently active on a partition, with their ts lower bounds.

    Rule 1 of §5.1 takes the minimum over this registry when the partition
    watermark is generated.  Both coordinated transactions and remote
    transactions that have locked records here are registered.
    """

    def __init__(self) -> None:
        self._active: dict = {}

    def register(self, txn: Transaction, lower_bound: Optional[float] = None) -> None:
        if lower_bound is not None and lower_bound > txn.lower_bound_ts and txn.ts is None:
            txn.lower_bound_ts = lower_bound
        self._active[txn.tid] = txn

    def deregister(self, txn: Transaction) -> None:
        self._active.pop(txn.tid, None)

    def is_empty(self) -> bool:
        return not self._active

    def __len__(self) -> int:
        return len(self._active)

    def min_effective_ts(self) -> Optional[float]:
        if not self._active:
            return None
        return min(txn.effective_ts() for txn in self._active.values())

    def clear(self) -> None:
        self._active.clear()


class Server:
    """Leader of one partition."""

    def __init__(self, cluster: "Cluster", partition_id: int, lock_policy: LockPolicy):
        self.cluster = cluster
        self.env: Environment = cluster.env
        self.config = cluster.config
        self.partition_id = partition_id
        self.store = PartitionStore(self.env, partition_id, lock_policy, cluster.counters)
        follower_base = follower_node_base(cluster.config.n_partitions, partition_id)
        self.replication = ReplicationGroup(
            self.env,
            cluster.network,
            partition_id,
            cluster.config.replicas_per_partition,
            follower_base,
            cluster.config.storage_persist_us,
            cluster.counters,
        )
        self.log = LogManager(
            self.env, partition_id, self.replication, cluster.config.log_write_us, cluster.counters
        )
        self.active_txns = ActiveTxnRegistry()
        self.crashed = False
        # Watermark state (§5.1): the published partition watermark and the
        # floor every new commit timestamp must exceed (floor >= watermark;
        # force-update may push the floor further ahead).
        self.partition_watermark = 0.0
        self.ts_floor = 0.0
        # Highest logical timestamp assigned or installed on this partition.
        self.highest_ts_seen = 0.0
        self._tid_counter = 0

    # -- transaction creation -----------------------------------------------------
    def new_transaction(self, name: str = "txn") -> Transaction:
        self._tid_counter += 1
        tid = TxnId(self._tid_counter * self.config.n_partitions + self.partition_id,
                    self.partition_id)
        return Transaction(tid=tid, coordinator=self.partition_id, name=name)

    # -- timestamp bookkeeping ------------------------------------------------------
    def note_ts(self, ts: float) -> None:
        if ts > self.highest_ts_seen:
            self.highest_ts_seen = ts

    # -- failure handling --------------------------------------------------------------
    def crash(self) -> None:
        """Simulate the partition leader failing."""
        self.crashed = True
        self.cluster.network.set_unreachable(self.partition_id, True)
        self.cluster.durability.notify_crash(self.partition_id)

    def recover_as_new_leader(self) -> None:
        """Complete fail-over: a replica takes over with the replicated state."""
        self.crashed = False
        self.cluster.network.set_unreachable(self.partition_id, False)
        self.store.lock_manager.force_release_everything()
        self.active_txns.clear()
