"""Simplified Raft-style replication for a partition's log.

Each partition has a leader (the simulated server) and ``replicas_per_partition
- 1`` followers.  The only Raft behaviours the reproduction needs are:

* **quorum append** — a log prefix becomes durable once a majority of the
  replication group has acknowledged it (one network round trip per append
  batch), which is the persistence latency that WM/COCO/CLV move off or keep
  on the transaction's critical path;
* **leader fail-over** — on a crash the recovery coordinator elects a new
  leader which, per §5.2, is guaranteed to have every log record up to the
  last persisted partition watermark.

Followers are not full servers and keep no copy of the log: a follower is
its acknowledged LSN (``acked_lsn``, the only follower state the simulation
acts on) plus its fault state.  They are *fault-targetable*: each
:class:`ReplicaState` can lag (``extra_lag_us`` stretches its acknowledgement
round trip) or crash (``crashed`` removes it from the quorum until it
recovers and catches up) — the ``follower_lag`` /
``follower_crash`` / ``follower_recover`` fault kinds in :mod:`repro.faults`
drive exactly these knobs.  Quorum latency is the *quorum-th fastest* alive
follower's round trip (not ``followers[0]``'s), so heterogeneous links — a
lagging follower, or a cross-region replica under a
:class:`~repro.sim.topology.RegionTopology` — reshape durability latency the
way a real quorum does.  With homogeneous links every round trip is equal
and the quorum-th fastest *is* the old ``followers[0]`` value, so all
pre-existing fixed-seed goldens are bit-identical (pinned by
tests/replication/test_replication.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from ..sim.engine import Environment, Event
from ..sim.network import Network
from ..sim.stats import Counter

__all__ = ["ReplicaState", "ReplicationGroup", "QUORUM_RETRY_US"]

#: Fixed re-check interval while an append waits for a quorum of alive
#: followers (all crashed-follower stalls resolve through recovery events,
#: so a constant poll keeps the wait deterministic).
QUORUM_RETRY_US = 1_000.0


@dataclass
class ReplicaState:
    """A follower's acknowledged prefix of the replicated log (and its fault state)."""

    replica_id: int
    acked_lsn: int = 0
    #: Extra acknowledgement latency injected by the ``follower_lag`` fault.
    extra_lag_us: float = 0.0
    #: Crashed followers ack nothing and drop out of the quorum math.
    crashed: bool = False


class ReplicationGroup:
    """Leader-driven quorum replication for a single partition."""

    def __init__(
        self,
        env: Environment,
        network: Network,
        partition_id: int,
        n_replicas: int,
        follower_node_base: int,
        storage_persist_us: float,
        counters: Optional[Counter] = None,
    ):
        if n_replicas < 1:
            raise ValueError("a replication group needs at least one replica (the leader)")
        self.env = env
        self.network = network
        self.partition_id = partition_id
        self.n_replicas = n_replicas
        self.storage_persist_us = storage_persist_us
        self.term = 1
        # Follower node ids live in a separate id space so network latency
        # between the leader and its followers is the normal inter-node latency.
        self.followers = [
            ReplicaState(replica_id=follower_node_base + i)
            for i in range(n_replicas - 1)
        ]
        self.quorum_size = n_replicas // 2 + 1
        self.durable_lsn = 0
        self.counters = counters if counters is not None else Counter()

    # -- follower fault surface ---------------------------------------------
    def _follower(self, index: int) -> ReplicaState:
        if not 0 <= index < len(self.followers):
            raise ValueError(
                f"partition {self.partition_id} has {len(self.followers)} "
                f"follower(s); follower index {index} is out of range"
            )
        return self.followers[index]

    def set_follower_lag(self, index: int, delay_us: float) -> None:
        """Stretch one follower's ack round trip by ``delay_us`` (0 clears)."""
        self._follower(index).extra_lag_us = float(delay_us)

    def crash_follower(self, index: int) -> None:
        """Drop one follower out of the quorum until it recovers."""
        self._follower(index).crashed = True

    def recover_follower(self, index: int) -> None:
        """Bring a crashed follower back, caught up to the durable prefix."""
        state = self._follower(index)
        state.crashed = False
        # Catch-up: a recovering follower replays the leader's durable log
        # before rejoining the quorum, so it acks everything already durable.
        state.acked_lsn = max(state.acked_lsn, self.durable_lsn)

    def alive_followers(self) -> list:
        return [state for state in self.followers if not state.crashed]

    def _ack_roundtrip_us(self, state: ReplicaState) -> float:
        """One append/ack round trip for a follower, including injected lag."""
        return (
            self.network.roundtrip_us(self.partition_id, state.replica_id)
            + state.extra_lag_us
        )

    # -- normal operation ----------------------------------------------------
    def replicate(self, up_to_lsn: int, entries: list) -> Generator[Event, object, int]:
        """Replicate ``entries`` so the prefix up to ``up_to_lsn`` is durable.

        Returns the new durable LSN.  With a single replica (no followers) the
        persist latency is just the local storage write.
        """
        if not self.followers:
            yield self.env.timeout(self.storage_persist_us)
            self.durable_lsn = max(self.durable_lsn, up_to_lsn)
            return self.durable_lsn
        # Leader sends AppendEntries to all followers in parallel; durability
        # is reached when a quorum (including the leader itself) has persisted.
        # The dominant cost is one round trip to the *quorum-th fastest* alive
        # follower plus the follower's storage write.
        acks_needed = self.quorum_size - 1  # leader counts as one vote
        alive = self.alive_followers()
        while len(alive) < acks_needed:
            # Too many followers down to form a quorum: durability stalls
            # until a follower recovers (the fixed poll keeps it deterministic).
            self.counters.increment("quorum_stalls")
            yield self.env.timeout(QUORUM_RETRY_US)
            alive = self.alive_followers()
        roundtrips = sorted(self._ack_roundtrip_us(state) for state in alive)
        quorum_wait = roundtrips[max(acks_needed, 1) - 1]
        yield self.env.timeout(quorum_wait + self.storage_persist_us)
        # Every alive follower acknowledges this append — the quorum-th
        # fastest bounded the wait, the rest arrive off the critical path.
        # Crashed followers miss the entries and catch up on recovery.
        for state in alive:
            state.acked_lsn = max(state.acked_lsn, up_to_lsn)
        self.durable_lsn = max(self.durable_lsn, up_to_lsn)
        return self.durable_lsn

    # -- failure handling -------------------------------------------------------
    def elect_new_leader(self) -> Generator[Event, object, int]:
        """Run a (simplified) election; returns the new term.

        The election needs a vote round trip to every reachable follower plus
        a persisted term bump, so its cost is two round trips to the
        *slowest* live follower — derived from the network's actual per-link
        latency (injected delays, region matrices), not the scalar default.
        With homogeneous fault-free links this is exactly the historical
        ``4 × one_way + persist``.
        """
        pool = self.alive_followers() or self.followers
        if not pool:
            # Single-replica group: no votes to gather, just the term persist
            # plus the historical fixed allowance.
            election_delay = self.network.one_way_latency_us * 4 + self.storage_persist_us
        else:
            slowest = max(self._ack_roundtrip_us(state) for state in pool)
            election_delay = 2.0 * slowest + self.storage_persist_us
        yield self.env.timeout(election_delay)
        self.term += 1
        return self.term

    def highest_replicated_lsn(self) -> int:
        """The LSN guaranteed to exist on the new leader after fail-over."""
        if not self.followers:
            return self.durable_lsn
        return max((f.acked_lsn for f in self.followers), default=self.durable_lsn)
