"""Two-phase commit, written once for the 2PC-based baselines (§2.1).

The coordinator runs the commit phase of a distributed transaction as:

1. **Prepare** — in parallel, each participant receives the write-set destined
   for it (Unsolicited-Vote: the writes ride along with the PREPARE message),
   performs the protocol-specific prepare work (lock upgrades for 2PL,
   validation for Silo/Sundial), appends a prepare log record and votes.
2. **Commit/Abort** — if every vote is YES the coordinator logs the commit
   decision, installs its local writes, and sends COMMIT to the participants,
   which install their writes, log, release locks and acknowledge.  A NO vote
   (or an unreachable participant) turns the round into ABORT (Presumed-Abort:
   the abort decision is not logged).

:class:`TwoPhaseCommitProtocol` owns all of that — the rounds, the decision
record, the install-and-release step on both sides.  A protocol supplies
``prepare_partition`` (its prepare work at *one* partition, coordinator or
participant) and, where it differs, ``choose_commit_ts`` and
``commit_single_partition``.

Log records are appended here but *not* flushed — durability is the group
commit scheme's job, exactly as the paper configures the baselines (§6.1.3).
The two network round trips charged here are what Primo removes from the
contention footprint.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator

from ..commit.logging import LogRecordKind
from ..sim.engine import all_of
from ..sim.network import NodeUnreachable
from ..txn.transaction import AbortReason, Transaction
from .base import BaseProtocol, install_write_entries

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.server import Server

__all__ = ["TwoPhaseCommitProtocol"]


class TwoPhaseCommitProtocol(BaseProtocol):
    """Commit-phase driver; protocols provide the prepare work."""

    # -- what a 2PC-based protocol supplies ----------------------------------------
    def prepare_partition(self, server: "Server", txn: Transaction, writes: list,
                          reads: list, commit_ts, context=None) -> Generator:
        """Prepare work at one partition; return True to vote YES.

        ``context`` is the execution context when ``server`` is the
        coordinator and ``None`` at a participant.
        """
        raise NotImplementedError

    def choose_commit_ts(self, server: "Server", txn: Transaction, context) -> float:
        """Logical install timestamp (protocols may override, e.g. Sundial)."""
        return server.highest_ts_seen + 1

    def commit_single_partition(self, server: "Server", txn: Transaction,
                                context) -> Generator:
        """Fast path of a transaction that never left its coordinator: the
        prepare work here, then install — no round, no decision record, no
        install charge."""
        commit_start = self.env.now
        commit_ts = self.choose_commit_ts(server, txn, context)
        txn.ts = commit_ts
        ok = yield from self.prepare_partition(
            server, txn,
            txn.writes_for_partition(server.partition_id),
            txn.reads_for_partition(server.partition_id),
            commit_ts, context,
        )
        if not ok:
            self._abort(txn, AbortReason.VALIDATION, f"{self.name} local validation")
        install_write_entries(server, txn, txn.write_set, commit_ts)
        server.store.lock_manager.release_all(txn.tid)
        server.note_ts(commit_ts)
        txn.add_breakdown("commit", self.env.now - commit_start)

    # -- the commit phase -----------------------------------------------------------
    def commit(self, server: "Server", txn: Transaction, context) -> Generator:
        if txn.is_distributed:
            return self.two_phase_commit(server, txn, context)
        return self.commit_single_partition(server, txn, context)

    def two_phase_commit(self, server: "Server", txn: Transaction, context) -> Generator:
        """Run prepare + commit; raises :class:`TxnAborted` if any vote is NO."""
        two_pc_start = self.env.now
        commit_ts = self.choose_commit_ts(server, txn, context)
        txn.ts = commit_ts
        local_writes = txn.writes_for_partition(server.partition_id)

        # ---- prepare phase -------------------------------------------------
        local_vote = yield from self.prepare_partition(
            server, txn, local_writes,
            txn.reads_for_partition(server.partition_id), commit_ts, context,
        )
        votes = [local_vote]
        remote_votes = yield from self._round(server, txn, "prepare", self._prepare_at, commit_ts)
        votes.extend(bool(v) and not isinstance(v, Exception) for v in remote_votes)
        txn.add_breakdown("2pc", self.env.now - two_pc_start)

        if not all(votes):
            # ABORT goes out twice: here, and again when the raise below lands
            # in run_transaction's cleanup_abort (ROADMAP finding (b)).
            self.cleanup_abort(server, txn)
            self._abort(txn, AbortReason.LOCK_CONFLICT, "2PC prepare voted NO")

        # ---- commit phase ---------------------------------------------------
        commit_start = self.env.now
        server.log.append(LogRecordKind.COMMIT_DECISION, txn_ts=commit_ts)
        yield from self._install_and_release(server, txn, local_writes, commit_ts)
        yield from self._round(server, txn, "commit", self._commit_at, commit_ts)
        server.note_ts(commit_ts)
        txn.add_breakdown("commit", self.env.now - commit_start)

    # -- one RPC round to every participant --------------------------------------------
    def _round(self, server: "Server", txn: Transaction, phase: str, handler: Callable,
               commit_ts) -> Generator:
        """Call ``handler`` at every participant in parallel; returns the answers."""
        calls = [
            self.env.process(
                self._ask(server, self.server_of(partition), handler, txn,
                          txn.writes_for_partition(partition),
                          txn.reads_for_partition(partition), commit_ts),
                name=f"2pc-{phase}-{txn.tid}-p{partition}",
            )
            for partition in sorted(txn.participants)
        ]
        if not calls:
            return []
        answers = yield all_of(self.env, calls)
        return answers

    def _ask(self, server: "Server", participant: "Server", handler: Callable,
             *args) -> Generator:
        try:
            answer = yield from self.network.rpc(
                server.partition_id, participant.partition_id, handler, participant, *args
            )
        except NodeUnreachable:
            return False
        return answer

    # -- what runs at a participant ------------------------------------------------------
    def _prepare_at(self, participant: "Server", txn: Transaction, writes: list,
                    reads: list, commit_ts) -> Generator:
        if participant.crashed:
            return False
        ok = yield from self.prepare_partition(participant, txn, writes, reads, commit_ts)
        if ok:
            participant.log.append(LogRecordKind.PREPARE, txn_ts=commit_ts)
        return ok

    def _commit_at(self, participant: "Server", txn: Transaction, writes: list,
                   reads: list, commit_ts) -> Generator:
        if participant.crashed:
            return
        yield from self._install_and_release(participant, txn, writes, commit_ts)
        participant.note_ts(commit_ts)

    def _install_and_release(self, server: "Server", txn: Transaction, writes: list,
                             commit_ts) -> Generator:
        yield from self.cpu(self.config.cpu_record_access_us * max(1, len(writes)))
        install_write_entries(server, txn, writes, commit_ts)
        server.store.lock_manager.release_all(txn.tid)
