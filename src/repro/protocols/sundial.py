"""Sundial: TicToc-based distributed concurrency control + 2PC.

Sundial (Yu et al., VLDB'18) extends TicToc's logical leases to distributed
transactions.  Reads take no locks and record the observed ``[wts, rts]``
lease; at commit a 2PC round locks the write-set, computes the commit
timestamp from the lease constraints, and renews (extends) the leases of the
read records on every involved partition.  Lease renewal is what makes Sundial
the strongest 2PC-based baseline in the paper: like Primo it rarely aborts
local readers, but unlike Primo it still pays the two 2PC round trips inside
the contention footprint.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from ..core.tictoc import compute_commit_ts, in_key_order, lock_write_set
from ..storage.lock import LockPolicy
from ..txn.context import TxnContext
from ..txn.transaction import Transaction
from ..registry import register_protocol
from .two_pc import TwoPhaseCommitProtocol

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.server import Server

__all__ = ["SundialProtocol", "SundialContext"]


class SundialContext(TxnContext):
    """Lease-stamped OCC reads (no locks); writes buffered."""

    registers_lower_bound = True


@register_protocol("sundial", default_durability="coco",
                   description="TicToc-based (Sundial) + 2PC")
class SundialProtocol(TwoPhaseCommitProtocol):
    name = "sundial"
    lock_policy = LockPolicy.WAIT_DIE

    context_class = SundialContext

    # -- commit-timestamp + validation ------------------------------------------------------
    def choose_commit_ts(self, server: "Server", txn: Transaction, context) -> float:
        # On the single-partition path this is before the prepare's lock waits
        # (Silo and Primo's local mode pick their timestamp after theirs).
        return compute_commit_ts(txn, server.ts_floor)

    def prepare_partition(self, server: "Server", txn: Transaction, writes: list,
                          reads: list, commit_ts: float, context=None) -> Generator:
        """Sundial prepare work at one partition: lock writes, renew read leases."""
        # {}: every write target is looked up again, at the coordinator too.
        refused = yield from lock_write_set(server, txn, in_key_order(writes), {})
        if refused is not None:
            return False
        lock_manager = server.store.lock_manager
        written = {(w.table, w.key) for w in writes}
        for entry in reads:
            record = server.store.table(entry.table).get(entry.key)
            if record is None:
                return False
            if record.wts != entry.wts:
                return False
            if (entry.table, entry.key) in written:
                continue
            if commit_ts <= record.rts:
                continue
            if lock_manager.locked_by_other(txn.tid, record):
                return False
            record.extend_rts(commit_ts)
        yield from self.cpu(self.config.cpu_record_access_us * max(1, len(writes) + len(reads)))
        return True
