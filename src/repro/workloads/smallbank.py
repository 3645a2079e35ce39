"""Smallbank workload.

A simple banking benchmark (cited in §1 as a workload whose read-set covers
its write-set): every account has a checking and a savings row; transactions
move money between them or across accounts.  Used by the examples and by an
ablation bench for cross-partition transfers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator

from ..registry import register_workload
from ..sim.randgen import DeterministicRandom
from ..storage.columnar import TableSchema
from .base import TransactionSpec, TxnSource, Workload

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.cluster import Cluster
    from ..txn.context import TxnContext

__all__ = ["SmallbankConfig", "SmallbankWorkload"]


@dataclass
class SmallbankConfig:
    accounts_per_partition: int = 20_000
    hot_account_pct: float = 0.25      # fraction of accesses hitting the hot set
    hot_accounts: int = 100
    distributed_pct: float = 0.15      # cross-partition SendPayment transactions
    # Mix (percent): Balance, DepositChecking, TransactSavings, Amalgamate,
    # WriteCheck, SendPayment.
    balance_pct: float = 15.0
    deposit_pct: float = 25.0
    transact_pct: float = 15.0
    amalgamate_pct: float = 15.0
    write_check_pct: float = 15.0
    send_payment_pct: float = 15.0

    def validate(self) -> None:
        if self.accounts_per_partition <= self.hot_accounts:
            raise ValueError("accounts_per_partition must exceed hot_accounts")
        total = (
            self.balance_pct + self.deposit_pct + self.transact_pct
            + self.amalgamate_pct + self.write_check_pct + self.send_payment_pct
        )
        if not 99.0 <= total <= 101.0:
            raise ValueError("transaction mix must sum to ~100")


class _SmallbankSource(TxnSource):
    def __init__(self, workload: "SmallbankWorkload", cluster: "Cluster",
                 partition_id: int, rng: DeterministicRandom):
        self.workload = workload
        self.cluster = cluster
        self.partition_id = partition_id
        self.rng = rng

    def _account(self) -> int:
        config = self.workload.config
        if self.rng.boolean(config.hot_account_pct):
            return self.rng.uniform_int(0, config.hot_accounts - 1)
        return self.rng.uniform_int(config.hot_accounts, config.accounts_per_partition - 1)

    def _other_partition(self) -> int:
        n = self.cluster.config.n_partitions
        if n <= 1:
            return self.partition_id
        other = self.rng.uniform_int(0, n - 2)
        return other + 1 if other >= self.partition_id else other

    def next(self) -> TransactionSpec:
        config = self.workload.config
        w = self.workload
        p = self.partition_id
        a1, a2 = self._account(), self._account()
        while a2 == a1:
            a2 = self._account()
        roll = self.rng.uniform(0.0, 100.0)
        if roll < config.balance_pct:
            return TransactionSpec("sb_balance", w.balance(p, a1), read_only=True)
        if roll < config.balance_pct + config.deposit_pct:
            return TransactionSpec("sb_deposit", w.deposit_checking(p, a1, 1.3))
        if roll < config.balance_pct + config.deposit_pct + config.transact_pct:
            return TransactionSpec("sb_transact", w.transact_savings(p, a1, 20.0))
        if roll < 100.0 - config.write_check_pct - config.send_payment_pct:
            return TransactionSpec("sb_amalgamate", w.amalgamate(p, a1, a2))
        if roll < 100.0 - config.send_payment_pct:
            return TransactionSpec("sb_write_check", w.write_check(p, a1, 5.0))
        dest_partition = (
            self._other_partition()
            if self.rng.boolean(config.distributed_pct)
            else p
        )
        return TransactionSpec("sb_send_payment", w.send_payment(p, a1, dest_partition, a2, 5.0))


@register_workload(
    "smallbank",
    config_cls=SmallbankConfig,
    scale_defaults={"accounts_per_partition": "smallbank_accounts_per_partition"},
    description="checking/savings banking mix with hot accounts",
)
class SmallbankWorkload(Workload):
    name = "smallbank"

    def __init__(self, config: SmallbankConfig | None = None):
        self.config = config or SmallbankConfig()
        self.config.validate()

    #: Single-float schema → columnar tables.
    SCHEMA = TableSchema((("balance", "f"),))

    def load(self, cluster: "Cluster") -> None:
        row = {"balance": 1_000.0}
        accounts = range(self.config.accounts_per_partition)
        for server in cluster.servers.values():
            for name in ("checking", "savings"):
                server.store.create_table(name, schema=self.SCHEMA).insert_many(accounts, row)

    def make_source(self, cluster: "Cluster", partition_id: int, stream_id: int) -> _SmallbankSource:
        return _SmallbankSource(self, cluster, partition_id, self.rng(cluster, partition_id, stream_id))

    # -- transaction logic ---------------------------------------------------------------
    def balance(self, partition: int, account: int):
        def logic(ctx: "TxnContext") -> Generator:
            yield from ctx.read(partition, "checking", account)
            yield from ctx.read(partition, "savings", account)

        return logic

    def deposit_checking(self, partition: int, account: int, amount: float):
        def logic(ctx: "TxnContext") -> Generator:
            row = yield from ctx.read(partition, "checking", account)
            yield from ctx.update(partition, "checking", account, {"balance": row["balance"] + amount})

        return logic

    def transact_savings(self, partition: int, account: int, amount: float):
        def logic(ctx: "TxnContext") -> Generator:
            row = yield from ctx.read(partition, "savings", account)
            new_balance = row["balance"] + amount
            if new_balance < 0:
                ctx.abort("insufficient savings")
            yield from ctx.update(partition, "savings", account, {"balance": new_balance})

        return logic

    def amalgamate(self, partition: int, account_from: int, account_to: int):
        def logic(ctx: "TxnContext") -> Generator:
            if account_from == account_to:
                return  # moving an account onto itself is a no-op
            savings = yield from ctx.read(partition, "savings", account_from)
            checking = yield from ctx.read(partition, "checking", account_from)
            dest = yield from ctx.read(partition, "checking", account_to)
            total = savings["balance"] + checking["balance"]
            yield from ctx.update(partition, "savings", account_from, {"balance": 0.0})
            yield from ctx.update(partition, "checking", account_from, {"balance": 0.0})
            yield from ctx.update(partition, "checking", account_to, {"balance": dest["balance"] + total})

        return logic

    def write_check(self, partition: int, account: int, amount: float):
        def logic(ctx: "TxnContext") -> Generator:
            savings = yield from ctx.read(partition, "savings", account)
            checking = yield from ctx.read(partition, "checking", account)
            penalty = 1.0 if savings["balance"] + checking["balance"] < amount else 0.0
            yield from ctx.update(
                partition, "checking", account,
                {"balance": checking["balance"] - amount - penalty},
            )

        return logic

    def send_payment(self, src_partition: int, src_account: int,
                     dst_partition: int, dst_account: int, amount: float):
        def logic(ctx: "TxnContext") -> Generator:
            source = yield from ctx.read(src_partition, "checking", src_account)
            if source["balance"] < amount:
                ctx.abort("insufficient checking balance")
            dest = yield from ctx.read(dst_partition, "checking", dst_account)
            yield from ctx.update(
                src_partition, "checking", src_account, {"balance": source["balance"] - amount}
            )
            yield from ctx.update(
                dst_partition, "checking", dst_account, {"balance": dest["balance"] + amount}
            )

        return logic
