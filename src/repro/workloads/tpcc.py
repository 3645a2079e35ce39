"""TPC-C workload (§6.1.2).

Implements the full five-transaction mix (NewOrder, Payment, OrderStatus,
Delivery, StockLevel) over warehouse-partitioned tables.  Following the
specification — and the paper's setup — roughly 10% of NewOrder transactions
touch a remote warehouse (1% per order line) and 15% of Payment transactions
pay through a remote warehouse, which is what makes TPC-C a distributed
workload.  The item table is read-only and replicated to every partition.

Scale parameters are configurable so unit tests can run tiny instances; the
defaults are a scaled-down but structurally faithful database (the paper's
contention behaviour is driven by the per-district/warehouse hot rows, which
are modelled exactly).
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

__all__ = ["TPCCConfig", "TPCCWorkload", "TPCCSource"]

DISTRICTS_PER_WAREHOUSE = 10

#: Every table, in creation order, with its columns: a loaded row's cells
#: follow them.
_COLUMNS = {
    "warehouse": ("w_id", "w_tax", "w_ytd", "w_name"),
    "district": ("d_w_id", "d_id", "d_tax", "d_ytd", "d_next_o_id"),
    "customer": ("c_w_id", "c_d_id", "c_id", "c_last", "c_balance",
                 "c_ytd_payment", "c_payment_cnt", "c_delivery_cnt", "c_data"),
    "stock": ("s_w_id", "s_i_id", "s_quantity", "s_ytd", "s_order_cnt", "s_remote_cnt"),
    "item": ("i_id", "i_name", "i_price"),
    "orders": ("o_w_id", "o_d_id", "o_id", "o_c_id", "o_ol_cnt", "o_carrier_id"),
    "new_order": ("no_w_id", "no_d_id", "no_o_id"),
    "order_line": ("ol_w_id", "ol_d_id", "ol_o_id", "ol_number", "ol_i_id",
                   "ol_quantity", "ol_amount", "ol_delivery_d"),
    "history": ("h_c_id", "h_c_w_id", "h_c_d_id", "h_w_id", "h_d_id", "h_amount"),
}
#: table -> (index name, index columns).
_INDEXES = {
    "customer": ("by_name", ("c_w_id", "c_d_id", "c_last")),
    "orders": ("by_customer", ("o_w_id", "o_d_id", "o_c_id")),
    "new_order": ("by_district", ("no_w_id", "no_d_id")),
}


@dataclass
class TPCCConfig:
    """Scale and mix parameters."""

    warehouses_per_partition: int = 16
    customers_per_district: int = 100
    items: int = 1_000
    initial_orders_per_district: int = 10
    # Transaction mix in percent; the remainder is never generated.
    new_order_pct: float = 45.0
    payment_pct: float = 43.0
    order_status_pct: float = 4.0
    delivery_pct: float = 4.0
    stock_level_pct: float = 4.0
    # Remote-access probabilities from the TPC-C specification.
    remote_item_pct: float = 0.01      # per order line -> ~10% remote NewOrders
    remote_payment_pct: float = 0.15   # remote customer warehouse in Payment
    payment_by_name_pct: float = 0.60

    def validate(self) -> None:
        if self.warehouses_per_partition < 1:
            raise ValueError("need at least one warehouse per partition")
        if self.customers_per_district < 3:
            raise ValueError("need at least three customers per district")
        if self.items < 10:
            raise ValueError("need at least ten items")
        total = (
            self.new_order_pct + self.payment_pct + self.order_status_pct
            + self.delivery_pct + self.stock_level_pct
        )
        if not 99.0 <= total <= 101.0:
            raise ValueError(f"transaction mix must sum to ~100 (got {total})")


@register_workload(
    "tpcc",
    config_cls=TPCCConfig,
    scale_defaults={
        "warehouses_per_partition": "tpcc_warehouses_per_partition",
        "items": "tpcc_items",
        "customers_per_district": "tpcc_customers_per_district",
    },
    description="full five-transaction TPC-C mix",
)
class TPCCWorkload(Workload):
    name = "tpcc"

    def __init__(self, config: TPCCConfig | None = None):
        self.config = config or TPCCConfig()
        self.config.validate()

    # -- partitioning helpers ---------------------------------------------------------
    def partition_of_warehouse(self, cluster: "Cluster", w_id: int) -> int:
        return (w_id - 1) // self.config.warehouses_per_partition

    def warehouses_of_partition(self, partition_id: int) -> range:
        per = self.config.warehouses_per_partition
        return range(partition_id * per + 1, (partition_id + 1) * per + 1)

    def total_warehouses(self, cluster: "Cluster") -> int:
        return self.config.warehouses_per_partition * cluster.config.n_partitions

    # -- loading ------------------------------------------------------------------------
    def load(self, cluster: "Cluster") -> None:
        """Build every partition's rows as ``(key, cells)`` tuples, then hand
        each table its rows in one :meth:`~repro.storage.table.Table.load`."""
        rng = DeterministicRandom(cluster.config.seed ^ 0xC0FFEE)
        config = self.config
        items = range(1, config.items + 1)
        customers = range(1, config.customers_per_district + 1)
        orders_per_district = config.initial_orders_per_district
        last_names = [rng.last_name(c_id % 1000 if c_id > 1000 else c_id - 1)
                      for c_id in customers]
        # The item table is read-only and replicated to every partition.
        item_rows = [(i_id, (i_id, f"item-{i_id}", 1.0 + (i_id % 100) / 10.0))
                     for i_id in items]
        for partition_id, server in cluster.servers.items():
            warehouse, district, customer, stock, orders, new_order, order_line = (
                [], [], [], [], [], [], [])
            for w_id in self.warehouses_of_partition(partition_id):
                warehouse.append((w_id, (w_id, 0.1, 300_000.0, f"warehouse-{w_id}")))
                stock += [((w_id, i_id), (w_id, i_id, 50 + (i_id % 50), 0, 0, 0))
                          for i_id in items]
                for d_id in range(1, DISTRICTS_PER_WAREHOUSE + 1):
                    district.append(((w_id, d_id),
                                     (w_id, d_id, 0.05, 30_000.0, orders_per_district + 1)))
                    customer += [((w_id, d_id, c_id),
                                  (w_id, d_id, c_id, last_name, -10.0, 10.0, 1, 0, ""))
                                 for c_id, last_name in zip(customers, last_names)]
                    for o_id in range(1, orders_per_district + 1):
                        c_id = rng.uniform_int(1, config.customers_per_district)
                        ol_cnt = rng.uniform_int(5, 15)
                        orders.append(((w_id, d_id, o_id), (w_id, d_id, o_id, c_id, ol_cnt, None)))
                        order_line += [((w_id, d_id, o_id, ol_number),
                                        (w_id, d_id, o_id, ol_number,
                                         rng.uniform_int(1, config.items), 5, 0.0, None))
                                       for ol_number in range(1, ol_cnt + 1)]
                        # The last few orders stay undelivered.
                        if o_id > orders_per_district - 5:
                            new_order.append(((w_id, d_id, o_id), (w_id, d_id, o_id)))
            rows = {"warehouse": warehouse, "district": district, "customer": customer,
                    "stock": stock, "item": item_rows, "orders": orders,
                    "new_order": new_order, "order_line": order_line, "history": ()}
            for name, columns in _COLUMNS.items():
                table = server.store.create_table(name)
                if name in _INDEXES:
                    table.create_index(*_INDEXES[name])
                table.load(columns, rows[name])

    # -- transaction streams ----------------------------------------------------------------
    def make_source(self, cluster: "Cluster", partition_id: int, stream_id: int) -> "TPCCSource":
        return TPCCSource(self, cluster, partition_id, self.rng(cluster, partition_id, stream_id))


class TPCCSource(TxnSource):
    """Per-worker TPC-C transaction stream rooted at one partition."""

    def __init__(self, workload: TPCCWorkload, cluster: "Cluster",
                 partition_id: int, rng: DeterministicRandom):
        self.workload = workload
        self.cluster = cluster
        self.partition_id = partition_id
        self.rng = rng
        self.config = workload.config
        self._history_counter = 0

    # -- helpers ---------------------------------------------------------------------
    def _home_warehouse(self) -> int:
        warehouses = self.workload.warehouses_of_partition(self.partition_id)
        return self.rng.uniform_int(warehouses.start, warehouses.stop - 1)

    def _remote_warehouse(self, home_w: int) -> int:
        total = self.workload.total_warehouses(self.cluster)
        if total <= 1:
            return home_w
        other = self.rng.uniform_int(1, total - 1)
        if other >= home_w:
            other += 1
        return other

    def _partition_of(self, w_id: int) -> int:
        return self.workload.partition_of_warehouse(self.cluster, w_id)

    def _customer_id(self) -> int:
        return self.rng.nurand(1023 % self.config.customers_per_district or 1,
                               1, self.config.customers_per_district)

    def _item_id(self) -> int:
        return self.rng.nurand(8191 % self.config.items or 1, 1, self.config.items)

    # -- stream ------------------------------------------------------------------------
    def next(self) -> TransactionSpec:
        c = self.config
        roll = self.rng.uniform(0.0, 100.0)
        if roll < c.new_order_pct:
            return self._new_order()
        if roll < c.new_order_pct + c.payment_pct:
            return self._payment()
        if roll < c.new_order_pct + c.payment_pct + c.order_status_pct:
            return self._order_status()
        if roll < c.new_order_pct + c.payment_pct + c.order_status_pct + c.delivery_pct:
            return self._delivery()
        return self._stock_level()

    # -- NewOrder -------------------------------------------------------------------------
    def _new_order(self) -> TransactionSpec:
        w_id = self._home_warehouse()
        d_id = self.rng.uniform_int(1, DISTRICTS_PER_WAREHOUSE)
        c_id = self._customer_id()
        ol_cnt = self.rng.uniform_int(5, 15)
        lines = []
        for _ in range(ol_cnt):
            i_id = self._item_id()
            supply_w = w_id
            if self.rng.boolean(self.config.remote_item_pct):
                supply_w = self._remote_warehouse(w_id)
            quantity = self.rng.uniform_int(1, 10)
            lines.append((i_id, supply_w, quantity))
        home_partition = self.partition_id
        workload = self.workload

        def logic(ctx: "TxnContext") -> Generator:
            warehouse = yield from ctx.read(home_partition, "warehouse", w_id)
            district = yield from ctx.read(home_partition, "district", (w_id, d_id))
            yield from ctx.read(home_partition, "customer", (w_id, d_id, c_id))
            o_id = district["d_next_o_id"]
            yield from ctx.update(
                home_partition, "district", (w_id, d_id), {"d_next_o_id": o_id + 1}
            )
            total_amount = 0.0
            for ol_number, (i_id, supply_w, quantity) in enumerate(lines, start=1):
                item = yield from ctx.read(home_partition, "item", i_id)
                supply_partition = workload.partition_of_warehouse(ctx.protocol.cluster, supply_w)
                stock = yield from ctx.read(supply_partition, "stock", (supply_w, i_id))
                new_quantity = stock["s_quantity"] - quantity
                if new_quantity < 10:
                    new_quantity += 91
                yield from ctx.update(
                    supply_partition, "stock", (supply_w, i_id),
                    {
                        "s_quantity": new_quantity,
                        "s_ytd": stock["s_ytd"] + quantity,
                        "s_order_cnt": stock["s_order_cnt"] + 1,
                        "s_remote_cnt": stock["s_remote_cnt"] + (1 if supply_w != w_id else 0),
                    },
                )
                amount = quantity * item["i_price"]
                total_amount += amount
                yield from ctx.insert(
                    home_partition, "order_line", (w_id, d_id, o_id, ol_number),
                    {
                        "ol_w_id": w_id, "ol_d_id": d_id, "ol_o_id": o_id,
                        "ol_number": ol_number, "ol_i_id": i_id,
                        "ol_quantity": quantity, "ol_amount": amount,
                        "ol_delivery_d": None,
                    },
                )
            total_amount *= (1 + warehouse["w_tax"] + district["d_tax"])
            yield from ctx.insert(
                home_partition, "orders", (w_id, d_id, o_id),
                {
                    "o_w_id": w_id, "o_d_id": d_id, "o_id": o_id,
                    "o_c_id": c_id, "o_ol_cnt": ol_cnt, "o_carrier_id": None,
                },
            )
            yield from ctx.insert(
                home_partition, "new_order", (w_id, d_id, o_id),
                {"no_w_id": w_id, "no_d_id": d_id, "no_o_id": o_id},
            )

        return TransactionSpec(name="new_order", logic=logic)

    # -- Payment ---------------------------------------------------------------------------
    def _payment(self) -> TransactionSpec:
        w_id = self._home_warehouse()
        d_id = self.rng.uniform_int(1, DISTRICTS_PER_WAREHOUSE)
        amount = self.rng.uniform(1.0, 5000.0)
        if self.rng.boolean(self.config.remote_payment_pct):
            c_w_id = self._remote_warehouse(w_id)
        else:
            c_w_id = w_id
        c_d_id = self.rng.uniform_int(1, DISTRICTS_PER_WAREHOUSE)
        by_name = self.rng.boolean(self.config.payment_by_name_pct)
        c_id = self._customer_id()
        c_last = self.rng.last_name(self.rng.nurand(255, 0, 999) % 1000)
        home_partition = self.partition_id
        customer_partition = self._partition_of(c_w_id)
        self._history_counter += 1
        history_key = (self.partition_id, w_id, d_id, self._history_counter, self.rng.uniform_int(0, 1 << 30))

        def logic(ctx: "TxnContext") -> Generator:
            warehouse = yield from ctx.read(home_partition, "warehouse", w_id)
            yield from ctx.update(
                home_partition, "warehouse", w_id, {"w_ytd": warehouse["w_ytd"] + amount}
            )
            district = yield from ctx.read(home_partition, "district", (w_id, d_id))
            yield from ctx.update(
                home_partition, "district", (w_id, d_id), {"d_ytd": district["d_ytd"] + amount}
            )
            target_c_id = c_id
            if by_name:
                matches = yield from ctx.index_lookup(
                    customer_partition, "customer", "by_name", (c_w_id, c_d_id, c_last)
                )
                if matches:
                    ordered = sorted(matches)
                    target_c_id = ordered[len(ordered) // 2][2]
            customer = yield from ctx.read(
                customer_partition, "customer", (c_w_id, c_d_id, target_c_id)
            )
            yield from ctx.update(
                customer_partition, "customer", (c_w_id, c_d_id, target_c_id),
                {
                    "c_balance": customer["c_balance"] - amount,
                    "c_ytd_payment": customer["c_ytd_payment"] + amount,
                    "c_payment_cnt": customer["c_payment_cnt"] + 1,
                },
            )
            yield from ctx.insert(
                home_partition, "history", history_key,
                {
                    "h_c_id": target_c_id, "h_c_w_id": c_w_id, "h_c_d_id": c_d_id,
                    "h_w_id": w_id, "h_d_id": d_id, "h_amount": amount,
                },
            )

        return TransactionSpec(name="payment", logic=logic)

    # -- OrderStatus (read-only) --------------------------------------------------------------
    def _order_status(self) -> TransactionSpec:
        w_id = self._home_warehouse()
        d_id = self.rng.uniform_int(1, DISTRICTS_PER_WAREHOUSE)
        c_id = self._customer_id()
        home_partition = self.partition_id

        def logic(ctx: "TxnContext") -> Generator:
            yield from ctx.read(home_partition, "customer", (w_id, d_id, c_id))
            order_keys = yield from ctx.index_lookup(
                home_partition, "orders", "by_customer", (w_id, d_id, c_id)
            )
            if not order_keys:
                return
            last_order_key = max(order_keys, key=lambda k: k[2])
            order = yield from ctx.read(home_partition, "orders", last_order_key)
            for ol_number in range(1, order["o_ol_cnt"] + 1):
                key = (w_id, d_id, order["o_id"], ol_number)
                line = yield from ctx.read(home_partition, "order_line", key)
                if line is None:
                    break

        return TransactionSpec(name="order_status", logic=logic, read_only=True)

    # -- Delivery ---------------------------------------------------------------------------------
    def _delivery(self) -> TransactionSpec:
        w_id = self._home_warehouse()
        carrier_id = self.rng.uniform_int(1, 10)
        home_partition = self.partition_id

        def logic(ctx: "TxnContext") -> Generator:
            for d_id in range(1, DISTRICTS_PER_WAREHOUSE + 1):
                pending = yield from ctx.index_lookup(
                    home_partition, "new_order", "by_district", (w_id, d_id)
                )
                if not pending:
                    continue
                oldest = min(pending, key=lambda k: k[2])
                o_id = oldest[2]
                yield from ctx.read(home_partition, "new_order", oldest)
                yield from ctx.delete(home_partition, "new_order", oldest)
                order = yield from ctx.read(home_partition, "orders", (w_id, d_id, o_id))
                yield from ctx.update(
                    home_partition, "orders", (w_id, d_id, o_id), {"o_carrier_id": carrier_id}
                )
                total = 0.0
                for ol_number in range(1, order["o_ol_cnt"] + 1):
                    key = (w_id, d_id, o_id, ol_number)
                    line = yield from ctx.read(home_partition, "order_line", key)
                    total += line["ol_amount"]
                    yield from ctx.update(
                        home_partition, "order_line", key, {"ol_delivery_d": 1}
                    )
                customer_key = (w_id, d_id, order["o_c_id"])
                customer = yield from ctx.read(home_partition, "customer", customer_key)
                yield from ctx.update(
                    home_partition, "customer", customer_key,
                    {
                        "c_balance": customer["c_balance"] + total,
                        "c_delivery_cnt": customer["c_delivery_cnt"] + 1,
                    },
                )

        return TransactionSpec(name="delivery", logic=logic)

    # -- StockLevel (read-only) ---------------------------------------------------------------------
    def _stock_level(self) -> TransactionSpec:
        w_id = self._home_warehouse()
        d_id = self.rng.uniform_int(1, DISTRICTS_PER_WAREHOUSE)
        threshold = self.rng.uniform_int(10, 20)
        home_partition = self.partition_id

        def logic(ctx: "TxnContext") -> Generator:
            district = yield from ctx.read(home_partition, "district", (w_id, d_id))
            next_o_id = district["d_next_o_id"]
            low_stock_items: set[int] = set()
            for o_id in range(max(1, next_o_id - 20), next_o_id):
                order = yield from ctx.read(home_partition, "orders", (w_id, d_id, o_id))
                if order is None:
                    continue
                for ol_number in range(1, min(order["o_ol_cnt"], 5) + 1):
                    line = yield from ctx.read(
                        home_partition, "order_line", (w_id, d_id, o_id, ol_number)
                    )
                    if line is None:
                        continue
                    stock = yield from ctx.read(
                        home_partition, "stock", (w_id, line["ol_i_id"])
                    )
                    if stock["s_quantity"] < threshold:
                        low_stock_items.add(line["ol_i_id"])

        return TransactionSpec(name="stock_level", logic=logic, read_only=True)
