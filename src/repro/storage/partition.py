"""A partition's local storage: a set of tables plus its lock manager.

Partitions own disjoint key ranges (horizontal partitioning as in §3); the
mapping from a key to its partition is the workload's responsibility — the
storage layer only knows about the tables it hosts.

Two table backends coexist (see :mod:`repro.storage.columnar`): the
dict-backed :class:`~repro.storage.table.Table` (the bit-identical reference,
required for dynamic schemas and for any insert, delete or secondary index,
as in TPC-C and TATP) and the array-backed
:class:`~repro.storage.columnar.ColumnarTable` for fixed populations of
dense integer keys with a numeric schema (YCSB, Smallbank), which costs ≈ 5x
less memory per touched row and a 4-byte slot per untouched one — the
difference between the ``xlarge``/``web`` scale tiers fitting in RAM or
not.  The schema declaration is the one selector: a table is columnar iff
its workload passes a :class:`~repro.storage.columnar.TableSchema` to
:meth:`PartitionStore.create_table`.  (The A/B parity runs against the
reference tables are a test fixture, ``dict_tables`` in ``tests/conftest.py``.)
"""

from __future__ import annotations

from typing import Optional, Union

from ..sim.engine import Environment
from ..sim.stats import Counter
from .columnar import ColumnarTable, TableSchema
from .lock import LockManager, LockPolicy
from .table import Table, TableError

__all__ = ["PartitionStore"]


class PartitionStore:
    """All tables (and the lock manager) hosted by one partition."""

    def __init__(
        self,
        env: Environment,
        partition_id: int,
        lock_policy: LockPolicy = LockPolicy.WAIT_DIE,
        counters: Optional[Counter] = None,
    ):
        self.env = env
        self.partition_id = partition_id
        self.tables: dict[str, Union[Table, ColumnarTable]] = {}
        self.lock_manager = LockManager(env, policy=lock_policy, counters=counters)

    def create_table(
        self, name: str, schema: Optional[TableSchema] = None
    ) -> Union[Table, ColumnarTable]:
        """Create a table; with a ``schema`` it is columnar, otherwise the
        dict-backed reference table."""
        if name in self.tables:
            raise TableError(f"table {name!r} already exists on partition {self.partition_id}")
        if schema is not None:
            table: Union[Table, ColumnarTable] = ColumnarTable(name, schema)
        else:
            table = Table(name)
        self.tables[name] = table
        return table

    def table(self, name: str) -> Union[Table, ColumnarTable]:
        try:
            return self.tables[name]
        except KeyError as exc:
            raise TableError(
                f"table {name!r} does not exist on partition {self.partition_id}"
            ) from exc
