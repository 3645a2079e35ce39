"""Transaction layer: identifiers, read/write sets, abort reasons and contexts."""

from .context import TxnContext
from .transaction import (
    AbortReason,
    ReadEntry,
    Transaction,
    TxnAborted,
    TxnId,
    UserAbort,
    WriteEntry,
)

__all__ = [
    "AbortReason",
    "ReadEntry",
    "Transaction",
    "TxnAborted",
    "TxnContext",
    "TxnId",
    "UserAbort",
    "WriteEntry",
]
