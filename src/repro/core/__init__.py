"""Primo's core contribution: WCF concurrency control, TicToc local execution,
the watermark-based group commit and the Appendix A analytical model."""

from .analysis import AnalysisParameters, ConflictRateModel
from .primo import PrimoContext, PrimoProtocol
from .tictoc import compute_commit_ts, in_key_order, lock_write_set
from .watermark import WatermarkGroupCommit

__all__ = [
    "AnalysisParameters",
    "ConflictRateModel",
    "PrimoContext",
    "PrimoProtocol",
    "compute_commit_ts",
    "in_key_order",
    "lock_write_set",
    "WatermarkGroupCommit",
]
