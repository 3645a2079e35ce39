"""Benchmark harness regenerating every figure of the paper's evaluation."""

from .experiments import FIGURES, FigureSpec, run_figure
from .orchestrator import Cell, ResultCache, SweepOutcome, run_cells

__all__ = [
    "FIGURES",
    "FigureSpec",
    "Cell",
    "ResultCache",
    "SweepOutcome",
    "run_cells",
    "run_figure",
]
