"""Plain-text report printers for the benchmark harness.

Each experiment returns a dictionary of rows/series; these helpers turn them
into aligned tables on stdout, always showing the paper's headline number next
to the measured one so the shape comparison is immediate.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

__all__ = [
    "confidence_interval_95",
    "format_mean_ci",
    "format_ratio",
    "print_header",
    "print_table",
    "sample_mean_std",
    "t_critical_95",
]


def print_header(title: str, paper_note: str = "") -> None:
    print()
    print("=" * 78)
    print(title)
    if paper_note:
        print(f"  paper: {paper_note}")
    print("=" * 78)


def format_ratio(value: float) -> str:
    return f"{value:.2f}x"


def _format_cell(value) -> str:
    if isinstance(value, float):
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def print_table(columns: list[str], rows: Iterable[Iterable], indent: int = 2) -> None:
    rows = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(col) for col in columns]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    pad = " " * indent
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    print(pad + header)
    print(pad + "-" * len(header))
    for row in rows:
        print(pad + "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))


# ---------------------------------------------------------------------------
# Seed-repetition statistics (campaign reports)
# ---------------------------------------------------------------------------
#
# Campaigns report each run-table row as mean ± 95% confidence interval over
# its seed repetitions.  Reps are small (3-10 is typical), so the normal
# z = 1.96 would understate the interval badly; the Student-t critical values
# below are the standard two-sided 95% table.  No scipy in the image — the
# table covers every df a campaign will realistically see and clamps to its
# last row (df = 120, 1.980) beyond it, which upper-bounds t everywhere the
# table doesn't reach (the normal 1.96 would be slightly narrow, e.g.
# t(121) ≈ 1.9798).

_T95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
    6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
    11: 2.201, 12: 2.179, 13: 2.160, 14: 2.145, 15: 2.131,
    16: 2.120, 17: 2.110, 18: 2.101, 19: 2.093, 20: 2.086,
    21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064, 25: 2.060,
    26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042,
    40: 2.021, 60: 2.000, 120: 1.980,
}


def t_critical_95(df: int) -> float:
    """Two-sided 95% Student-t critical value for ``df`` degrees of freedom."""
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    if df in _T95:
        return _T95[df]
    # Off-table df take the next tabulated row below — slightly conservative
    # (wider interval), never optimistic; past 120 that's the last row's
    # 1.980, which still bounds t from above (unlike the normal 1.96).
    for tabulated in (120, 60, 40, 30):
        if df > tabulated:
            return _T95[tabulated]
    return _T95[30]  # unreachable: df 1..30 are all tabulated


def sample_mean_std(values: Sequence[float]) -> tuple[float, float]:
    """Mean and sample (n-1) standard deviation; std is 0.0 for n < 2."""
    n = len(values)
    if n == 0:
        raise ValueError("no values to summarize")
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(variance)


def confidence_interval_95(values: Sequence[float]) -> tuple[float, float]:
    """``(mean, half_width)`` of the 95% Student-t CI over ``values``.

    The half-width is 0.0 for a single value (no dispersion information —
    a campaign with ``seed_reps=1`` reports bare means), so callers can
    render ``mean ± half`` unconditionally.
    """
    mean, std = sample_mean_std(values)
    n = len(values)
    if n < 2 or std == 0.0:
        return mean, 0.0
    return mean, t_critical_95(n - 1) * std / math.sqrt(n)


def format_mean_ci(mean: float, half_width: float,
                   precision: Optional[int] = None) -> str:
    """``"12.3 ± 0.4"`` — matched precision for the mean and its interval.

    Without an explicit ``precision`` the number of decimals adapts to the
    magnitude the same way the table printer does, so campaign Markdown and
    the plain-text tables read alike.
    """
    if precision is None:
        magnitude = max(abs(mean), half_width)
        precision = 0 if magnitude >= 1000 else (1 if magnitude >= 10 else 3)
    if half_width == 0.0:
        return f"{mean:.{precision}f}"
    return f"{mean:.{precision}f} ± {half_width:.{precision}f}"
