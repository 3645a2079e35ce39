"""Rendered-text goldens of every figure that simulates.

Each pinned figure's ``render`` runs on synthetic results: one
:class:`~repro.cluster.results.RunResult` per planned cell, decoded with
``RunResult.from_json_dict`` from a minimal document whose counts and
latencies are derived from the cell's spec.  Nothing simulates, so the
printed tables and the returned data dictionary are pinned exactly, at two
scales (different thinnings of every sweep list), in a few milliseconds.

The numbers depend on the spec's physics only (protocol, durability,
overrides, faults — not the scale and not the cell's label), so a cell whose
spec moved shows up as a moved number.  Like a real run, a result carries a
windowed timeline only when its spec injects faults; its last two windows
are silent, as a run's drain after the measurement window is.

Regenerate the goldens after an intended change to a figure's output with
``PYTHONPATH=src python tests/bench/test_figure_render.py`` and review the
diff of ``figure_render_goldens.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import zlib
from pathlib import Path

import pytest

from repro.bench import FIGURES
from repro.cluster.results import RunResult
from repro.scales import SCALES

GOLDENS = Path(__file__).with_name("figure_render_goldens.json")

#: Every registered figure that simulates.
PINNED_FIGURES = ("fig04", "fig05", "fig06", "fig07", "fig08", "fig09",
                  "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
                  "openloop", "storm")
PINNED_SCALES = ("tiny", "small")


def synthetic_result(spec) -> RunResult:
    """A decodable result whose numbers are a pure function of ``spec``."""
    physics = {k: v for k, v in spec.to_json_dict().items() if k != "scale"}
    seed = zlib.crc32(json.dumps(physics, sort_keys=True).encode("utf-8"))
    committed = 1_000 + seed % 9_000
    metrics = {
        "committed": committed,
        "aborted": (seed >> 13) % 3_000,
        "crash_aborted": (seed >> 7) % 50,
        "duration_us": 1_000_000.0,
        "latency_samples": [100.0 + seed % 4_000,
                            200.0 + (seed >> 11) % 4_000],
        "breakdown": {},
        "counters": {},
    }
    if spec.faults is not None:
        counts = [50 + (seed >> (3 * i)) % 50 for i in range(6)] + [0, 0]
        counts[3] = seed % 20
        metrics["timeline"] = {
            "window_us": 1_000.0,
            "counts": counts,
            "latency_counts": counts,
            "latency_sums": [count * (100.0 + (seed >> i) % 900)
                             for i, count in enumerate(counts)],
        }
    return RunResult.from_json_dict({
        "protocol": spec.protocol,
        "durability": spec.resolved_durability,
        "workload": spec.workload,
        "n_partitions": 2,
        "metrics": metrics,
    })


def render(figure: str, scale_name: str) -> dict:
    """``{"stdout": [lines], "data": <JSON round trip of the returned dict>}``."""
    scale = SCALES[scale_name]
    spec = FIGURES[figure]
    results = {cell.key: synthetic_result(cell.spec) for cell in spec.plan(scale)}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        data = spec.render(scale, results)
    return {"stdout": out.getvalue().splitlines(),
            "data": json.loads(json.dumps(data))}


@pytest.mark.parametrize("scale_name", PINNED_SCALES)
@pytest.mark.parametrize("figure", PINNED_FIGURES)
def test_rendered_figure_matches_its_golden(figure, scale_name):
    golden = json.loads(GOLDENS.read_text(encoding="utf-8"))[f"{figure}@{scale_name}"]
    got = render(figure, scale_name)
    assert got["stdout"] == golden["stdout"]
    assert got["data"] == golden["data"]


if __name__ == "__main__":
    GOLDENS.write_text(json.dumps(
        {f"{figure}@{scale_name}": render(figure, scale_name)
         for figure in PINNED_FIGURES for scale_name in PINNED_SCALES},
        indent=1, sort_keys=True,
    ) + "\n", encoding="utf-8")
    print(f"wrote {GOLDENS}")
