"""The substrate bench gate's verdicts, on synthetic rows (no simulation).

``scripts/bench_gate.py`` is a script, not a package module, so it is loaded
from its path.  The last test ties the committed ``BENCH_substrate.json`` to
the rows and fields the gate reads.
"""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location(
    "bench_gate", REPO_ROOT / "scripts" / "bench_gate.py")
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


def synthetic_rows(mem_peak_mb: float = 10.0) -> dict:
    return {
        row.name: {
            "arrival": "closed", "committed": 100, "aborted": 5, "crash_aborted": 0,
            "network_messages": 80, "final_env_now": 55000.0,
            "stale_reads": 0, "mem_peak_mb": mem_peak_mb,
        }
        for row in gate.E2E_ROWS
    }


def test_an_exact_match_passes():
    code, summary = gate.check(synthetic_rows(), synthetic_rows())
    assert code == 0
    assert not any("❌" in line for line in summary)


@pytest.mark.parametrize("key", gate.E2E_CORRECTNESS_KEYS)
def test_each_correctness_key_drifting_fails(key):
    current = synthetic_rows()
    current["tpcc_small"][key] += 1
    assert gate.check(current, synthetic_rows())[0] == 1


@pytest.mark.parametrize("peak, code", [(12.9, 0), (13.1, 1)])
def test_the_memory_ceiling_is_thirty_percent(peak, code):
    current = synthetic_rows()
    current["ycsb_xlarge"]["mem_peak_mb"] = peak
    assert gate.check(current, synthetic_rows(mem_peak_mb=10.0))[0] == code


def test_a_baseline_without_a_peak_fails():
    baseline = synthetic_rows()
    del baseline["ycsb_small"]["mem_peak_mb"]
    assert gate.check(synthetic_rows(), baseline)[0] == 1


def test_a_row_missing_from_the_baseline_fails():
    baseline = synthetic_rows()
    del baseline["ycsb_storm_small"]
    assert gate.check(synthetic_rows(), baseline)[0] == 1


def test_check_without_a_baseline_file_fails_and_writes_nothing(
        tmp_path, monkeypatch):
    monkeypatch.setattr(gate, "measure_e2e",
                        lambda row: synthetic_rows()[row.name])
    missing = tmp_path / "BENCH_substrate.json"
    assert gate.main(["--check", "--output", str(missing)]) == 1
    assert not missing.exists()


def test_check_against_a_baseline_file_passes_and_writes_a_summary(
        tmp_path, monkeypatch):
    monkeypatch.setattr(gate, "measure_e2e",
                        lambda row: synthetic_rows()[row.name])
    baseline = tmp_path / "BENCH_substrate.json"
    baseline.write_text(json.dumps(synthetic_rows()))
    summary = tmp_path / "summary.md"
    assert gate.main(["--check", "--output", str(baseline),
                      "--summary", str(summary)]) == 0
    assert "✅ match" in summary.read_text()


def test_measure_e2e_fails_when_the_two_runs_disagree(monkeypatch):
    runs = iter([synthetic_rows()["ycsb_small"],
                 {**synthetic_rows()["ycsb_small"], "committed": 101}])
    monkeypatch.setattr(gate, "run_e2e", lambda row, traced=False: next(runs))
    with pytest.raises(SystemExit, match="DETERMINISM FAIL"):
        gate.measure_e2e(gate.E2E_ROWS[0])


def test_measure_e2e_returns_the_traced_run(monkeypatch):
    plain = synthetic_rows()["ycsb_small"]
    runs = iter([plain, {**plain, "mem_peak_mb": 4.2}])
    monkeypatch.setattr(gate, "run_e2e", lambda row, traced=False: next(runs))
    assert gate.measure_e2e(gate.E2E_ROWS[0])["mem_peak_mb"] == 4.2


def test_the_committed_baseline_has_every_row_and_field():
    baseline = json.loads((REPO_ROOT / "BENCH_substrate.json").read_text())
    assert baseline["schema_version"] == gate.SCHEMA_VERSION
    for row in gate.E2E_ROWS:
        assert row.name in baseline, row.name
        for key in (*gate.E2E_CORRECTNESS_KEYS, "mem_peak_mb"):
            assert key in baseline[row.name], f"{row.name}.{key}"
