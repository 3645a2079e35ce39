"""Tests of the ``python -m repro.bench`` orchestrating CLI."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.__main__ import main
from repro.scales import TINY_SCALE

TEST_SCALE = TINY_SCALE

#: The CLI name of the test scale — "tiny" is registered first-class now.
TINY = "tiny"


def run_cli(*argv: str) -> int:
    return main(list(argv))


def test_cli_runs_a_single_figure_and_emits_json(tmp_path, capsys):
    artifact = tmp_path / "figures.json"
    code = run_cli(
        "--only", "fig09", "--scale", TINY,
        "--jobs", "2",
        "--cache-dir", str(tmp_path / "cache"),
        "--emit-json", str(artifact),
        "--quiet-progress",
    )
    assert code == 0
    assert "Figure 9" in capsys.readouterr().out

    data = json.loads(artifact.read_text())
    assert data["meta"]["figures"] == ["fig09"]
    assert data["meta"]["jobs"] == 2
    assert data["meta"]["cells_executed"] == data["meta"]["cells_total"] > 0
    assert data["meta"]["cells_cached"] == 0
    fig09 = data["figures"]["fig09"]
    [level] = fig09["levels"]
    primo = level["metrics"]["throughput_ktps"]["primo"]
    assert len(primo) == len(fig09["values"]) == TEST_SCALE.sweep_points


def test_cli_second_invocation_resumes_from_cache(tmp_path):
    cache_dir = str(tmp_path / "cache")
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    args = ("--only", "fig09", "--scale", TINY, "--cache-dir", cache_dir,
            "--quiet-progress")
    assert run_cli(*args, "--emit-json", str(first)) == 0
    assert run_cli(*args, "--emit-json", str(second)) == 0

    cold = json.loads(first.read_text())
    warm = json.loads(second.read_text())
    assert cold["meta"]["cells_executed"] > 0
    assert warm["meta"]["cells_executed"] == 0
    assert warm["meta"]["cells_cached"] == warm["meta"]["cells_total"]
    # Cached results render to exactly the same figure data.
    assert warm["figures"] == cold["figures"]


def test_cli_no_cache_skips_the_cache_entirely(tmp_path):
    cache_dir = tmp_path / "cache"
    artifact = tmp_path / "figures.json"
    code = run_cli(
        "--only", "fig09", "--scale", TINY,
        "--cache-dir", str(cache_dir), "--no-cache",
        "--emit-json", str(artifact), "--quiet-progress",
    )
    assert code == 0
    assert not cache_dir.exists()
    assert json.loads(artifact.read_text())["meta"]["cells_cached"] == 0


def test_cli_only_is_an_alias_for_figure(tmp_path, capsys):
    code = run_cli("--figure", "appendix", "--scale", TINY,
                   "--cache-dir", str(tmp_path / "cache"), "--quiet-progress")
    assert code == 0
    assert "Appendix A" in capsys.readouterr().out


def test_cli_rejects_bad_jobs_and_unknown_figures(tmp_path):
    with pytest.raises(SystemExit):
        run_cli("--jobs", "0", "--scale", TINY)
    with pytest.raises(SystemExit):
        run_cli("--only", "fig99", "--scale", TINY)


def test_cli_lists_arrival_processes(capsys):
    assert run_cli("--list", "arrivals") == 0
    out = capsys.readouterr().out
    for name in ("closed", "poisson", "deterministic", "bursty"):
        assert name in out
    assert "burst_factor" in out  # parameters are listed next to the kind


def test_cli_runs_the_openloop_figure(tmp_path, capsys):
    artifact = tmp_path / "figures.json"
    code = run_cli(
        "--figure", "openloop", "--scale", TINY,
        "--cache-dir", str(tmp_path / "cache"),
        "--emit-json", str(artifact),
        "--quiet-progress",
    )
    assert code == 0
    assert "Open loop" in capsys.readouterr().out
    data = json.loads(artifact.read_text())["figures"]["openloop"]
    assert len(data["protocols"]) >= 3
    for series in data["protocols"].values():
        assert len(series["achieved_ktps"]) == len(data["offered_tps"])
        for key in ("p50_ms", "p99_ms", "p999_ms", "dropped"):
            assert key in series


def test_cli_has_no_engine_flag_and_no_engines_listing(capsys):
    """One scheduler: nothing to select, nothing to list."""
    for argv in (("--engine", "py", "--list", "figures"), ("--list", "engines")):
        with pytest.raises(SystemExit) as exit_info:
            run_cli(*argv)
        assert exit_info.value.code == 2
    assert "unrecognized arguments: --engine" in capsys.readouterr().err


@pytest.mark.parametrize("value,accepted", [
    (None, True), ("py", True), ("auto", True), ("c", False),
])
def test_repro_engine_only_accepts_the_one_kernel(value, accepted):
    """A stale REPRO_ENGINE=c must fail the import loudly, not be ignored."""
    env = {k: v for k, v in os.environ.items() if k != "REPRO_ENGINE"}
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    if value is not None:
        env["REPRO_ENGINE"] = value
    done = subprocess.run([sys.executable, "-c", "import repro"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode == 0) == accepted, done.stderr
    if not accepted:
        assert f"ImportError: REPRO_ENGINE={value}" in done.stderr
