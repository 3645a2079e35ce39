"""The benchmark's own tests: layer mapping, catalogue, verdicts, pass checks.

Everything that runs the simulator runs the ``tiny`` variants of the
workloads, so the file stays inside a few seconds of tier-1.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from perf import compare, harness, layers, run, workloads
from perf.trace import Spans

ROOT = Path(__file__).resolve().parents[2]
CATALOGUE = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def perf_run(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "perf.run", *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


# -- layers ------------------------------------------------------------------

def test_every_source_file_maps_to_a_layer():
    package = ROOT / "src" / "repro"
    layer_map = layers.LayerMap(str(package))
    seen = set()
    for path in package.rglob("*.py"):
        layer = layer_map.get(str(path))
        assert layer and NAME.fullmatch(layer), path
        seen.add(layer)
    # Every catalogue layer but ``outside`` owns at least one file today.
    assert set(layers.LAYERS) - {layers.OUTSIDE} <= seen
    assert layer_map.get(str(package / "storage" / "columnar.py")) == "storage.columnar"
    assert layer_map.get(str(package / "sim" / "_pykernel.py")) == "sim.engine"
    assert layer_map.get(json.__file__) is None


def test_unknown_files_fall_back_to_their_package():
    assert layers.layer_of_relpath("oracle/history.py") == "oracle"
    assert layers.layer_of_relpath("tracing.py") == "tracing"
    assert layers.layer_of_relpath("storage/btree.py") == "storage"
    assert layers.layer_of_relpath("bench/runner.py") == "bench"


# -- catalogue ---------------------------------------------------------------

def test_list_prints_every_catalogue_name():
    listing = perf_run("--list")
    assert listing.returncode == 0, listing.stderr
    metrics = CATALOGUE["end_to_end"] + CATALOGUE["per_layer"]
    for entry in CATALOGUE["workloads"] + metrics:
        assert NAME.fullmatch(entry["name"]), entry["name"]
        assert re.search(rf"^\s+{re.escape(entry['name'])}\b", listing.stdout, re.M)
    assert len(CATALOGUE["per_layer"]) <= 128
    assert {m["name"] for m in CATALOGUE["end_to_end"]} == {
        "setup_s", "run_wall_s", "commits_per_host_s", "rss_peak_mb"}
    assert [w["name"] for w in CATALOGUE["workloads"]] == list(workloads.WORKLOADS)


# -- compare -----------------------------------------------------------------

def _stats(median, spread=0.0, n=9):
    """A run whose passes' quartiles straddle ``median`` by ``spread``."""
    return {"median": median, "q1": median * (1 - spread / 2),
            "q3": median * (1 + spread / 2), "n": n, "best": median * (1 - spread)}


def test_compare_verdicts():
    wall = {"name": "run_wall_s", "better": "lower", "bound": 0.10}
    rate = {"name": "commits_per_host_s", "better": "higher", "bound": 0.10}
    setup = {"name": "setup_s", "better": "lower", "bound": 0.25}
    word = lambda *a: compare.verdict(*a)["verdict"]  # noqa: E731
    assert word(wall, _stats(2.0), _stats(2.1)) == "same"
    assert word(wall, _stats(2.0), _stats(2.3)) == "worse"
    assert word(wall, _stats(2.0), _stats(1.7)) == "better"
    assert word(rate, _stats(3000.0), _stats(2600.0)) == "worse"
    assert word(rate, _stats(3000.0), _stats(3400.0)) == "better"
    # A spread wider than the bound on either side decides nothing.
    assert word(wall, _stats(2.0, spread=0.15), _stats(1.5)) == "unresolved"
    assert word(wall, _stats(2.0), _stats(1.5, spread=0.15)) == "unresolved"
    # setup_s: 60 ms -> 100 ms is +67% but inside the 50 ms absolute floor...
    assert word(setup, _stats(0.06, spread=0.4), _stats(0.10)) == "same"
    assert word(setup, _stats(0.06), _stats(0.12)) == "worse"
    # ...while a 2.5 s set-up is judged by the relative bound alone.
    assert word(setup, _stats(2.5), _stats(2.6)) == "same"
    assert word(setup, _stats(2.5), _stats(3.2)) == "worse"
    # One-sample metrics (rss) have no spread to be unresolved by.
    assert word(wall, _stats(70.0, n=1), _stats(90.0, n=1)) == "worse"
    ratio = compare.verdict(wall, _stats(2.0), _stats(2.3))["ratio"]
    assert ratio == pytest.approx(1.15)


def test_exact_metrics_and_simulated_statistics_banner(capsys):
    assert compare.is_exact("core.calls_per_commit")
    assert compare.is_exact("model.p99_latency_ms")
    assert compare.is_exact("sim.engine.timeouts_per_commit")
    assert not compare.is_exact("core.self_us_per_commit")
    assert not compare.is_exact("core.self_share")
    assert not compare.is_exact("storage.drive_ns_per_get")

    def document(committed, calls):
        e2e = {m["name"]: _stats(2.0) for m in CATALOGUE["end_to_end"]}
        return {"workloads": {"ycsb_primo": {
            "failed": 0, "fingerprint": {"committed": committed},
            "end_to_end": e2e,
            "per_layer": {"core.calls_per_commit": calls, "core.self_share": 0.2}}}}

    same = compare.compare(document(100, 5.0), document(100, 5.0), CATALOGUE)
    assert not same["exact_changes"] and not same["simulated_changed"]
    assert "SIMULATED" not in capsys.readouterr().out
    moved = compare.compare(document(100, 5.0), document(101, 6.0), CATALOGUE)
    assert moved["simulated_changed"] == ["ycsb_primo"]
    assert [change[1] for change in moved["exact_changes"]] == ["core.calls_per_commit"]
    assert "SIMULATED STATISTICS CHANGED" in capsys.readouterr().out


# -- pass checks -------------------------------------------------------------

class _StubApi:
    """Stands in for the ``repro`` module; ``commits(i)`` scripts pass i."""

    def __init__(self, commits):
        self.commits = commits
        self.builds = 0

    def build(self, spec):
        self.builds += 1
        committed = self.commits(self.builds)
        metrics = SimpleNamespace(
            committed=committed, aborted=0, crash_aborted=0,
            counters=SimpleNamespace(as_dict=dict, get=lambda name: 0),
            latency=SimpleNamespace(count=committed))
        result = SimpleNamespace(
            metrics=metrics, network_messages=7, p50_latency_ms=1.0,
            p99_latency_ms=2.0, abort_reasons={}, breakdown_us={},
            degradation_depth=None, time_to_90pct_recovery_us=None,
            throughput_ktps=1.0, abort_rate=0.0)

        def run_cluster():
            if committed < 0:
                raise RuntimeError("boom")
            return result

        return SimpleNamespace(env=SimpleNamespace(now=5.0), run=run_cluster)


def _measure(api, passes):
    records = harness.measure(api, None, seconds=0.0, passes=passes, spans=Spans())
    harness.check_fingerprints(records)
    return records


def test_nondeterministic_program_fails_the_pass():
    records = _measure(_StubApi(lambda i: 100 + (i == 2)), 3)
    assert [r["ok"] for r in records] == [True, False, True]
    assert "differ from pass 1" in records[1]["error"]
    summary = harness.end_to_end(records)
    assert summary["run_wall_s"]["n"] == 2


def test_raising_and_empty_passes_fail():
    records = _measure(_StubApi(lambda i: -1 if i == 1 else 0 if i == 2 else 10), 3)
    assert [r["ok"] for r in records] == [False, False, True]
    assert "boom" in records[0]["error"]
    assert "no transaction committed" in records[1]["error"]


def test_time_bounded_measure_runs_at_least_min_passes():
    records = harness.measure(_StubApi(lambda i: 10), None, seconds=0.0,
                              passes=None, spans=Spans())
    assert len(records) == harness.MIN_PASSES


def test_summaries_report_the_statistics_module_quartiles_and_the_best_pass():
    assert harness.summarize([4.0]) == {
        "median": 4.0, "q1": 4.0, "q3": 4.0, "n": 1, "best": 4.0}
    stats = harness.summarize([3.0, 1.0, 2.0, 5.0, 4.0])
    assert (stats["q1"], stats["median"], stats["q3"], stats["n"]) == (1.5, 3.0, 4.5, 5)
    assert stats["best"] == 1.0
    assert harness.summarize([3.0, 1.0, 2.0], "higher")["best"] == 3.0


# -- end to end at tiny scale ------------------------------------------------

def _result_line(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    return result


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name):
    result = _result_line(perf_run(
        "--tiny", "--passes", "2", "--trace", "0", "--seed", "7", "--workload", name))
    assert result["attempted"] == 2
    assert set(result["metrics"]) == {m["name"] for m in CATALOGUE["end_to_end"]}
    for metric in CATALOGUE["end_to_end"]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"] and entry["value"] > 0


def test_traced_run_reports_layer_shares_and_a_loadable_trace(tmp_path):
    out = tmp_path / "doc.json"
    result = _result_line(perf_run(
        "--tiny", "--passes", "1", "--trace", "1", "--seed", "7",
        "--workload", "ycsb_primo", "--out", str(out)))
    assert result["attempted"] == 4  # one timed pass + sampler, cProfile, tracemalloc
    assert set(result["metrics"]) == {m["name"] for m in CATALOGUE["per_layer"]}
    assert all(entry["value"] != run.UNRESOLVED for entry in result["metrics"].values())
    document = json.loads(out.read_text(encoding="utf-8"))["workloads"]["ycsb_primo"]
    shares = [value for key, value in document["per_layer"].items()
              if key.endswith(".self_share") and not key.startswith("setup.")]
    assert sum(shares) == pytest.approx(1.0, abs=0.01)
    assert document["per_layer"]["core.self_share"] > 0.05
    assert document["per_layer"]["storage.gets_per_commit"] > 1
    trace = json.loads((ROOT / "perf" / "out" / "trace-ycsb_primo.json").read_text())
    names = {event["name"] for event in trace["traceEvents"] if event["ph"] == "X"}
    assert {"pass", "setup", "run", "report", "drives"} <= names
    edges = json.loads((ROOT / "perf" / "out" / "layers-ycsb_primo.json").read_text())
    assert any(edge["caller"] == "sim.engine" for edge in edges["edges"])


def test_a_workload_out_of_time_is_reported_and_the_document_still_written(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "CHILD_TIMEOUT_S", 0.05)
    out = tmp_path / "doc.json"
    status = run.main(["--tiny", "--passes", "1", "--workload", "ycsb_primo",
                       "--out", str(out)])
    assert status == 1
    assert "ycsb_primo exceeded 0.05 s" in capsys.readouterr().err
    assert json.loads(out.read_text(encoding="utf-8"))["workloads"] == {}


def test_engine_c_fails_loudly_when_the_kernel_is_not_built():
    try:
        import repro.sim._ckernel  # noqa: F401
    except ImportError:
        pass
    else:
        pytest.skip("the compiled kernel is built here")
    done = perf_run("--tiny", "--passes", "1", "--engine", "c",
                    "--workload", "ycsb_primo")
    assert done.returncode != 0
    assert "REPRO_ENGINE=c" in done.stderr
