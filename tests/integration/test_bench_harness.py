"""Smoke tests of the benchmark harness (figures, sweeps, CLI plumbing)."""

import pytest

from repro.bench import FIGURES, run_cells, run_figure
from repro.bench.report import format_ratio, print_header, print_table
from repro.scales import SCALES, TINY_SCALE, sweep_values
from repro.scenario import build_workload


#: An even smaller scale than "small" so harness tests run in a few seconds.
TEST_SCALE = TINY_SCALE


def test_all_figures_are_registered():
    expected = {f"fig{i:02d}" for i in range(4, 16)} | {"appendix", "openloop", "storm"}
    assert set(FIGURES) == expected
    for name, spec in FIGURES.items():
        assert spec.name == name
        assert callable(spec.plan) and callable(spec.render)
    # SCALES is a live view of the scale registry; the built-in presets
    # (including the test-oriented "tiny") are always present.
    assert {"tiny", "small", "medium", "paper"} <= set(SCALES)


def test_every_figure_plan_declares_valid_cells():
    for name, spec in FIGURES.items():
        cells = spec.plan(TEST_SCALE)
        assert isinstance(cells, list)
        keys = [cell.key for cell in cells]
        assert len(keys) == len(set(keys)), f"{name} has duplicate cell keys"
        for cell in cells:
            assert cell.figure == name
            assert cell.cache_key()  # hashable, stable spec


def test_figure_functions_render_from_preexecuted_results():
    cells = FIGURES["fig09"].plan(TEST_SCALE)
    outcome = run_cells(cells, jobs=1)
    data = FIGURES["fig09"].render(TEST_SCALE, outcome.by_key(cells))
    assert data == run_figure("fig09", TEST_SCALE)  # a pure function of the results


def test_build_workload_supports_all_four_workloads():
    assert build_workload(TEST_SCALE, "ycsb").name == "ycsb"
    assert build_workload(TEST_SCALE, "tpcc").name == "tpcc"
    assert build_workload(TEST_SCALE, "tatp").name == "tatp"
    assert build_workload(TEST_SCALE, "smallbank").name == "smallbank"
    with pytest.raises(ValueError):
        build_workload(TEST_SCALE, "tpch")


def test_sweep_values_keeps_endpoints():
    values = [1, 2, 4, 8, 12, 16, 20]
    thinned = sweep_values(values, TEST_SCALE)
    assert thinned[0] == 1 and thinned[-1] == 20
    assert len(thinned) == TEST_SCALE.sweep_points
    assert sweep_values([1, 2], TEST_SCALE) == [1, 2]


def test_report_helpers_do_not_crash(capsys):
    print_header("Demo", "paper note")
    print_table(["a", "b"], [[1, 2.5], ["x", 10_000.0]])
    assert format_ratio(1.914) == "1.91x"
    captured = capsys.readouterr()
    assert "Demo" in captured.out and "paper note" in captured.out


def test_appendix_experiment_matches_paper_conclusion():
    rows = run_figure("appendix", TEST_SCALE)["rows"]
    by_ratio = {row["read_ratio"]: row for row in rows}
    assert by_ratio[0.4]["primo_wins"] is True
    assert by_ratio[1.0]["primo_wins"] is False


def test_blind_write_experiment_runs_at_test_scale(capsys):
    data = run_figure("fig09", TEST_SCALE)
    assert data["axis"] == "blind_write_pct"
    [level] = data["levels"]
    primo = level["metrics"]["throughput_ktps"]["primo"]
    assert len(primo) == len(data["values"]) == TEST_SCALE.sweep_points
    assert all(v >= 0 for v in primo)


def test_logging_scheme_experiment_covers_all_schemes(capsys):
    data = run_figure("fig11", TEST_SCALE)
    for protocol in ("2pl_wd", "sundial", "primo"):
        assert set(data["throughput_ktps"][protocol]) == {"clv", "coco", "wm"}


def test_cli_entry_point_runs_a_single_figure(capsys):
    from repro.bench.__main__ import main

    assert main(["--figure", "appendix", "--scale", "small"]) == 0
    out = capsys.readouterr().out
    assert "Appendix A" in out
