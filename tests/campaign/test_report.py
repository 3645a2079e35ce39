"""Statistics helpers and the campaign status/report layer."""

import json
import math
from pathlib import Path

import pytest

from repro.bench.report import (
    confidence_interval_95,
    format_mean_ci,
    sample_mean_std,
    t_critical_95,
)
from repro.campaign import (
    CampaignSpec,
    campaign_report,
    campaign_status,
    compile_campaign,
    render_markdown,
    run_campaign,
)
from repro.campaign.__main__ import main
from repro.campaign.report import resolve_metrics
from repro.scenario import ScenarioSpec


class TestStats:
    def test_t_table_spot_values(self):
        # Standard two-sided 95% Student-t critical values.
        assert t_critical_95(1) == pytest.approx(12.706)
        assert t_critical_95(2) == pytest.approx(4.303)
        assert t_critical_95(9) == pytest.approx(2.262)
        assert t_critical_95(30) == pytest.approx(2.042)
        # Untabulated df fall back conservatively (never narrower): past the
        # table's last row the value clamps to t(120), not the normal 1.96.
        assert t_critical_95(35) == pytest.approx(2.042)
        assert t_critical_95(50) == pytest.approx(2.021)
        assert t_critical_95(121) == pytest.approx(1.980)
        assert t_critical_95(1000) == pytest.approx(1.980)
        with pytest.raises(ValueError):
            t_critical_95(0)

    def test_sample_mean_std(self):
        mean, std = sample_mean_std([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        assert mean == pytest.approx(5.0)
        assert std == pytest.approx(math.sqrt(32.0 / 7.0))
        assert sample_mean_std([3.5]) == (3.5, 0.0)
        with pytest.raises(ValueError):
            sample_mean_std([])

    def test_confidence_interval_95(self):
        # n=2: df=1, t=12.706; std = |a-b|/sqrt(2); half = t*std/sqrt(2).
        mean, half = confidence_interval_95([10.0, 14.0])
        assert mean == pytest.approx(12.0)
        assert half == pytest.approx(12.706 * math.sqrt(8.0) / math.sqrt(2))
        # Degenerate cases report a bare mean.
        assert confidence_interval_95([5.0]) == (5.0, 0.0)
        assert confidence_interval_95([5.0, 5.0, 5.0]) == (5.0, 0.0)

    def test_format_mean_ci(self):
        assert format_mean_ci(12.34, 1.23) == "12.3 ± 1.2"
        assert format_mean_ci(12345.6, 78.9) == "12346 ± 79"
        assert format_mean_ci(1.2345, 0.0) == "1.234"
        assert format_mean_ci(1.5, 0.25, precision=2) == "1.50 ± 0.25"

    def test_resolve_metrics_validates_with_suggestions(self):
        assert resolve_metrics(None) == ("throughput_ktps", "abort_rate",
                                         "p99_latency_ms")
        with pytest.raises(ValueError, match=r"throughput_ktp'.*did you mean"):
            resolve_metrics(["throughput_ktp"])


@pytest.fixture(scope="module")
def finished_campaign(tmp_path_factory):
    """One compiled-and-run 2×2-reps campaign shared by the report tests."""
    directory = tmp_path_factory.mktemp("campaign") / "run"
    campaign = CampaignSpec(
        name="report-smoke",
        base=ScenarioSpec(protocol="primo", workload="ycsb", scale="tiny"),
        factors={"protocol": ["primo", "sundial"]},
        seed_reps=2,
    )
    compile_campaign(campaign, directory)
    run_campaign(directory)
    return directory


class TestStatusAndReport:
    def test_status_counts(self, finished_campaign):
        status = campaign_status(finished_campaign)
        assert status.total_cells == 4
        assert status.done == 4
        assert status.pending == 0
        assert status.complete
        assert "4/4" in status.describe()

    def test_status_counts_of_a_half_run_campaign(self, tmp_path, capsys):
        directory = tmp_path / "half"
        compile_campaign(CampaignSpec(
            name="half-run",
            base=ScenarioSpec(protocol="primo", workload="ycsb", scale="tiny"),
            factors={"protocol": ["primo", "sundial"], "zipf_theta": [0.2, 0.8]},
            seed_reps=2,
        ), directory)
        run_campaign(directory, shard=(0, 2))
        status = campaign_status(directory)
        assert (status.total_cells, status.done, status.pending) == (8, 4, 4)
        assert not status.complete
        assert "4/8" in status.describe()
        assert main(["status", str(directory)]) == 2
        capsys.readouterr()
        assert main(["status", str(directory), "--json"]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"name": "half-run", "total_cells": 8, "done": 4,
                       "pending": 4, "complete": False}

    def test_report_shape(self, finished_campaign):
        report = campaign_report(finished_campaign,
                                 metrics=["throughput_ktps", "committed"])
        assert report["complete"]
        assert report["rows_total"] == report["rows_complete"] == 2
        assert report["metrics"] == ["throughput_ktps", "committed"]
        protocols = [row["factors"]["protocol"] for row in report["rows"]]
        assert protocols == ["primo", "sundial"]
        for row in report["rows"]:
            assert row["reps_present"] == row["reps_expected"] == 2
            for stats in row["metrics"].values():
                assert stats["n"] == 2
                assert len(stats["values"]) == 2
                assert stats["mean"] == pytest.approx(
                    sum(stats["values"]) / 2)
                assert stats["ci95"] >= 0.0

    def test_report_reflects_seed_variation(self, finished_campaign):
        # Different seeds must actually vary the metric; otherwise the CI
        # machinery is aggregating copies of one run.
        report = campaign_report(finished_campaign, metrics=["committed"])
        for row in report["rows"]:
            values = row["metrics"]["committed"]["values"]
            assert values[0] != values[1]

    def test_markdown_rendering(self, finished_campaign):
        report = campaign_report(finished_campaign)
        markdown = render_markdown(report)
        assert "# Campaign `report-smoke`" in markdown
        assert "| protocol | reps |" in markdown
        assert "| `primo` | 2/2 |" in markdown
        assert "±" in markdown       # intervals are rendered
        assert "⚠" not in markdown   # nothing incomplete

    def test_dict_valued_factors_group_and_render(self, tmp_path):
        # Dict levels (arrival specs) flow from the spec's cells through row
        # grouping to Markdown without collapsing rows or crashing.
        campaign = CampaignSpec(
            name="open-report",
            base=ScenarioSpec(protocol="primo", workload="ycsb", scale="tiny"),
            factors={"arrival": [{"kind": "poisson", "rate_tps": 40_000},
                                 {"kind": "poisson", "rate_tps": 80_000}]},
            seed_reps=1,
        )
        directory = tmp_path / "open-report"
        compile_campaign(campaign, directory)
        run_campaign(directory)
        report = campaign_report(directory, metrics=["committed"])
        assert report["rows_total"] == report["rows_complete"] == 2
        rates = [row["factors"]["arrival"]["rate_tps"]
                 for row in report["rows"]]
        assert rates == [40_000, 80_000]
        markdown = render_markdown(report)
        assert '"rate_tps": 40000' in markdown

    def test_cli_report_artifact_defaults_decouple(self, finished_campaign,
                                                   tmp_path):
        from repro.campaign.__main__ import main as campaign_main

        # Asking for only the JSON copy must not drop the default Markdown
        # artifact (and vice versa) — each defaults independently.
        json_target = tmp_path / "r.json"
        assert campaign_main(["report", str(finished_campaign),
                              "--json", str(json_target)]) == 0
        assert json.loads(json_target.read_text())["complete"] is True
        md_default = Path(finished_campaign) / "reports" / "report.md"
        assert "# Campaign `report-smoke`" in md_default.read_text()

        md_target = tmp_path / "r.md"
        assert campaign_main(["report", str(finished_campaign),
                              "--out", str(md_target)]) == 0
        assert "# Campaign `report-smoke`" in md_target.read_text()
        json_default = Path(finished_campaign) / "reports" / "report.json"
        assert json.loads(json_default.read_text())["complete"] is True

    def test_partial_campaign_reports_cleanly(self, tmp_path):
        campaign = CampaignSpec(
            name="partial",
            base=ScenarioSpec(protocol="primo", workload="ycsb", scale="tiny"),
            factors={"protocol": ["primo", "sundial"]},
            seed_reps=1,
        )
        directory = tmp_path / "partial"
        compile_campaign(campaign, directory)
        run_campaign(directory, shard=(0, 2))  # half the table
        status = campaign_status(directory)
        assert status.done == 1 and status.pending == 1
        report = campaign_report(directory, metrics=["committed"])
        assert not report["complete"]
        assert report["rows_complete"] == 1
        empty = [row for row in report["rows"] if row["reps_present"] == 0]
        assert len(empty) == 1
        assert empty[0]["metrics"]["committed"]["mean"] is None
        markdown = render_markdown(report)
        assert "⚠" in markdown and "—" in markdown
