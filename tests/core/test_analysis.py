"""Tests for the Appendix A analytical conflict-rate model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analysis import AnalysisParameters, ConflictRateModel


def test_parameters_validate_ranges():
    with pytest.raises(ValueError):
        AnalysisParameters(read_ratio=1.5).validate()
    with pytest.raises(ValueError):
        AnalysisParameters(distributed_ratio=-0.1).validate()
    with pytest.raises(ValueError):
        AnalysisParameters(contention=2.0).validate()
    AnalysisParameters().validate()  # defaults are valid


def test_zero_contention_means_zero_conflicts():
    model = ConflictRateModel(AnalysisParameters(contention=0.0))
    assert model.conflict_rate_2pc() == 0.0
    assert model.conflict_rate_primo() == 0.0


def test_local_conflict_probability_matches_2pc():
    model = ConflictRateModel(AnalysisParameters())
    assert model.conflict_with_one_primo_local() == pytest.approx(
        model.conflict_with_one_2pc()
    )


def test_primo_sees_fewer_concurrent_distributed_transactions():
    model = ConflictRateModel(AnalysisParameters())
    assert model.concurrent_distributed_primo() < model.concurrent_distributed_2pc()


def test_primo_wins_at_default_write_heavy_settings():
    model = ConflictRateModel(AnalysisParameters(read_ratio=0.5))
    assert model.primo_wins()


def test_primo_loses_in_read_heavy_workloads():
    """The paper's crossover: with R_u = 0.6 Primo stops winning above R_r ≈ 0.8."""
    model = ConflictRateModel(AnalysisParameters(read_ratio=0.95))
    assert not model.primo_wins()


def test_sweep_read_ratio_reports_monotone_crossover():
    rows = ConflictRateModel.sweep_read_ratio(
        AnalysisParameters(), [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    )
    wins = [row["primo_wins"] for row in rows]
    # Once Primo stops winning it never wins again at higher read ratios.
    first_loss = wins.index(False) if False in wins else len(wins)
    assert all(not w for w in wins[first_loss:])
    assert wins[0] is True


@settings(max_examples=60, deadline=None)
@given(
    read_ratio=st.floats(min_value=0.0, max_value=1.0),
    distributed=st.floats(min_value=0.0, max_value=1.0),
    contention=st.floats(min_value=0.0, max_value=0.001),
    rts_update=st.floats(min_value=0.0, max_value=1.0),
)
def test_conflict_rates_are_probabilities(read_ratio, distributed, contention, rts_update):
    """Property: both conflict rates stay in [0, 1] over the parameter space."""
    model = ConflictRateModel(
        AnalysisParameters(
            read_ratio=read_ratio,
            distributed_ratio=distributed,
            contention=contention,
            rts_update_ratio=rts_update,
        )
    )
    for value in (model.conflict_rate_2pc(), model.conflict_rate_primo()):
        assert 0.0 <= value <= 1.0


@settings(max_examples=40, deadline=None)
@given(read_ratio=st.floats(min_value=0.0, max_value=1.0))
def test_ru_zero_makes_primo_never_worse(read_ratio):
    """Property (paper's argument): with R_u = 0 Primo's conflict rate is <= 2PC's."""
    model = ConflictRateModel(
        AnalysisParameters(read_ratio=read_ratio, rts_update_ratio=0.0)
    )
    assert model.conflict_rate_primo() <= model.conflict_rate_2pc() + 1e-12
