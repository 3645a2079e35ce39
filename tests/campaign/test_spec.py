"""CampaignSpec: eager validation, JSON round trip, lazy cell streams."""

import json

import pytest

from repro.campaign import CampaignSpec
from repro.scenario import ScenarioSpec


def tiny_base(**changes) -> ScenarioSpec:
    spec = ScenarioSpec(protocol="primo", workload="ycsb", scale="tiny")
    return spec.derive(**changes) if changes else spec


def two_by_two(**overrides) -> CampaignSpec:
    kwargs = dict(
        name="study",
        base=tiny_base(),
        factors={"protocol": ["primo", "sundial"], "zipf_theta": [0.2, 0.8]},
        seed_reps=2,
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


def round_trip(campaign: CampaignSpec) -> CampaignSpec:
    """Through JSON text, as a campaign file is written and read."""
    return CampaignSpec.from_json_dict(json.loads(json.dumps(campaign.to_json_dict())))


class TestValidation:
    def test_factor_names_validate_eagerly_with_suggestions(self):
        with pytest.raises(ValueError, match=r"unknown factor 'zipf_thetaa'.*"
                                             r"did you mean 'zipf_theta'"):
            two_by_two(factors={"zipf_thetaa": [0.2]})

    def test_factor_names_cover_spec_config_and_workload_axes(self):
        # One factor from each routing family derive() supports.
        campaign = two_by_two(factors={
            "protocol": ["primo", "sundial"],       # spec field
            "n_partitions": [2, 4],                 # SystemConfig field
            "zipf_theta": [0.2, 0.8],               # workload config field
        })
        assert campaign.grid_points == 8

    def test_a_workload_factor_extends_the_axis_vocabulary(self):
        # write_ratio is a TATP-free YCSB knob; switching workloads via a
        # factor must make *both* workloads' knobs legal factor names.
        campaign = CampaignSpec(
            name="wl", base=tiny_base(),
            factors={"workload": ["ycsb", "tatp"], "n_partitions": [2, 4]},
        )
        assert campaign.grid_points == 4

    def test_typoed_workload_level_points_at_the_factor(self):
        with pytest.raises(ValueError, match=r"factor 'workload'.*ycsbb"):
            CampaignSpec(name="wl", base=tiny_base(),
                         factors={"workload": ["ycsbb"]})

    def test_seed_is_not_a_factor(self):
        with pytest.raises(ValueError, match="seed_reps"):
            two_by_two(factors={"seed": [1, 2]})

    def test_empty_levels_and_duplicates_fail(self):
        with pytest.raises(ValueError, match="no levels"):
            two_by_two(factors={"protocol": []})
        with pytest.raises(ValueError, match="repeats a level"):
            two_by_two(factors={"protocol": ["primo", "primo"]})

    def test_seed_reps_must_be_positive_int(self):
        with pytest.raises(ValueError, match="seed_reps"):
            two_by_two(seed_reps=0)
        with pytest.raises(ValueError, match="seed_reps"):
            two_by_two(seed_reps=True)

    def test_name_is_restricted_to_filesystem_safe_characters(self):
        with pytest.raises(ValueError, match="campaign name"):
            two_by_two(name="bad name/with slash")


class TestShape:
    def test_cell_stream_shape_and_order(self):
        campaign = two_by_two()
        cells = list(campaign.cells())
        assert len(cells) == campaign.total_cells == 8
        assert [cell.index for cell in cells] == list(range(8))
        # Reps are innermost: consecutive cells share a grid point.
        assert dict(cells[0].factors) == dict(cells[1].factors)
        assert cells[0].seed + 1 == cells[1].seed
        # Last factor (zipf_theta, sorted order) varies fastest across points.
        assert dict(cells[0].factors)["zipf_theta"] != dict(cells[2].factors)["zipf_theta"]
        assert dict(cells[0].factors)["protocol"] == dict(cells[2].factors)["protocol"]

    def test_seed0_defaults_to_the_base_override(self):
        campaign = two_by_two(base=tiny_base(seed=100))
        seeds = sorted({cell.seed for cell in campaign.cells()})
        assert seeds == [100, 101]

    def test_explicit_seed0_wins(self):
        campaign = two_by_two(base=tiny_base(seed=100), seed0=7)
        assert sorted({c.seed for c in campaign.cells()}) == [7, 8]

    def test_factorless_campaign_is_just_seed_reps_of_the_base(self):
        campaign = CampaignSpec(name="reps", base=tiny_base(), seed_reps=3)
        cells = list(campaign.cells())
        assert [dict(cell.factors) for cell in cells] == [{}, {}, {}]
        assert len({cell.key for cell in cells}) == 3  # seeds change the key

    def test_content_keys_are_seed_and_factor_distinct(self):
        keys = {cell.key for cell in two_by_two().cells()}
        assert len(keys) == 8


class TestJson:
    def test_round_trip(self):
        campaign = two_by_two()
        rebuilt = round_trip(campaign)
        assert rebuilt == campaign
        assert rebuilt.to_json_dict() == campaign.to_json_dict()

    def test_from_json_accepts_plain_base_document(self):
        campaign = CampaignSpec.from_json_dict({
            "name": "doc",
            "base": {"protocol": "primo", "scale": "tiny"},
            "factors": {"zipf_theta": [0.0, 0.5]},
        })
        assert campaign.seed_reps == 1
        assert campaign.grid_points == 2

    def test_unknown_fields_fail_with_suggestions(self):
        with pytest.raises(ValueError, match=r"'seed_rep'.*did you mean 'seed_reps'"):
            CampaignSpec.from_json_dict({
                "name": "x", "base": {"protocol": "primo"}, "seed_rep": 3,
            })

    def test_mix_and_fault_levels_round_trip(self):
        campaign = CampaignSpec(
            name="mixes", base=tiny_base(),
            factors={
                "workload": ["ycsb", {"ycsb": 0.7, "tatp": 0.3}],
                "faults": [None, [{"kind": "crash", "at_us": 40_000.0,
                                   "target": 1}]],
            },
        )
        rebuilt = round_trip(campaign)
        assert rebuilt == campaign
        # All four grid specs derive cleanly.
        specs = [cell.spec for cell in rebuilt.cells()]
        assert len(specs) == 4
        assert {spec.workload for spec in specs} == {"ycsb", "mixed"}

    def test_cells_do_not_materialize_the_grid(self, monkeypatch):
        calls = {"n": 0}
        original = ScenarioSpec.derive

        def counting(self, **changes):
            calls["n"] += 1
            return original(self, **changes)

        monkeypatch.setattr(ScenarioSpec, "derive", counting)
        campaign = CampaignSpec(
            name="big", base=tiny_base(),
            factors={"zipf_theta": [i / 1000 for i in range(1000)]},
            seed_reps=2,
        )
        assert calls["n"] == 0  # construction derives nothing
        stream = campaign.cells()
        first = next(stream)
        # One grid derivation + one seed derivation for the first cell only.
        assert calls["n"] == 2
        assert first.index == 0
        assert json.loads(first.spec.canonical_json())  # spec is real
