"""Tests for the deterministic RNG and the Zipf generator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.randgen import DeterministicRandom, ZipfGenerator, derive_seed


def test_same_seed_same_stream():
    a = DeterministicRandom(123)
    b = DeterministicRandom(123)
    assert [a.uniform_int(0, 1000) for _ in range(50)] == [
        b.uniform_int(0, 1000) for _ in range(50)
    ]


def test_different_seeds_differ():
    a = DeterministicRandom(1)
    b = DeterministicRandom(2)
    assert [a.uniform_int(0, 10**6) for _ in range(20)] != [
        b.uniform_int(0, 10**6) for _ in range(20)
    ]


def test_derive_seed_is_deterministic_and_sensitive_to_components():
    assert derive_seed(42, 1, 2) == derive_seed(42, 1, 2)
    assert derive_seed(42, 1, 2) != derive_seed(42, 2, 1)
    assert derive_seed(42, 1) != derive_seed(43, 1)


def test_boolean_probability_extremes():
    rng = DeterministicRandom(5)
    assert not any(rng.boolean(0.0) for _ in range(100))
    assert all(rng.boolean(1.0) for _ in range(100))


def test_nurand_stays_in_range():
    rng = DeterministicRandom(9)
    for _ in range(500):
        value = rng.nurand(255, 1, 3000)
        assert 1 <= value <= 3000


def test_last_name_syllables():
    rng = DeterministicRandom(0)
    assert rng.last_name(0) == "BARBARBAR"
    assert rng.last_name(371) == "PRICALLYOUGHT"
    assert len(rng.last_name(999)) > 0


def test_uniform_int_covers_both_inclusive_bounds():
    rng = DeterministicRandom(4)
    draws = {rng.uniform_int(3, 6) for _ in range(400)}
    assert draws == {3, 4, 5, 6}


#: (low, high) inclusive ranges around _randbelow's bit-length boundaries.
UNIFORM_INT_RANGES = [(7, 7), (0, 1), (0, 254), (0, 255), (0, 256),
                      (1, 2**31), (0, 10**12 - 1), (-40, 17)]


@pytest.mark.parametrize("low, high", UNIFORM_INT_RANGES,
                         ids=["width_1", "width_2", "width_255", "width_256", "width_257",
                              "width_2_31", "width_10_12", "negative_low"])
def test_uniform_int_is_randint_draw_for_draw(low, high):
    """uniform_int draws through Random's private _randbelow: the stream must
    stay randint's, on every interpreter the CI matrix runs."""
    import random

    ours, reference = DeterministicRandom(2024), random.Random(2024)
    assert [ours.uniform_int(low, high) for _ in range(300)] == [
        reference.randint(low, high) for _ in range(300)
    ]
    assert ours.random() == reference.random()   # the streams stay aligned


def test_uniform_int_of_an_empty_range_raises_like_randint():
    with pytest.raises(ValueError, match="empty range"):
        DeterministicRandom(1).uniform_int(5, 4)


def test_exponential_with_a_non_positive_mean_is_zero():
    rng = DeterministicRandom(8)
    assert rng.exponential(0.0) == 0.0
    assert rng.exponential(-3.0) == 0.0


def test_exponential_sample_mean_tracks_the_requested_mean():
    rng = DeterministicRandom(21)
    draws = [rng.exponential(250.0) for _ in range(20_000)]
    assert min(draws) >= 0.0
    assert sum(draws) / len(draws) == pytest.approx(250.0, rel=0.05)


def test_choice_and_shuffle_follow_the_seed():
    def stream(seed):
        rng = DeterministicRandom(seed)
        items = list(range(20))
        rng.shuffle(items)
        return [rng.choice("abcdef") for _ in range(10)], items

    assert stream(17) == stream(17)
    assert stream(17) != stream(18)


@settings(max_examples=50, deadline=None)
@given(
    base=st.integers(min_value=0, max_value=2**70),
    components=st.lists(st.integers(min_value=0, max_value=2**40), max_size=4),
)
def test_derive_seed_stays_within_64_bits(base, components):
    assert 0 <= derive_seed(base, *components) < 2**64


def test_zipf_rejects_bad_parameters():
    rng = DeterministicRandom(1)
    with pytest.raises(ValueError):
        ZipfGenerator(0, 0.5, rng)
    with pytest.raises(ValueError):
        ZipfGenerator(100, 1.0, rng)
    with pytest.raises(ValueError):
        ZipfGenerator(100, -0.1, rng)


def test_zipf_zero_theta_is_uniformish():
    rng = DeterministicRandom(11)
    zipf = ZipfGenerator(1000, 0.0, rng)
    draws = [zipf.next() for _ in range(5000)]
    assert min(draws) >= 0 and max(draws) < 1000
    # The most popular key should not dominate under uniform access.
    top_share = max(draws.count(k) for k in set(draws)) / len(draws)
    assert top_share < 0.02


def test_zipf_high_theta_is_skewed():
    rng = DeterministicRandom(12)
    zipf = ZipfGenerator(1000, 0.9, rng)
    draws = [zipf.next() for _ in range(5000)]
    hot_share = sum(1 for d in draws if d < 10) / len(draws)
    assert hot_share > 0.3  # the ten hottest keys absorb a large share


@settings(max_examples=30, deadline=None)
@given(
    n_items=st.integers(min_value=1, max_value=50_000),
    theta=st.floats(min_value=0.0, max_value=0.99),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_zipf_draws_always_in_range(n_items, theta, seed):
    """Property: every draw is a valid key index for any (n, theta, seed)."""
    zipf = ZipfGenerator(n_items, theta, DeterministicRandom(seed))
    for _ in range(50):
        assert 0 <= zipf.next() < n_items


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_zipf_streams_are_reproducible(seed):
    """Property: the same seed always produces the same key sequence."""
    first = ZipfGenerator(500, 0.6, DeterministicRandom(seed))
    second = ZipfGenerator(500, 0.6, DeterministicRandom(seed))
    assert [first.next() for _ in range(30)] == [second.next() for _ in range(30)]


def test_zipf_two_items_does_not_divide_by_zero():
    """Regression: n_items == 2 used to crash computing eta (0/0)."""
    zipf = ZipfGenerator(2, 0.5, DeterministicRandom(0))
    draws = [zipf.next() for _ in range(500)]
    assert set(draws) <= {0, 1}
    assert draws.count(0) > draws.count(1)  # key 0 is hotter


def test_stable_hash_is_process_independent():
    from repro.sim.randgen import stable_hash

    # Fixed values: these must never change, or every golden in the repo
    # (tests/integration/test_determinism.py, BENCH_substrate.json) breaks.
    assert stable_hash("ycsb") == 0xDA4C6F32
    assert stable_hash("") == 0
    assert stable_hash("ycsb") != stable_hash("tpcc")


def test_gray_zipf_stream_is_pinned():
    """The default Gray sampler's key stream is part of the determinism
    contract (the YCSB goldens depend on it): pin a short prefix."""
    zipf = ZipfGenerator(1000, 0.6, DeterministicRandom(7))
    assert [zipf.next() for _ in range(10)] == [
        73, 14, 360, 4, 229, 96, 2, 202, 1, 141,
    ]
