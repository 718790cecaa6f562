import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from vmqp.circular import (
    circular_distance,
    circular_summary,
    normalize_angle,
    sample_von_mises,
)
from conftest import bessel_ratio

angles = st.floats(-50.0, 50.0, allow_nan=False)


@given(angles, st.integers(-5, 5))
def test_normalize_periodic(a, k):
    assert normalize_angle(a + 2 * np.pi * k) == pytest.approx(
        normalize_angle(a), abs=1e-9
    )


@given(angles)
def test_normalize_range(a):
    r = normalize_angle(a)
    assert -np.pi < r <= np.pi


def test_summary_identical_angles():
    s = circular_summary([0.0, 0.0, 0.0])
    assert s.resultant_length == pytest.approx(1.0)
    assert s.mean_direction == pytest.approx(0.0)
    assert s.circular_variance == pytest.approx(0.0)


def test_summary_antipodal_degenerate():
    s = circular_summary([0.0, np.pi])
    assert s.resultant_length == pytest.approx(0.0, abs=1e-12)
    assert s.circular_variance == pytest.approx(1.0)
    assert s.degenerate
    assert s.mean_direction == 0.0


def test_summary_constant_sample():
    s = circular_summary([np.pi / 3] * 4)
    assert s.mean_direction == pytest.approx(np.pi / 3)
    assert s.resultant_length == pytest.approx(1.0)


def test_summary_variance_is_one_minus_r(rng):
    s = circular_summary(rng.uniform(-np.pi, np.pi, 100))
    assert s.circular_variance == 1.0 - s.resultant_length


def test_summary_empty():
    with pytest.raises(ValueError, match="empty sample"):
        circular_summary([])


@given(st.lists(angles, min_size=1, max_size=30), angles)
@settings(max_examples=50)
def test_summary_rotation_invariance(sample, c):
    base = circular_summary(sample)
    rotated = circular_summary([a + c for a in sample])
    assert rotated.resultant_length == pytest.approx(base.resultant_length, abs=1e-9)
    if not base.degenerate:
        expected = normalize_angle(base.mean_direction + c)
        diff = normalize_angle(rotated.mean_direction - expected)
        assert abs(diff) < 1e-6


def test_distance_examples():
    assert circular_distance(0.0, 0.0) == pytest.approx(0.0)
    assert circular_distance(0.0, np.pi) == pytest.approx(2.0)
    assert circular_distance(0.0, np.pi / 2) == pytest.approx(1.0)


@given(angles, angles)
def test_distance_symmetric_and_bounded(a, b):
    d = circular_distance(a, b)
    assert d == circular_distance(b, a)
    assert 0.0 <= d <= 2.0
    assert circular_distance(a, a) == pytest.approx(0.0)


def test_von_mises_uniform_limit(rng):
    draws = sample_von_mises(0.0, 0.0, rng, size=1_000_000)
    assert circular_summary(draws).resultant_length < 0.005


def test_von_mises_resultant_matches_bessel_ratio(rng):
    draws = sample_von_mises(0.0, 2.0, rng, size=1_000_000)
    assert circular_summary(draws).resultant_length == pytest.approx(
        bessel_ratio(2.0), abs=0.005
    )


def test_von_mises_mode_at_mean(rng):
    draws = sample_von_mises(np.pi / 2, 8.0, rng, size=200_000)
    assert circular_summary(draws).mean_direction == pytest.approx(
        np.pi / 2, abs=0.01
    )


def test_von_mises_rejects_bad_concentration(rng):
    with pytest.raises(ValueError):
        sample_von_mises(0.0, -1.0, rng)
    with pytest.raises(ValueError):
        sample_von_mises(0.0, np.nan, rng)


@pytest.mark.parametrize("conc", [0.5, 2.0, 8.0])
def test_von_mises_histogram_chi2(conc, rng):
    n = 1_000_000
    draws = sample_von_mises(0.0, conc, rng, size=n)
    edges = np.linspace(-np.pi, np.pi, 721)
    observed, _ = np.histogram(draws, bins=edges)
    centers = (edges[:-1] + edges[1:]) / 2
    dens = np.exp(conc * np.cos(centers))
    expected = n * dens / dens.sum()
    stat = np.sum((observed - expected) ** 2 / expected)
    p = chi2.sf(stat, df=719)
    assert p > 0.001


def test_von_mises_range(rng):
    draws = sample_von_mises(3.0, 1.0, rng, size=10_000)
    assert np.all(draws > -np.pi) and np.all(draws <= np.pi)


@pytest.mark.parametrize("conc", [np.nan, np.inf, -np.inf, -1e-300])
@pytest.mark.parametrize("shape", [(), (1,), (5,)])
def test_von_mises_rejects_each_bad_concentration(conc, shape, rng):
    bad = np.full(shape, 2.0)
    bad.flat[-1] = conc  # last among valid values
    with pytest.raises(ValueError, match="finite and >= 0"):
        sample_von_mises(0.0, bad, rng)


def test_von_mises_accepts_empty_and_scalar_concentrations(rng):
    assert sample_von_mises(np.zeros(0), np.zeros(0), rng).shape == (0,)
    for conc in (0.0, np.float64(3.0), np.array(1.5)):
        draw = sample_von_mises(0.5, conc, rng)
        assert -np.pi < draw <= np.pi
    draws = sample_von_mises(np.full(4, np.pi), np.array([0.0, 1e-300, 5.0, 1e300]), rng)
    assert np.all(draws > -np.pi) and np.all(draws <= np.pi)
