import numpy as np
import pytest

from vmqp.evaluation import (
    autocorrelations,
    circular_column_ress,
    circular_crps,
    circular_ress,
    predictive_summary,
    ress,
)


def ar1(n, rho, rng):
    x = np.empty(n)
    x[0] = rng.standard_normal() / np.sqrt(1 - rho**2)
    for t in range(1, n):
        x[t] = rho * x[t - 1] + rng.standard_normal()
    return x


def test_autocorrelations_lag_zero(rng):
    acf = autocorrelations(rng.standard_normal(500))
    assert acf[0] == pytest.approx(1.0)
    assert np.max(np.abs(acf[1:])) < 0.3


def test_ress_iid(rng):
    assert 0.95 < ress(rng.standard_normal(200_000)) < 1.05


def test_ress_ar1(rng):
    # AR(1) with coefficient 0.9 has ess ratio (1-rho)/(1+rho) = 1/19
    vals = [ress(ar1(100_000, 0.9, rng)) for _ in range(3)]
    assert np.mean(vals) == pytest.approx(1 / 19, rel=0.2)


def test_ress_bounds(rng):
    r = ress(ar1(50_000, 0.99, rng))
    assert 0.0 < r <= 1.0 + 1e-9


def test_ress_improves_with_thinning(rng):
    x = ar1(200_000, 0.95, rng)
    assert ress(x[::20]) > 5 * ress(x)


def test_ress_errors():
    with pytest.raises(ValueError):
        ress(np.zeros(100))
    with pytest.raises(ValueError):
        ress(np.arange(5))


def test_circular_ress_constant_component():
    # angle trace with constant cosine raises on one component
    rng = np.random.default_rng(0)
    signs = rng.choice([-1.0, 1.0], size=1000)
    trace = signs * np.pi / 2
    with pytest.raises(ValueError):
        circular_ress(np.full(1000, 0.3))
    assert 0 < circular_ress(trace + 0.01 * rng.standard_normal(1000)) <= 1.01


def test_crps_degenerate_predictive():
    pred = np.full(100, 1.2)
    assert circular_crps(pred, 1.2) == pytest.approx(0.0, abs=1e-12)
    # point mass at distance d scores the full distance
    assert circular_crps(pred, 1.2 + np.pi) == pytest.approx(2.0)


def test_crps_uniform_predictive(rng):
    # both expectations are 1 under a uniform predictive, score 0.5
    pred = rng.uniform(-np.pi, np.pi, 400_000)
    assert circular_crps(pred, 0.7) == pytest.approx(0.5, abs=0.01)


def test_crps_rotation_invariance(rng):
    pred = rng.vonmises(0.3, 2.0, 501)  # odd length exercises pairing
    c = 1.234
    assert circular_crps(pred + c, 0.9 + c) == pytest.approx(
        circular_crps(pred, 0.9), abs=1e-12
    )


def test_crps_matches_brute_force(rng):
    # discretized predictive scored exactly from its histogram weights
    support = np.array([-2.0, 0.0, 0.5, 2.5])
    probs = np.array([0.1, 0.4, 0.3, 0.2])
    idx = rng.choice(4, size=2 * 10**6, p=probs)
    pred = support[idx]
    theta = 0.8
    d = lambda a, b: 1 - np.cos(a - b)
    exact = probs @ d(support, theta) - 0.5 * probs @ d(
        support[:, None], support[None, :]
    ) @ probs
    assert circular_crps(pred, theta) == pytest.approx(exact, abs=1e-3)


def test_crps_validation():
    with pytest.raises(ValueError):
        circular_crps(np.array([0.1]), 0.0)


def test_predictive_summary(rng):
    col0 = np.full(5000, 0.5)
    col1 = rng.uniform(-np.pi, np.pi, 5000)
    means, variances = predictive_summary(np.column_stack([col0, col1]))
    assert means[0] == pytest.approx(0.5)
    assert variances[0] == pytest.approx(0.0, abs=1e-12)
    assert variances[1] == pytest.approx(1.0, abs=0.05)


@pytest.mark.parametrize("n", [10, 11, 12, 251])
def test_circular_column_ress_matches_circular_ress(n):
    # autocorrelated angle traces, one per column, around the whole circle
    rng = np.random.default_rng(n)
    walk = np.cumsum(rng.vonmises(0.0, 2.0, (n, 6)), axis=0) * 0.4
    angles = np.angle(np.exp(1j * walk))
    angles[:, 4] = 0.3  # constant: both components are
    angles[:, 5] = np.where(np.arange(n) % 2, 0.5, -0.5)  # constant cosine only
    got = circular_column_ress(angles)
    assert got.shape == (6,)
    for j in range(4):
        assert got[j] == pytest.approx(circular_ress(angles[:, j]), rel=1e-12)
    assert np.isnan(got[4]) and np.isnan(got[5])


def test_circular_column_ress_of_short_traces_is_nan():
    rng = np.random.default_rng(0)
    for n in (0, 1, 9):
        got = circular_column_ress(rng.uniform(-np.pi, np.pi, (n, 3)))
        assert got.shape == (3,) and np.all(np.isnan(got))


def test_circular_column_ress_blocks_give_the_unblocked_values(monkeypatch):
    # many columns are transformed a block at a time; the block size must
    # not change any value
    import vmqp.evaluation as evaluation

    rng = np.random.default_rng(1)
    angles = np.angle(np.exp(1j * np.cumsum(rng.vonmises(0.0, 3.0, (40, 13)), axis=0)))
    whole = circular_column_ress(angles)
    monkeypatch.setattr(evaluation, "_FFT_BLOCK", 3 * 2 * 40)  # 3 columns per block
    assert np.array_equal(circular_column_ress(angles), whole)
