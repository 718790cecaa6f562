from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest

from vmqp.errors import NumericalError
from vmqp.gibbs import (
    Augmentation,
    augmentation_at,
    gibbs_sweep,
    make_augmentation,
    redraw,
    run_chain,
    run_sweeps,
    sweep_coefficients,
)
from vmqp.circular import normalize_angle, sample_von_mises
from vmqp.model import ConditionalParams

from test_kernels import low_estimate


def test_make_augmentation_identity():
    aug = make_augmentation(np.eye(3))
    assert aug.lam == pytest.approx(1.01)
    assert aug.lam_max_estimate == pytest.approx(1.0)
    assert np.allclose(aug.factor, np.sqrt(0.01) * np.eye(3))


def test_make_augmentation_scalar():
    # lam = (1 + 0.5) * 2 = 3, gap = 1, A = [1]
    aug = make_augmentation(np.array([[2.0]]), slack=0.5)
    assert aug.lam == pytest.approx(3.0)
    assert aug.factor[0, 0] == pytest.approx(1.0)


def test_make_augmentation_reconstruction(rng):
    B = rng.standard_normal((6, 6))
    Q = B @ B.T
    aug = make_augmentation(Q)
    gap = aug.factor.T @ aug.factor
    assert np.max(np.abs(gap + Q - aug.lam * np.eye(6))) < 1e-12 * aug.lam
    # lambda_max is estimated from below, and the Cholesky certifies lam above it
    top = np.linalg.eigvalsh(Q)[-1]
    assert aug.lam_max_estimate <= top < aug.lam == 1.01 * aug.lam_max_estimate


def test_make_augmentation_validation():
    with pytest.raises(ValueError):
        make_augmentation(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        make_augmentation(np.eye(2), slack=0.0)


def test_augmentation_at_below_top_raises():
    with pytest.raises(NumericalError):
        augmentation_at(np.diag([2.0, 1.0]), 1.5)


@pytest.mark.parametrize("mult", [1.0, 1.01, 5.0])
def test_rescaled_factor_shares_the_eigenpairs(rng, mult):
    # moving a factor to mult times its lambda runs one Cholesky of the
    # coupling it keeps (the same object), with no power iteration: the
    # estimate and its vector carry over, and at the same lambda the
    # factor keeps its bits; the factor is the one augmentation_at builds
    B = rng.standard_normal((30, 30))
    Q = B @ B.T / 30 + np.eye(30)
    aug = make_augmentation(Q)
    moved = aug.at(mult * aug.lam)
    assert moved.unit is aug.unit is Q and moved.top is aug.top
    assert moved.lam == mult * aug.lam
    assert moved.lam_max_estimate == aug.lam_max_estimate
    if mult == 1.0:
        assert np.array_equal(moved.basis, aug.basis)
    ref = augmentation_at(Q, moved.lam)
    assert np.array_equal(moved.basis, ref.basis)
    assert np.max(np.abs(moved.factor.T @ moved.factor + Q - moved.lam * np.eye(30))) < 1e-12 * moved.lam
    with pytest.raises(NumericalError):
        aug.at(0.5 * aug.lam_max_estimate)


def test_factor_is_formed_from_scale_and_eigenvectors():
    # the factor is scale * basis', basis the lower Cholesky factor of
    # lam*variance*I - unit; a diagonal Q gives a diagonal basis
    aug = make_augmentation(np.diag([1.0, 3.0]), slack=1.0)  # lam = 2 * estimate
    assert aug.lam == 2.0 * aug.lam_max_estimate and aug.lam_max_estimate <= 3.0 < aug.lam
    assert np.array_equal(aug.basis, np.diag(np.sqrt(aug.lam - np.array([1.0, 3.0]))))
    assert np.array_equal(aug.factor, aug.scale * aug.basis.T)
    half = replace(aug, variance=4.0)  # scale 1/sqrt(4) = 0.5
    assert np.array_equal(half.factor, 0.5 * aug.basis.T)
    assert aug.factor is not aug.factor  # a fresh array per read, never kept
    assert aug.size == 2


@pytest.mark.parametrize("variance", [1.0, 0.3])
def test_triangular_factor_of_a_scaled_coupling(rng, variance):
    # Q = unit / variance: A = C' / sqrt(variance) with C C' = lam*variance*I - unit;
    # at() runs one Cholesky and refuses a lam below the top eigenvalue
    B = rng.standard_normal((20, 20))
    unit = B @ B.T / 20
    Q, top = unit / variance, np.linalg.eigvalsh(unit)[-1] / variance
    ref = Augmentation(np.nan, None, top, unit, variance, None)
    for mult in (1.01, 3.0):
        aug = ref.at(mult * top)
        assert aug.lam == mult * top and aug.lam_max_estimate == top and aug.unit is unit
        assert aug.scale == 1.0 / np.sqrt(variance)
        assert np.array_equal(aug.factor, aug.basis.T * aug.scale)
        assert np.max(np.abs(aug.factor.T @ aug.factor + Q - aug.lam * np.eye(20))) < 1e-12 * aug.lam
    with pytest.raises(NumericalError, match="not above the top eigenvalue"):
        ref.at(0.99 * top)


def test_exact_top_eigenvalue_above_512():
    # Q = I + 2uu' with u = (e1 - e2)/sqrt(2) has top eigenvalue 3; u is
    # orthogonal to the all-ones vector, so a power iteration started
    # there would never see it. The estimate is below 3, the certified
    # lam above it, and the factor reconstructs lam*I - Q
    Q = np.eye(600)
    Q[:2, :2] += np.array([[1.0, -1.0], [-1.0, 1.0]])
    aug = make_augmentation(Q)
    assert aug.lam_max_estimate <= 3.0 < aug.lam == 1.01 * aug.lam_max_estimate
    assert aug.lam < 1.01 * 1.01 * 3.0
    assert np.max(np.abs(aug.factor.T @ aug.factor + Q - aug.lam * np.eye(600))) < 1e-12 * aug.lam
    with pytest.raises(NumericalError):
        augmentation_at(Q, 3.0 * (1.0 - 1e-9))


@pytest.mark.parametrize(
    "build, error, match",
    [
        (lambda: augmentation_at(np.zeros((0, 0)), 1.0), None, None),
        (lambda: make_augmentation(np.zeros((0, 0))), None, None),
        (lambda: augmentation_at(np.zeros((2, 3)), 1.0), ValueError, "Q must be a square"),
        (lambda: augmentation_at(np.zeros(3), 1.0), ValueError, "Q must be a square"),
        (lambda: make_augmentation(np.eye(2), slack=np.inf), ValueError, "slack"),
        (lambda: augmentation_at(np.eye(2), np.nan), ValueError, "finite"),
        (lambda: augmentation_at(np.eye(2), np.inf), ValueError, "finite"),
        (lambda: make_augmentation(np.array([[1.0, np.nan], [np.nan, 1.0]])), NumericalError, "non-finite"),
        (lambda: augmentation_at(np.array([[1.0, np.inf], [np.inf, 1.0]]), 2.0), NumericalError, "non-finite"),
        (lambda: make_augmentation(np.zeros((2, 2))), NumericalError, "positive"),
        (lambda: make_augmentation(-np.eye(2)), NumericalError, "positive"),
    ],
    ids=[
        "at-empty", "make-empty", "at-non-square", "at-vector", "make-inf-slack",
        "at-nan-lambda", "at-inf-lambda", "make-nan-entry", "at-inf-entry",
        "make-zero", "make-negative-definite",
    ],
)
def test_augmentation_input_checks(build, error, match):
    if error is None:
        assert build().factor.shape == (0, 0)
    else:
        with pytest.raises(error, match=match):
            build()


def test_cholesky_failure_is_a_numerical_error(monkeypatch):
    # a Cholesky that never succeeds ends the slack retries at the
    # row-sum bound of Q
    calls = []

    def failing(a):
        calls.append(a)
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", failing)
    with pytest.raises(NumericalError, match="no Cholesky factor"):
        make_augmentation(np.array([[2.0, 0.5], [0.5, 1.0]]))
    assert 1 < len(calls) < 100


def test_redraw_examples(monkeypatch):
    # the phi half draws von Mises(gamma, a) with gamma = arctan2(b_s, b_c)
    # and a = hypot(b_c, b_s); a reflection about gamma undoes itself and
    # reads no random state
    import vmqp.gibbs as gibbs

    calls = []

    def recording(mean, kappa, rng):
        calls.append((mean, kappa))
        return sample_von_mises(mean, kappa, rng)

    monkeypatch.setattr(gibbs, "sample_von_mises", recording)
    phi = np.array([0.4])
    for b, a, gamma in (((1.0, 0.0), 1.0, 0.0), ((1.0, 1.0), np.sqrt(2.0), np.pi / 4)):
        redraw(phi, np.array(b)[:, None], np.random.default_rng(0))
        mean, kappa = calls.pop()
        assert kappa[0] == pytest.approx(a)
        assert mean[0] == pytest.approx(gamma)

    gen = np.random.default_rng(3)
    b = gen.standard_normal((2, 3, 8))
    phi = gen.uniform(-np.pi, np.pi, (3, 8))
    state = gen.bit_generator.state
    back = redraw(redraw(phi, b, gen, reflect=True), b, gen, reflect=True)
    assert np.max(np.abs(np.angle(np.exp(1j * (back - phi))))) < 1e-12
    assert gen.bit_generator.state == state
    assert calls == []


@pytest.mark.parametrize("reflect", [False, True])
@pytest.mark.parametrize("shape", [(9,), (3, 9)])
def test_sweep_halves_compose_to_gibbs_sweep(shape, reflect):
    # the z half then the phi half, on the one factor of aug, is the sweep
    # bit for bit, and both leave the generator in the same state
    cp, aug, gen = coupled_target(9, 4)
    phi = gen.uniform(-np.pi, np.pi, shape)
    got_rng, ref_rng = np.random.default_rng(6), np.random.default_rng(6)
    for _ in range(5):
        b = sweep_coefficients(phi, ((aug.basis, aug.scale),), cp.rho_c, cp.rho_s, got_rng)
        assert b.shape == (2,) + shape
        got = redraw(phi, b, got_rng, reflect)
        phi = gibbs_sweep(phi, aug, cp, ref_rng, reflect=reflect)
        assert np.array_equal(got, phi)
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state


def test_quadratic_cancellation(rng):
    # augmented exponent minus the marginal exponent in phi must be free of
    # cross terms: log p(phi, z) - log p(phi') is reproduced by the
    # factorized von Mises coefficients
    Q = np.array([[2.0, 0.5], [0.5, 1.5]])
    cp = ConditionalParams(np.array([0.3, -0.7]), np.array([1.1, 0.2]))
    aug = make_augmentation(Q)
    A = aug.factor
    z1 = rng.standard_normal(2)
    z2 = rng.standard_normal(2)
    b_c = cp.rho_c + A.T @ z1
    b_s = cp.rho_s + A.T @ z2

    def joint_log(phi):
        c, s = np.cos(phi), np.sin(phi)
        expo = (cp.rho_c @ c + cp.rho_s @ s
                - 0.5 * c @ Q @ c - 0.5 * s @ Q @ s)
        expo -= 0.5 * np.sum((z1 - A @ c) ** 2) + 0.5 * np.sum((z2 - A @ s) ** 2)
        return expo

    def factor_log(phi):
        return b_c @ np.cos(phi) + b_s @ np.sin(phi)

    diffs = []
    for _ in range(50):
        phi = rng.uniform(-np.pi, np.pi, 2)
        diffs.append(joint_log(phi) - factor_log(phi))
    assert np.ptp(diffs) < 1e-10


def test_run_chain_deterministic():
    cp = ConditionalParams(np.array([1.0, 0.5]), np.array([0.0, -0.5]))
    aug = make_augmentation(np.array([[1.5, 0.3], [0.3, 1.2]]))
    out1 = run_chain(cp, aug, 200, 50, thin=2, seed=7)
    out2 = run_chain(cp, aug, 200, 50, thin=2, seed=7)
    assert np.array_equal(out1.samples, out2.samples)
    out3 = run_chain(cp, aug, 200, 50, thin=2, seed=8)
    assert not np.array_equal(out1.samples, out3.samples)


def test_run_chain_shapes_and_validation():
    cp = ConditionalParams(np.array([1.0]), np.array([0.0]))
    aug = make_augmentation(np.array([[1.0]]))
    out = run_chain(cp, aug, 100, 20, thin=3, seed=0)
    assert out.samples.shape == (27, 1)
    assert np.all(out.samples > -np.pi) and np.all(out.samples <= np.pi)
    with pytest.raises(ValueError):
        run_chain(cp, aug, 10, 10)
    with pytest.raises(ValueError):
        run_chain(cp, aug, 10, 0, thin=0)
    with pytest.raises(ValueError):
        run_chain(cp, aug, 10, 0, init=np.zeros(2))
    with pytest.raises(ValueError):
        run_chain(cp, make_augmentation(np.eye(2)), 10, 0)


def test_run_chain_single_retained():
    cp = ConditionalParams(np.array([1.0]), np.array([0.0]))
    out = run_chain(cp, make_augmentation(np.array([[1.0]])), 3, 2, seed=0)
    assert out.samples.shape == (1, 1)
    assert np.isnan(out.ress[0])


def test_run_chain_lam_multiplier():
    # lambda = 5 * lambda_max through a factor the caller builds
    cp = ConditionalParams(np.array([1.0]), np.array([0.0]))
    aug = augmentation_at(np.array([[2.0]]), 5.0 * 2.0)
    out = run_chain(cp, aug, 50, 10, seed=0)
    assert aug.lam == pytest.approx(10.0)
    assert out.samples.shape == (40, 1)


def test_run_chain_stops_at_its_last_kept_sweep(monkeypatch):
    # kept sweeps are burn_in, burn_in + thin, ... < n_iter; none runs after
    # the last of them, and the kept states are the chain's own states
    import vmqp.gibbs as gibbs

    states = []

    def recording(phi, aug, cp, rng, reflect=False):
        states.append(sweep(phi, aug, cp, rng, reflect=reflect))
        return states[-1]

    sweep = gibbs.gibbs_sweep
    monkeypatch.setattr(gibbs, "gibbs_sweep", recording)
    cp = ConditionalParams(np.array([1.0, 0.5]), np.array([0.0, -0.5]))
    Q = np.array([[1.5, 0.3], [0.3, 1.2]])
    out = run_chain(cp, make_augmentation(Q), 100, 20, thin=3, seed=0)
    assert len(states) == 99  # sweeps 0..98; sweep 99 is never kept
    assert np.array_equal(out.samples, np.array(states[20::3]))


def test_run_sweeps_overrelax_reflects_every_second_sweep(monkeypatch):
    import vmqp.gibbs as gibbs

    flags = []

    def recording(phi, aug, cp, rng, reflect=False):
        flags.append(reflect)
        return sweep(phi, aug, cp, rng, reflect=reflect)

    sweep = gibbs.gibbs_sweep
    monkeypatch.setattr(gibbs, "gibbs_sweep", recording)
    cp, aug, gen = coupled_target(3, 2)
    phi = gen.uniform(-np.pi, np.pi, 3)
    run_sweeps(phi, aug, cp, np.random.default_rng(1), 4)
    assert flags == [False] * 4
    flags.clear()
    run_sweeps(phi, aug, cp, np.random.default_rng(1), 3, 2, 2, overrelax=True)
    assert flags == [False, True, False, True, False]


def test_reflection_sweep_reflects_about_the_conditional_mean(monkeypatch):
    # a reflection sweep draws the normals of a heat-bath sweep, then maps
    # phi to 2 gamma - phi, wrapped into (-pi, pi], with no von Mises draw
    import vmqp.gibbs as gibbs

    def no_draw(*args, **kwargs):
        raise AssertionError("a reflection sweep drew a von Mises variate")

    monkeypatch.setattr(gibbs, "sample_von_mises", no_draw)
    cp, aug, gen = coupled_target(9, 1)
    A = aug.factor
    for phi in (gen.uniform(-np.pi, np.pi, 9), gen.uniform(-np.pi, np.pi, (3, 9))):
        got_rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        got = gibbs_sweep(phi, aug, cp, got_rng, reflect=True)
        eps = ref_rng.standard_normal((2,) + phi.shape)
        b_c = cp.rho_c + (np.cos(phi) @ A.T + eps[0]) @ A
        b_s = cp.rho_s + (np.sin(phi) @ A.T + eps[1]) @ A
        ref = 2.0 * np.arctan2(b_s, b_c) - phi
        assert got.shape == phi.shape
        assert np.all((got > -np.pi) & (got <= np.pi))
        assert np.max(np.abs(np.angle(np.exp(1j * (got - ref))))) < 1e-12
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state


def test_reflection_at_zero_concentration_maps_phi_to_minus_phi():
    # b = 0 gives a = 0 and gamma = 0, and reads no random state
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    phi = np.array([[0.3], [-2.0], [np.pi], [0.0]])
    got = redraw(phi, np.zeros((2,) + phi.shape), rng, reflect=True)
    assert np.array_equal(got, normalize_angle(-phi))
    assert got[2, 0] == np.pi  # -pi wraps to pi
    assert rng.bit_generator.state == state


def test_run_sweeps_keeps_the_requested_states(rng):
    cp = ConditionalParams(np.array([1.0]), np.array([0.0]))
    aug = make_augmentation(np.array([[1.0]]))
    seed = 4
    every = run_sweeps(np.zeros(1), aug, cp, np.random.default_rng(seed), 1, 13)
    kept = run_sweeps(np.zeros(1), aug, cp, np.random.default_rng(seed), 5, 3, 4)
    assert kept.shape == (3, 1)
    assert np.array_equal(kept, every[[4, 8, 12]])  # after sweeps 5, 9 and 13
    last = run_sweeps(np.zeros(1), aug, cp, np.random.default_rng(seed), 7)
    assert np.array_equal(last, every[[6]])


def test_sweep_distribution_m2(rng):
    # the quadratic terms are constant when m = 1, so a coupled m = 2 case
    # is needed; the first-coordinate marginal is checked against a
    # quadrature CDF of the bivariate density
    Q = np.array([[1.5, 0.8], [0.8, 1.5]])
    rho_c = np.array([1.2, -0.4])
    rho_s = np.array([0.3, 0.9])
    cp = ConditionalParams(rho_c, rho_s)
    out = run_chain(cp, make_augmentation(Q), 52000, 2000, thin=10, seed=3)
    draws = out.samples[:, 0]

    def dens(p1, p2):
        c = np.array([np.cos(p1), np.cos(p2)])
        s = np.array([np.sin(p1), np.sin(p2)])
        return np.exp(rho_c @ c + rho_s @ s
                      - 0.5 * c @ Q @ c - 0.5 * s @ Q @ s)

    grid = np.linspace(-np.pi, np.pi, 721)
    mids = 0.5 * (grid[:-1] + grid[1:])
    joint = np.array([[dens(a, b) for b in mids] for a in mids])
    marg = joint.sum(axis=1)
    cdf_grid = np.concatenate([[0.0], np.cumsum(marg) / marg.sum()])

    def cdf(x):
        return np.interp(x, grid, cdf_grid)

    stat = kstest(draws, cdf).statistic
    assert stat < 0.03


def four_matvec_sweep(phi, aug, cp, rng):
    """Reference sweep: one matrix-vector product per Gaussian and per pull."""
    A = aug.factor
    eps = rng.standard_normal((2, aug.size))
    z1 = A @ np.cos(phi) + eps[0]
    z2 = A @ np.sin(phi) + eps[1]
    b_c = cp.rho_c + A.T @ z1
    b_s = cp.rho_s + A.T @ z2
    return sample_von_mises(np.arctan2(b_s, b_c), np.hypot(b_c, b_s), rng)


@pytest.mark.parametrize("m", [1, 10, 120])
def test_gibbs_sweep_matches_four_matvec_reference(m):
    gen = np.random.default_rng(m)
    B = gen.standard_normal((m, m))
    Q = B @ B.T / m + 0.5 * np.eye(m)
    cp = ConditionalParams(gen.standard_normal(m), gen.standard_normal(m))
    aug = make_augmentation(Q)
    phi = gen.uniform(-np.pi, np.pi, m)
    got_rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
    for _ in range(20):
        # both sweeps start from the reference state, so roundoff does not compound
        got = gibbs_sweep(phi, aug, cp, got_rng)
        ref = phi = four_matvec_sweep(phi, aug, cp, ref_rng)
        # circular difference: a draw next to pi may wrap to the other side
        assert np.max(np.abs(np.angle(np.exp(1j * (got - ref))))) < 1e-12
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state


def four_matvec_update(phi, aug, cp, eps, rng):
    """The reference sweep of one chain, fed its noise rows ``eps`` (2, m)."""
    A = aug.factor
    b_c = cp.rho_c + A.T @ (A @ np.cos(phi) + eps[0])
    b_s = cp.rho_s + A.T @ (A @ np.sin(phi) + eps[1])
    return sample_von_mises(np.arctan2(b_s, b_c), np.hypot(b_c, b_s), rng)


def coupled_target(m, seed):
    gen = np.random.default_rng(seed)
    B = gen.standard_normal((m, m))
    Q = B @ B.T / m + 0.5 * np.eye(m)
    cp = ConditionalParams(gen.standard_normal(m), gen.standard_normal(m))
    return cp, make_augmentation(Q), gen


def test_one_row_stack_draws_what_one_chain_draws():
    cp, aug, gen = coupled_target(7, 0)
    phi = gen.uniform(-np.pi, np.pi, 7)
    one, stack = np.random.default_rng(3), np.random.default_rng(3)
    for _ in range(5):
        got = gibbs_sweep(phi[None, :], aug, cp, stack)
        phi = gibbs_sweep(phi, aug, cp, one)
        assert got.shape == (1, 7)
        assert np.array_equal(got[0], phi)
    assert one.bit_generator.state == stack.bit_generator.state
    kept = run_sweeps(phi[None, :], aug, cp, np.random.default_rng(4), 3, 4, 2)
    assert kept.shape == (4, 1, 7)
    assert np.array_equal(kept[:, 0], run_sweeps(phi, aug, cp, np.random.default_rng(4), 3, 4, 2))


@pytest.mark.parametrize("C", [2, 5])
def test_stacked_sweep_matches_per_row_reference(C):
    # the stack draws all of its noise first, then every von Mises draw in
    # row order; the reference replays the noise row by row and, from the
    # same generator state, makes the same von Mises draws one row at a time
    m = 12
    cp, aug, gen = coupled_target(m, C)
    phi = gen.uniform(-np.pi, np.pi, (C, m))
    got_rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
    for _ in range(10):
        got = gibbs_sweep(phi, aug, cp, got_rng)
        eps = ref_rng.standard_normal((2, C, m))
        ref = np.array([four_matvec_update(phi[c], aug, cp, eps[:, c], ref_rng) for c in range(C)])
        assert got.shape == (C, m)
        assert np.max(np.abs(np.angle(np.exp(1j * (got - ref))))) < 1e-12
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state
        phi = ref


def test_stacked_chains_pool_to_the_m2_target():
    # the target of test_sweep_distribution_m2, sampled by 64 chains in one
    # stack; their draws after burn-in are pooled
    Q = np.array([[1.5, 0.8], [0.8, 1.5]])
    rho_c = np.array([1.2, -0.4])
    rho_s = np.array([0.3, 0.9])
    cp = ConditionalParams(rho_c, rho_s)
    rng = np.random.default_rng(5)
    init = rng.uniform(-np.pi, np.pi, (64, 2))
    out = run_chain(cp, make_augmentation(Q), 2000, 500, thin=5, seed=rng, init=init)
    assert out.samples.shape == (300, 64, 2) and out.ress.shape == (64, 2)
    draws = out.samples[:, :, 0].ravel()

    def dens(p1, p2):
        c = np.array([np.cos(p1), np.cos(p2)])
        s = np.array([np.sin(p1), np.sin(p2)])
        return np.exp(rho_c @ c + rho_s @ s
                      - 0.5 * c @ Q @ c - 0.5 * s @ Q @ s)

    grid = np.linspace(-np.pi, np.pi, 721)
    mids = 0.5 * (grid[:-1] + grid[1:])
    marg = np.array([[dens(a, b) for b in mids] for a in mids]).sum(axis=1)
    cdf_grid = np.concatenate([[0.0], np.cumsum(marg) / marg.sum()])
    stat = kstest(draws, lambda x: np.interp(x, grid, cdf_grid)).statistic
    assert stat < 0.03


def test_run_chain_on_a_stack_keeps_every_chain_and_its_ress():
    from vmqp.evaluation import circular_ress

    cp, aug, gen = coupled_target(4, 1)
    init = gen.uniform(-np.pi, np.pi, (3, 4))
    out = run_chain(cp, aug, 60, 20, thin=2, seed=np.random.default_rng(2), init=init)
    assert out.samples.shape == (20, 3, 4) and out.ress.shape == (3, 4)
    rng = np.random.default_rng(2)
    assert np.array_equal(out.samples, run_sweeps(init, aug, cp, rng, 21, 20, 2, overrelax=True))
    for c in range(3):
        for j in range(4):
            assert out.ress[c, j] == pytest.approx(circular_ress(out.samples[:, c, j]), rel=1e-12)
    with pytest.raises(ValueError, match="init"):
        run_chain(cp, aug, 60, 20, init=np.zeros((2, 3, 4)))
    with pytest.raises(ValueError, match="init"):
        run_chain(cp, aug, 60, 20, init=np.zeros((3, 5)))


@pytest.mark.parametrize("path", ["success", "retries", "raises"])
def test_the_factor_step_leaves_q_and_unit_whole(monkeypatch, rng, path):
    # make_augmentation's Q and at's unit belong to the caller: bit for bit
    # the same after the call, whether it succeeds, retries or raises
    B = rng.standard_normal((40, 40))
    Q = B @ B.T / 40
    Q[0, 1] = Q[1, 0] = -0.0
    before = Q.copy()
    aug = make_augmentation(Q)
    if path == "retries":
        low_estimate(monkeypatch)
    elif path == "raises":
        def failing(a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", failing)
    if path == "raises":
        with pytest.raises(NumericalError):
            make_augmentation(Q)
        with pytest.raises(NumericalError):
            aug.at(2.0 * aug.lam)
    else:
        make_augmentation(Q)
        aug.at(2.0 * aug.lam)
    with pytest.raises(NumericalError):
        aug.at(0.5 * aug.lam_max_estimate)
    assert np.array_equal(Q, before) and np.array_equal(np.signbit(Q), np.signbit(before))
    assert aug.unit is Q


def test_a_read_only_q_still_factors(rng):
    B = rng.standard_normal((20, 20))
    Q = B @ B.T / 20
    ref = make_augmentation(Q.copy())
    Q.flags.writeable = False
    aug = make_augmentation(Q)
    assert np.array_equal(aug.basis, ref.basis) and aug.lam == ref.lam
    assert np.array_equal(aug.at(3.0 * aug.lam).basis, ref.at(3.0 * ref.lam).basis)
    assert np.array_equal(augmentation_at(Q, 2.0 * aug.lam).basis, ref.at(2.0 * ref.lam).basis)
