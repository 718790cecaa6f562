import numpy as np
import pytest

from vmqp.gibbs import Augmentation, make_augmentation
from vmqp.inference import ParamModel
from vmqp.kernels import KernelSpec, build_gram, GramMatrix
from vmqp.model import (
    ParamVector,
    PrecisionModel,
    build_precision,
    conditional_params,
    energy,
    full_state_params,
)


def gram_from_matrix(K):
    """GramMatrix whose precision is K^-1; it has no kernel, factor or lam."""
    M = np.linalg.inv(np.asarray(K, dtype=float))
    aug = Augmentation(np.nan, np.full_like(M, np.nan), np.nan, 0.5 * (M + M.T), 1.0, None)
    return GramMatrix(None, None, 0.0, aug)


def precision_from_matrix(M, m, n):
    """PrecisionModel whose matrix is M."""
    return PrecisionModel(np.asarray(M, dtype=float), 1.0, m, n)


def pv(kappa=0.0, nu=0.0, chi=None):
    return ParamVector(KernelSpec("gaussian", 1.0, 1.0), kappa, nu, chi)


def assert_blocks_of_dense_precision(pm, theta):
    """latent_block and the pull of conditional_params against blocks of the
    whole M, to 1e-12 relative to its largest entry."""
    M, m = pm.matrix, pm.n_latent
    tol = 1e-12 * np.abs(M).max()
    L = pm.latent_block
    assert L.shape == (m, m)
    assert np.array_equal(L, L.T)
    assert np.max(np.abs(L - M[:m, :m]), initial=0.0) <= tol
    cp = conditional_params(pm, theta, pv())
    for rho, f in ((cp.rho_c, np.cos), (cp.rho_s, np.sin)):
        ref = -M[:m, m:] @ f(theta)
        assert np.max(np.abs(rho - ref), initial=0.0) <= tol


def test_param_vector_validation():
    with pytest.raises(ValueError):
        pv(kappa=-0.5)
    with pytest.raises(ValueError):
        pv(chi=-1.0)
    for nu in (np.inf, np.nan):
        with pytest.raises(ValueError, match="mean_direction"):
            pv(nu=nu)
    # nu normalized on construction
    assert pv(nu=3 * np.pi).mean_direction == pytest.approx(np.pi)


def test_precision_identity():
    pm = build_precision(gram_from_matrix(np.eye(4)), 2, 2)
    assert np.allclose(pm.matrix, np.eye(4))
    assert np.allclose(pm.latent_block, np.eye(2), rtol=0, atol=1e-12)
    theta = np.array([0.3, -1.0])
    assert_blocks_of_dense_precision(pm, theta)
    # the cross block vanishes, so theta exerts no pull
    cp = conditional_params(pm, theta, pv())
    assert np.allclose(cp.rho_c, 0.0, rtol=0, atol=1e-12)
    assert np.allclose(cp.rho_s, 0.0, rtol=0, atol=1e-12)


def test_precision_scalar():
    pm = build_precision(gram_from_matrix([[4.0]]), 0, 1)
    assert pm.matrix[0, 0] == pytest.approx(0.25)


def test_precision_inverse_property(rng):
    A = rng.standard_normal((4, 4))
    K = A @ A.T + 4 * np.eye(4)
    pm = build_precision(gram_from_matrix(K), 2, 2)
    assert np.max(np.abs(pm.matrix @ K - np.eye(4))) < 1e-6


def test_precision_partition_mismatch():
    with pytest.raises(ValueError):
        build_precision(gram_from_matrix(np.eye(3)), 1, 1)


def test_conditional_block_diagonal():
    # vanishing cross block: rho reduces to the concentration pull
    pm = build_precision(gram_from_matrix(np.eye(4)), 2, 2)
    cp = conditional_params(pm, np.array([0.3, -1.0]), pv(kappa=1.0, nu=0.0))
    assert np.allclose(cp.rho_c, 1.0)
    assert np.allclose(cp.rho_s, 0.0)


def test_conditional_zero_kappa(rng):
    A = rng.standard_normal((4, 4))
    K = A @ A.T + 4 * np.eye(4)
    pm = build_precision(gram_from_matrix(K), 2, 2)
    theta = rng.uniform(-np.pi, np.pi, 2)
    assert_blocks_of_dense_precision(pm, theta)
    # the same block of M = K^-1, taken by a solve
    cross = np.linalg.solve(K, np.eye(4))[:2, 2:]
    cp = conditional_params(pm, theta, pv(kappa=0.0))
    assert np.allclose(cp.rho_c, -cross @ np.cos(theta), rtol=0, atol=1e-12)
    assert np.allclose(cp.rho_s, -cross @ np.sin(theta), rtol=0, atol=1e-12)


def test_conditional_hand_example():
    # M = [[2, -1], [-1, 2]] is the inverse of K = [[2,1],[1,2]]/3
    pm = precision_from_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]), 1, 1)
    cp = conditional_params(pm, np.array([0.0]), pv(kappa=0.0))
    assert cp.rho_c[0] == pytest.approx(1.0)
    assert cp.rho_s[0] == pytest.approx(0.0)
    assert pm.latent_block[0, 0] == pytest.approx(2.0)


def test_conditional_length_mismatch():
    pm = build_precision(gram_from_matrix(np.eye(4)), 2, 2)
    with pytest.raises(ValueError):
        conditional_params(pm, np.zeros(3), pv())


def test_energy_identity_precision(rng):
    pm = precision_from_matrix(np.eye(3), 1, 2)
    phi = rng.uniform(-np.pi, np.pi, 3)
    assert energy(phi, pv(kappa=0.0), pm) == pytest.approx(1.5)


def test_energy_hand_example():
    pm = precision_from_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]), 1, 1)
    assert energy(np.zeros(2), pv(kappa=0.0), pm) == pytest.approx(1.0)


def test_energy_kappa_sign_symmetry(rng):
    # (kappa, nu) and (-kappa, nu - pi) give identical densities; with the
    # nonnegative-kappa convention this reads (kappa, nu) vs (kappa, nu - pi)
    # after flipping the pull term by pi.
    pm = precision_from_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]), 1, 1)
    for _ in range(100):
        phi = rng.uniform(-np.pi, np.pi, 2)
        kappa, nu = rng.uniform(0.1, 3.0), rng.uniform(-np.pi, np.pi)
        u1 = energy(phi, pv(kappa=kappa, nu=nu), pm)
        # -kappa pull toward nu equals +kappa pull toward nu - pi
        u2 = 0.5 * (np.cos(phi) @ pm.matrix @ np.cos(phi)
                    + np.sin(phi) @ pm.matrix @ np.sin(phi))
        u2 -= -kappa * np.sum(np.cos(phi - (nu - np.pi)))
        assert u1 == pytest.approx(u2, abs=1e-12)


def test_energy_rotation_invariance_kappa_zero(rng):
    A = rng.standard_normal((5, 5))
    K = A @ A.T + 5 * np.eye(5)
    pm = build_precision(gram_from_matrix(K), 2, 3)
    phi = rng.uniform(-np.pi, np.pi, 5)
    c = rng.uniform(-np.pi, np.pi)
    assert energy(phi, pv(kappa=0.0), pm) == pytest.approx(
        energy(phi + c, pv(kappa=0.0), pm), abs=1e-10
    )


def test_conditional_matches_energy_up_to_constant(rng):
    # exponent of the conditional density differs from -U by a
    # phi-independent constant
    spec = KernelSpec("exponential", 1.0, 1.0)
    X = rng.uniform(0, 3, size=(5, 1))
    gram = build_gram(spec, X)
    pm = build_precision(gram, 2, 3)
    w = ParamVector(spec, 0.7, 0.4)
    theta = rng.uniform(-np.pi, np.pi, 3)
    cp = conditional_params(pm, theta, w)
    diffs = []
    for _ in range(100):
        phi = rng.uniform(-np.pi, np.pi, 2)
        c, s = np.cos(phi), np.sin(phi)
        expo = (cp.rho_c @ c + cp.rho_s @ s
                - 0.5 * c @ pm.latent_block @ c - 0.5 * s @ pm.latent_block @ s)
        diffs.append(expo + energy(np.concatenate([phi, theta]), w, pm))
    assert np.ptp(diffs) < 1e-8


def test_conditional_coupling_positive_definite(rng):
    spec = KernelSpec("gaussian", 1.0, 0.5)
    gram = build_gram(spec, rng.uniform(size=(6, 2)))
    pm = build_precision(gram, 3, 3)
    conditional_params(pm, rng.uniform(-np.pi, np.pi, 3), pv())
    np.linalg.cholesky(pm.latent_block)  # raises if not PD


def test_full_state_params_prior_mode():
    pm = precision_from_matrix(np.eye(3), 1, 2)
    cp = full_state_params(pm, pv(kappa=2.0, nu=np.pi / 2))
    assert np.allclose(cp.rho_c, 0.0, atol=1e-12)
    assert np.allclose(cp.rho_s, 2.0)


def test_full_state_params_noisy_tail():
    pm = precision_from_matrix(np.eye(3), 1, 2)
    theta = np.array([0.0, np.pi / 2])
    # the factor of lam*I - I at the slack rule, lam = 1.01: C = 0.1 * I
    unit_aug = Augmentation(1.01, 0.1 * np.eye(3), 1.0, pm.unit_matrix, 1.0,
                            np.ones(3) / np.sqrt(3.0))
    gram = GramMatrix(None, np.zeros((3, 1)), 0.0, unit_aug)
    model = ParamModel(pv(kappa=0.0, chi=3.0), gram, 0.01, pm,
                       make_augmentation(pm.latent_block))
    cp, aug = model.latent(theta)
    assert aug is model.full_aug and aug.basis is unit_aug.basis
    assert np.allclose(cp.rho_c, [0.0, 3.0, 0.0], atol=1e-12)
    assert np.allclose(cp.rho_s, [0.0, 0.0, 3.0], atol=1e-12)


@pytest.mark.parametrize("d", [5, 400])
def test_spectral_energy_matches_dense_form(d, rng):
    spec = KernelSpec("exponential", 1.3, 1.0)
    pm = build_precision(build_gram(spec, np.linspace(0.0, 0.5 * d, d)[:, None]), 2, d - 2)
    w = pv(kappa=0.7, nu=0.4)
    for _ in range(5):
        phi = rng.uniform(-np.pi, np.pi, d)
        c, s = np.cos(phi), np.sin(phi)
        dense = 0.5 * (c @ pm.matrix @ c + s @ pm.matrix @ s)
        dense -= w.concentration * np.sum(np.cos(phi - w.mean_direction))
        assert energy(phi, w, pm) == pytest.approx(dense, rel=1e-12)


def test_precision_forms_only_what_is_read(rng):
    spec = KernelSpec("gaussian", 1.0, 0.5)
    X = rng.uniform(size=(7, 2))
    pm = build_precision(build_gram(spec, X), 3, 4)
    energy(rng.uniform(-np.pi, np.pi, 7), pv(kappa=0.5), pm)
    cp = full_state_params(pm, pv(kappa=0.5))
    assert cp.size == 7
    theta = rng.uniform(-np.pi, np.pi, 4)
    conditional_params(pm, theta, pv())
    pm.latent_block
    # nothing is cached: every read is a product with the unit precision
    assert set(vars(pm)) == {"unit_matrix", "variance", "n_latent", "n_observed"}
    assert_blocks_of_dense_precision(pm, theta)


def test_precision_at_another_variance_divides_the_unit_matrix(rng):
    # M = unit_matrix / variance in every product, with no copy of the unit matrix
    spec = KernelSpec("gaussian", 1.0, 0.5)
    unit = build_precision(build_gram(spec, rng.uniform(size=(7, 2))), 3, 4)
    pm = PrecisionModel(unit.unit_matrix, 2.5, 3, 4)
    assert np.array_equal(pm.matrix, unit.unit_matrix / 2.5)
    assert np.array_equal(pm.latent_block, unit.latent_block / 2.5)
    theta = rng.uniform(-np.pi, np.pi, 4)
    assert_blocks_of_dense_precision(pm, theta)
    phi = rng.uniform(-np.pi, np.pi, 7)
    assert energy(phi, pv(), pm) == pytest.approx(energy(phi, pv(), unit) / 2.5, rel=1e-13)
