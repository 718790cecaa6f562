import tracemalloc

import numpy as np
import pytest

from vmqp.errors import NumericalError
from vmqp.kernels import KernelSpec, build_gram, kernel_derivatives, kernel_matrix
from vmqp import kernels as kernels_mod


def test_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("matern", 1.0, 1.0)
    with pytest.raises(ValueError):
        KernelSpec("gaussian", -1.0, 1.0)
    with pytest.raises(ValueError):
        KernelSpec("gaussian", 1.0, 0.0)
    with pytest.raises(ValueError):
        KernelSpec("anisotropic_gaussian", 1.0, 1.0)  # missing g
    for family in ("gaussian", "exponential"):  # the family has no gradient term
        with pytest.raises(ValueError, match=f"{family} takes no gradient_lengthscale"):
            KernelSpec(family, 1.0, 1.0, 0.7)


def test_eval_zero_distance_is_variance():
    x = [1.0, 2.0]
    for spec in (
        KernelSpec("gaussian", 3.0, 1.5),
        KernelSpec("exponential", 3.0, 1.5),
    ):
        assert kernel_matrix(spec, x, x)[0, 0] == pytest.approx(3.0)
    aspec = KernelSpec("anisotropic_gaussian", 3.0, 1.5, 2.0)
    x = [1.0, 2.0, 0.5]
    assert kernel_matrix(aspec, x, x)[0, 0] == pytest.approx(3.0)


def test_eval_gaussian_formula():
    spec = KernelSpec("gaussian", 1.0, 1.0)
    assert kernel_matrix(spec, [[0.0]], [[1.0]])[0, 0] == pytest.approx(np.exp(-0.5))


def test_eval_exponential_formula():
    spec = KernelSpec("exponential", 2.0, 2.0)
    assert kernel_matrix(spec, [[0.0]], [[2.0]])[0, 0] == pytest.approx(2.0 * np.exp(-1.0))


def test_eval_dimension_mismatch():
    spec = KernelSpec("gaussian", 1.0, 1.0)
    with pytest.raises(ValueError, match="dimension mismatch"):
        kernel_matrix(spec, [[0.0]], [[0.0, 1.0]])
    with pytest.raises(ValueError, match="at least one coordinate"):
        kernel_matrix(spec, np.empty((3, 0)), np.empty((2, 0)))


def test_gram_single_location():
    spec = KernelSpec("gaussian", 2.0, 1.0)
    g = build_gram(spec, [[0.0]])
    assert g.matrix.shape == (1, 1)
    assert g.matrix[0, 0] == pytest.approx(2.0 + g.jitter)
    assert g.jitter == pytest.approx(1e-8 * 2.0)


def test_gram_coincident_locations():
    spec = KernelSpec("gaussian", 1.0, 1.0)
    g = build_gram(spec, [[0.0, 0.0], [0.0, 0.0]])
    off = g.matrix[0, 1]
    assert off == pytest.approx(1.0)
    assert g.matrix[0, 0] == pytest.approx(1.0 + g.jitter)
    s, V = g.eigenvalues, g.eigenvectors
    assert np.all(s > 0)
    assert np.allclose((V * s) @ V.T, g.matrix, atol=1e-12)


def test_gram_collinear_entry():
    spec = KernelSpec("gaussian", 1.0, 1.0)
    g = build_gram(spec, [[0.0], [1.0], [2.0]])
    assert g.matrix[0, 2] == pytest.approx(np.exp(-2.0), abs=1e-12)


def test_gram_symmetry(rng):
    spec = KernelSpec("exponential", 1.3, 0.7)
    g = build_gram(spec, rng.uniform(size=(12, 3)))
    assert np.max(np.abs(g.matrix - g.matrix.T)) < 1e-12


@pytest.mark.parametrize("family", ["gaussian", "exponential", "anisotropic_gaussian"])
def test_kernel_matrix_is_exactly_symmetric(family, rng):
    # build_gram adds the jitter to this matrix as it is, unsymmetrized
    spec = KernelSpec(family, 1.3, 0.7, 0.4 if family == "anisotropic_gaussian" else None)
    X = rng.uniform(-3.0, 3.0, size=(60, 3))
    K0 = kernel_matrix(spec, X, X)
    assert np.array_equal(K0, K0.T)
    g = build_gram(spec, X)
    assert np.array_equal(g.matrix, K0 + g.jitter * np.eye(60))


def test_gram_scale_invariance(rng):
    X = rng.uniform(size=(8, 2))
    factor = 3.7
    g1 = build_gram(KernelSpec("gaussian", 1.0, 0.5), X)
    g2 = build_gram(KernelSpec("gaussian", 1.0, 0.5 * factor), X * factor)
    assert np.allclose(g1.matrix, g2.matrix, atol=1e-12)


def test_anisotropic_reduces_to_gaussian(rng):
    X = rng.uniform(size=(6, 4))
    X[:, -1] = 2.5  # common surface gradient
    aniso = build_gram(KernelSpec("anisotropic_gaussian", 1.2, 0.8, 3.0), X)
    iso = build_gram(KernelSpec("gaussian", 1.2, 0.8), X[:, :-1])
    assert np.max(np.abs(aniso.matrix - iso.matrix)) < 1e-12


def patch_smallest_eigenvalue(monkeypatch, s_min):
    """Make eigh report ``s_min`` as the smallest eigenvalue of every matrix."""
    real = np.linalg.eigh

    def patched(mat):
        s, V = real(mat)
        s[0] = s_min
        return s, V

    monkeypatch.setattr(np.linalg, "eigh", patched)


def test_gram_singular_error(monkeypatch):
    sigma2 = 2.0
    patch_smallest_eigenvalue(monkeypatch, -1.5 * kernels_mod.JITTER_CAP * sigma2)
    with pytest.raises(NumericalError, match="numerically singular"):
        build_gram(KernelSpec("gaussian", sigma2, 1.0), [[0.0], [0.1]])


def test_gram_jitter_escalates(monkeypatch):
    sigma2 = 2.0
    patch_smallest_eigenvalue(monkeypatch, -5e-7 * sigma2)
    g = build_gram(KernelSpec("gaussian", sigma2, 1.0), [[0.0], [1.0]])
    assert g.jitter == pytest.approx(1e-6 * sigma2)
    assert g.eigenvalues[0] == pytest.approx(5e-7 * sigma2)


def test_gram_near_singular_keeps_the_first_jitter():
    sigma2 = 2.0
    spec = KernelSpec("gaussian", sigma2, 1.0)
    X = np.linspace(0.0, 1.0, 300)[:, None]
    s0 = np.linalg.eigvalsh(kernel_matrix(spec, X, X))[0]
    assert -1e-12 * sigma2 < s0 < 0  # indefinite by roundoff only
    g = build_gram(spec, X)
    assert g.jitter == 1e-8 * sigma2
    assert g.eigenvalues[0] > 0


def test_gram_eigh_failure_is_numerical(monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NumericalError, match="numerically singular"):
        build_gram(KernelSpec("gaussian", 1.0, 1.0), [[0.0], [0.1]])


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_sq_dists_matches_einsum(rng, p):
    X, Y = rng.normal(size=(7, p)), rng.normal(size=(5, p))
    diff = X[:, None, :] - Y[None, :, :]
    ref = np.einsum("ijk,ijk->ij", diff, diff)
    got = kernels_mod._sq_dists(X, Y)
    if p <= 2:
        assert np.array_equal(got, ref)
    else:
        assert np.allclose(got, ref, rtol=1e-12, atol=0.0)


FAMILY_SPECS = {
    "gaussian": KernelSpec("gaussian", 1.3, 0.7),
    "exponential": KernelSpec("exponential", 1.3, 0.7),
    "anisotropic_gaussian": KernelSpec("anisotropic_gaussian", 1.3, 0.7, 0.4),
}


def reference_sq_dists(X, Y):
    d2 = np.zeros((X.shape[0], Y.shape[0]))
    for k in range(X.shape[1]):
        d2 += np.subtract.outer(X[:, k], Y[:, k]) ** 2
    return d2


def reference_kernel_matrix(spec, X, Y):
    """Each family's kernel as one expression over fresh arrays."""
    if spec.family == "gaussian":
        d2 = reference_sq_dists(X, Y)
        return spec.variance * np.exp(-d2 / (2.0 * spec.lengthscale**2))
    if spec.family == "exponential":
        d = np.sqrt(reference_sq_dists(X, Y))
        return spec.variance * np.exp(-d / spec.lengthscale)
    da2 = reference_sq_dists(X[:, :-1], Y[:, :-1])
    ds2 = reference_sq_dists(X[:, -1:], Y[:, -1:])
    return spec.variance * np.exp(
        -da2 / (2.0 * spec.lengthscale**2) - ds2 / (2.0 * spec.gradient_lengthscale**2)
    )


def reference_kernel_derivatives(spec, X):
    K = reference_kernel_matrix(spec, X, X)
    out = {"sigma2": K / spec.variance}
    if spec.family == "gaussian":
        out["lengthscale"] = K * reference_sq_dists(X, X) / spec.lengthscale**3
    elif spec.family == "exponential":
        d = np.sqrt(reference_sq_dists(X, X))
        out["lengthscale"] = K * d / spec.lengthscale**2
    else:
        da2 = reference_sq_dists(X[:, :-1], X[:, :-1])
        ds2 = reference_sq_dists(X[:, -1:], X[:, -1:])
        out["lengthscale"] = K * da2 / spec.lengthscale**3
        out["gradient_lengthscale"] = K * ds2 / spec.gradient_lengthscale**3
    return out


@pytest.mark.parametrize("cross", [False, True])
@pytest.mark.parametrize("family", list(FAMILY_SPECS))
def test_kernel_matrix_keeps_the_expression_bits(family, cross, rng):
    # the in-place build must round exactly as the one-expression form
    spec = FAMILY_SPECS[family]
    X = rng.uniform(-3.0, 3.0, size=(50, 3))
    Y = rng.uniform(-3.0, 3.0, size=(37, 3)) if cross else X
    assert np.array_equal(kernel_matrix(spec, X, Y), reference_kernel_matrix(spec, X, Y))


@pytest.mark.parametrize("family", list(FAMILY_SPECS))
def test_kernel_derivatives_keep_the_expression_bits(family, rng):
    spec = FAMILY_SPECS[family]
    X = rng.uniform(-3.0, 3.0, size=(50, 3))
    got = kernel_derivatives(spec, X)
    ref = reference_kernel_derivatives(spec, X)
    assert list(got) == list(ref)
    for name in ref:
        assert np.array_equal(got[name], ref[name]), name
    arrays = list(got.values())
    assert not any(
        np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[i + 1 :]
    )


@pytest.mark.parametrize("family", list(FAMILY_SPECS))
def test_kernel_matrix_allocates_little_beyond_its_result(family, rng):
    # kernel_matrix: one n x n result plus at most one n x n scratch array
    # at a time; kernel_derivatives: K, one derivative per lengthscale and
    # at most one scratch array, never more than three n x n arrays at once
    n = 400
    X = rng.uniform(-3.0, 3.0, size=(n, 3))
    spec = FAMILY_SPECS[family]
    for build, args, bound in ((kernel_matrix, (X, X), 2.25), (kernel_derivatives, (X,), 3.25)):
        tracemalloc.start()
        try:
            build(spec, *args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * n * n * 8, build.__name__
