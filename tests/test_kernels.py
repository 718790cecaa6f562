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
    assert np.all(np.linalg.eigvalsh(g.matrix) > 0)
    assert np.allclose(g.precision @ g.matrix, np.eye(2), rtol=0, atol=1e-6)


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


def patch_smallest_eigenvalue(monkeypatch, spec, X, s_min):
    """Make cholesky factor every K0 + j*I over ``X`` as if the smallest
    eigenvalue of K0 were ``s_min``; other matrices factor as they are."""
    real = np.linalg.cholesky
    K0 = kernel_matrix(spec, X, X)
    off = K0 - np.diag(K0.diagonal())
    shift = (s_min - np.linalg.eigvalsh(K0)[0]) * np.eye(len(K0))

    def patched(a):
        gram = a.shape == K0.shape and np.array_equal(a - np.diag(a.diagonal()), off)
        return real(a + shift if gram else a)

    monkeypatch.setattr(np.linalg, "cholesky", patched)


def test_gram_singular_error(monkeypatch):
    sigma2 = 2.0
    spec, X = KernelSpec("gaussian", sigma2, 1.0), np.array([[0.0], [0.1]])
    patch_smallest_eigenvalue(monkeypatch, spec, X, -1.5 * kernels_mod.JITTER_CAP * sigma2)
    with pytest.raises(NumericalError, match="numerically singular"):
        build_gram(spec, X)


def test_gram_jitter_escalates(monkeypatch):
    sigma2 = 2.0
    spec, X = KernelSpec("gaussian", sigma2, 1.0), np.array([[0.0], [1.0]])
    patch_smallest_eigenvalue(monkeypatch, spec, X, -5e-7 * sigma2)
    g = build_gram(spec, X)
    assert g.jitter == pytest.approx(1e-6 * sigma2)
    # the certified bound s_min >= 1/lam of the factored K, whose s_min is 5e-7 * sigma2
    assert 5e-7 * sigma2 / 1.01**2 <= 1.0 / g.lam <= 5e-7 * sigma2 * (1 + 1e-6)


def test_gram_near_singular_keeps_the_first_jitter():
    sigma2 = 2.0
    spec = KernelSpec("gaussian", sigma2, 1.0)
    X = np.linspace(0.0, 1.0, 300)[:, None]
    s0 = np.linalg.eigvalsh(kernel_matrix(spec, X, X))[0]
    assert -1e-12 * sigma2 < s0 < 0  # indefinite by roundoff only
    g = build_gram(spec, X)
    assert g.jitter == 1e-8 * sigma2
    assert np.linalg.eigvalsh(g.matrix)[0] > 0


def test_gram_cholesky_failure_is_numerical(monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", fail)
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


def test_gram_build_holds_two_traced_arrays_at_its_peak(rng):
    # K is freed once L exists, L^-1 once M exists, and lam*I - M is
    # factored in M's own buffer: at most two n x n arrays that tracemalloc
    # sees are alive at once (K and L, or M and the factor). LAPACK's own
    # copy inside np.linalg.cholesky is allocated outside numpy's tracked
    # memory, so it is not traced
    n = 400
    X = rng.uniform(-3.0, 3.0, size=(n, 3))
    tracemalloc.start()
    try:
        build_gram(FAMILY_SPECS["exponential"], X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * n * n * 8


def assert_certified_factor(g, slack=0.01):
    """C C' = lam*I - M to 1e-12 * lam, lam in [lambda_max, (1 + slack)^2 lambda_max]
    of M by eigvalsh, and the jitter policy's certificate holds."""
    n, M, C = g.size, g.precision, g.factor
    assert np.array_equal(M, M.T) and np.array_equal(C, np.tril(C))
    assert np.max(np.abs(C @ C.T - (g.lam * np.eye(n) - M))) <= 1e-12 * g.lam
    lam_max = np.linalg.eigvalsh(M)[-1]
    assert lam_max <= g.lam <= (1 + slack) ** 2 * lam_max
    assert g.lam == (1 + slack) * g.lam_max_estimate
    assert np.linalg.eigvalsh(g.matrix)[0] >= (1 - 1e-6) / g.lam
    assert 1.0 / g.lam > n * np.finfo(float).eps * (np.abs(g.matrix).sum(axis=1).max())


@pytest.mark.parametrize("family", list(FAMILY_SPECS))
def test_gram_factor_is_exact_and_its_lambda_certified(family, rng):
    X = rng.uniform(-3.0, 3.0, size=(120, 3))
    g = build_gram(FAMILY_SPECS[family], X)
    assert_certified_factor(g)
    assert np.max(np.abs(g.precision @ g.matrix - np.eye(120))) < 1e-6


def test_near_singular_gram_factor_is_exact():
    # the 300-point case of test_gram_near_singular_keeps_the_first_jitter
    g = build_gram(KernelSpec("gaussian", 2.0, 1.0), np.linspace(0.0, 1.0, 300)[:, None])
    assert g.jitter == 2e-8
    assert_certified_factor(g)


def low_estimate(monkeypatch):
    """Power iteration that reads lambda_max(M) / 1.5, at its own top vector."""
    top = kernels_mod._top_eigenvalue
    monkeypatch.setattr(kernels_mod, "_top_eigenvalue",
                        lambda M, v, rtol: (np.linalg.eigvalsh(M)[-1] / 1.5, top(M, v, rtol)[1]))


def test_a_low_estimate_costs_retries_not_exactness(monkeypatch, rng):
    # an estimate of lambda_max(M) that is 1.5 times too low: each failed
    # Cholesky of lam*I - M multiplies lam by 1 + slack, and the factor is exact
    slack = 0.1
    low_estimate(monkeypatch)
    calls, cholesky = [], np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(a.shape) or cholesky(a))
    g = build_gram(FAMILY_SPECS["exponential"], rng.uniform(-3.0, 3.0, size=(60, 3)), slack)
    assert_certified_factor(g, slack)
    # the K factor, four failures (1.1^4 < 1.5 < 1.1^5) and the success
    assert len(calls) == 1 + 4 + 1


def test_power_iteration_from_the_top_vector_stops_at_once(rng):
    B = rng.standard_normal((50, 50))
    M = B @ B.T
    e, U = np.linalg.eigh(M)
    est, v = kernels_mod._top_eigenvalue(M, U[:, -1], 1e-4)
    assert est == pytest.approx(e[-1], rel=1e-12)
    assert abs(v @ U[:, -1]) == pytest.approx(1.0, rel=1e-12)
    est, v = kernels_mod._top_eigenvalue(M, None, 1e-4)  # cold: from below
    assert 0.99 * e[-1] < est <= e[-1] * (1 + 1e-12)


@pytest.mark.parametrize("n", [1, 31, 32, 33, 64, 100])
def test_lower_inverse_matches_inv(n, rng):
    assert kernels_mod.INVERSE_BLOCK == 32
    B = rng.standard_normal((n, n))
    L = np.linalg.cholesky(B @ B.T + n * np.eye(n))
    ref = np.linalg.inv(L)
    got = kernels_mod.lower_inverse(L.copy())
    assert np.array_equal(got, np.tril(got))
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.abs(ref).max()


def test_a_stale_start_vector_costs_one_failed_cholesky(monkeypatch, rng):
    # power iteration from the second eigenvector of M stalls below
    # lambda_max; after the failed Cholesky it runs once from its cold
    # start, and the next Cholesky succeeds
    spec, X = KernelSpec("gaussian", 1.0, 1.3), rng.uniform(0.0, 8.0, size=(150, 3))
    e, U = np.linalg.eigh(build_gram(spec, X).precision)
    assert 1.01 * e[-2] < e[-1]
    calls, cholesky = [], np.linalg.cholesky

    def recording(a):
        try:
            result = cholesky(a)
        except np.linalg.LinAlgError:
            calls.append("fail")
            raise
        calls.append("ok")
        return result

    monkeypatch.setattr(np.linalg, "cholesky", recording)
    g = build_gram(spec, X, 0.01, U[:, -2])
    assert calls == ["ok", "fail", "ok"]
    assert_certified_factor(g)


@pytest.mark.parametrize("path", ["success", "retries", "raises"])
def test_the_factor_step_leaves_the_precision_whole(monkeypatch, rng, path):
    # certified_factor writes lam*I - M into M's own buffer and puts M back
    # bit for bit before it returns, retries or raises: the power
    # iteration reads M whole, and build_gram's precision is the M it was given
    entered, iterated, left = [], [], []
    certified, top = kernels_mod.certified_factor, kernels_mod._top_eigenvalue

    def recording_factor(M, slack, start=None):
        entered.append(M.copy())
        try:
            return certified(M, slack, start)
        finally:
            left.append(M.copy())

    if path == "retries":
        low_estimate(monkeypatch)
        top = kernels_mod._top_eigenvalue
    elif path == "raises":  # K factors, every lam*I - M fails
        cholesky, calls = np.linalg.cholesky, []

        def failing_after_one(a):
            calls.append(a.shape)
            if len(calls) > 1:
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", failing_after_one)

    def recording_top(M, v, rtol):
        iterated.append(np.array_equal(M, entered[-1]))
        return top(M, v, rtol)

    monkeypatch.setattr(kernels_mod, "certified_factor", recording_factor)
    monkeypatch.setattr(kernels_mod, "_top_eigenvalue", recording_top)
    spec, X = FAMILY_SPECS["exponential"], rng.uniform(-3.0, 3.0, size=(60, 3))
    if path == "raises":
        with pytest.raises(NumericalError):
            build_gram(spec, X, 0.1)
    else:
        start = rng.standard_normal(60)  # the retries then also run a cold start
        g = build_gram(spec, X, 0.1, start / np.linalg.norm(start))
        assert np.array_equal(g.precision, entered[0])
    assert len(entered) == len(left) == 1 and iterated and all(iterated)
    assert np.array_equal(left[0], entered[0])


def test_shifted_cholesky_puts_back_signed_zeros_and_the_diagonal():
    M = np.array([[2.0, -0.0, 0.5], [0.0, 1.0, 0.0], [0.5, -0.0, 3.0]])
    before = M.copy()
    C = kernels_mod.shifted_cholesky(M, 4.0)
    assert np.array_equal(C, np.linalg.cholesky(4.0 * np.eye(3) - before))  # the same numbers
    assert np.array_equal(M, before) and np.array_equal(np.signbit(M), np.signbit(before))
    with pytest.raises(np.linalg.LinAlgError):
        kernels_mod.shifted_cholesky(M, 2.0)  # below lambda_max(M)
    assert np.array_equal(np.signbit(M), np.signbit(before)) and np.array_equal(M, before)
