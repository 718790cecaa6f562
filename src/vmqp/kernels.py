"""Covariance kernels, Gram-matrix construction and its factorization.

Distances are taken in raw coordinate units (degrees of longitude/latitude,
degrees of joint angle, percent of gradient); no geodesic correction.

``build_gram`` factors K by Cholesky, not by eigenpairs: K = L L', the
precision M = L^-T L^-1, and the lower Cholesky factor of lam*I - M for
the augmented Gibbs sampler, at lam just above a power-iteration estimate
of lambda_max(M). That second Cholesky succeeds only if lam is above
lambda_max(M), so the factor is exact whatever the estimate, and it
certifies the smallest eigenvalue of K for the jitter policy. The loop
that sets lam and runs that Cholesky, ``certified_factor``, builds every
augmentation factor of the package and returns it as one ``Augmentation``
record: a ``GramMatrix`` holds the one it certified for M, and
``gibbs.make_augmentation`` runs the loop on a latent block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalError

# The kernel table: each family's terms, (coordinate slice, KernelSpec
# lengthscale field, power q). k(x, y) = variance * exp(-sum of r**q /
# (q * l**q)) over the terms, r the Euclidean distance over the term's
# coordinates; each term takes at least one coordinate. The anisotropic
# family treats the last coordinate as a surface gradient with its own
# lengthscale and the others as joint angles.
FAMILY_TERMS = {
    "gaussian": ((slice(None), "lengthscale", 2),),
    "exponential": ((slice(None), "lengthscale", 1),),
    "anisotropic_gaussian": (
        (slice(None, -1), "lengthscale", 2),
        (slice(-1, None), "gradient_lengthscale", 2),
    ),
}

# Jitter policy: the first rung of 1e-8*variance * 10**k, capped at
# 1e-2*variance, whose K = K0 + jitter*I is certified to have its smallest
# eigenvalue above n * machine epsilon times its largest. The smallest is
# at least 1/lam for the lam at which lam*I - K^-1 has a Cholesky factor,
# and the largest at most the largest row sum of K, whose entries are
# positive.
JITTER_START = 1e-8
JITTER_FACTOR = 10.0
JITTER_CAP = 1e-2

# The default slack of the rule lam = (1 + slack) * lambda_max; ``gibbs``
# re-exports it for the sampler.
DEFAULT_SLACK = 0.01
# ``lower_inverse`` inverts blocks of at most this size with np.linalg.inv.
INVERSE_BLOCK = 32
# The power iteration for lambda_max(K^-1) stops when its estimate rises by
# less than a hundredth of the slack in one step, or after this many steps.
POWER_STEPS = 200


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus its positive parameters.

    The family's lengthscale fields are those of its terms in
    ``FAMILY_TERMS``; a field the family lacks must be None.
    """

    family: str
    variance: float
    lengthscale: float
    gradient_lengthscale: float | None = None

    def __post_init__(self):
        if self.family not in FAMILY_TERMS:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if not (np.isfinite(self.variance) and self.variance > 0):
            raise ValueError("variance must be positive and finite")
        for name in ("lengthscale", "gradient_lengthscale"):
            value = getattr(self, name)
            if name not in self.lengthscales:
                if value is not None:
                    raise ValueError(f"{self.family} takes no {name}")
            elif value is None or not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite")

    @property
    def lengthscales(self) -> tuple:
        """The family's lengthscale fields, in table order."""
        return tuple(name for _, name, _ in FAMILY_TERMS[self.family])


@dataclass(frozen=True)
class Augmentation:
    """Factor A = C' / sqrt(variance) of lam*I - Q, Q = unit / variance.

    C is the lower Cholesky factor of lam*variance*I - unit, kept as
    ``basis``; the scale 1/sqrt(variance) is derived, never stored. The
    sweep sees A only through A'z ~ N(A'A cos(phi), A'A), so every A with
    A'A = lam*I - Q gives the same Markov kernel. A sweep applies A as
    one product with the basis and one scaling, so A is never stored.
    ``lam_max_estimate`` estimates the top eigenvalue of Q, from below
    when Q is positive semidefinite; that C exists certifies lam above
    the top eigenvalue. ``top`` is the unit vector of the power iteration
    that gave the estimate. ``certified_factor`` returns the record at
    variance 1, and a factor of unit / sigma2 is that record with
    ``variance`` sigma2 and lam divided by it, sharing the basis. A chain
    takes its factor from the caller and never refactors Q itself.
    """

    lam: float
    basis: np.ndarray
    lam_max_estimate: float
    unit: np.ndarray
    variance: float
    top: np.ndarray

    @property
    def size(self) -> int:
        return self.basis.shape[0]

    @property
    def scale(self) -> float:
        """1/sqrt(variance), the scale g of A = g C'."""
        return 1.0 / math.sqrt(self.variance)

    @property
    def factor(self) -> np.ndarray:
        """The matrix A = scale * basis', formed anew on every read."""
        return (self.basis * self.scale).T

    def at(self, lam: float) -> "Augmentation":
        """The factor of lam*I - Q: one Cholesky of lam*variance*I - unit.

        ``shifted_cholesky``, the step of ``certified_factor``, runs it on
        a copy of ``unit``, which keeps its bits. Raises
        ``NumericalError`` when that Cholesky fails, as it does when lam
        is below the top eigenvalue of Q.
        """
        if not np.isfinite(lam):
            raise ValueError("lambda must be finite")
        try:
            C = shifted_cholesky(self.unit.copy(), lam * self.variance)
        except np.linalg.LinAlgError:
            raise NumericalError(f"lambda {lam} is not above the top eigenvalue") from None
        return replace(self, lam=float(lam), basis=C)


@dataclass(frozen=True)
class GramMatrix:
    """Kernel matrix K with its jitter and the certified factor of its precision.

    K = K0 + ``jitter``*I for the kernel ``spec`` over ``locations``; it is
    not kept, so ``matrix`` forms it anew on each read. ``aug`` is the
    ``Augmentation`` that ``certified_factor`` returned for the precision
    M = K^-1 = L^-T L^-1 of the Cholesky factor K = L L', exactly
    symmetric: M is its ``unit`` and the lower Cholesky factor C of
    lam*I - M its ``basis``, at variance 1.
    """

    spec: KernelSpec
    locations: np.ndarray
    jitter: float
    aug: Augmentation

    @property
    def size(self) -> int:
        return self.aug.size

    @property
    def matrix(self) -> np.ndarray:
        """K, formed anew on each read, with the bits of the K that was factored; only tests and the benchmark tracer read it."""
        return _jittered(self.spec, self.locations, self.jitter)


def _sq_dists(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, summed over coordinates in order.

    Every step runs in place in the returned array; from the second
    coordinate on, one more array of its shape holds the difference.
    """
    d2 = np.subtract.outer(X[:, 0], Y[:, 0])
    np.square(d2, out=d2)
    if X.shape[1] > 1:
        diff = np.empty_like(d2)
        for k in range(1, X.shape[1]):
            np.subtract.outer(X[:, k], Y[:, k], out=diff)
            d2 += np.square(diff, out=diff)
    return d2


def _distance_power(X: np.ndarray, Y: np.ndarray, q: int) -> np.ndarray:
    """r**q for the Euclidean distances r, q in (1, 2), in ``_sq_dists``'s array."""
    r = _sq_dists(X, Y)
    if q == 1:
        np.sqrt(r, out=r)
    return r


def kernel_matrix(spec: KernelSpec, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Cross-covariance matrix k(x_i, y_j) without jitter.

    Built in place in the array ``_sq_dists`` returns for the first term,
    so at most one more array of its shape is alive at a time. Division by
    a negated constant rounds exactly as negation followed by division, and
    adding a negated term as subtracting it.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[1] != Y.shape[1]:
        raise ValueError("dimension mismatch between location sets")
    if X.shape[1] == 0:
        raise ValueError("locations need at least one coordinate")
    terms = FAMILY_TERMS[spec.family]
    if X.shape[1] < len(terms):
        raise ValueError(f"{spec.family} needs >= {len(terms)} coordinates")
    (coords, name, q), *rest = terms
    K = _distance_power(X[:, coords], Y[:, coords], q)
    K /= -(q * getattr(spec, name) ** q)
    for coords, name, q in rest:
        t = _distance_power(X[:, coords], Y[:, coords], q)
        t /= -(q * getattr(spec, name) ** q)
        K += t
    np.exp(K, out=K)
    K *= spec.variance
    return K


def kernel_derivatives(spec: KernelSpec, X: np.ndarray) -> dict:
    """dK/dp over the locations ``X`` for each kernel parameter, jitter excluded.

    Keys are sigma2, then ``spec.lengthscales`` in table order; the
    gradient of ``inference.energy_gradient`` follows them. A term with
    lengthscale l and power q gives dK/dl = K * r**q / l**(q + 1), formed
    in the array of r**q.
    """
    K = kernel_matrix(spec, X, X)
    out = {}
    for coords, name, q in FAMILY_TERMS[spec.family]:
        dK = _distance_power(X[:, coords], X[:, coords], q)
        dK *= K
        dK /= getattr(spec, name) ** (q + 1)
        out[name] = dK
    K /= spec.variance
    return {"sigma2": K, **out}


def lower_inverse(L: np.ndarray) -> np.ndarray:
    """Inverse of the lower-triangular L, formed in place in L, which it returns.

    Blocked recursion: with L = [[A, 0], [B, D]], L^-1 = [[A^-1, 0],
    [-D^-1 B A^-1, D^-1]], so past the base blocks every step is a matrix
    product; numpy has no triangular solve.
    """
    n = L.shape[0]
    if n <= INVERSE_BLOCK:
        L[...] = np.tril(np.linalg.inv(L))
        return L
    h = n // 2
    A, D = lower_inverse(L[:h, :h]), lower_inverse(L[h:, h:])
    L[h:, :h] = D @ (L[h:, :h] @ A)
    np.negative(L[h:, :h], out=L[h:, :h])
    return L


def _top_eigenvalue(M: np.ndarray, v, rtol: float) -> tuple:
    """Power iteration on the symmetric M from the unit vector v.

    Returns |M v| at the last unit vector v and the next unit vector
    M v / |M v|. For a positive semidefinite M the estimate rises with
    every step and stays below lambda_max(M). Without v it starts at a
    fixed Gaussian vector, which meets every eigenvector of M. A v with
    M v = 0 returns (0, v).
    """
    if v is None:
        v = np.random.default_rng(0).standard_normal(M.shape[0])
        v /= np.linalg.norm(v)
    x = M @ v
    est = np.linalg.norm(x)
    if not est > 0:  # for a symmetric M no later iterate is zero
        return 0.0, v
    for _ in range(POWER_STEPS):
        v = x / est
        x = M @ v
        previous, est = est, np.linalg.norm(x)
        if est <= (1.0 + rtol) * previous:
            break
    return float(est), x / est


def _jittered(spec: KernelSpec, X: np.ndarray, jitter: float) -> np.ndarray:
    """K0 + jitter*I over the locations X, exactly symmetric for every family."""
    K = kernel_matrix(spec, X, X)
    K.flat[:: len(K) + 1] += jitter
    return K


def shifted_cholesky(M: np.ndarray, shift: float) -> np.ndarray:
    """Lower Cholesky factor of shift*I - M, formed in M's own buffer.

    M is negated in place and ``shift`` added to its diagonal, the
    Cholesky runs there, and M is put back before the function returns
    or raises: negated again, which is exact, and its diagonal rewritten
    from a copy. So M keeps its bits, and the only d x d arrays besides
    M are the factor and LAPACK's own copy of its input. Raises
    ``np.linalg.LinAlgError`` when the Cholesky fails, as it does when
    ``shift`` is not above lambda_max(M).
    """
    diagonal = M.diagonal().copy()
    np.negative(M, out=M)
    M.flat[:: len(M) + 1] += shift
    try:
        return np.linalg.cholesky(M)
    finally:
        np.negative(M, out=M)
        M.flat[:: len(M) + 1] = diagonal


def certified_factor(M: np.ndarray, slack: float, start=None) -> Augmentation:
    """The ``Augmentation`` of M at variance 1: the factor of lam*I - M at the slack rule.

    lam = (1 + slack) * est, with est the power-iteration estimate of
    lambda_max(M) from the unit vector ``start`` (a fixed cold start
    without one). ``shifted_cholesky`` factors lam*I - M in M's own
    buffer, so M must be writeable; it has its bits again whenever this
    function reads it, returns or raises. A Cholesky that fails
    multiplies lam by (1 + slack) and retries, taking the failed lam as
    the estimate; after the first failure from a ``start`` vector, the
    power iteration also runs once from the cold start, and a larger
    estimate replaces it. The Cholesky that succeeds certifies lam >
    lambda_max(M), so C is exact whatever the estimate. Returns the
    record with lam, ``basis`` C, the estimate est, ``unit`` M itself,
    ``variance`` 1 and ``top``, the unit vector the iteration reached.

    Raises ``np.linalg.LinAlgError`` when M shows no positive eigenvalue,
    a Rayleigh quotient at ``top`` that is not positive (exact for a
    positive or a negative semidefinite M; it also rules out a zero
    estimate). So lam starts positive and every retry raises it; past
    (1 + slack) times the largest absolute row sum of M, a bound on
    lambda_max(M), the Cholesky has failed for a reason lam cannot mend,
    and it raises too.
    """
    est, top = _top_eigenvalue(M, start, slack / 100.0)
    if not top @ (M @ top) > 0:
        raise np.linalg.LinAlgError("no positive eigenvalue")
    bound = None
    while True:
        lam = (1.0 + slack) * est
        try:
            return Augmentation(lam, shifted_cholesky(M, lam), est, M, 1.0, top)
        except np.linalg.LinAlgError:
            bound = np.abs(M).sum(axis=1).max() if bound is None else bound
            if not lam <= (1.0 + slack) * bound:
                raise np.linalg.LinAlgError(f"no Cholesky factor of lam*I - M up to lam = {lam}") from None
            est = lam
            if start is not None:  # it may sit near a vector that is no longer the top one
                start = None
                cold, cold_top = _top_eigenvalue(M, None, slack / 100.0)
                if cold > est:
                    est, top = cold, cold_top


def _certified_gram(spec: KernelSpec, X: np.ndarray, jitter: float, slack: float, start) -> GramMatrix:
    """The ``GramMatrix`` at one jitter rung; ``np.linalg.LinAlgError`` if the rung fails.

    K is freed once its Cholesky factor L exists, and L^-1, which
    ``lower_inverse`` forms in L's buffer, once M = L^-T L^-1 is formed
    (``Li.T @ Li`` is one symmetric rank-k product); ``certified_factor``
    then factors lam*I - M in M's own buffer, and the Gram matrix keeps
    the record it returns. So at most three n x n
    arrays are alive at a time, LAPACK's copy inside a Cholesky among
    them. The rung fails when K has no Cholesky factor, when
    ``certified_factor`` fails, or when 1/lam, a lower bound on the
    smallest eigenvalue of K, is not above n * eps times the largest row
    sum of K.
    """
    K = _jittered(spec, X, jitter)
    floor = len(K) * np.finfo(float).eps * K.sum(axis=1).max()  # K's entries are positive
    L = np.linalg.cholesky(K)
    del K
    Li = lower_inverse(L)  # in L's buffer
    M = Li.T @ Li
    del L, Li
    aug = certified_factor(M, slack, start)
    if not 1.0 / aug.lam > floor:
        raise np.linalg.LinAlgError("kernel matrix ill-conditioned at this jitter")
    return GramMatrix(spec, X, jitter, aug)


def build_gram(spec: KernelSpec, locations, slack: float = DEFAULT_SLACK, start=None) -> GramMatrix:
    """Kernel matrix over ``locations`` with the jitter of the policy above.

    Each rung runs a Cholesky of K, ``lower_inverse`` and another Cholesky
    (see ``GramMatrix``) at the slack rule lam = (1 + slack) * estimate; a
    rung whose K fails a Cholesky, or whose certificate is too weak, moves
    to the next, with K formed anew. ``start`` is a unit vector where the
    power iteration starts, such as the ``aug.top`` of a nearby kernel's
    Gram matrix.
    """
    X = np.asarray(locations, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.shape[0] < 1:
        raise ValueError("need at least one location")
    if not np.all(np.isfinite(X)):
        raise ValueError("locations must be finite")
    if not (np.isfinite(slack) and slack > 0):
        raise ValueError("slack must be positive")
    jitter = JITTER_START * spec.variance
    cap = JITTER_CAP * spec.variance
    while True:
        try:
            return _certified_gram(spec, X, jitter, slack, start)
        except np.linalg.LinAlgError:
            if jitter >= cap:
                raise NumericalError("kernel matrix numerically singular") from None
            jitter = min(jitter * JITTER_FACTOR, cap)
