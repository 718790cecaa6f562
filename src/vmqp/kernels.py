"""Covariance kernels and Gram-matrix construction.

Distances are taken in raw coordinate units (degrees of longitude/latitude,
degrees of joint angle, percent of gradient); no geodesic correction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

FAMILIES = ("gaussian", "exponential", "anisotropic_gaussian")

# Jitter policy: the first rung of 1e-8*variance * 10**k, capped at
# 1e-2*variance, that lifts the smallest eigenvalue of the raw kernel matrix
# above n * machine epsilon times its largest.
JITTER_START = 1e-8
JITTER_FACTOR = 10.0
JITTER_CAP = 1e-2


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus its positive parameters.

    The anisotropic family treats the last coordinate of each input
    location as a surface gradient with its own lengthscale and the
    remaining coordinates as joint angles sharing ``lengthscale``.
    """

    family: str
    variance: float
    lengthscale: float
    gradient_lengthscale: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if not (np.isfinite(self.variance) and self.variance > 0):
            raise ValueError("variance must be positive and finite")
        if not (np.isfinite(self.lengthscale) and self.lengthscale > 0):
            raise ValueError("lengthscale must be positive and finite")
        if self.family == "anisotropic_gaussian":
            g = self.gradient_lengthscale
            if g is None or not (np.isfinite(g) and g > 0):
                raise ValueError(
                    "anisotropic_gaussian requires a positive gradient_lengthscale"
                )


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric positive-definite kernel matrix with its jitter on record.

    ``matrix`` includes ``jitter`` on the diagonal and equals V diag(s) V'
    for V = ``eigenvectors`` and s = ``eigenvalues``, in ascending order.
    """

    matrix: np.ndarray
    jitter: float
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


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


def kernel_matrix(spec: KernelSpec, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Cross-covariance matrix k(x_i, y_j) without jitter.

    Built in place in the array ``_sq_dists`` returns, so at most one more
    array of its shape is alive at a time. Division by a negated constant
    rounds exactly as negation followed by division.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[1] != Y.shape[1]:
        raise ValueError("dimension mismatch between location sets")
    if X.shape[1] == 0:
        raise ValueError("locations need at least one coordinate")
    if spec.family == "gaussian":
        K = _sq_dists(X, Y)
        K /= -(2.0 * spec.lengthscale**2)
    elif spec.family == "exponential":
        K = _sq_dists(X, Y)
        np.sqrt(K, out=K)
        K /= -spec.lengthscale
    else:
        # anisotropic_gaussian: squared-exponential on joint angles plus a
        # separate squared-exponential factor on the surface gradient.
        if X.shape[1] < 2:
            raise ValueError("anisotropic_gaussian needs >= 2 coordinates")
        K = _sq_dists(X[:, :-1], Y[:, :-1])
        K /= -(2.0 * spec.lengthscale**2)
        ds2 = _sq_dists(X[:, -1:], Y[:, -1:])
        ds2 /= 2.0 * spec.gradient_lengthscale**2
        K -= ds2
    np.exp(K, out=K)
    K *= spec.variance
    return K


def kernel_derivatives(spec: KernelSpec, X: np.ndarray) -> dict:
    """dK/dp over the locations ``X`` for each kernel parameter, jitter excluded.

    Keys are the parameter names of ``inference.gradient_names``: sigma2,
    lengthscale and, for the anisotropic family, gradient_lengthscale.
    Each derivative is K times a distance array, formed in that array.
    """
    K = kernel_matrix(spec, X, X)
    if spec.family == "anisotropic_gaussian":
        terms = [
            ("lengthscale", X[:, :-1], spec.lengthscale**3),
            ("gradient_lengthscale", X[:, -1:], spec.gradient_lengthscale**3),
        ]
    elif spec.family == "gaussian":
        terms = [("lengthscale", X, spec.lengthscale**3)]
    else:
        terms = [("lengthscale", X, spec.lengthscale**2)]
    out = {}
    for name, coords, denominator in terms:
        dK = _sq_dists(coords, coords)
        if spec.family == "exponential":
            np.sqrt(dK, out=dK)
        dK *= K
        dK /= denominator
        out[name] = dK
    K /= spec.variance
    return {"sigma2": K, **out}


def build_gram(spec: KernelSpec, locations) -> GramMatrix:
    """Kernel matrix over ``locations``; one ``eigh`` sets its jitter (see above)."""
    X = np.asarray(locations, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.shape[0] < 1:
        raise ValueError("need at least one location")
    if not np.all(np.isfinite(X)):
        raise ValueError("locations must be finite")
    K0 = kernel_matrix(spec, X, X)  # exactly symmetric for every family
    n = X.shape[0]
    try:
        s0, V = np.linalg.eigh(K0)  # ascending
    except np.linalg.LinAlgError:
        raise NumericalError("kernel matrix numerically singular") from None
    floor = n * np.finfo(float).eps * s0[-1]
    jitter = JITTER_START * spec.variance
    cap = JITTER_CAP * spec.variance
    while not s0[0] + jitter > floor:
        if jitter >= cap:
            raise NumericalError("kernel matrix numerically singular")
        jitter = min(jitter * JITTER_FACTOR, cap)
    K0.flat[:: n + 1] += jitter  # in place: the eigh above has read the raw K0
    return GramMatrix(K0, jitter, s0 + jitter, V)
