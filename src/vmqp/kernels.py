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
    d2 = np.zeros((X.shape[0], Y.shape[0]))
    for k in range(X.shape[1]):
        d2 += np.subtract.outer(X[:, k], Y[:, k]) ** 2
    return d2


def kernel_matrix(spec: KernelSpec, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Cross-covariance matrix k(x_i, y_j) without jitter."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[1] != Y.shape[1]:
        raise ValueError("dimension mismatch between location sets")
    if spec.family == "gaussian":
        d2 = _sq_dists(X, Y)
        return spec.variance * np.exp(-d2 / (2.0 * spec.lengthscale**2))
    if spec.family == "exponential":
        d = np.sqrt(_sq_dists(X, Y))
        return spec.variance * np.exp(-d / spec.lengthscale)
    # anisotropic_gaussian: squared-exponential on joint angles plus a
    # separate squared-exponential factor on the surface gradient.
    if X.shape[1] < 2:
        raise ValueError("anisotropic_gaussian needs >= 2 coordinates")
    da2 = _sq_dists(X[:, :-1], Y[:, :-1])
    ds2 = _sq_dists(X[:, -1:], Y[:, -1:])
    return spec.variance * np.exp(
        -da2 / (2.0 * spec.lengthscale**2)
        - ds2 / (2.0 * spec.gradient_lengthscale**2)
    )


def kernel_derivatives(spec: KernelSpec, X: np.ndarray) -> dict:
    """dK/dp over the locations ``X`` for each kernel parameter, jitter excluded.

    Keys are the parameter names of ``inference.gradient_names``: sigma2,
    lengthscale and, for the anisotropic family, gradient_lengthscale.
    """
    K = kernel_matrix(spec, X, X)
    out = {"sigma2": K / spec.variance}
    if spec.family == "gaussian":
        out["lengthscale"] = K * _sq_dists(X, X) / spec.lengthscale**3
    elif spec.family == "exponential":
        out["lengthscale"] = K * np.sqrt(_sq_dists(X, X)) / spec.lengthscale**2
    else:
        da2 = _sq_dists(X[:, :-1], X[:, :-1])
        ds2 = _sq_dists(X[:, -1:], X[:, -1:])
        out["lengthscale"] = K * da2 / spec.lengthscale**3
        out["gradient_lengthscale"] = K * ds2 / spec.gradient_lengthscale**3
    return out


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
