"""Covariance kernels and Gram-matrix construction.

Distances are taken in raw coordinate units (degrees of longitude/latitude,
degrees of joint angle, percent of gradient); no geodesic correction.
"""

from __future__ import annotations

from dataclasses import dataclass

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
# 1e-2*variance, that lifts the smallest eigenvalue of the raw kernel matrix
# above n * machine epsilon times its largest.
JITTER_START = 1e-8
JITTER_FACTOR = 10.0
JITTER_CAP = 1e-2


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
