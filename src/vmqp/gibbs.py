"""Augmented Gibbs sampler for the latent-angle conditional.

A pair of Gaussian vectors z1, z2 with means A*cos(phi), A*sin(phi) and
unit covariance is introduced, where A'A = lambda*I - Q for any lambda
above the top eigenvalue of Q. Multiplying the target by these densities
cancels the quadratic trigonometric terms, so phi | z factorizes into
independent 1D von Mises coordinates. Alternating the two exact
conditionals gives the sweep implemented here.

Small lambda mixes best: in the large-lambda limit the conditional mean
of each coordinate collapses onto its previous value. The default rule is
lambda = (1 + slack) * lambda_max with slack = 0.01, both tunable.

Every chain of the package advances through ``run_sweeps`` on a factor
its caller built once: ``make_augmentation`` for the slack rule,
``augmentation_at`` for an explicit lambda, or the spectral factor of a
full-space model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circular import as_generator, cos_sin, sample_von_mises
from .errors import NumericalError
from .model import ConditionalParams
from . import evaluation

DEFAULT_SLACK = 0.01

# Above this size the top eigenvalue is estimated by power iteration
# instead of a full symmetric eigensolve.
_EIG_EXACT_LIMIT = 512
_POWER_ITERATIONS = 200


@dataclass(frozen=True)
class Augmentation:
    """Augmentation factor: any A with A'A = lam*I - Q.

    The sweep sees A only through A'z ~ N(A'A cos(phi), A'A), so every
    such factor gives the same Markov kernel. ``make_augmentation`` and
    ``augmentation_at`` return the upper Cholesky factor; the full-space
    models of the parameter sampler use a spectral factor. A chain takes
    its factor from the caller and never refactors Q itself.
    """

    lam: float
    factor: np.ndarray
    lam_max_estimate: float

    @property
    def size(self) -> int:
        return self.factor.shape[0]


def _largest_eigenvalue(Q: np.ndarray) -> float:
    m = Q.shape[0]
    if m <= _EIG_EXACT_LIMIT:
        return float(np.linalg.eigvalsh(Q)[-1])
    v = np.ones(m) / np.sqrt(m)
    lam = 0.0
    for _ in range(_POWER_ITERATIONS):
        u = Q @ v
        norm = np.linalg.norm(u)
        if norm == 0.0:
            return 0.0
        v = u / norm
        lam = float(v @ Q @ v)
    return lam


def make_augmentation(Q: np.ndarray, slack: float = DEFAULT_SLACK) -> Augmentation:
    """Factor lam*I - Q with lam = (1 + slack) * lambda_max(Q).

    If the factorization fails because lam is too tight numerically, the
    slack is doubled up to three times before giving up.
    """
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValueError("Q must be a square matrix")
    if not (np.isfinite(slack) and slack > 0):
        raise ValueError("slack must be positive")
    m = Q.shape[0]
    if m == 0:
        return Augmentation(0.0, np.zeros((0, 0)), 0.0)
    lam_max = _largest_eigenvalue(Q)
    eps = slack
    for _ in range(4):
        lam = (1.0 + eps) * lam_max
        gap = lam * np.eye(m) - Q
        try:
            # upper triangular: factor' @ factor reconstructs the gap
            A = np.linalg.cholesky(gap).T
            return Augmentation(lam, A, lam_max)
        except np.linalg.LinAlgError:
            eps *= 2.0
    raise NumericalError("augmentation factorization failed at maximal slack")


def augmentation_at(Q: np.ndarray, lam: float) -> Augmentation:
    """Factor lam*I - Q at an explicitly chosen lam (diagnostics use)."""
    Q = np.asarray(Q, dtype=float)
    m = Q.shape[0]
    lam_max = _largest_eigenvalue(Q)
    gap = lam * np.eye(m) - Q
    if m > 0 and lam <= lam_max:
        # exactly at lam_max the gap is singular but still factorizable
        # up to roundoff; shift the diagonal by a relative epsilon
        gap += 1e-12 * max(abs(lam_max), 1.0) * np.eye(m)
    try:
        A = np.linalg.cholesky(gap).T
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"lambda {lam} is below the top eigenvalue") from exc
    return Augmentation(lam, A, lam_max)


def polar_params(b_c: np.ndarray, b_s: np.ndarray):
    """Per-coordinate concentration and mean from the linear coefficients."""
    a = np.hypot(b_c, b_s)
    gamma = np.arctan2(b_s, b_c)
    return a, gamma


def gibbs_sweep(
    phi: np.ndarray,
    aug: Augmentation,
    cp: ConditionalParams,
    rng,
) -> np.ndarray:
    """One full sweep: refresh z given phi, then redraw every phi_i given z.

    Reads only rho and the factor of ``cp``/``aug``. Each pass is one
    product of A with the (2, m) block of cos/sin rows: z = A cs + eps,
    then b = rho + A'z.
    """
    rng = as_generator(rng)
    A = aug.factor
    eps = rng.standard_normal((2, aug.size))
    z = cos_sin(phi) @ A.T
    z += eps
    b = z @ A
    b[0] += cp.rho_c
    b[1] += cp.rho_s
    a, gamma = polar_params(b[0], b[1])
    return sample_von_mises(gamma, a, rng)


def run_sweeps(phi, aug: Augmentation, cp: ConditionalParams, rng, first: int,
               n_kept: int = 1, thin: int = 1) -> np.ndarray:
    """Run exact Gibbs sweeps from ``phi`` on one factor; return kept states.

    Keeps the states after sweeps first, first + thin, ..., n_kept of them,
    as the rows of an (n_kept, m) array, and runs no sweep past the last.
    """
    kept = []
    for t in range(1, first + (n_kept - 1) * thin + 1):
        phi = gibbs_sweep(phi, aug, cp, rng)
        if t >= first and (t - first) % thin == 0:
            kept.append(phi)
    return np.array(kept)


@dataclass(frozen=True)
class ChainOutput:
    """Thinned retained samples plus per-coordinate mixing diagnostics."""

    samples: np.ndarray  # (n_retained, m)
    ress: np.ndarray  # per-coordinate relative effective sample size
    lam: float


def run_chain(
    cp: ConditionalParams,
    aug: Augmentation,
    n_iter: int,
    burn_in: int,
    thin: int = 1,
    seed=0,
    init=None,
    init_mean: float = 0.0,
    init_conc: float = 0.0,
) -> ChainOutput:
    """Run the augmented Gibbs chain on ``aug`` and keep every ``thin``-th sweep.

    Sweeps burn_in, burn_in + thin, ... < n_iter (0-based) are kept;
    deterministic given ``seed``. ``aug`` factors lam*I - cp.coupling and
    fixes the lambda of the chain. ``init`` fixes the starting state;
    otherwise coordinates start at independent von Mises draws (uniform
    when ``init_conc`` is zero).
    """
    if not (n_iter > burn_in >= 0):
        raise ValueError("need n_iter > burn_in >= 0")
    if thin < 1:
        raise ValueError("thin must be >= 1")
    m = cp.size
    if aug.size != m:
        raise ValueError("augmentation and conditional differ in size")
    rng = as_generator(seed)
    if init is not None:
        phi = np.array(init, dtype=float)
        if phi.shape != (m,):
            raise ValueError(f"init must have shape ({m},)")
    else:
        phi = sample_von_mises(init_mean, init_conc * np.ones(m), rng)
    n_kept = len(range(burn_in, n_iter, thin))
    samples = run_sweeps(phi, aug, cp, rng, burn_in + 1, n_kept, thin)
    ress = np.full(m, np.nan)
    if samples.shape[0] >= 10:
        for j in range(m):
            try:
                ress[j] = evaluation.circular_ress(samples[:, j])
            except ValueError:
                pass  # constant trace: leave NaN
    return ChainOutput(samples, ress, aug.lam)
