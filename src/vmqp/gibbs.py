"""Augmented Gibbs sampler for the latent-angle conditional.

A pair of Gaussian vectors z1, z2 with means A*cos(phi), A*sin(phi) and
unit covariance is introduced, where A'A = lambda*I - Q for any lambda
above the top eigenvalue of Q. Multiplying the target by these densities
cancels the quadratic trigonometric terms, so phi | z factorizes into
independent 1D von Mises coordinates. Alternating the two exact
conditionals gives the sweep implemented here.

Small lambda mixes best: in the large-lambda limit the conditional mean
of each coordinate collapses onto its previous value. The default rule is
lambda = (1 + slack) * lambda_max, in ``slack_augmentation``, with slack = 0.01.

Every factor comes from eigenpairs: with Q = U diag(e) U', the factor
A = diag(sqrt(lambda - e)) U' is kept as (e, U) and the scale
sqrt(lambda - e), never as a matrix, and lambda_max = max(e) is exact.
``make_augmentation`` (slack rule) and ``augmentation_at`` (explicit
lambda) run one ``eigh`` of Q; the full-space models reuse the
eigenpairs of their Gram matrix, and ``Augmentation.at`` moves a factor
to another lambda by a rescale of its eigenpairs, with no ``eigh``.
Every chain of the package advances through ``run_sweeps`` on a factor
its caller built once. Every transition is ``augmented_sweep`` on a
sequence of factors: one for a Gibbs sweep, two (scaled) for a bridge
level of ``inference.bridge_ladder``.

A state is one chain, phi of shape (m,), or a stack of C independent
chains on the same factor, shape (C, m). A sweep of the stack costs one
random-normal draw, two products with U and one von Mises call, as a
sweep of one chain does, so at small m the C chains cost about as much as
one. They share one Generator, so the stream of a stack is not that of C
separate chains; a (1, m) stack draws what the 1D chain draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circular import as_generator, cos_sin, sample_von_mises
from .errors import NumericalError
from .model import ConditionalParams
from . import evaluation

DEFAULT_SLACK = 0.01

# Only the perfbench tracer's flop model reads these; ROADMAP item 1 deletes them.
_EIG_EXACT_LIMIT = 512
_POWER_ITERATIONS = 200


@dataclass(frozen=True)
class Augmentation:
    """Augmentation factor: any A with A'A = lam*I - Q.

    The sweep sees A only through A'z ~ N(A'A cos(phi), A'A), so every
    such factor gives the same Markov kernel. Every factor of the package
    is the spectral one, A = diag(sqrt(lam - e)) U' from the eigenpairs
    (e, U) of Q, kept as ``eigenvalues`` e, ``eigenvectors`` U and
    ``scale`` sqrt(lam - e): a sweep applies A as one product with U and
    one scaling, so A is never stored. ``lam_max_estimate`` is the exact
    top eigenvalue max(e). A chain takes its factor from the caller and
    never refactors Q itself.
    """

    lam: float
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    scale: np.ndarray
    lam_max_estimate: float

    @property
    def size(self) -> int:
        return self.scale.shape[0]

    @property
    def factor(self) -> np.ndarray:
        """The matrix A = diag(scale) U', formed anew on every read."""
        return self.scale[:, None] * self.eigenvectors.T

    def at(self, lam: float) -> "Augmentation":
        """The factor of lam*I - Q on the same eigenpairs: a rescale, no ``eigh``."""
        return spectral_augmentation(self.eigenvalues, self.eigenvectors, lam)


def spectral_augmentation(e: np.ndarray, U: np.ndarray, lam: float) -> Augmentation:
    """Factor A = diag(sqrt(lam - e)) U' of lam*I - U diag(e) U'.

    ``e`` holds the eigenvalues in any order and ``U`` the eigenvectors as
    columns; both are kept as given, not copied. At lam = max(e) the top
    scale is exactly zero. A lam below max(e) by no more than the
    eigensolver's roundoff, len(e) * eps * |max(e)|, counts as max(e): a
    lambda_max taken from another decomposition of the same matrix (the
    Gram eigenpairs of a full-space model) may differ from max(e) by that
    much.
    """
    if not np.isfinite(lam):
        raise ValueError("lambda must be finite")
    lam_max = float(e.max()) if len(e) else 0.0
    if lam < lam_max - len(e) * np.finfo(float).eps * abs(lam_max):
        raise NumericalError(f"lambda {lam} is below the top eigenvalue {lam_max}")
    return Augmentation(float(lam), e, U, np.sqrt(np.maximum(lam - e, 0.0)), lam_max)


def _spectrum(Q) -> tuple:
    """Ascending eigenpairs (e, U) of the symmetric matrix Q."""
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValueError("Q must be a square matrix")
    if not np.isfinite(Q).all():
        raise NumericalError("Q has a non-finite entry")
    try:
        return np.linalg.eigh(Q)
    except np.linalg.LinAlgError:
        raise NumericalError("eigendecomposition of Q failed") from None


def slack_augmentation(e: np.ndarray, U: np.ndarray, slack: float) -> Augmentation:
    """Factor of the eigenpairs (e, U) at the slack rule lam = (1 + slack) * max(e).

    An empty ``e`` gives an empty factor; otherwise max(e) must be positive.
    """
    if not (np.isfinite(slack) and slack > 0):
        raise ValueError("slack must be positive")
    lam_max = e.max() if len(e) else 0.0
    if len(e) and not lam_max > 0:
        raise NumericalError("Q has no positive eigenvalue")
    return spectral_augmentation(e, U, (1.0 + slack) * lam_max)


def make_augmentation(Q: np.ndarray, slack: float = DEFAULT_SLACK) -> Augmentation:
    """Factor lam*I - Q at lam = (1 + slack) * lambda_max(Q), from one ``eigh`` of Q."""
    return slack_augmentation(*_spectrum(Q), slack)


def augmentation_at(Q: np.ndarray, lam: float) -> Augmentation:
    """Factor lam*I - Q at an explicitly chosen lam >= lambda_max(Q).

    One ``eigh`` of Q, as in ``make_augmentation``; a factor already built
    for Q moves to another lambda with ``Augmentation.at`` and no ``eigh``.
    """
    e, U = _spectrum(Q)
    return spectral_augmentation(e, U, lam)


def polar_params(b_c: np.ndarray, b_s: np.ndarray):
    """Per-coordinate concentration and mean from the linear coefficients."""
    a = np.hypot(b_c, b_s)
    gamma = np.arctan2(b_s, b_c)
    return a, gamma


def augmented_sweep(phi: np.ndarray, factors, rho_c, rho_s, rng) -> np.ndarray:
    """One Gibbs transition on the factors (U_k, g_k), A_k = diag(g_k) U_k'.

    The target's coupling is lam*I - sum_k A_k'A_k, for any lam (cos^2 +
    sin^2 = 1 makes a multiple of I a constant), and its linear terms are
    ``rho_c``, ``rho_s`` (arrays, or one scalar for every coordinate);
    ``rng`` is a Generator. The normals are
    drawn as one (K, 2, ...) block in factor order; with cs the (2C, m)
    block of cos/sin rows, z_k = (cs U_k) g_k + eps_k and each coordinate
    is redrawn from a von Mises with coefficients sum_k (z_k g_k) U_k' + rho.
    """
    eps = rng.standard_normal((len(factors), 2) + np.shape(phi))
    flat = (math.prod(eps.shape[1:-1]), eps.shape[-1])  # (2C, m), or (2, m) for one chain
    cs = cos_sin(phi).reshape(flat)
    b = None
    for (U, g), e in zip(factors, eps):
        z = cs @ U
        z *= g
        z += e.reshape(flat)
        z *= g
        pull = z @ U.T
        b = pull if b is None else b + pull
    b = b.reshape(eps.shape[1:])
    b[0] += rho_c
    b[1] += rho_s
    a, gamma = polar_params(b[0], b[1])
    return sample_von_mises(gamma, a, rng)


def gibbs_sweep(
    phi: np.ndarray,
    aug: Augmentation,
    cp: ConditionalParams,
    rng,
) -> np.ndarray:
    """One full sweep: refresh z given phi, then redraw every phi_i given z.

    ``phi`` is one state (m,) or a stack (C, m), and the result has its
    shape. ``augmented_sweep`` on the one factor (U, g) of ``aug`` with the
    rho of ``cp``: z = A cs + eps and b = rho + A'z for A = diag(g) U'.
    """
    return augmented_sweep(
        phi, ((aug.eigenvectors, aug.scale),), cp.rho_c, cp.rho_s, as_generator(rng)
    )


def run_sweeps(phi, aug: Augmentation, cp: ConditionalParams, rng, first: int,
               n_kept: int = 1, thin: int = 1) -> np.ndarray:
    """Run exact Gibbs sweeps from ``phi`` on one factor; return kept states.

    Keeps the states after sweeps first, first + thin, ..., n_kept of them,
    and runs no sweep past the last. From one state (m,) the result is
    (n_kept, m); from a stack (C, m) it is (n_kept, C, m).
    """
    kept = np.empty((n_kept,) + np.shape(phi))
    for t in range(1, first + (n_kept - 1) * thin + 1):
        phi = gibbs_sweep(phi, aug, cp, rng)
        if t >= first and (t - first) % thin == 0:
            kept[(t - first) // thin] = phi
    return kept


@dataclass(frozen=True)
class ChainOutput:
    """Thinned retained samples plus per-coordinate mixing diagnostics."""

    samples: np.ndarray  # (n_retained, m), or (n_retained, C, m) for a stack
    ress: np.ndarray  # relative effective sample size per coordinate: (m,) or (C, m)
    lam: float


def run_chain(
    cp: ConditionalParams,
    aug: Augmentation,
    n_iter: int,
    burn_in: int,
    thin: int = 1,
    seed=0,
    init=None,
) -> ChainOutput:
    """Run the augmented Gibbs chain on ``aug`` and keep every ``thin``-th sweep.

    Sweeps burn_in, burn_in + thin, ... < n_iter (0-based) are kept;
    deterministic given ``seed``. The coupling of the chain lives only in
    ``aug`` (lam*I minus the coupling, factored), which also fixes its
    lambda; ``cp`` gives the linear terms. ``init`` fixes the starting
    state: one chain (m,), or C chains (C, m) run as one stack on one
    Generator, which gives samples (n_kept, C, m) and ress (C, m). Without
    ``init`` one chain starts at independent uniform angles. Every
    coordinate of every chain gets its RESS from one
    ``evaluation.circular_column_ress`` call, NaN below 10 kept sweeps.
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
        if phi.ndim not in (1, 2) or phi.shape[-1] != m:
            raise ValueError(f"init must have shape ({m},) or (C, {m})")
    else:
        phi = sample_von_mises(0.0, np.zeros(m), rng)
    n_kept = len(range(burn_in, n_iter, thin))
    samples = run_sweeps(phi, aug, cp, rng, burn_in + 1, n_kept, thin)
    ress = evaluation.circular_column_ress(samples.reshape(n_kept, -1))
    return ChainOutput(samples, ress.reshape(phi.shape), aug.lam)
