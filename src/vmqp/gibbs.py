"""Augmented Gibbs sampler for the latent-angle conditional.

A pair of Gaussian vectors z1, z2 with means A*cos(phi), A*sin(phi) and
unit covariance is introduced, where A'A = lambda*I - Q for any lambda
above the top eigenvalue of Q. Multiplying the target by these densities
cancels the quadratic trigonometric terms, so phi | z factorizes into
independent 1D von Mises coordinates. Alternating the two exact
conditionals gives the sweep implemented here.

Small lambda mixes best: in the large-lambda limit the conditional mean
of each coordinate collapses onto its previous value. The default rule is
lambda = (1 + slack) * lambda_max with slack = 0.01, where lambda_max is
a power-iteration estimate from below.

A factor A is kept as a basis C and a variance, A = C' / sqrt(variance),
never as one matrix, and a sweep applies it as one product with C and a
scaling. Every factor is a ``kernels.Augmentation`` of some Q = unit /
variance: C is the lower Cholesky factor of lam*variance*I - unit, so one
C serves every sigma2. ``kernels.certified_factor`` builds each C and
returns the record at variance 1: it takes lam from a power-iteration
estimate of lambda_max, and the Cholesky that succeeds certifies that lam
is above it. ``kernels.build_gram`` runs it on a whole unit-variance
precision M1 and keeps the record in its ``GramMatrix``;
``make_augmentation`` runs it on any Q, such as the m x m latent block of
M1; ``Augmentation.at`` moves a factor to another lam by one new
Cholesky. No path runs an ``eigh``. A latent chain takes
its target and factor together from ``inference.ParamModel.latent``.
Every chain advances through ``run_sweeps``. Every transition is the two
exact conditionals in turn: the z half, ``sweep_coefficients``, draws z
given phi on a sequence of factors and returns the von Mises coefficients
b of phi | z; the phi half, ``redraw``, takes phi from b. A Gibbs sweep
runs the z half on one factor, a bridge level of
``inference.bridge_ladder`` on two (scaled).

Over-relaxation: given z each phi_i is von Mises(gamma_i, a_i), which is
symmetric about gamma_i, so the reflection phi_i <- 2 gamma_i - phi_i
keeps phi | z, and so the target, invariant. A reflection sweep draws z
as a heat-bath sweep does and makes no von Mises draw. Alone it is not
ergodic; ``run_sweeps(..., overrelax=True)`` makes every second sweep a
reflection, which raises the effective draws per sweep and per second
(Creutz 1987; Brown & Woch 1987 for the XY model). The chains whose draws
the CLI reports, ``run_chain`` and the fit's latent sweeps, run that
schedule; the fictitious and contrastive-divergence chains of
``inference`` stay heat-bath, and their docstrings say why.

A state is one chain, phi of shape (m,), or a stack of C independent
chains on the same factor, shape (C, m), and b then has shape (2, C, m).
A sweep of the stack costs one random-normal draw and two products with
U in the z half and one von Mises call in the phi half, as a sweep of one
chain does, so at small m the C chains cost about as much as one. They
share one Generator, so the stream of a stack is not that of C separate
chains; a (1, m) stack draws what the 1D chain draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .circular import as_generator, cos_sin, normalize_angle, sample_von_mises
from .errors import NumericalError
from .kernels import DEFAULT_SLACK, Augmentation, certified_factor
from .model import ConditionalParams
from . import evaluation

# Only the perfbench tracer's flop model reads these; ROADMAP item 1 deletes them.
_EIG_EXACT_LIMIT = 512
_POWER_ITERATIONS = 200


def make_augmentation(Q, slack: float = DEFAULT_SLACK) -> Augmentation:
    """Factor lam*I - Q for the symmetric Q at lam = (1 + slack) * estimate.

    The record that ``kernels.certified_factor`` returns, at variance 1:
    it sets lam and runs the Cholesky on a copy of Q, so Q keeps its bits
    and may be read-only, and Q itself is kept as the record's ``unit``.
    An empty Q gives an empty factor.
    Raises ``NumericalError`` when Q has no positive eigenvalue, or when
    no lam up to (1 + slack) times its largest absolute row sum factors.
    """
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValueError("Q must be a square matrix")
    if not np.isfinite(Q).all():
        raise NumericalError("Q has a non-finite entry")
    if not (np.isfinite(slack) and slack > 0):
        raise ValueError("slack must be positive")
    if not len(Q):
        return Augmentation(0.0, Q, 0.0, Q, 1.0, np.zeros(0))
    try:
        return replace(certified_factor(Q.copy(), slack), unit=Q)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"cannot factor lam*I - Q: {exc}") from None


def augmentation_at(Q, lam: float) -> Augmentation:
    """Factor lam*I - Q at an explicitly chosen lam above lambda_max(Q).

    The same as ``make_augmentation(Q).at(lam)``; a factor already built
    for Q moves to another lambda with ``Augmentation.at`` alone.
    """
    return make_augmentation(Q).at(lam)


def sweep_coefficients(phi: np.ndarray, factors, rho_c, rho_s, rng) -> np.ndarray:
    """The z half of a sweep, state -> b, on the factors (U_k, g_k).

    Each factor is A_k = diag(g_k) U_k', g_k an array or one number. The
    target's coupling is lam*I - sum_k A_k'A_k, for any lam (cos^2 +
    sin^2 = 1 makes a multiple of I a constant), and its linear terms are
    ``rho_c``, ``rho_s``
    (arrays, or one scalar for every coordinate); ``rng`` is a Generator.
    The normals are drawn as one (K, 2, ...) block in factor order; with
    cs the (2C, m) block of cos/sin rows, z_k = (cs U_k) g_k + eps_k, and
    the result is the coefficients b = sum_k (z_k g_k) U_k' + rho of
    phi | z, shape (2,) + phi.shape: b[0] multiplies cos(phi) and b[1]
    sin(phi).
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
    return b


def redraw(phi: np.ndarray, b: np.ndarray, rng, reflect: bool = False) -> np.ndarray:
    """The phi half of a sweep, b -> state, for the b of ``sweep_coefficients``.

    Each phi_i | z is von Mises(gamma_i, a_i) with gamma = arctan2(b_s, b_c)
    and a = hypot(b_c, b_s), and is redrawn from it. With ``reflect`` it
    is reflected about gamma instead, 2 gamma - phi, and no von Mises draw
    is made, so ``rng`` is not read; a coordinate with concentration 0 has
    gamma = 0 and maps to -phi.
    """
    gamma = np.arctan2(b[1], b[0])
    if reflect:
        return normalize_angle(2.0 * gamma - phi)
    return sample_von_mises(gamma, np.hypot(b[0], b[1]), rng)


def gibbs_sweep(
    phi: np.ndarray,
    aug: Augmentation,
    cp: ConditionalParams,
    rng,
    reflect: bool = False,
) -> np.ndarray:
    """One full sweep: refresh z given phi, then redraw every phi_i given z.

    ``phi`` is one state (m,) or a stack (C, m), and the result has its
    shape. ``sweep_coefficients`` on the one factor (basis U, scale g) of
    ``aug`` with the rho of ``cp`` (z = A cs + eps and b = rho + A'z for
    A = diag(g) U'),
    then ``redraw``; with ``reflect`` every phi_i is reflected about its
    conditional mean instead of redrawn.
    """
    rng = as_generator(rng)
    b = sweep_coefficients(phi, ((aug.basis, aug.scale),), cp.rho_c, cp.rho_s, rng)
    return redraw(phi, b, rng, reflect)


def run_sweeps(phi, aug: Augmentation, cp: ConditionalParams, rng, first: int,
               n_kept: int = 1, thin: int = 1, overrelax: bool = False) -> np.ndarray:
    """Run exact Gibbs sweeps from ``phi`` on one factor; return kept states.

    Keeps the states after sweeps first, first + thin, ..., n_kept of them,
    and runs no sweep past the last. From one state (m,) the result is
    (n_kept, m); from a stack (C, m) it is (n_kept, C, m). With
    ``overrelax`` sweeps 2, 4, ... (1-based) are reflections and sweeps
    1, 3, ... heat-bath. A call thus starts with a heat-bath sweep, so a
    caller that runs one sweep per call still runs an ergodic chain.
    ``first``, ``n_kept`` and ``thin`` must each be at least 1.
    """
    if min(first, n_kept, thin) < 1:
        raise ValueError("first, n_kept and thin must be >= 1")
    kept = np.empty((n_kept,) + np.shape(phi))
    for t in range(1, first + (n_kept - 1) * thin + 1):
        phi = gibbs_sweep(phi, aug, cp, rng, reflect=overrelax and t % 2 == 0)
        if t >= first and (t - first) % thin == 0:
            kept[(t - first) // thin] = phi
    return kept


@dataclass(frozen=True)
class ChainOutput:
    """Thinned retained samples plus per-coordinate mixing diagnostics."""

    samples: np.ndarray  # (n_retained, m), or (n_retained, C, m) for a stack
    ress: np.ndarray  # relative effective sample size per coordinate: (m,) or (C, m)


def run_chain(
    cp: ConditionalParams,
    aug: Augmentation,
    n_iter: int,
    burn_in: int,
    thin: int = 1,
    seed=0,
    init=None,
) -> ChainOutput:
    """Run the over-relaxed Gibbs chain on ``aug``; keep every ``thin``-th sweep.

    Every second sweep is a reflection (``run_sweeps`` with ``overrelax``).
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
    samples = run_sweeps(phi, aug, cp, rng, burn_in + 1, n_kept, thin, overrelax=True)
    ress = evaluation.circular_column_ress(samples.reshape(n_kept, -1))
    return ChainOutput(samples, ress.reshape(phi.shape))
