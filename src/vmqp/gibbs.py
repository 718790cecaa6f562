"""Augmented Gibbs sampler for the latent-angle conditional.

A pair of Gaussian vectors z1, z2 with means A*cos(phi), A*sin(phi) and
unit covariance is introduced, where A'A = lambda*I - Q for any lambda
above the top eigenvalue of Q. Multiplying the target by these densities
cancels the quadratic trigonometric terms, so phi | z factorizes into
independent 1D von Mises coordinates. Alternating the two exact
conditionals gives the sweep implemented here.

Small lambda mixes best: in the large-lambda limit the conditional mean
of each coordinate collapses onto its previous value. The default rule is
lambda = (1 + slack) * lambda_max with slack = 0.01.

A factor A is kept as a basis U and a scale g, A = diag(g) U', never as
one matrix, and a sweep applies it as one product with U and a scaling.
There are two kinds. A ``SpectralAugmentation`` comes from eigenpairs
(e, U) of Q: g = sqrt(lambda - e), lambda_max = max(e) is exact, and
``at`` moves it to another lambda by a rescale, with no ``eigh``. The
latent chains run on one, ``slack_augmentation`` of the
``latent_eigenpairs`` of a unit-variance ``model.PrecisionModel``,
divided by sigma2. A ``TriangularAugmentation`` factors a full-space
precision Q = unit / variance: U is the lower Cholesky factor C of
lam*variance*I - unit and g = 1/sqrt(variance), so one C serves every
sigma2. ``kernels.build_gram`` takes its lam from a power-iteration
estimate of lambda_max, and the Cholesky that succeeds certifies it; its
``at`` runs one new Cholesky. A latent chain takes its target and factor
together from ``inference.ParamModel.latent``. No package path calls
``make_augmentation`` or ``augmentation_at``, which factor a given Q by
its eigenpairs.
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
from .kernels import DEFAULT_SLACK
from .model import ConditionalParams, spectrum
from . import evaluation

# Only the perfbench tracer's flop model reads these; ROADMAP item 1 deletes them.
_EIG_EXACT_LIMIT = 512
_POWER_ITERATIONS = 200


@dataclass(frozen=True)
class Augmentation:
    """Augmentation factor: any A with A'A = lam*I - Q, as A = diag(scale) basis'.

    The sweep sees A only through A'z ~ N(A'A cos(phi), A'A), so every
    such factor gives the same Markov kernel. ``scale`` is an array with
    one entry per column of ``basis``, or one number for all of them. A
    sweep applies A as one product with the basis and one scaling, so A is
    never stored. ``lam_max_estimate`` estimates the top eigenvalue of Q:
    exact for a ``SpectralAugmentation``, from below for a
    ``TriangularAugmentation``. ``at(lam)`` is the factor of lam*I - Q for
    another lam. A chain takes its factor from the caller and never
    refactors Q itself.
    """

    lam: float
    basis: np.ndarray
    scale: np.ndarray | float
    lam_max_estimate: float

    @property
    def size(self) -> int:
        return self.basis.shape[0]

    @property
    def factor(self) -> np.ndarray:
        """The matrix A = diag(scale) basis', formed anew on every read."""
        return (self.basis * self.scale).T


@dataclass(frozen=True)
class SpectralAugmentation(Augmentation):
    """A = diag(sqrt(lam - e)) U' from the eigenpairs (e, U) of Q; ``basis`` is U."""

    eigenvalues: np.ndarray

    def at(self, lam: float) -> "SpectralAugmentation":
        """The factor of lam*I - Q on the same eigenpairs: a rescale, no ``eigh``."""
        return spectral_augmentation(self.eigenvalues, self.basis, lam)


@dataclass(frozen=True)
class TriangularAugmentation(Augmentation):
    """A = C' / sqrt(variance) with C C' = lam*variance*I - unit: Q = unit / variance.

    ``basis`` is the lower-triangular C and ``scale`` 1/sqrt(variance).
    ``top`` is the unit vector of the power iteration that gave
    ``lam_max_estimate``; the next kernel value's iteration starts there.
    """

    unit: np.ndarray
    variance: float
    top: np.ndarray

    def at(self, lam: float) -> "TriangularAugmentation":
        """The factor of lam*I - Q: one Cholesky of lam*variance*I - unit.

        Raises ``NumericalError`` when that Cholesky fails, as it does
        when lam is below the top eigenvalue of Q.
        """
        if not np.isfinite(lam):
            raise ValueError("lambda must be finite")
        G = np.negative(self.unit)
        G.flat[:: len(G) + 1] += lam * self.variance
        try:
            C = np.linalg.cholesky(G)
        except np.linalg.LinAlgError:
            raise NumericalError(f"lambda {lam} is not above the top eigenvalue") from None
        return replace(self, lam=float(lam), basis=C)


def spectral_augmentation(e: np.ndarray, U: np.ndarray, lam: float) -> SpectralAugmentation:
    """Factor A = diag(sqrt(lam - e)) U' of lam*I - U diag(e) U'.

    ``e`` holds the eigenvalues in any order and ``U`` the eigenvectors as
    columns; both are kept as given, not copied. At lam = max(e) the top
    scale is exactly zero. A lam below max(e) by no more than the
    eigensolver's roundoff, len(e) * eps * |max(e)|, counts as max(e): a
    lambda_max taken from another decomposition of the same matrix may
    differ from max(e) by that much.
    """
    if not np.isfinite(lam):
        raise ValueError("lambda must be finite")
    lam_max = float(e.max()) if len(e) else 0.0
    if lam < lam_max - len(e) * np.finfo(float).eps * abs(lam_max):
        raise NumericalError(f"lambda {lam} is below the top eigenvalue {lam_max}")
    scale = np.sqrt(np.maximum(lam - e, 0.0))
    return SpectralAugmentation(float(lam), U, scale, lam_max, e)


def slack_augmentation(e: np.ndarray, U: np.ndarray, slack: float) -> SpectralAugmentation:
    """Factor of the eigenpairs (e, U) at the slack rule lam = (1 + slack) * max(e).

    An empty ``e`` gives an empty factor; otherwise max(e) must be positive.
    """
    if not (np.isfinite(slack) and slack > 0):
        raise ValueError("slack must be positive")
    lam_max = e.max() if len(e) else 0.0
    if len(e) and not lam_max > 0:
        raise NumericalError("Q has no positive eigenvalue")
    return spectral_augmentation(e, U, (1.0 + slack) * lam_max)


def make_augmentation(Q: np.ndarray, slack: float = DEFAULT_SLACK) -> SpectralAugmentation:
    """Factor lam*I - Q at lam = (1 + slack) * lambda_max(Q), from one ``eigh`` of Q."""
    return slack_augmentation(*spectrum(Q), slack)


def augmentation_at(Q: np.ndarray, lam: float) -> SpectralAugmentation:
    """Factor lam*I - Q at an explicitly chosen lam >= lambda_max(Q).

    One ``eigh`` of Q, as in ``make_augmentation``; a factor already built
    for Q moves to another lambda with ``Augmentation.at`` and no ``eigh``.
    """
    e, U = spectrum(Q)
    return spectral_augmentation(e, U, lam)


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
