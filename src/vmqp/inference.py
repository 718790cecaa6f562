"""Fully Bayesian parameter learning for the circular regression model.

The parameter posterior is doubly intractable: the likelihood carries an
unknown normalizer. Each Metropolis step therefore draws a fictitious
full-space angle vector under the proposed parameters (an inner augmented
Gibbs chain) so that the normalizers cancel from the acceptance ratio.
Optionally, K annealed bridging levels refine the one-sample importance
estimate of the normalizer ratio. A bridging transition is the two halves
of the Gibbs sweep: ``gibbs.sweep_coefficients`` on the two existing
full-space factors, each scaled, then ``gibbs.redraw``, so no per-level
factorization is needed; plain double-MH is the ladder with no level.

Every model is sigma2 times a unit-variance model: K(sigma2, l) =
sigma2 * K(1, l), and the jitter rung is proportional to sigma2, so
``build_param_model`` runs ``build_gram`` on the kernel at variance 1.
Each lengthscale value therefore costs two Cholesky factorizations and a
triangular inverse of size d, and a few power-iteration products started
from the current model's top vector. They give the jitter, the unit
precision M1 = K1^-1 and the lower Cholesky factor C1 of lam1*I - M1: the
two d x d arrays a model owns, and the Gram matrix itself is dropped. A
``ParamModel`` is those factorizations plus w: it reads M1 / sigma2 and
the factor (C1, 1/sigma) from w, so every move that keeps the
lengthscales is ``replace(model, w=w')``, with no factorization and no
new d x d array. The exchange move reads the precision only through
energies, products of the (2, d) cos/sin block with M1, and the energy
difference of two models on one M1 takes one such product. Without
observation noise the latent chain runs on the factor of the m x m latent
block of M1, which ``build_param_model`` certifies by Cholesky as it does
C1, and which every sigma2 divides in the same way.

The normalizer does not depend on the mean direction nu: rotating every
angle leaves the coupling unchanged. So the fit draws nu exactly from its
von Mises conditional given the full state and kappa
(``draw_mean_direction``), with no fictitious chain, and moves kappa in
the exchange move together with sigma2.

The fit, ``sample`` and the CD diagnostic share one latent chain given
the data: the target and factor that ``ParamModel.latent(theta)``
returns, the one place that reads the observation noise chi, with
``full_states``. The fit and ``sample`` run it over-relaxed (every second
sweep a reflection, ``run_sweeps(..., overrelax=True)``); ``cd_gradient``
keeps the heat-bath schedule, because acceptance criterion c10 needs the
sign of its lengthscale component to disagree across seeds, and a
faster-mixing latent chain makes that sign agree.

The learning setting is transductive: prediction locations are fixed at
fit time because the model is not closed under marginalization; every
sampler, the fit too, runs on a ``ParamModel`` its caller builds over them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from .circular import as_generator, cos_sin, normalize_angle, sample_von_mises
from .errors import NumericalError
from .gibbs import Augmentation, make_augmentation, redraw, run_sweeps, sweep_coefficients
from .gibbs import DEFAULT_SLACK
from .gibbs import gibbs_sweep  # noqa: F401  perfbench/test_perfbench.py reads this binding
from .kernels import build_gram, kernel_derivatives
from .model import (
    ParamVector,
    PrecisionModel,
    build_precision,
    conditional_params,
    energy,
    full_state_params,
    mean_pull,
)

_LOG_HALF_NORMAL = 0.5 * math.log(2.0 / math.pi)

# The parameter table: the exchange move walks (sigma2, lengthscale^2,
# [gradient_lengthscale^2], kappa, nu), in this order. The fit moves the
# kernel entries in two halves, in turn: sigma2 (with kappa), then the
# lengthscales; it draws nu from its exact conditional.
KERNEL_BLOCK = ("sigma2", "lengthscale2", "gradient2")
VARIANCE_BLOCK = KERNEL_BLOCK[:1]
LENGTHSCALE_BLOCK = KERNEL_BLOCK[1:]
MEAN_BLOCK = ("kappa", "nu")
# The KernelSpec field that each kernel table entry sets, and how.
_KERNEL_FIELDS = (
    ("sigma2", "variance", float),
    ("lengthscale2", "lengthscale", math.sqrt),
    ("gradient2", "gradient_lengthscale", math.sqrt),
)


def _param_dict(w: ParamVector) -> dict:
    """The table entries of ``w``, in KERNEL_BLOCK + MEAN_BLOCK order.

    gradient2 is present only when the kernel has a gradient lengthscale.
    """
    k = w.kernel
    out = {"sigma2": k.variance, "lengthscale2": k.lengthscale**2}
    if k.gradient_lengthscale is not None:
        out["gradient2"] = k.gradient_lengthscale**2
    out["kappa"] = w.concentration
    out["nu"] = w.mean_direction
    return out


def _half_normal_logpdf(x: float, scale: float) -> float:
    if x < 0:
        return -math.inf
    return _LOG_HALF_NORMAL - math.log(scale) - 0.5 * (x / scale) ** 2


def _check_scales(spec, label: str) -> None:
    for f in fields(spec):
        value = getattr(spec, f.name)
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{label}{f.name} must be positive and finite")


@dataclass(frozen=True)
class PriorSpec:
    """Half-normal prior scales, ``<p>_scale`` for every table entry p but nu.

    nu is uniform on the circle.
    """

    sigma2_scale: float = 1.0
    lengthscale2_scale: float = 1.0
    gradient2_scale: float = 1.0
    kappa_scale: float = 1.0

    def __post_init__(self):
        _check_scales(self, "prior ")

    def log_density(self, w: ParamVector) -> float:
        """Log prior of ``w``; the constructors of ``w`` hold the support."""
        lp = 0.0
        for name, value in _param_dict(w).items():
            if name != "nu":
                lp += _half_normal_logpdf(value, getattr(self, f"{name}_scale"))
        return lp - math.log(2.0 * math.pi)  # uniform mean direction


@dataclass(frozen=True)
class ProposalSpec:
    """Random-walk step standard deviations, ``<p>_step`` for every table entry p.

    nu proposals are wrapped so the kernel is symmetric on the circle.
    ``block_gibbs_fit`` draws nu from its exact conditional instead, so
    ``nu_step`` serves only exchange moves whose block names nu.
    """

    sigma2_step: float = 0.1
    lengthscale2_step: float = 0.1
    gradient2_step: float = 0.1
    kappa_step: float = 0.1
    nu_step: float = 0.3

    def __post_init__(self):
        _check_scales(self, "")


@dataclass(frozen=True)
class BridgeConfig:
    """Bridging configuration; levels == 0 means the plain double-MH step."""

    levels: int = 0
    inner_sweeps: int = 50

    def __post_init__(self):
        if self.levels < 0:
            raise ValueError("levels must be >= 0")
        if self.inner_sweeps < 1:
            raise ValueError("inner_sweeps must be >= 1")


@dataclass(frozen=True)
class ParamModel:
    """Everything the samplers need for one parameter value.

    A model is the factorizations of its lengthscales plus ``w``. The
    Gram matrix is sigma2 times the unit-variance one, K1, whose
    precision ``unit`` holds M1 = K1^-1 and whose jitter is
    ``unit_jitter``. ``unit_aug`` factors lam1*I - M1 by its lower
    Cholesky factor C1, and ``unit_latent_aug`` the m x m latent block
    of M1 in the same way. Every part that depends on sigma2 is derived
    from ``w``: ``precision`` is M1 / sigma2, and the full-space
    augmentation factor ``full_aug`` (any A with A'A = lam*I - M) is
    (C1, 1/sigma) at lam = (1 + slack) * estimate / sigma2, both read
    once and kept; the latent chain's factor, which ``latent`` gives,
    divides ``unit_latent_aug`` by the same rule on each call. So M1 and
    C1 are the only d x d arrays the model owns; repeated
    fictitious-sample chains and bridging ladders reuse them, and
    ``replace(model, w=w')`` is the model at any w' with the same
    lengthscales, sharing ``unit``, ``unit_aug`` and ``unit_latent_aug``
    and factoring nothing. The Gram matrix itself is not kept, only its
    diagonal ``jitter``. ``derivatives`` (dK/dp for ``energy_gradient``,
    d x d each) is computed on first read and kept.
    """

    w: ParamVector
    locations: np.ndarray
    unit_jitter: float
    slack: float
    unit: PrecisionModel
    unit_aug: Augmentation
    unit_latent_aug: Augmentation

    @property
    def size(self) -> int:
        return self.unit.size

    @cached_property
    def precision(self) -> PrecisionModel:
        return replace(self.unit, variance=self.w.kernel.variance)

    @cached_property
    def full_aug(self) -> Augmentation:
        return self._at_sigma2(self.unit_aug)

    def _at_sigma2(self, unit_aug: Augmentation) -> Augmentation:
        """The factor of a unit-variance factor's Q / sigma2: no factorization.

        The basis is shared, the scale is 1/sigma and lam = (1 + slack) *
        estimate / sigma2, the estimate of Q / sigma2.
        """
        v = self.w.kernel.variance
        est = unit_aug.lam_max_estimate / v
        return replace(unit_aug, lam=(1.0 + self.slack) * est, scale=1.0 / math.sqrt(v),
                       lam_max_estimate=est, variance=v)

    @property
    def jitter(self) -> float:
        return self.w.kernel.variance * self.unit_jitter

    def energy(self, phi) -> float:
        return energy(phi, self.w, self.precision)

    def latent(self, theta) -> tuple:
        """Target and factor (cp, aug) of the latent chain given the observed angles.

        Without observation noise the chain runs over the m prediction
        angles: ``conditional_params`` given theta, on ``unit_latent_aug``
        divided by sigma2 as ``full_aug`` divides ``unit_aug``, so a call
        factors nothing. With noisy
        observations (chi present) it runs over all d angles on
        ``full_aug``: the prior terms of ``full_state_params`` plus
        chi * (cos theta, sin theta) on the observed coordinates.
        """
        pm, chi = self.precision, self.w.noise_concentration
        if chi is None:
            return conditional_params(pm, theta, self.w), self._at_sigma2(self.unit_latent_aug)
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (pm.n_observed,):
            raise ValueError(f"expected {pm.n_observed} observed angles, got {theta.shape}")
        cp = full_state_params(pm, self.w)
        cp.rho_c[pm.n_latent :] += chi * np.cos(theta)
        cp.rho_s[pm.n_latent :] += chi * np.sin(theta)
        return cp, self.full_aug

    @cached_property
    def derivatives(self) -> dict:
        return kernel_derivatives(self.w.kernel, self.locations)


def energy_change(model_w: ParamModel, model_wp: ParamModel, phi) -> float:
    """U(phi|w') - U(phi|w).

    Models that share the unit precision M1, as every move that keeps the
    lengthscales does, differ by q * (1/sigma2' - 1/sigma2) / 2 in the
    coupling, q = cs M1 cs for the cos/sin block cs of phi, and by the
    pull: one product with M1, not two.
    """
    if model_wp.unit is model_w.unit:
        pull = mean_pull(phi, model_w.w) - mean_pull(phi, model_wp.w)
        cs = cos_sin(phi)
        q = np.sum((cs @ model_w.unit.unit_matrix) * cs)
        inverse_change = 1.0 / model_wp.precision.variance - 1.0 / model_w.precision.variance
        return float(0.5 * q * inverse_change + pull)
    return model_wp.energy(phi) - model_w.energy(phi)


def build_param_model(
    w: ParamVector, locations, n_latent: int, slack: float = DEFAULT_SLACK, start=None
) -> ParamModel:
    """Model at ``w`` from the factorizations that ``build_gram`` ran.

    ``build_gram`` runs on the kernel at variance 1, its power iteration
    starting at the unit vector ``start`` when one is given (the current
    model's ``unit_aug.top`` in a fit); the model divides by sigma2 on
    read, and K itself is dropped. The latent block of the unit precision
    is factored here too, by ``make_augmentation`` at ``slack``; with no
    latent angle that factor is empty.
    """
    X = np.asarray(locations, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    gram = build_gram(replace(w.kernel, variance=1.0), X, slack, start)
    unit = build_precision(gram, n_latent, X.shape[0] - n_latent)
    unit_aug = Augmentation(
        gram.lam, gram.factor, 1.0, gram.lam_max_estimate, gram.precision, 1.0, gram.top
    )
    latent_aug = make_augmentation(unit.latent_block, slack)
    return ParamModel(w, X, gram.jitter, slack, unit, unit_aug, latent_aug)


def full_states(model: ParamModel, latent, theta) -> np.ndarray:
    """Full states (..., d) of latent-chain states (..., n): [latent; theta].

    States that already span all d angles, as under noisy observations,
    are returned unchanged.
    """
    if latent.shape[-1] == model.size:
        return latent
    observed = np.broadcast_to(theta, latent.shape[:-1] + theta.shape)
    return np.concatenate([latent, observed], axis=-1)


def propose(
    w: ParamVector, proposals: ProposalSpec, block, rng
) -> ParamVector | None:
    """Random-walk proposal on the named block; None if out of support.

    Each table entry p of ``block`` present in ``w`` moves by
    ``<p>_step`` times a standard normal, in block order. The support is
    that of the ``KernelSpec`` and ``ParamVector`` constructors. Kernel
    fields that ``block`` does not move keep their bits.
    """
    rng = as_generator(rng)
    values = _param_dict(w)
    moved = [name for name in block if name in values]
    for name in moved:
        values[name] += getattr(proposals, f"{name}_step") * rng.standard_normal()
    kernel = w.kernel
    try:
        changes = {
            field: to_field(values[name])
            for name, field, to_field in _KERNEL_FIELDS
            if name in moved
        }
        if changes:
            kernel = replace(kernel, **changes)
        return ParamVector(kernel, values["kappa"], values["nu"], w.noise_concentration)
    except ValueError:  # a constructor or sqrt refused a value
        return None


def sample_fictitious(
    model: ParamModel, sweeps: int, init, rng
) -> np.ndarray:
    """Approximate full-space draw from exp(-U(.|w)) via Gibbs sweeps.

    The sweeps are heat-bath, one von Mises draw each, not over-relaxed:
    the tracer test of ``perfbench/test_perfbench.py`` counts one
    ``sample_von_mises`` call per fictitious sweep.
    """
    rng = as_generator(rng)
    cp = full_state_params(model.precision, model.w)
    xi = np.array(init, dtype=float)
    if xi.shape != (model.size,):
        raise ValueError(f"init must have shape ({model.size},)")
    return run_sweeps(xi, model.full_aug, cp, rng, sweeps)[0]


def bridge_ladder(
    xi0: np.ndarray,
    model_w: ParamModel,
    model_wp: ParamModel,
    levels: int,
    rng,
):
    """Run the K annealed transitions and return the log-ratio estimate.

    Level k targets the coupling beta_k * M_w + (1 - beta_k) * M_w' and the
    interpolated pull. Its transition is the z half ``sweep_coefficients``
    on the two cached factors (A'A = lam*I - M) scaled by sqrt(beta_k) and
    sqrt(1 - beta_k), then the phi half ``redraw``, so no level needs a
    factorization. Factors on one basis U with scales g, g' (any move
    that keeps the lengthscales) are one factor on U with scale
    sqrt(beta_k g^2 + (1 - beta_k) g'^2): b has the same law, as its mean
    and covariance add over factors, at half the products. The estimate is
    sum_k [log f_{k+1}(xi_k) - log f_k(xi_k)], endpoints included, which
    telescopes to (1/(K+1)) * sum_k [U(xi_k|w') - U(xi_k|w)]. With K = 0
    it is plain double-MH: states [xi0], ratio U(xi0|w') - U(xi0|w), and
    no draw from ``rng``.
    """
    if levels < 0:
        raise ValueError("levels must be >= 0")
    rng = as_generator(rng)
    if model_wp.size != model_w.size:
        raise ValueError("models are defined over different location sets")
    w, wp = model_w.w, model_wp.w
    aug_w, aug_wp = model_w.full_aug, model_wp.full_aug
    denom = levels + 1
    xi = np.array(xi0, dtype=float)
    xis = [xi]
    # k = 0 endpoint term (xi0 was drawn under w')
    log_ratio = energy_change(model_w, model_wp, xi) / denom
    for k in range(1, levels + 1):
        beta = k / denom
        if aug_wp.basis is aug_w.basis:
            scale = np.sqrt(beta * aug_w.scale**2 + (1.0 - beta) * aug_wp.scale**2)
            factors = ((aug_w.basis, scale),)
        else:
            factors = (
                (aug_w.basis, math.sqrt(beta) * aug_w.scale),
                (aug_wp.basis, math.sqrt(1.0 - beta) * aug_wp.scale),
            )
        alpha_c, alpha_s = (
            beta * w.concentration * f(w.mean_direction)
            + (1.0 - beta) * wp.concentration * f(wp.mean_direction)
            for f in (math.cos, math.sin)
        )
        xi = redraw(xi, sweep_coefficients(xi, factors, alpha_c, alpha_s, rng), rng)
        xis.append(xi)
        log_ratio += energy_change(model_w, model_wp, xi) / denom
    return xis, float(log_ratio)


# Outcomes of one exchange move: accepted, or rejected because the
# proposal left the prior support, the proposed model failed numerically,
# or the Metropolis-Hastings test said no.
DMH_REASONS = ("accepted", "support", "numerical", "mh")


@dataclass(frozen=True)
class DmhResult:
    model: ParamModel
    accepted: bool
    xi: np.ndarray
    log_acceptance: float
    reason: str


def dmh_step(
    model: ParamModel,
    phi_full: np.ndarray,
    priors: PriorSpec,
    proposals: ProposalSpec,
    bridge: BridgeConfig,
    rng,
    xi_init: np.ndarray,
    block,
) -> DmhResult:
    """One exchange move on the parameters given the current full state.

    The acceptance ratio uses only priors, proposal symmetry, the
    unnormalized density f at the current state and the ``bridge_ladder``
    ratio from the fictitious sample (plain double-MH at
    ``bridge.levels`` = 0); normalizing constants never appear. The move
    proposes the table entries that ``block`` names.
    Proposals outside the prior support are rejected without touching the
    kernel. A proposal whose lengthscales are bit for bit the current
    ones is the current model at the new w, with no factorization; one
    that moves a lengthscale is built by ``build_param_model`` at the
    slack of ``model``, its power iteration started from the current
    model's top vector. The inner chain starts from
    ``xi_init`` (persistent across outer iterations), and the accepted
    move hands back the final ladder state for the next step.
    """
    rng = as_generator(rng)
    w = model.w
    wp = propose(w, proposals, block, rng)
    if wp is None:
        return DmhResult(model, False, xi_init, -math.inf, "support")
    lp_w = priors.log_density(w)
    lp_wp = priors.log_density(wp)
    if replace(wp.kernel, variance=1.0) == replace(w.kernel, variance=1.0):
        model_wp = replace(model, w=wp)
    else:
        try:
            model_wp = build_param_model(
                wp, model.locations, model.precision.n_latent, model.slack, model.unit_aug.top
            )
        except NumericalError:
            return DmhResult(model, False, xi_init, -math.inf, "numerical")
    xi0 = sample_fictitious(model_wp, bridge.inner_sweeps, xi_init, rng)
    xis, log_ratio = bridge_ladder(xi0, model, model_wp, bridge.levels, rng)
    log_acc = (
        (lp_wp - lp_w)
        - energy_change(model, model_wp, phi_full)
        + log_ratio
    )
    if math.log(rng.uniform()) < log_acc:
        return DmhResult(model_wp, True, xis[-1], log_acc, "accepted")
    return DmhResult(model, False, xis[-1], log_acc, "mh")


@dataclass(frozen=True)
class FitConfig:
    """Knobs of the block-Gibbs fit over (parameters, latent angles)."""

    n_iter: int
    burn_in: int
    thin: int = 1
    phi_sweeps: int = 5
    dmh_steps: int = 1
    priors: PriorSpec = field(default_factory=PriorSpec)
    proposals: ProposalSpec = field(default_factory=ProposalSpec)
    bridge: BridgeConfig = field(default_factory=BridgeConfig)
    learn_mean: bool = True

    def __post_init__(self):
        if not (self.n_iter > self.burn_in >= 0):
            raise ValueError("need n_iter > burn_in >= 0")
        if self.thin < 1 or self.phi_sweeps < 0 or self.dmh_steps < 0:
            raise ValueError("invalid fit configuration")


@dataclass
class FitOutput:
    param_names: tuple  # table entries, KERNEL_BLOCK + MEAN_BLOCK order
    param_trace: np.ndarray  # (n_retained, len(param_names))
    accepted_trace: np.ndarray  # (n_retained,) 0/1: any exchange move accepted
    phi_samples: np.ndarray  # (n_retained, m) latent angles at test locations
    outcomes: dict  # move -> {reason in DMH_REASONS: count}; moves as in FIT_MOVES
    jitter_range: tuple  # (min, max) Gram jitter over every kernel value the chain held


# The fit's exchange moves, by the name its outcomes and summary.txt use;
# they alternate. With ``learn_mean`` the variance move also moves kappa,
# and an exact draw of nu (``draw_mean_direction``) follows each move.
FIT_MOVES = (("variance", VARIANCE_BLOCK), ("lengthscale", LENGTHSCALE_BLOCK))


def draw_mean_direction(model: ParamModel, phi_full, rng) -> ParamModel:
    """``model`` at a draw of nu from its conditional given the full state and kappa.

    Rotating every angle leaves the coupling unchanged, so the normalizer
    does not depend on nu, and under its uniform prior nu is von Mises
    with mean atan2(S, C) and concentration kappa * hypot(C, S), C and S
    the sums of cos and sin of ``phi_full``. The unit-variance
    precision and factor are shared.
    """
    c, s = cos_sin(phi_full).sum(axis=-1)
    nu = sample_von_mises(math.atan2(s, c), model.w.concentration * math.hypot(c, s), rng)
    return replace(model, w=replace(model.w, mean_direction=nu))


def block_gibbs_fit(theta, model: ParamModel, config: FitConfig, rng) -> FitOutput:
    """Alternate latent-angle sweeps with parameter moves.

    Transductive: the fit starts at ``model``, built over the prediction
    locations (first) and training locations (last) together, and builds
    every proposal at its slack. The parameter moves see the full state
    [phi, theta]. Each iteration's ``phi_sweeps`` latent sweeps run on
    ``model.latent(theta)`` of the model it starts with (under noisy
    observations that chain spans all locations) and are over-relaxed:
    every second one is a reflection. Each of the ``dmh_steps`` rounds
    then runs one kernel exchange move. The k-th one of the fit, counted
    from 0, moves sigma2 (and kappa with ``learn_mean``) when k is even,
    a rescale with no factorization, and the lengthscales when k is odd,
    so only every second move factors a Gram matrix. No move proposes nu:
    with ``learn_mean`` each is followed by ``draw_mean_direction``, and
    the persistent fictitious state turns by the change of nu, which maps
    a draw at the old nu to one at the new.
    """
    rng = as_generator(rng)
    theta = np.asarray(theta, dtype=float)
    m = model.precision.n_latent

    moves = FIT_MOVES
    if config.learn_mean:
        moves = (("variance", VARIANCE_BLOCK + ("kappa",)), *FIT_MOVES[1:])
    kernel_moves = itertools.cycle(moves)

    n = model.latent(theta)[0].size
    phi = sample_von_mises(model.w.mean_direction, model.w.concentration * np.ones(n), rng)
    xi = sample_von_mises(0.0, np.zeros(model.size), rng)

    names = tuple(_param_dict(model.w).keys())
    rows, accepted_rows, phi_rows = [], [], []
    outcomes = {name: dict.fromkeys(DMH_REASONS, 0) for name, _ in moves}
    jitters = [model.jitter]
    for t in range(config.n_iter):
        if n and config.phi_sweeps:
            cp, aug = model.latent(theta)
            phi = run_sweeps(phi, aug, cp, rng, config.phi_sweeps, overrelax=True)[0]
        phi_full = full_states(model, phi, theta)
        accepted_any = False
        for _ in range(config.dmh_steps):
            name, block = next(kernel_moves)
            res = dmh_step(model, phi_full, config.priors, config.proposals, config.bridge,
                           rng, xi, block=block)
            outcomes[name][res.reason] += 1
            xi = res.xi
            if res.accepted:
                accepted_any = True
                model = res.model
                jitters.append(model.jitter)
            if config.learn_mean:
                nu = model.w.mean_direction
                model = draw_mean_direction(model, phi_full, rng)
                xi = normalize_angle(xi + (model.w.mean_direction - nu))
        if t >= config.burn_in and (t - config.burn_in) % config.thin == 0:
            rows.append(list(_param_dict(model.w).values()))
            accepted_rows.append(int(accepted_any))
            phi_rows.append(phi[:m].copy())
    return FitOutput(
        names,
        np.array(rows),
        np.array(accepted_rows),
        np.array(phi_rows),
        outcomes,
        (min(jitters), max(jitters)),
    )


def gradient_names(w: ParamVector) -> tuple:
    return ("sigma2", *w.kernel.lengthscales, "kappa", "nu")


def energy_gradient(phi, model: ParamModel) -> np.ndarray:
    """Analytic gradient of U(varphi|w) in the parameters.

    ``phi`` holds one full state (d,) or a stack of them (..., d); the
    result is (p,) or (..., p), in ``gradient_names`` order. Kernel
    components use dM = -M dK M: P = [M cos; M sin] is one product of
    the cos/sin block with the unit precision, divided by sigma2, then one
    product of P with each of the model's cached kernel derivatives.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape[-1:] != (model.size,):
        raise ValueError(f"expected {model.size} angles per state, got shape {phi.shape}")
    w, pm = model.w, model.precision
    cs = cos_sin(phi)
    flat = (math.prod(cs.shape[:-1]), model.size)  # (2N, d) for N states
    P = (cs.reshape(flat) @ pm.unit_matrix).reshape(cs.shape)  # [M cos; M sin] * sigma2
    P /= pm.variance
    grad = [
        -0.5 * np.sum((P.reshape(flat) @ dK).reshape(cs.shape) * P, axis=(0, -1))
        for dK in model.derivatives.values()
    ]
    grad.append(-np.sum(np.cos(phi - w.mean_direction), axis=-1))
    grad.append(-w.concentration * np.sum(np.sin(phi - w.mean_direction), axis=-1))
    return np.stack(grad, axis=-1)


def cd_gradient(
    theta,
    model: ParamModel,
    mc_samples: int,
    rng,
    sweeps_between: int = 5,
    burn_sweeps: int = 50,
    repeats: int = 1,
) -> np.ndarray:
    """Contrastive-divergence estimate of the marginal-likelihood gradient.

    Difference of the energy-gradient expectation under the full-space
    distribution and under the latent conditional given the data. Shipped
    as a diagnostic: with few parameters and many latent coordinates the
    estimate is too noisy to drive point estimation.

    It returns (R, p) for R = ``repeats``, one row per independent chain
    pair: the R full-space chains run as one (R, d) stack and the R latent
    chains as one (R, n) stack, on one Generator, and ``energy_gradient``
    runs once per stack; the default ``repeats=1`` runs one chain pair.

    The latent chains have the target and factor of ``block_gibbs_fit``
    and ``sample``, ``model.latent(theta)``. Without observation noise
    they run over the n = m latent angles; under noise
    over all n = d, with theta as pulls. Both chains stay heat-bath, not
    over-relaxed: acceptance criterion c10 requires the lengthscale
    component's sign to disagree across seeds (agreement < 0.90), and
    better-mixing chains make it agree: 0.94 over c10's 50 seeds when both
    chains reflect every second sweep.
    """
    if mc_samples < 1:
        raise ValueError("mc_samples must be >= 1")
    if burn_sweeps < 0 or sweeps_between < 1:
        raise ValueError("need burn_sweeps >= 0 and sweeps_between >= 1")
    if repeats < 0:
        raise ValueError("repeats must be >= 0")
    rng = as_generator(rng)
    theta = np.asarray(theta, dtype=float)
    pm = model.precision

    first = burn_sweeps + sweeps_between

    # Full-space chains over all d angles.
    cp_full = full_state_params(pm, model.w)
    state = sample_von_mises(0.0, np.zeros((repeats, pm.size)), rng)
    states = run_sweeps(state, model.full_aug, cp_full, rng, first, mc_samples, sweeps_between)
    g_full = energy_gradient(states, model).mean(axis=0)

    # Conditional chains given the data (none without latent angles).
    cp, aug = model.latent(theta)
    if cp.size > 0:
        lat = sample_von_mises(0.0, np.zeros((repeats, cp.size)), rng)
        lats = run_sweeps(lat, aug, cp, rng, first, mc_samples, sweeps_between)
        g_cond = energy_gradient(full_states(model, lats, theta), model).mean(axis=0)
    else:
        g_cond = energy_gradient(theta, model)

    return g_full - g_cond
