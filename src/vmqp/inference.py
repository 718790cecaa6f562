"""Fully Bayesian parameter learning for the circular regression model.

The parameter posterior is doubly intractable: the likelihood carries an
unknown normalizer. Each Metropolis step therefore draws a fictitious
full-space angle vector under the proposed parameters (an inner augmented
Gibbs chain) so that the normalizers cancel from the acceptance ratio.
Optionally, K annealed bridging levels refine the one-sample importance
estimate of the normalizer ratio. A bridging transition is the Gibbs sweep
of ``gibbs.augmented_sweep`` on the two existing full-space factors, each
scaled, so no per-level factorization is needed; plain double-MH is the
ladder with no level.

Each kernel value costs one symmetric eigendecomposition of its Gram
matrix, in ``build_gram``; it sets the jitter and yields the precision,
its top eigenvalue and the augmentation factor, which share the one
d x d eigenvector array: a model keeps neither the Gram matrix nor a
factor matrix. The exchange move reads the precision only through
energies, which come straight from the eigenpairs, so a proposal forms
no d x d precision; an accepted kernel move forms only its latent rows,
for the latent chain. Moves of the mean parameters alone reuse the
current decomposition, and their energy differences need only the pull.

The fit, ``sample`` and the CD diagnostic share one latent chain given the
data: ``latent_params`` and ``latent_factor``, with ``full_states``.

The learning setting is transductive: prediction locations are fixed at
fit time because the model is not closed under marginalization; every
sampler, the fit too, runs on a ``ParamModel`` its caller builds over them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from .circular import as_generator, cos_sin, sample_von_mises
from .errors import NumericalError
from .gibbs import Augmentation, augmented_sweep, make_augmentation, run_sweeps
from .gibbs import slack_augmentation, DEFAULT_SLACK
from .gibbs import gibbs_sweep  # noqa: F401  perfbench/test_perfbench.py reads this binding
from .kernels import KernelSpec, build_gram, kernel_derivatives
from .model import (
    ConditionalParams,
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
# [gradient_lengthscale^2], kappa, nu), in this order, as two blocks.
KERNEL_BLOCK = ("sigma2", "lengthscale2", "gradient2")
MEAN_BLOCK = ("kappa", "nu")


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

    ``precision`` holds the eigenpairs (s, V) of K = V diag(s) V' and forms
    products of M = K^-1 only when read. The full-space augmentation
    factor ``full_aug`` (any A with A'A = lam*I - M, here
    diag(sqrt(lam - 1/s)) V') holds the same V object and the scale
    sqrt(lam - 1/s), so V is the only d x d array the model owns; repeated
    fictitious-sample chains and bridging ladders reuse it. The Gram
    matrix itself is not kept, only its diagonal ``jitter``. Models that
    differ only in the mean parameters share precision and full_aug.
    ``slack`` is the rule lam = (1 + slack) * lam_max of full_aug, and
    every latent factor built for this model uses it too. ``derivatives``
    (dK/dp for ``energy_gradient``, d x d each) is computed on first read
    and kept.
    """

    w: ParamVector
    locations: np.ndarray
    jitter: float
    precision: PrecisionModel
    full_aug: Augmentation
    slack: float

    @property
    def size(self) -> int:
        return self.precision.size

    def energy(self, phi) -> float:
        return energy(phi, self.w, self.precision)

    @cached_property
    def derivatives(self) -> dict:
        return kernel_derivatives(self.w.kernel, self.locations)


def energy_change(model_w: ParamModel, model_wp: ParamModel, phi) -> float:
    """U(phi|w') - U(phi|w).

    Models that share their precision, as a mean-block proposal does with
    the current model, differ only in the pull, so their difference costs
    O(d) and no product with the eigenvectors.
    """
    if model_wp.precision is model_w.precision:
        return float(mean_pull(phi, model_w.w) - mean_pull(phi, model_wp.w))
    return model_wp.energy(phi) - model_w.energy(phi)


def build_param_model(
    w: ParamVector, locations, n_latent: int, slack: float = DEFAULT_SLACK
) -> ParamModel:
    """Model at ``w`` from the one eigendecomposition that ``build_gram`` ran.

    Besides that ``eigh`` it forms O(d) scales; the precision and the
    factor share the eigenvectors of K, and K itself is dropped.
    """
    X = np.asarray(locations, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    gram = build_gram(w.kernel, X)
    pm = build_precision(gram, n_latent, X.shape[0] - n_latent)
    aug = slack_augmentation(1.0 / pm.eigenvalues, pm.eigenvectors, slack)  # eigenpairs of M
    return ParamModel(w, X, gram.jitter, pm, aug, slack)


def latent_params(model: ParamModel, theta) -> ConditionalParams:
    """Target of the latent chain given the observed angles ``theta``.

    Without observation noise the chain runs over the m prediction angles
    conditioned on theta. With noisy observations (chi present) it runs
    over all d angles, and theta enters as per-coordinate pulls.
    """
    if model.w.noise_concentration is not None:
        return full_state_params(model.precision, model.w, theta)
    return conditional_params(model.precision, theta, model.w)


def latent_factor(model: ParamModel) -> Augmentation:
    """Factor of the latent chain whose target ``latent_params`` gives.

    It factors the coupling, the precision's latent block, at the slack of
    the model; so it depends on the kernel but not on (kappa, nu). Under
    noisy observations the coupling is the full precision, whose spectral
    factor the model already holds.
    """
    if model.w.noise_concentration is not None:
        return model.full_aug
    return make_augmentation(model.precision.latent_block, model.slack)


def full_states(model: ParamModel, latent, theta) -> np.ndarray:
    """Full states (..., d) of latent-chain states (..., n): [latent; theta].

    Under noisy observations the latent states already span all d angles.
    """
    if model.w.noise_concentration is not None:
        return latent
    observed = np.broadcast_to(theta, latent.shape[:-1] + theta.shape)
    return np.concatenate([latent, observed], axis=-1)


def propose(
    w: ParamVector, proposals: ProposalSpec, block, rng
) -> ParamVector | None:
    """Random-walk proposal on the named block; None if out of support.

    Each table entry p of ``block`` present in ``w`` moves by
    ``<p>_step`` times a standard normal, in block order. The support is
    that of the ``KernelSpec`` and ``ParamVector`` constructors. A block
    that moves no kernel parameter keeps the ``KernelSpec`` object of
    ``w``, which tells the exchange step that the Gram matrix is unchanged.
    """
    rng = as_generator(rng)
    values = _param_dict(w)
    moved = [name for name in block if name in values]
    for name in moved:
        values[name] += getattr(proposals, f"{name}_step") * rng.standard_normal()
    kernel = w.kernel
    try:
        if not set(moved).isdisjoint(KERNEL_BLOCK):
            g2 = values.get("gradient2")
            kernel = KernelSpec(
                kernel.family,
                values["sigma2"],
                math.sqrt(values["lengthscale2"]),
                None if g2 is None else math.sqrt(g2),
            )
        return ParamVector(kernel, values["kappa"], values["nu"], w.noise_concentration)
    except ValueError:  # a constructor or sqrt refused a value
        return None


def sample_fictitious(
    model: ParamModel, sweeps: int, init, rng
) -> np.ndarray:
    """Approximate full-space draw from exp(-U(.|w)) via Gibbs sweeps."""
    if sweeps < 1:
        raise ValueError("sweeps must be >= 1")
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
    interpolated pull. Its transition is ``augmented_sweep`` on the two
    cached factors (A'A = lam*I - M) scaled by sqrt(beta_k) and
    sqrt(1 - beta_k), so no level needs a factorization. The estimate is
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
        factors = (
            (aug_w.eigenvectors, math.sqrt(beta) * aug_w.scale),
            (aug_wp.eigenvectors, math.sqrt(1.0 - beta) * aug_wp.scale),
        )
        alpha_c, alpha_s = (
            beta * w.concentration * f(w.mean_direction)
            + (1.0 - beta) * wp.concentration * f(wp.mean_direction)
            for f in (math.cos, math.sin)
        )
        xi = augmented_sweep(xi, factors, alpha_c, alpha_s, rng)
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
    block=None,
) -> DmhResult:
    """One exchange move on the parameters given the current full state.

    The acceptance ratio uses only priors, proposal symmetry, the
    unnormalized density f at the current state and the ``bridge_ladder``
    ratio from the fictitious sample (plain double-MH at
    ``bridge.levels`` = 0); normalizing constants never appear.
    Proposals outside the prior support are rejected without touching the
    kernel. A proposal that keeps the kernel reuses the current
    precision and augmentation factor, and its energy differences
    are differences of the pull alone; one that moves it is built at the
    slack of ``model``. The inner chain starts from
    ``xi_init`` (persistent across outer iterations), and the accepted
    move hands back the final ladder state for the next step.
    """
    rng = as_generator(rng)
    if block is None:
        block = KERNEL_BLOCK + MEAN_BLOCK
    w = model.w
    wp = propose(w, proposals, block, rng)
    if wp is None:
        return DmhResult(model, False, xi_init, -math.inf, "support")
    lp_w = priors.log_density(w)
    lp_wp = priors.log_density(wp)
    if wp.kernel is w.kernel:
        model_wp = replace(model, w=wp)
    else:
        try:
            model_wp = build_param_model(
                wp, model.locations, model.precision.n_latent, model.slack
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
    accepted_trace: np.ndarray  # (n_retained,) 0/1: any block accepted
    phi_samples: np.ndarray  # (n_retained, m) latent angles at test locations
    outcomes: dict  # block -> {reason in DMH_REASONS: count}
    jitter_range: tuple  # (min, max) Gram jitter over every kernel value the chain held


def block_gibbs_fit(theta, model: ParamModel, config: FitConfig, rng) -> FitOutput:
    """Alternate latent-angle sweeps with exchange moves on the parameters.

    Transductive: the fit starts at ``model``, built over the prediction
    locations (first) and training locations (last) together, and builds
    every proposal at its slack. The parameter moves see the full state
    [phi, theta]. With noisy observations (chi present) the latent state
    spans all locations and the data enter through observation pulls.
    """
    rng = as_generator(rng)
    theta = np.asarray(theta, dtype=float)
    m = model.precision.n_latent

    blocks = [("kernel", KERNEL_BLOCK)]
    if config.learn_mean:
        blocks.append(("mean", MEAN_BLOCK))

    cp = latent_params(model, theta)
    latent_aug = latent_factor(model)
    phi = sample_von_mises(model.w.mean_direction, model.w.concentration * np.ones(cp.size), rng)
    xi = sample_von_mises(0.0, np.zeros(model.size), rng)

    names = tuple(_param_dict(model.w).keys())
    rows, accepted_rows, phi_rows = [], [], []
    outcomes = {name: dict.fromkeys(DMH_REASONS, 0) for name, _ in blocks}
    jitters = [model.jitter]
    for t in range(config.n_iter):
        if cp.size and config.phi_sweeps:
            phi = run_sweeps(phi, latent_aug, cp, rng, config.phi_sweeps)[0]
        phi_full = full_states(model, phi, theta)
        accepted_any = False
        for _ in range(config.dmh_steps):
            for name, block in blocks:
                res = dmh_step(
                    model,
                    phi_full,
                    config.priors,
                    config.proposals,
                    config.bridge,
                    rng,
                    xi,
                    block=block,
                )
                outcomes[name][res.reason] += 1
                xi = res.xi
                if res.accepted:
                    accepted_any = True
                    kernel_moved = res.model.precision is not model.precision
                    model = res.model
                    cp = latent_params(model, theta)
                    if kernel_moved:
                        latent_aug = latent_factor(model)
                        jitters.append(model.jitter)
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
    components use dM = -M dK M: one product of the (2, ..., d) cos/sin
    block with M, then one with each kernel derivative. It reads the whole
    precision and the model's cached kernel derivatives.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape[-1:] != (model.size,):
        raise ValueError(f"expected {model.size} angles per state, got shape {phi.shape}")
    w = model.w
    M = model.precision.matrix
    cs = cos_sin(phi)
    flat = (math.prod(cs.shape[:-1]), model.size)  # (2N, d) for N states
    P = (cs.reshape(flat) @ M).reshape(cs.shape)  # [M cos; M sin], M symmetric
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
    repeats: int | None = None,
    latent_aug: Augmentation | None = None,
) -> np.ndarray:
    """Contrastive-divergence estimate of the marginal-likelihood gradient.

    Difference of the energy-gradient expectation under the full-space
    distribution and under the latent conditional given the data. Shipped
    as a diagnostic: with few parameters and many latent coordinates the
    estimate is too noisy to drive point estimation.

    With ``repeats`` None it runs one chain pair and returns (p,). With an
    int R it returns (R, p), one row per independent chain pair: the R
    full-space chains run as one (R, d) stack and the R latent chains as
    one (R, n) stack, on one Generator, and ``energy_gradient`` runs once
    per stack. ``repeats=1`` gives the None estimate as its one row.

    The latent chains are those of ``block_gibbs_fit`` and ``sample``:
    target ``latent_params``, factor ``latent_aug`` or, when None,
    ``latent_factor(model)``. Without observation noise they run over the
    n = m latent angles; under noise over all n = d, with theta as pulls.
    """
    if mc_samples < 1:
        raise ValueError("mc_samples must be >= 1")
    if repeats is not None and repeats < 0:
        raise ValueError("repeats must be >= 0")
    rng = as_generator(rng)
    theta = np.asarray(theta, dtype=float)
    pm = model.precision
    stack = () if repeats is None else (repeats,)

    first = burn_sweeps + sweeps_between

    # Full-space chains over all d angles.
    cp_full = full_state_params(pm, model.w)
    state = sample_von_mises(0.0, np.zeros(stack + (pm.size,)), rng)
    states = run_sweeps(state, model.full_aug, cp_full, rng, first, mc_samples, sweeps_between)
    g_full = energy_gradient(states, model).mean(axis=0)

    # Conditional chains given the data (none without latent angles).
    cp = latent_params(model, theta)
    if cp.size > 0:
        aug = latent_factor(model) if latent_aug is None else latent_aug
        if aug.size != cp.size:
            raise ValueError("latent_aug does not match the latent angles")
        lat = sample_von_mises(0.0, np.zeros(stack + (cp.size,)), rng)
        lats = run_sweeps(lat, aug, cp, rng, first, mc_samples, sweeps_between)
        g_cond = energy_gradient(full_states(model, lats, theta), model).mean(axis=0)
    else:
        g_cond = energy_gradient(theta, model)

    return g_full - g_cond
