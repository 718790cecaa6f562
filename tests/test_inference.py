import inspect
import math
from dataclasses import fields, replace
from functools import cached_property

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import i0

import vmqp.inference as inference
from vmqp.errors import NumericalError
from vmqp.inference import (
    MEAN_BLOCK,
    BridgeConfig,
    FitConfig,
    PriorSpec,
    ProposalSpec,
    bridge_ladder,
    build_param_model,
    block_gibbs_fit,
    cd_gradient,
    dmh_step,
    energy_change,
    energy_gradient,
    gradient_names,
    latent_params,
    propose,
    sample_fictitious,
)
from vmqp.kernels import GramMatrix, KernelSpec, kernel_derivatives, kernel_matrix
from vmqp.circular import sample_von_mises
from vmqp.model import ParamVector, PrecisionModel

from test_kernels import FAMILY_SPECS


def simple_model(kappa=1.0, nu=0.0, n_latent=0):
    w = ParamVector(KernelSpec("gaussian", 1.0, 1.0), kappa, nu)
    return build_param_model(w, np.array([[0.0]]), n_latent)


def test_prior_support():
    priors = PriorSpec()
    w = ParamVector(KernelSpec("gaussian", 1.0, 1.0), 0.5, 0.2)
    assert np.isfinite(priors.log_density(w))


def test_prior_half_normal_value():
    # sigma2 = l^2 = 1, kappa = 0, all unit scales:
    # 3 half-normal terms exp(-1/2)*sqrt(2/pi), exp(-1/2)*..., exp(0)*...
    # plus the uniform nu term
    priors = PriorSpec()
    w = ParamVector(KernelSpec("gaussian", 1.0, 1.0), 0.0, 0.0)
    expected = 3 * (0.5 * math.log(2 / math.pi)) - 1.0 - math.log(2 * math.pi)
    assert priors.log_density(w) == pytest.approx(expected)


def test_proposal_validation():
    with pytest.raises(ValueError):
        ProposalSpec(kappa_step=0.0)
    with pytest.raises(ValueError):
        ProposalSpec(nu_step=math.inf)
    with pytest.raises(ValueError):
        PriorSpec(kappa_scale=0.0)
    with pytest.raises(ValueError):
        BridgeConfig(levels=-1)
    with pytest.raises(ValueError):
        BridgeConfig(inner_sweeps=0)


def test_propose_stays_in_support(rng):
    # tiny kappa with a large step: out-of-support proposals return None,
    # never a negative concentration
    w = ParamVector(KernelSpec("gaussian", 1.0, 1.0), 0.01, 0.0)
    proposals = ProposalSpec(kappa_step=2.0)
    results = [propose(w, proposals, ("kappa",), rng) for _ in range(200)]
    rejected = [r for r in results if r is None]
    assert rejected  # the step size guarantees some negative draws
    assert all(r.concentration >= 0 for r in results if r is not None)
    # the same for each squared scale of the anisotropic kernel, with the
    # boundary value 0 itself: a step that lands on it is refused too
    w = ParamVector(KernelSpec("anisotropic_gaussian", 1.0, 1.0, 1.0), 0.5, 0.0)
    for name in inference.KERNEL_BLOCK:
        proposals = ProposalSpec(**{f"{name}_step": 5.0})
        results = [propose(w, proposals, (name,), rng) for _ in range(200)]
        assert any(r is None for r in results), name
        kept = [r.kernel for r in results if r is not None]
        assert all(min(k.variance, k.lengthscale, k.gradient_lengthscale) > 0 for k in kept)
        onto_zero = ProposalSpec(**{f"{name}_step": 1.0})
        assert propose(w, onto_zero, (name,), _ConstantNormal(-1.0)) is None, name


class _ConstantNormal(np.random.Generator):
    """A Generator whose standard normal draw is always ``value``."""

    def __init__(self, value):
        super().__init__(np.random.PCG64(0))
        self.value = value

    def standard_normal(self, *args, **kwargs):
        return self.value


def test_parameter_table_names_every_setting():
    table = inference.KERNEL_BLOCK + MEAN_BLOCK
    assert [f.name for f in fields(ProposalSpec)] == [f"{p}_step" for p in table]
    assert [f.name for f in fields(PriorSpec)] == [f"{p}_scale" for p in table if p != "nu"]


def test_propose_block_isolation(rng):
    w = ParamVector(KernelSpec("gaussian", 1.0, 1.0), 0.5, 0.2)
    wp = propose(w, ProposalSpec(), ("kappa", "nu"), rng)
    assert wp.kernel == w.kernel
    assert wp.concentration != w.concentration


def test_propose_skips_absent_gradient(rng):
    w = ParamVector(KernelSpec("gaussian", 1.0, 1.0), 0.5, 0.2)
    wp = propose(w, ProposalSpec(), ("gradient2",), rng)
    assert wp == w


def test_sample_fictitious_bessel(rng):
    # d = 1 prior draw is von Mises(nu, kappa): resultant length I1/I0
    kappa = 1.5
    model = simple_model(kappa=kappa, nu=0.4)
    draws = np.array(
        [sample_fictitious(model, 5, [0.0], rng) for _ in range(40_000)]
    ).ravel()
    r_exact = quad(lambda x: math.cos(x) * math.exp(kappa * math.cos(x)), -math.pi, math.pi)[0]
    r_exact /= quad(lambda x: math.exp(kappa * math.cos(x)), -math.pi, math.pi)[0]
    resultant = np.hypot(np.mean(np.cos(draws - 0.4)), np.mean(np.sin(draws - 0.4)))
    assert np.mean(np.cos(draws - 0.4)) == pytest.approx(r_exact, abs=0.01)
    assert resultant == pytest.approx(r_exact, abs=0.01)


def test_sample_fictitious_validation(rng):
    model = simple_model()
    with pytest.raises(ValueError):
        sample_fictitious(model, 0, [0.0], rng)
    with pytest.raises(ValueError):
        sample_fictitious(model, 1, [0.0, 0.0], rng)


def test_sample_fictitious_deterministic():
    model = simple_model()
    a = sample_fictitious(model, 10, [0.2], np.random.default_rng(5))
    b = sample_fictitious(model, 10, [0.2], np.random.default_rng(5))
    assert np.array_equal(a, b)


def test_bridge_same_params_zero_ratio(rng):
    model = simple_model(kappa=1.0)
    xi0 = np.array([0.7])
    xis, log_ratio = bridge_ladder(xi0, model, model, 4, rng)
    assert len(xis) == 5
    assert log_ratio == pytest.approx(0.0, abs=1e-12)


def test_bridge_ratio_matches_quadrature(rng):
    # the estimate targets Z(w) / Z(w') = I0(kappa) / I0(kappa'), the
    # factor that cancels the likelihood normalizer ratio; repeated
    # one-draw estimates with an exact xi0 should average to it
    kappa, kappa_p = 1.5, 0.5
    m_w = simple_model(kappa=kappa, nu=0.3)
    m_wp = simple_model(kappa=kappa_p, nu=0.3)
    target = i0(kappa) / i0(kappa_p)
    ests = []
    for _ in range(2000):
        xi0 = np.array([float(rng.vonmises(0.3, kappa_p))])
        _, lr = bridge_ladder(xi0, m_w, m_wp, 20, rng)
        ests.append(math.exp(lr))
    assert np.mean(ests) == pytest.approx(target, rel=0.05)


def ladder_pair():
    locations = np.linspace(0.0, 4.0, 8)[:, None]
    model_w = build_param_model(
        ParamVector(KernelSpec("exponential", 1.0, 1.0), 0.5, 0.3), locations, 2)
    model_wp = build_param_model(
        ParamVector(KernelSpec("exponential", 1.4, 0.7), 0.9, -1.0), locations, 2)
    return model_w, model_wp


def test_bridge_ladder_with_no_level_is_the_one_sample_ratio():
    model_w, model_wp = ladder_pair()
    mean_only = replace(model_w, w=replace(model_w.w, concentration=1.2))
    xi0 = np.random.default_rng(1).uniform(-np.pi, np.pi, 8)
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    for other in (model_wp, mean_only):
        xis, log_ratio = bridge_ladder(xi0, model_w, other, 0, rng)
        assert len(xis) == 1 and np.array_equal(xis[0], xi0)
        assert log_ratio == energy_change(model_w, other, xi0)
    assert rng.bit_generator.state == before
    with pytest.raises(ValueError, match="levels"):
        bridge_ladder(xi0, model_w, model_wp, -1, rng)


def plain_double_mh(model, phi_full, priors, proposals, inner_sweeps, rng, xi_init, block):
    """Reference exchange move without a ladder: one fictitious draw under w'.

    Returns (accepted, log_acceptance, xi, reason) of the step.
    """
    wp = propose(model.w, proposals, block, rng)
    if wp is None or not np.isfinite(priors.log_density(wp)):
        return False, -math.inf, xi_init, "support"
    if wp.kernel is model.w.kernel:
        model_wp = replace(model, w=wp)
    else:
        model_wp = build_param_model(wp, model.locations, model.precision.n_latent, model.slack)
    xi0 = sample_fictitious(model_wp, inner_sweeps, xi_init, rng)
    log_acc = (
        (priors.log_density(wp) - priors.log_density(model.w))
        - energy_change(model, model_wp, phi_full)
        + energy_change(model, model_wp, xi0)
    )
    accepted = math.log(rng.uniform()) < log_acc
    return accepted, log_acc, xi0, "accepted" if accepted else "mh"


def test_dmh_step_without_levels_is_plain_double_mh_through_the_ladder(monkeypatch):
    ladders = []
    ladder = inference.bridge_ladder

    def recording(xi0, model_w, model_wp, levels, rng):
        ladders.append(levels)
        return ladder(xi0, model_w, model_wp, levels, rng)

    monkeypatch.setattr(inference, "bridge_ladder", recording)
    model, _ = ladder_pair()
    model = replace(model, w=replace(model.w, concentration=0.05))
    gen = np.random.default_rng(2)
    phi_full = gen.uniform(-np.pi, np.pi, 8)
    xi = gen.uniform(-np.pi, np.pi, 8)
    priors = PriorSpec()
    proposals = ProposalSpec(sigma2_step=0.3, lengthscale2_step=0.5, kappa_step=0.5)
    got_rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
    reasons = []
    for step in range(30):
        block = inference.KERNEL_BLOCK if step % 2 else MEAN_BLOCK
        res = dmh_step(model, phi_full, priors, proposals, BridgeConfig(0, 4), got_rng, xi, block)
        accepted, log_acc, ref_xi, reason = plain_double_mh(
            model, phi_full, priors, proposals, 4, ref_rng, xi, block)
        assert (res.accepted, res.reason) == (accepted, reason)
        assert res.log_acceptance == log_acc
        assert np.array_equal(res.xi, ref_xi)
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state
        reasons.append(reason)
        model, xi = res.model, res.xi
    assert {"accepted", "mh", "support"} <= set(reasons)
    # every step that reached the exchange ratio ran the ladder with no level
    assert ladders == [0] * (30 - reasons.count("support"))


def test_dmh_rejects_out_of_support(rng):
    # with kappa pinned near zero and a huge step, out-of-support
    # proposals must auto-reject without error
    model = simple_model(kappa=0.0)
    proposals = ProposalSpec(kappa_step=5.0)
    kappas = []
    xi = np.array([0.0])
    for _ in range(100):
        res = dmh_step(
            model,
            np.array([0.3]),
            PriorSpec(),
            proposals,
            BridgeConfig(0, inner_sweeps=2),
            rng,
            xi,
            block=("kappa",),
        )
        model, xi = res.model, res.xi
        kappas.append(model.w.concentration)
    assert all(k >= 0 for k in kappas)


def test_dmh_never_touches_normalizer():
    # the acceptance computation must not call any Bessel or quadrature
    # routine: the normalizer is intractable by construction
    src = inspect.getsource(inference)
    for token in ("i0(", "ive(", "quad(", "partition", "log_z"):
        assert token not in src


def test_fit_fixed_params_reduces_to_sampling(rng):
    # dmh_steps = 0 keeps w at its initial value throughout
    w = ParamVector(KernelSpec("exponential", 1.0, 1.0), 0.5, 0.3)
    theta = np.array([0.2, -0.4, 0.9])
    train = np.array([[0.5], [1.5], [2.5]])
    test = np.array([[1.0]])
    cfg = FitConfig(n_iter=30, burn_in=10, dmh_steps=0)
    out = block_gibbs_fit(theta, build_param_model(w, np.vstack([test, train]), 1), cfg, rng)
    assert out.phi_samples.shape == (20, 1)
    assert np.all(out.param_trace == out.param_trace[0])
    assert np.all(out.accepted_trace == 0)


def test_fit_learns_and_reports_rates(rng):
    w = ParamVector(KernelSpec("exponential", 1.0, 1.0), 0.5, 0.3)
    theta = np.array([0.2, -0.4, 0.9, 0.1])
    train = np.arange(4, dtype=float).reshape(-1, 1)
    cfg = FitConfig(
        n_iter=40, burn_in=10, phi_sweeps=2,
        bridge=BridgeConfig(0, inner_sweeps=5),
    )
    # no test locations, on column and on flat training locations
    for locations in (train, train[:, 0]):
        out = block_gibbs_fit(theta, build_param_model(w, locations, 0), cfg, rng)
        assert set(out.outcomes) == {"kernel", "mean"}
        assert out.param_trace.shape == (30, 4)
        assert out.param_names == ("sigma2", "lengthscale2", "kappa", "nu")
    # the anisotropic kernel adds gradient2, in table order
    w = ParamVector(KernelSpec("anisotropic_gaussian", 1.0, 1.0, 1.0), 0.5, 0.3)
    train = np.column_stack([np.arange(4.0), np.arange(4.0) % 2])
    out = block_gibbs_fit(theta, build_param_model(w, train, 0), cfg, rng)
    assert out.param_names == inference.KERNEL_BLOCK + MEAN_BLOCK
    assert out.param_trace.shape == (30, 5)


def test_fit_reads_1d_locations_as_one_coordinate_each():
    # build_param_model reads (n,) locations as the (n, 1) ones, so both fits agree
    w = ParamVector(KernelSpec("exponential", 1.0, 1.0), 0.5, 0.3)
    theta = np.array([0.2, -0.4, 0.9, 0.1])
    cfg = FitConfig(n_iter=20, burn_in=5, phi_sweeps=2, bridge=BridgeConfig(1, inner_sweeps=3))
    locations = np.array([0.5, 1.5, 0.0, 1.0, 2.0, 3.0])  # [test; train]
    flat = block_gibbs_fit(theta, build_param_model(w, locations, 2), cfg, np.random.default_rng(3))
    column = block_gibbs_fit(
        theta, build_param_model(w, locations[:, None], 2), cfg, np.random.default_rng(3)
    )
    assert flat.phi_samples.shape == (15, 2)
    for name, value in vars(column).items():
        assert np.array_equal(getattr(flat, name), value), name


def test_gradient_names(rng):
    w = ParamVector(KernelSpec("anisotropic_gaussian", 1.0, 1.0, 0.5), 0.5, 0.0)
    assert gradient_names(w) == (
        "sigma2", "lengthscale", "gradient_lengthscale", "kappa", "nu",
    )
    # the cd_gradient.csv header and the derivative keys read one kernel table
    X = rng.uniform(-3.0, 3.0, size=(5, 3))
    for spec in FAMILY_SPECS.values():
        names = gradient_names(ParamVector(spec, 0.5, 0.0))
        assert names[:-2] == tuple(kernel_derivatives(spec, X)) == ("sigma2", *spec.lengthscales)


@pytest.mark.parametrize("family", ["exponential", "gaussian", "anisotropic_gaussian"])
def test_energy_gradient_finite_differences(rng, family):
    # analytic gradient against central differences in every parameter
    anisotropic = family == "anisotropic_gaussian"
    locs = rng.uniform(0, 3, size=(4, 2 if anisotropic else 1))
    phi = rng.uniform(-np.pi, np.pi, 4)
    base = {"sigma2": 0.8, "lengthscale": 1.2, "kappa": 0.7, "nu": 0.4}
    if anisotropic:
        base["gradient_lengthscale"] = 0.9

    def params(p):
        kernel = KernelSpec(family, p["sigma2"], p["lengthscale"], p.get("gradient_lengthscale"))
        return ParamVector(kernel, p["kappa"], p["nu"])

    def u(p):
        return build_param_model(params(p), locs, 0).energy(phi)

    w0 = params(base)
    grad = energy_gradient(phi, build_param_model(w0, locs, 0))
    assert len(grad) == len(base)
    h = 1e-6
    for i, name in enumerate(gradient_names(w0)):
        hi = dict(base, **{name: base[name] + h})
        lo = dict(base, **{name: base[name] - h})
        fd = (u(hi) - u(lo)) / (2 * h)
        assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-6)


def test_energy_gradient_nu_zero_at_kappa_zero(rng):
    model = simple_model(kappa=0.0, nu=0.7)
    grad = energy_gradient(rng.uniform(-np.pi, np.pi, 1), model)
    assert grad[gradient_names(model.w).index("nu")] == 0.0


def test_cd_gradient_shape_and_validation(rng):
    model = simple_model(kappa=1.0, n_latent=0)
    g = cd_gradient(np.array([0.5]), model, 5, rng)
    assert g.shape == (4,)
    with pytest.raises(ValueError):
        cd_gradient(np.array([0.5]), model, 0, rng)


def test_cd_gradient_factors_its_latent_chain_at_the_model_slack(monkeypatch, rng):
    factors = []
    make_augmentation = inference.make_augmentation

    def recording(Q, slack):
        factors.append(make_augmentation(Q, slack))
        return factors[-1]

    monkeypatch.setattr(inference, "make_augmentation", recording)
    w = ParamVector(KernelSpec("exponential", 1.0, 1.0), 0.5, 0.3)
    model = build_param_model(w, np.linspace(0.0, 3.0, 5)[:, None], 2, slack=0.5)
    cd_gradient(np.array([0.2, -0.4, 0.9]), model, 3, rng, burn_sweeps=2)
    assert len(factors) == 1
    aug = factors[0]
    assert aug.size == 2
    assert aug.lam == pytest.approx(1.5 * aug.lam_max_estimate)
    assert aug.lam_max_estimate == pytest.approx(
        np.linalg.eigvalsh(model.precision.latent_block)[-1]
    )


def test_cd_gradient_runs_on_a_given_latent_factor(monkeypatch, rng):
    w = ParamVector(KernelSpec("exponential", 1.0, 1.0), 0.5, 0.3)
    model = build_param_model(w, np.linspace(0.0, 3.0, 5)[:, None], 2, slack=0.5)
    theta = np.array([0.2, -0.4, 0.9])
    aug = inference.latent_factor(model)
    expected = cd_gradient(theta, model, 3, np.random.default_rng(8), burn_sweeps=2)

    def no_factor(*args, **kwargs):
        raise AssertionError("cd_gradient factored its latent chain again")

    monkeypatch.setattr(inference, "make_augmentation", no_factor)
    got = cd_gradient(theta, model, 3, np.random.default_rng(8), burn_sweeps=2, latent_aug=aug)
    assert np.array_equal(got, expected)
    with pytest.raises(ValueError, match="latent_aug"):
        cd_gradient(theta, model, 3, rng, burn_sweeps=2, latent_aug=model.full_aug)


def test_fit_reports_the_jitter_range_of_its_kernels(rng):
    # the first jitter rung, 1e-8 * sigma2, lifts these kernels, so the
    # range brackets 1e-8 times every retained sigma2
    w = ParamVector(KernelSpec("exponential", 1.0, 1.0), 0.5, 0.3)
    theta = np.array([0.2, -0.4, 0.9, 0.1])
    train = np.arange(4, dtype=float).reshape(-1, 1)
    cfg = FitConfig(n_iter=40, burn_in=0, phi_sweeps=1, bridge=BridgeConfig(0, inner_sweeps=2))
    model = build_param_model(w, np.vstack([[[0.5], [2.5]], train]), 2)
    out = block_gibbs_fit(theta, model, cfg, rng)
    assert out.outcomes["kernel"]["accepted"] > 0
    lo, hi = out.jitter_range
    sigma2 = out.param_trace[:, out.param_names.index("sigma2")]
    assert lo < hi
    assert lo == pytest.approx(1e-8 * min(1.0, sigma2.min()), rel=1e-12)
    assert hi == pytest.approx(1e-8 * max(1.0, sigma2.max()), rel=1e-12)


@pytest.mark.parametrize("d", [5, 600])
def test_spectral_param_model_identities(d):
    # one eigendecomposition gives the precision, the exact top eigenvalue
    # and a factor A with A'A = lam*I - M
    w = ParamVector(KernelSpec("exponential", 1.3, 1.0), 0.5, 0.2)
    locations = np.linspace(0.0, 0.5 * d, d)[:, None]
    slack = 0.05
    model = build_param_model(w, locations, 2, slack)
    K = kernel_matrix(w.kernel, locations, locations) + model.jitter * np.eye(d)
    M = model.precision.matrix
    aug = model.full_aug
    s_min = np.linalg.eigvalsh(K)[0]
    assert np.max(np.abs(M @ K - np.eye(d))) < 1e-9
    assert np.array_equal(M, M.T)
    gap = aug.lam * np.eye(d) - M
    assert np.max(np.abs(aug.factor.T @ aug.factor - gap)) < 1e-9 * aug.lam
    assert aug.lam_max_estimate == pytest.approx(1.0 / s_min, rel=1e-12)
    assert aug.lam == (1.0 + slack) * aug.lam_max_estimate
    assert model.precision.n_latent == 2 and model.precision.n_observed == d - 2


def test_build_param_model_rejects_indefinite_gram(monkeypatch):
    K = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
    monkeypatch.setattr(inference, "build_gram", lambda spec, X: GramMatrix(K, 0.0, *np.linalg.eigh(K)))
    w = ParamVector(KernelSpec("gaussian", 1.0, 1.0), 0.5, 0.0)
    with pytest.raises(NumericalError):
        build_param_model(w, np.array([[0.0], [1.0]]), 1)


def test_mean_block_dmh_reuses_the_current_model(monkeypatch, rng):
    w = ParamVector(KernelSpec("exponential", 1.0, 1.0), 0.5, 0.3)
    model = build_param_model(w, np.linspace(0.0, 3.0, 6)[:, None], 2)

    def no_build(*args, **kwargs):
        raise AssertionError("a mean-block move rebuilt the model")

    proposed = []

    def fictitious(model_wp, sweeps, init, rng):
        proposed.append(model_wp)
        return sample_fictitious(model_wp, sweeps, init, rng)

    monkeypatch.setattr(inference, "build_param_model", no_build)
    monkeypatch.setattr(inference, "sample_fictitious", fictitious)
    accepted = 0
    for _ in range(20):
        res = dmh_step(
            model, np.zeros(6), PriorSpec(), ProposalSpec(),
            BridgeConfig(1, inner_sweeps=2), rng, np.zeros(6), block=MEAN_BLOCK,
        )
        accepted += res.accepted
    assert accepted > 0
    assert len(proposed) == 20
    for model_wp in proposed:
        assert model_wp.w.kernel is w.kernel
        assert model_wp.w != w
        assert model_wp.precision.eigenvectors is model.precision.eigenvectors
        assert model_wp.precision is model.precision
        assert model_wp.full_aug is model.full_aug


def test_fit_keeps_latent_augmentation_after_mean_moves(monkeypatch, rng):
    # only kernel moves change the latent coupling block, so the latent
    # augmentation is built once plus once per accepted kernel move
    calls = []
    make_augmentation = inference.make_augmentation

    def counting(Q, slack):
        calls.append(Q.shape)
        return make_augmentation(Q, slack)

    monkeypatch.setattr(inference, "make_augmentation", counting)
    w = ParamVector(KernelSpec("exponential", 1.0, 1.0), 0.5, 0.3)
    theta = np.array([0.2, -0.4, 0.9, 0.1])
    train = np.arange(4, dtype=float).reshape(-1, 1)
    cfg = FitConfig(n_iter=40, burn_in=10, phi_sweeps=1, bridge=BridgeConfig(0, inner_sweeps=2))
    model = build_param_model(w, np.vstack([[[0.5], [2.5]], train]), 2)
    out = block_gibbs_fit(theta, model, cfg, rng)
    assert out.outcomes["mean"]["accepted"] > 0
    assert len(calls) == 1 + out.outcomes["kernel"]["accepted"]


def reachable_arrays(obj):
    """Every ndarray reachable from ``obj`` through attributes and containers.

    Cached properties already read count, as they live in the instance dict.
    """
    found, seen, stack = {}, set(), [obj]
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, np.ndarray):
            found[id(x)] = x
            if isinstance(x.base, np.ndarray):
                stack.append(x.base)
        elif isinstance(x, dict):
            stack.extend(x.values())
        elif isinstance(x, (list, tuple)):
            stack.extend(x)
        elif hasattr(x, "__dict__"):
            stack.extend(vars(x).values())
    return list(found.values())


def test_a_model_owns_one_d_by_d_array(monkeypatch):
    # the eigenvectors V of K, shared by the precision and the full-space
    # factor; no Gram matrix, factor matrix or whole precision is kept,
    # before or after an exchange move of either block
    d, m = 50, 5
    w = ParamVector(KernelSpec("exponential", 1.0, 1.0), 0.5, 0.3)
    model = build_param_model(w, np.linspace(0.0, 25.0, d)[:, None], m)
    proposed = []

    def fictitious(model_wp, sweeps, init, rng):
        proposed.append(model_wp)
        return sample_fictitious(model_wp, sweeps, init, rng)

    monkeypatch.setattr(inference, "sample_fictitious", fictitious)
    rng = np.random.default_rng(4)
    results = [
        dmh_step(model, np.zeros(d), PriorSpec(), ProposalSpec(), BridgeConfig(1, inner_sweeps=2),
                 rng, np.zeros(d), block=block)
        for block in (inference.KERNEL_BLOCK, MEAN_BLOCK)
    ]
    assert len(proposed) == 2 and proposed[0].precision is not model.precision
    for each in [model, *proposed, *(res.model for res in results)]:
        square = [a for a in reachable_arrays(each) if a.size == d * d]
        assert len(square) == 1
        assert square[0] is each.precision.eigenvectors
        assert each.full_aug.eigenvectors is each.precision.eigenvectors


def test_fit_counts_every_outcome_by_block(rng):
    w = ParamVector(KernelSpec("exponential", 1.0, 1.0), 0.05, 0.3)
    theta = np.array([0.2, -0.4, 0.9, 0.1])
    train = np.arange(4, dtype=float).reshape(-1, 1)
    cfg = FitConfig(
        n_iter=60, burn_in=10, phi_sweeps=1, dmh_steps=2,
        proposals=ProposalSpec(kappa_step=0.5),
        bridge=BridgeConfig(0, inner_sweeps=2),
    )
    out = block_gibbs_fit(theta, build_param_model(w, np.vstack([[[0.5]], train]), 1), cfg, rng)
    for name, counts in out.outcomes.items():
        assert tuple(counts) == inference.DMH_REASONS
        assert sum(counts.values()) == 120
    # kappa starts near zero with a wide step, so some moves leave the support
    assert out.outcomes["mean"]["support"] > 0
    assert out.outcomes["kernel"]["numerical"] == 0



def four_matvec_ladder(xi0, model_w, model_wp, levels, rng):
    """Reference ladder: one matrix-vector product per Gaussian and per pull."""
    w, wp = model_w.w, model_wp.w
    A_w, A_wp = model_w.full_aug.factor, model_wp.full_aug.factor
    denom = levels + 1
    xi = np.array(xi0, dtype=float)
    xis = [xi]
    log_ratio = (model_wp.energy(xi) - model_w.energy(xi)) / denom
    for k in range(1, levels + 1):
        beta = k / denom
        rb, rbp = math.sqrt(beta), math.sqrt(1.0 - beta)
        c, s = np.cos(xi), np.sin(xi)
        eps = rng.standard_normal((4, len(xi)))
        y1 = rb * (A_w @ c) + eps[0]
        y2 = rb * (A_w @ s) + eps[1]
        y3 = rbp * (A_wp @ c) + eps[2]
        y4 = rbp * (A_wp @ s) + eps[3]
        alpha_c = (beta * w.concentration * math.cos(w.mean_direction)
                   + (1.0 - beta) * wp.concentration * math.cos(wp.mean_direction))
        alpha_s = (beta * w.concentration * math.sin(w.mean_direction)
                   + (1.0 - beta) * wp.concentration * math.sin(wp.mean_direction))
        kap_c = rb * (A_w.T @ y1) + rbp * (A_wp.T @ y3) + alpha_c
        kap_s = rb * (A_w.T @ y2) + rbp * (A_wp.T @ y4) + alpha_s
        xi = sample_von_mises(np.arctan2(kap_s, kap_c), np.hypot(kap_c, kap_s), rng)
        xis.append(xi)
        # dense energies: cos' M cos + sin' M sin - kappa * sum cos(xi - nu)
        for model, sign in ((model_wp, 1.0), (model_w, -1.0)):
            M = model.precision.matrix
            u = 0.5 * (np.cos(xi) @ M @ np.cos(xi) + np.sin(xi) @ M @ np.sin(xi))
            u -= model.w.concentration * np.sum(np.cos(xi - model.w.mean_direction))
            log_ratio += sign * u / denom
    return xis, log_ratio


@pytest.mark.parametrize("levels", [1, 3])
def test_bridge_ladder_matches_four_matvec_reference(levels):
    locations = np.linspace(0.0, 4.0, 8)[:, None]
    model_w = build_param_model(
        ParamVector(KernelSpec("exponential", 1.0, 1.0), 0.5, 0.3), locations, 2)
    model_wp = build_param_model(
        ParamVector(KernelSpec("exponential", 1.4, 0.7), 0.9, -1.0), locations, 2)
    xi0 = np.random.default_rng(1).uniform(-np.pi, np.pi, 8)
    got_rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    xis, log_ratio = bridge_ladder(xi0, model_w, model_wp, levels, got_rng)
    ref_xis, ref_ratio = four_matvec_ladder(xi0, model_w, model_wp, levels, ref_rng)
    assert len(xis) == levels + 1
    for got, ref in zip(xis, ref_xis):
        assert np.max(np.abs(np.angle(np.exp(1j * (got - ref))))) < 1e-12
    assert log_ratio == pytest.approx(ref_ratio, rel=0, abs=1e-12)
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state


def counting_latent_rows(monkeypatch):
    """Record each PrecisionModel whose latent rows get formed."""
    formed = []
    form = PrecisionModel.__dict__["latent_rows"].func

    def counting(pm):
        formed.append(pm)
        return form(pm)

    prop = cached_property(counting)
    prop.__set_name__(PrecisionModel, "latent_rows")
    monkeypatch.setattr(PrecisionModel, "latent_rows", prop)
    return formed


def forbid_whole_precision(monkeypatch):
    def never(pm):
        raise AssertionError("the whole d x d precision was formed")

    monkeypatch.setattr(PrecisionModel, "matrix", property(never))


def test_exchange_moves_form_no_whole_precision(monkeypatch, rng):
    forbid_whole_precision(monkeypatch)
    formed = counting_latent_rows(monkeypatch)
    d, m = 10, 3
    locations = np.linspace(0.0, 5.0, d)[:, None]
    w = ParamVector(KernelSpec("exponential", 1.0, 1.0), 0.5, 0.3)
    model = build_param_model(w, locations, m)
    theta = rng.uniform(-np.pi, np.pi, d - m)
    phi_full = np.concatenate([rng.uniform(-np.pi, np.pi, m), theta])
    xi = sample_fictitious(model, 5, np.zeros(d), rng)
    outcomes = []
    for _ in range(40):
        res = dmh_step(model, phi_full, PriorSpec(), ProposalSpec(lengthscale2_step=0.5),
                       BridgeConfig(1, inner_sweeps=3), rng, xi, block=inference.KERNEL_BLOCK)
        outcomes.append(res.reason)
        xi = res.xi
        assert formed == []
        if res.accepted:
            # the latent chain of the fit reads the m latent rows, and only them
            latent_params(res.model, theta)
            assert formed == [res.model.precision]
            assert res.model.precision.latent_rows.shape == (m, d)
            formed.clear()
            model = res.model
    assert "accepted" in outcomes and "mh" in outcomes


def test_kernel_proposal_runs_one_eigh_and_forms_no_whole_precision(monkeypatch, rng):
    # chi unset: a kernel proposal factors nothing of size d but its one eigh,
    # and the whole precision M, the d x d x d product this path used to form,
    # is never read; the latent rows are formed, and factored by one eigh of
    # size m, once per accepted kernel move
    d, m = 12, 3
    sizes = {"eigh": [], "eigvalsh": [], "cholesky": [], "inv": [], "solve": []}
    for name in sizes:
        def recording(a, *args, _fn=getattr(np.linalg, name), _sizes=sizes[name], **kwargs):
            _sizes.append(np.shape(a)[-1])
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    forbid_whole_precision(monkeypatch)
    formed = counting_latent_rows(monkeypatch)
    w = ParamVector(KernelSpec("exponential", 1.0, 1.0), 0.5, 0.3)
    train = np.linspace(0.0, 6.0, d - m)[:, None]
    theta = rng.uniform(-np.pi, np.pi, d - m)
    cfg = FitConfig(n_iter=30, burn_in=10, phi_sweeps=1,
                    proposals=ProposalSpec(lengthscale2_step=0.5),
                    bridge=BridgeConfig(1, inner_sweeps=2))
    model = build_param_model(w, np.vstack([[[0.5], [2.5], [4.5]], train]), m)
    out = block_gibbs_fit(theta, model, cfg, rng)
    kernel = out.outcomes["kernel"]
    assert kernel["accepted"] > 0 and kernel["mh"] > 0
    assert sizes["eigh"].count(d) == 1 + sum(kernel.values()) - kernel["support"]
    assert sizes["eigh"].count(m) == 1 + kernel["accepted"]
    assert len(sizes["eigh"]) == sizes["eigh"].count(d) + sizes["eigh"].count(m)
    assert sizes["inv"] == sizes["solve"] == sizes["eigvalsh"] == sizes["cholesky"] == []
    assert len(formed) == 1 + kernel["accepted"]


def test_cd_gradient_repeats_evaluate_kernel_derivatives_once(monkeypatch, rng):
    calls = []
    derivatives = inference.kernel_derivatives

    def counting(spec, X):
        calls.append(spec)
        return derivatives(spec, X)

    monkeypatch.setattr(inference, "kernel_derivatives", counting)
    w = ParamVector(KernelSpec("gaussian", 1.0, 1.0), 0.5, 0.3)
    model = build_param_model(w, np.linspace(0.0, 3.0, 6)[:, None], 2)
    theta = np.array([0.2, -0.4, 0.9, 0.1])
    for _ in range(3):
        cd_gradient(theta, model, 4, rng, burn_sweeps=2)
    assert len(calls) == 1


def test_energy_change_of_a_shared_precision_is_the_pull_alone(monkeypatch, rng):
    locations = np.linspace(0.0, 4.0, 8)[:, None]
    w = ParamVector(KernelSpec("exponential", 1.0, 1.0), 0.5, 0.3)
    model = build_param_model(w, locations, 2)
    mean_moved = replace(model, w=ParamVector(w.kernel, 1.3, -0.8))
    kernel_moved = build_param_model(
        ParamVector(KernelSpec("exponential", 1.4, 0.7), 0.5, 0.3), locations, 2)
    phi = rng.uniform(-np.pi, np.pi, 8)
    full = mean_moved.energy(phi) - model.energy(phi)
    assert energy_change(model, kernel_moved, phi) == kernel_moved.energy(phi) - model.energy(phi)

    def no_quadratic_form(*args):
        raise AssertionError("a shared precision was multiplied out")

    monkeypatch.setattr(inference, "energy", no_quadratic_form)
    assert energy_change(model, mean_moved, phi) == pytest.approx(full, rel=0, abs=1e-12)
    assert energy_change(mean_moved, model, phi) == pytest.approx(-full, rel=0, abs=1e-12)


@pytest.mark.parametrize("family", ["exponential", "gaussian", "anisotropic_gaussian"])
def test_energy_gradient_of_a_stack_matches_each_row(rng, family):
    anisotropic = family == "anisotropic_gaussian"
    kernel = KernelSpec(family, 0.8, 1.2, 0.9 if anisotropic else None)
    model = build_param_model(ParamVector(kernel, 0.7, 0.4), rng.uniform(0, 3, size=(6, 2)), 2)
    stack = rng.uniform(-np.pi, np.pi, (3, 4, 6))
    got = energy_gradient(stack, model)
    assert got.shape == (3, 4, len(gradient_names(model.w)))
    for i in range(3):
        for j in range(4):
            np.testing.assert_allclose(got[i, j], energy_gradient(stack[i, j], model),
                                       rtol=1e-12, atol=1e-12)
    with pytest.raises(ValueError, match="angles per state"):
        energy_gradient(stack[..., :5], model)


def test_cd_gradient_without_repeats_is_its_one_repeat_case():
    w = ParamVector(KernelSpec("gaussian", 1.0, 1.0), 0.5, 0.3)
    model = build_param_model(w, np.linspace(0.0, 3.0, 6)[:, None], 2)
    theta = np.array([0.2, -0.4, 0.9, 0.1])
    single = cd_gradient(theta, model, 4, np.random.default_rng(8), burn_sweeps=2)
    one = cd_gradient(theta, model, 4, np.random.default_rng(8), burn_sweeps=2, repeats=1)
    assert single.shape == (4,) and one.shape == (1, 4)
    np.testing.assert_array_equal(one[0], single)
    many = cd_gradient(theta, model, 4, np.random.default_rng(8), burn_sweeps=2, repeats=5)
    assert many.shape == (5, 4) and len(np.unique(many[:, 0])) == 5
    assert cd_gradient(theta, model, 4, np.random.default_rng(8), repeats=0).shape == (0, 4)
    with pytest.raises(ValueError, match="repeats"):
        cd_gradient(theta, model, 4, np.random.default_rng(8), repeats=-1)


def test_cd_gradient_repeats_run_as_two_stacks(monkeypatch, rng):
    # R repeats cost one full-space and one latent stack of sweeps, and one
    # energy_gradient call per stack
    sweeps, gradients = [], []
    run_sweeps, gradient = inference.run_sweeps, inference.energy_gradient

    def sweeping(phi, *args, **kwargs):
        sweeps.append(np.shape(phi))
        return run_sweeps(phi, *args, **kwargs)

    def grading(phi, model):
        gradients.append(np.shape(phi))
        return gradient(phi, model)

    monkeypatch.setattr(inference, "run_sweeps", sweeping)
    monkeypatch.setattr(inference, "energy_gradient", grading)
    w = ParamVector(KernelSpec("exponential", 1.0, 1.0), 0.5, 0.3)
    model = build_param_model(w, np.linspace(0.0, 3.0, 5)[:, None], 2)
    cd_gradient(np.array([0.2, -0.4, 0.9]), model, 3, rng, burn_sweeps=2, repeats=6)
    assert sweeps == [(6, 5), (6, 2)]
    assert gradients == [(3, 6, 5), (3, 6, 5)]
