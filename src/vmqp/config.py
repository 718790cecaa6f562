"""Flat typed key-value run configuration.

The config file carries one `key = value` pair per line with `#`
comments. Unknown keys and bad values are rejected with the offending
line number; silent typos in sampler configs are too costly to tolerate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .errors import ConfigError
from .gibbs import DEFAULT_SLACK
from .inference import KERNEL_BLOCK, MEAN_BLOCK, BridgeConfig, FitConfig, PriorSpec, ProposalSpec
from .kernels import KernelSpec
from .model import ParamVector


def _parse_bool(text: str) -> bool:
    low = text.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_float_list(text: str) -> tuple:
    return tuple(float(part) for part in text.split(","))


@dataclass
class RunConfig:
    """All run settings; angle-valued keys are radians, explicit in names.

    The annotation of a field picks the parser of its key. The fit keys
    take their defaults from the library: ``prior_<p>_scale`` is
    ``PriorSpec.<p>_scale`` and ``step_<p>`` is ``ProposalSpec.<p>_step``,
    for each entry p of the parameter table (``inference.KERNEL_BLOCK +
    MEAN_BLOCK``).
    """

    # model
    kernel_family: str = "gaussian"
    kernel_variance: float = 1.0
    kernel_lengthscale: float = 1.0
    kernel_gradient_lengthscale: float | None = None
    kappa: float = 0.0
    nu_rad: float = 0.0
    chi: float | None = None
    # sampler
    n_iter: int = 20000
    burn_in: int = 2000
    thin: int = 10
    slack: float = DEFAULT_SLACK
    seed: int = 0
    # fit: the defaults are the library's
    phi_sweeps: int = FitConfig.phi_sweeps
    dmh_steps: int = FitConfig.dmh_steps
    inner_sweeps: int = BridgeConfig.inner_sweeps
    bridge_levels: int = BridgeConfig.levels
    learn_mean: bool = FitConfig.learn_mean
    prior_sigma2_scale: float = PriorSpec.sigma2_scale
    prior_lengthscale2_scale: float = PriorSpec.lengthscale2_scale
    prior_gradient2_scale: float = PriorSpec.gradient2_scale
    prior_kappa_scale: float = PriorSpec.kappa_scale
    step_sigma2: float = ProposalSpec.sigma2_step
    step_lengthscale2: float = ProposalSpec.lengthscale2_step
    step_gradient2: float = ProposalSpec.gradient2_step
    step_kappa: float = ProposalSpec.kappa_step
    step_nu: float = ProposalSpec.nu_step
    # diagnostics
    lambda_multipliers: tuple = (1.01, 2.0, 5.0, 10.0)
    sweep_seeds: int = 20
    sweep_iters: int = 2000
    sweep_burn_in: int = 500
    cd_mc_samples: int = 50
    cd_repeats: int = 50

    def validate(self):
        """Check every key by building the objects that use it.

        The library objects check their own fields; the keys that only the
        CLI reads are checked here.
        """
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if not (math.isfinite(self.slack) and self.slack > 0):
            raise ConfigError("slack must be positive and finite")
        if not self.sweep_iters > self.sweep_burn_in >= 0:
            raise ConfigError("need sweep_iters > sweep_burn_in >= 0")
        if self.cd_mc_samples < 1:
            raise ConfigError("cd_mc_samples must be >= 1")
        if self.sweep_seeds < 1:
            raise ConfigError("sweep_seeds must be >= 1")
        if self.cd_repeats < 0:
            raise ConfigError("cd_repeats must be >= 0")
        if not all(math.isfinite(c) and c >= 1 for c in self.lambda_multipliers):
            raise ConfigError("lambda_multipliers must be finite and >= 1")
        try:
            self.param_vector()
            self.fit_config()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return self

    def param_vector(self) -> ParamVector:
        kernel = KernelSpec(
            self.kernel_family,
            self.kernel_variance,
            self.kernel_lengthscale,
            self.kernel_gradient_lengthscale,
        )
        return ParamVector(kernel, self.kappa, self.nu_rad, self.chi)

    def fit_config(self) -> FitConfig:
        return FitConfig(
            n_iter=self.n_iter,
            burn_in=self.burn_in,
            thin=self.thin,
            phi_sweeps=self.phi_sweeps,
            dmh_steps=self.dmh_steps,
            priors=PriorSpec(
                **{f.name: getattr(self, f"prior_{f.name}") for f in fields(PriorSpec)}
            ),
            proposals=ProposalSpec(
                **{f"{p}_step": getattr(self, f"step_{p}") for p in KERNEL_BLOCK + MEAN_BLOCK}
            ),
            bridge=BridgeConfig(self.bridge_levels, self.inner_sweeps),
            learn_mean=self.learn_mean,
        )


# parser of each key, by the annotation of its RunConfig field
_PARSERS = {
    "str": str,
    "float": float,
    "float | None": float,
    "int": int,
    "bool": _parse_bool,
    "tuple": _parse_float_list,
}
_KEY_PARSERS = {f.name: _PARSERS[f.type] for f in fields(RunConfig)}


def parse_config(path) -> RunConfig:
    """Read a config file, rejecting unknown keys with line numbers."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected 'key = value'")
            key, _, text = line.partition("=")
            key, text = key.strip(), text.strip()
            if key not in _KEY_PARSERS:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            if key in values:
                raise ConfigError(f"line {lineno}: duplicate key {key!r}")
            try:
                values[key] = _KEY_PARSERS[key](text)
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: {exc}") from None
    try:
        cfg = RunConfig(**values)
    except TypeError as exc:  # pragma: no cover - guarded by key check
        raise ConfigError(str(exc)) from None
    return cfg.validate()
