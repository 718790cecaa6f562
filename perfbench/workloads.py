"""Workload definitions and input generation for the vmqp benchmark.

Inputs are made with numpy alone and never import ``vmqp``, so a change
to the sampler or its random stream still sees byte-identical inputs.
Every value is written with a fixed number of decimals, which also keeps
the files identical when BLAS rounds the last bits differently.

Each workload writes schema CSV files: ``train.csv`` holds the observed
rows and ``test.csv`` the prediction rows with their true angle, which
``vmqp.data.load_dataset`` keeps as scoring truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WIND_COLUMNS = ("lon", "lat", "direction_deg")
GAIT_COLUMNS = ("ankle_deg", "knee_deg", "hip_deg", "gradient_pct", "cycle_pct")
# Gait covariates are spread in units of 15 degrees of joint angle and
# 6 percent of gradient, at least 1.4 units apart: at 1.0 the relative ESS
# of one dataset's predictive varied by 26% (coefficient of variation over
# 40 data seeds), at 1.4 by 10%.
GAIT_SCALE = (15.0, 15.0, 15.0, 6.0)
GAIT_MIN_DIST = 1.4


@dataclass(frozen=True)
class Stage:
    """One CLI command of a workload, with its full and its set-up config.

    ``setup`` overrides cut every sampling loop to its smallest legal
    length, so a set-up run pays for import, ingest and factorizations.
    """

    command: str
    config: dict
    setup: dict

    def config_text(self, setup: bool, seed: int) -> str:
        values = dict(self.config, **(self.setup if setup else {}), seed=seed)
        return "".join(f"{key} = {_cfg_value(value)}\n" for key, value in values.items())


@dataclass(frozen=True)
class Workload:
    """A sequence of CLI commands on one generated dataset.

    A run cycles over ``replicates`` datasets, each with its own chain
    seed, and averages the quality metrics over them: the CRPS and ESS of
    one small dataset move by tens of percent from seed to seed.
    """

    name: str
    schema: str
    n_pred: int
    n_obs: int
    stages: tuple
    why: str
    replicates: int


def _cfg_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(repr(v) for v in value)
    return str(value)


_SAMPLE_SETUP = {"n_iter": 1, "burn_in": 0}
_DIAGNOSE_SETUP = {
    "sweep_seeds": 1,
    "cd_repeats": 1,
    "cd_mc_samples": 1,
    "sweep_iters": 1,
    "sweep_burn_in": 0,
}

_WIND_KERNEL = {
    "kernel_family": "exponential",
    "kernel_variance": 1.0,
    "kernel_lengthscale": 4.0,
    "kappa": 0.5,
    "nu_rad": 0.64,
}

# The diagnose session runs at fixed parameters, with lengthscales of one
# covariate unit (GAIT_SCALE). Variance 1 couples the angles enough for the
# predictive to score a crps near 0.27, well below the 0.5 of uniform draws,
# so a sampler that ignored the data would fail the crps bound.
_GAIT_KERNEL = {
    "kernel_family": "anisotropic_gaussian",
    "kernel_variance": 1.0,
    "kernel_lengthscale": 15.0,
    "kernel_gradient_lengthscale": 6.0,
    "kappa": 0.3,
    "nu_rad": 0.0,
}

_WIND_FIT = dict(
    _WIND_KERNEL,
    n_iter=40,
    burn_in=8,
    thin=1,
    phi_sweeps=5,
    dmh_steps=1,
    inner_sweeps=20,
    bridge_levels=2,
    prior_sigma2_scale=2.0,
    prior_lengthscale2_scale=50.0,
    step_sigma2=0.1,
    step_lengthscale2=2.0,
    step_kappa=0.1,
    step_nu=0.3,
)

_GAIT_DIAGNOSE = dict(
    _GAIT_KERNEL,
    lambda_multipliers=(1.01, 2.0, 5.0, 10.0),
    sweep_seeds=3,
    sweep_iters=300,
    sweep_burn_in=50,
    cd_mc_samples=20,
    cd_repeats=6,
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fit-wind-d400",
            schema="wind",
            n_pred=80,
            n_obs=320,
            stages=(Stage("fit", _WIND_FIT, _SAMPLE_SETUP),),
            why="fit where O(d^3) factorizations per proposal dominate; the only exchange-move and bridge-ladder user",
            replicates=6,
        ),
        Workload(
            # diagnose writes no predictive draws; the sample that follows it
            # gives the session its ESS and CRPS.
            name="diagnose-gait-d40",
            schema="gait",
            n_pred=10,
            n_obs=30,
            stages=(
                Stage("diagnose", _GAIT_DIAGNOSE, _DIAGNOSE_SETUP),
                Stage(
                    "sample",
                    dict(_GAIT_KERNEL, n_iter=2000, burn_in=200, thin=1),
                    _SAMPLE_SETUP,
                ),
            ),
            why="diagnose then sample: many short independent chains and the only CD-gradient user",
            replicates=8,
        ),
    )
}


def _exp_gram(X: np.ndarray, lengthscale: float) -> np.ndarray:
    diff = X[:, None, :] - X[None, :, :]
    return np.exp(-np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)) / lengthscale)


def _spread_points(rng: np.random.Generator, low, high, n: int, min_dist: float, scale=1.0):
    """Uniform points in a box, none closer than ``min_dist`` (dart throwing).

    Distances are taken in units of ``scale`` per axis. Near-duplicate
    locations make the Gram matrix nearly singular, and the sampler's mixing
    then depends on how close the closest pair happens to be; a minimum
    separation keeps that the same from seed to seed.
    """
    low, high = np.asarray(low, dtype=float), np.asarray(high, dtype=float)
    scale = np.broadcast_to(np.asarray(scale, dtype=float), low.shape)
    points = np.empty((n, low.size))
    k = 0
    while k < n:
        cand = rng.uniform(low, high)
        gaps = (points[:k] - cand) / scale
        if k == 0 or np.min(np.sum(gaps**2, axis=1)) >= min_dist**2:
            points[k] = cand
            k += 1
    return points


def _wind(rng: np.random.Generator, n: int):
    """Projected 2-D Gaussian-process wind field plus von Mises noise."""
    X = _spread_points(rng, (0.0, 40.0), (20.0, 60.0), n, 0.3)
    L = np.linalg.cholesky(_exp_gram(X, 3.0) + 1e-8 * np.eye(n))
    u = 2.4 + L @ rng.standard_normal(n)
    v = 1.8 + L @ rng.standard_normal(n)
    angle = np.arctan2(v, u) + rng.vonmises(0.0, 8.0, n)
    degrees = np.round(np.degrees(angle) % 360.0, 6)
    return X.round(6), degrees


def _gait(rng: np.random.Generator, n: int):
    """Gait-cycle phase as a smooth function of the four covariates plus noise."""
    X = _spread_points(
        rng, (-20.0, 0.0, -20.0, -10.0), (20.0, 60.0, 30.0, 10.0), n, GAIT_MIN_DIST, GAIT_SCALE
    )
    ankle, knee, hip, grad = X.T
    phase = (
        0.02 * ankle
        + 0.025 * knee
        - 0.015 * hip
        + 0.04 * grad
        + 0.3 * np.sin(knee / 15.0)
        + rng.vonmises(0.0, 30.0, n)
    )
    pct = np.round((phase % (2.0 * math.pi)) / (2.0 * math.pi) * 100.0, 6)
    pct[pct <= 0.0] = 100.0
    return X.round(6), pct


def truth_radians(values: np.ndarray, schema: str) -> np.ndarray:
    """Schema units to radians in (-pi, pi], as the CLI converts them."""
    scale = 2.0 * math.pi / (360.0 if schema == "wind" else 100.0)
    a = np.mod(np.asarray(values, dtype=float) * scale, 2.0 * math.pi)
    return np.where(a > math.pi, a - 2.0 * math.pi, a)


def _write(path: Path, columns, X: np.ndarray, angles: np.ndarray) -> None:
    lines = [",".join(columns)]
    lines += [",".join(f"{v:.6f}" for v in (*row, a)) for row, a in zip(X, angles)]
    path.write_text("\n".join(lines) + "\n")


def generate(workload: Workload, seed: int, replicate: int, out: Path) -> np.ndarray:
    """Write train.csv and test.csv into ``out``; return the truth in radians.

    The data depend on the seed, the replicate and the sizes only, so
    workloads of one schema and size share their inputs. The first
    ``n_pred`` generated rows become the prediction rows.
    """
    rng = np.random.default_rng([seed, replicate, workload.n_pred, workload.n_obs])
    n = workload.n_pred + workload.n_obs
    if workload.schema == "wind":
        X, angles, columns = *_wind(rng, n), WIND_COLUMNS
    else:
        X, angles, columns = *_gait(rng, n), GAIT_COLUMNS
    out.mkdir(parents=True, exist_ok=True)
    m = workload.n_pred
    _write(out / "test.csv", columns, X[:m], angles[:m])
    _write(out / "train.csv", columns, X[m:], angles[m:])
    return truth_radians(angles[:m], workload.schema)
