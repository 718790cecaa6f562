"""Core density of the circular regression model.

The joint angle vector is ordered [latent, observed]: unobserved angles
occupy indices 0..m-1 and observed angles occupy m..d-1. The unnormalized
log-density of the full state is -energy(); conditioning on the observed
angles yields an exponential family in (cos, sin) of the latent angles,
whose linear natural parameters are assembled by conditional_params();
its coupling is the precision's ``latent_block``. full_state_params()
gives the prior's terms over all d angles. Observation noise has no term
here: ``inference.ParamModel.latent`` adds its pulls to those prior terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circular import cos_sin, normalize_angle
from .kernels import GramMatrix, KernelSpec


@dataclass(frozen=True)
class ParamVector:
    """Kernel spec plus the circular mean parameters (and optional noise).

    ``concentration`` (kappa) pulls every angle toward ``mean_direction``
    (nu). ``noise_concentration`` (chi), when present, gives each
    observation a 1D von Mises likelihood centered on its latent angle.
    """

    kernel: KernelSpec
    concentration: float = 0.0
    mean_direction: float = 0.0
    noise_concentration: float | None = None

    def __post_init__(self):
        if not (np.isfinite(self.concentration) and self.concentration >= 0):
            raise ValueError("concentration must be finite and >= 0")
        if not np.isfinite(self.mean_direction):
            raise ValueError("mean_direction must be finite")
        object.__setattr__(
            self, "mean_direction", normalize_angle(self.mean_direction)
        )
        chi = self.noise_concentration
        if chi is not None and not (np.isfinite(chi) and chi >= 0):
            raise ValueError("noise_concentration must be finite and >= 0")


@dataclass(frozen=True)
class PrecisionModel:
    """Precision M = K^-1 = unit_matrix / variance, with the latent/observed split.

    ``unit_matrix`` is the precision of the Gram matrix at variance 1, so
    models that differ only in the variance share it and no product forms
    M itself. Every product with M reads it and divides by ``variance``:
    the quadratic forms of ``energy``, the m x m ``latent_block``, the pull
    of ``conditional_params`` and the products of ``energy_gradient``.
    """

    unit_matrix: np.ndarray
    variance: float
    n_latent: int
    n_observed: int

    @property
    def size(self) -> int:
        return self.n_latent + self.n_observed

    @property
    def matrix(self) -> np.ndarray:
        """The whole d x d M, a fresh array per read; only tests and the benchmark tracer read it."""
        return self.unit_matrix / self.variance

    @property
    def latent_block(self) -> np.ndarray:
        """M[:m, :m], a fresh array, exactly symmetric."""
        m = self.n_latent
        return self.unit_matrix[:m, :m] / self.variance


@dataclass(frozen=True)
class ConditionalParams:
    """Natural parameters of the latent conditional density.

    The density is proportional to
    exp(rho_c . cos(phi) + rho_s . sin(phi)
        - cos(phi)' Q cos(phi) / 2 - sin(phi)' Q sin(phi) / 2).
    Only the linear terms are kept here. The coupling Q lives in the
    augmentation factor of lam*I - Q that a chain runs on: that of the
    ``latent_block`` of a ``PrecisionModel``, or of its whole M.
    """

    rho_c: np.ndarray
    rho_s: np.ndarray

    @property
    def size(self) -> int:
        return self.rho_c.shape[0]


def build_precision(gram: GramMatrix, m: int, n: int) -> PrecisionModel:
    """Precision of ``gram``, which ``build_gram`` formed, with the split m + n.

    Checks the partition; forms nothing.
    """
    d = gram.size
    if m < 0 or n < 0 or m + n != d:
        raise ValueError(f"partition {m}+{n} does not match matrix size {d}")
    return PrecisionModel(gram.aug.unit, 1.0, m, n)


def conditional_params(
    pm: PrecisionModel, theta, w: ParamVector
) -> ConditionalParams:
    """Natural parameters of the latent posterior given observed angles."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (pm.n_observed,):
        raise ValueError(
            f"expected {pm.n_observed} observed angles, got {theta.shape}"
        )
    m = pm.n_latent
    kappa, nu = w.concentration, w.mean_direction
    # the pull M[:m, m:] [cos; sin](theta), as [cos; sin](theta) M[m:, :m]
    pull = cos_sin(theta) @ pm.unit_matrix[m:, :m]
    pull /= pm.variance
    rho_c = -pull[0] + kappa * np.cos(nu) * np.ones(m)
    rho_s = -pull[1] + kappa * np.sin(nu) * np.ones(m)
    return ConditionalParams(rho_c, rho_s)


def full_state_params(pm: PrecisionModel, w: ParamVector) -> ConditionalParams:
    """Natural parameters of the prior exp(-energy) over all d angles.

    The fictitious-sample chains of the parameter sampler target it.
    """
    d = pm.size
    kappa, nu = w.concentration, w.mean_direction
    rho_c = kappa * np.cos(nu) * np.ones(d)
    rho_s = kappa * np.sin(nu) * np.ones(d)
    return ConditionalParams(rho_c, rho_s)


def energy(phi, w: ParamVector, pm: PrecisionModel) -> float:
    """U(varphi|w): quadratic spin coupling minus the concentration pull.

    Uses cos(a - b) = cos a cos b + sin a sin b to reduce the double sum
    over precision entries to cos' M cos + sin' M sin: one product of the
    (2, d) cos/sin block with the unit-variance precision, divided by the
    variance.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (pm.size,):
        raise ValueError(f"expected {pm.size} angles, got {phi.shape}")
    cs = cos_sin(phi)
    quad = 0.5 * np.sum((cs @ pm.unit_matrix) * cs) / pm.variance
    return float(quad - mean_pull(phi, w))


def mean_pull(phi, w: ParamVector) -> float:
    """kappa * sum_i cos(varphi_i - nu), the concentration term of U."""
    return w.concentration * np.sum(np.cos(np.asarray(phi) - w.mean_direction))
