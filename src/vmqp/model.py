"""Core density of the circular regression model.

The joint angle vector is ordered [latent, observed]: unobserved angles
occupy indices 0..m-1 and observed angles occupy m..d-1. The unnormalized
log-density of the full state is -energy(); conditioning on the observed
angles yields an exponential family in (cos, sin) of the latent angles,
whose natural parameters are assembled by conditional_params().
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circular import normalize_angle
from .errors import NumericalError
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
    """Inverse of the Gram matrix with its latent/observed partition."""

    matrix: np.ndarray
    n_latent: int
    n_observed: int

    @property
    def size(self) -> int:
        return self.n_latent + self.n_observed

    @property
    def latent_block(self) -> np.ndarray:
        return self.matrix[: self.n_latent, : self.n_latent]

    @property
    def cross_block(self) -> np.ndarray:
        return self.matrix[: self.n_latent, self.n_latent :]


@dataclass(frozen=True)
class ConditionalParams:
    """Natural parameters of the latent conditional density.

    The density is proportional to
    exp(rho_c . cos(phi) + rho_s . sin(phi)
        - cos(phi)' Q cos(phi) / 2 - sin(phi)' Q sin(phi) / 2).
    """

    rho_c: np.ndarray
    rho_s: np.ndarray
    coupling: np.ndarray  # Q, symmetric positive definite

    @property
    def size(self) -> int:
        return self.rho_c.shape[0]


def build_precision(gram: GramMatrix, m: int, n: int) -> PrecisionModel:
    """Invert the Gram matrix as M = V diag(1/s) V' and record the split."""
    d = gram.size
    if m < 0 or n < 0 or m + n != d:
        raise ValueError(f"partition {m}+{n} does not match matrix size {d}")
    s, V = gram.eigenvalues, gram.eigenvectors
    if not s[0] > 0:
        raise NumericalError("kernel matrix is not positive definite")
    M = (V / s) @ V.T
    M = 0.5 * (M + M.T)
    return PrecisionModel(M, m, n)


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
    rho_c = -pm.cross_block @ np.cos(theta) + kappa * np.cos(nu) * np.ones(m)
    rho_s = -pm.cross_block @ np.sin(theta) + kappa * np.sin(nu) * np.ones(m)
    return ConditionalParams(rho_c, rho_s, pm.latent_block)


def full_state_params(
    pm: PrecisionModel, w: ParamVector, theta=None
) -> ConditionalParams:
    """Natural parameters over all d angles.

    With ``theta`` absent this targets the prior exp(-energy), which is
    what the fictitious-sample chains of the parameter sampler need. With
    ``theta`` present (noisy-observation mode) each trailing coordinate
    additionally feels the pull chi*cos(theta_i - varphi_{m+i}).
    """
    d = pm.size
    kappa, nu = w.concentration, w.mean_direction
    rho_c = kappa * np.cos(nu) * np.ones(d)
    rho_s = kappa * np.sin(nu) * np.ones(d)
    if theta is not None:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (pm.n_observed,):
            raise ValueError(
                f"expected {pm.n_observed} observed angles, got {theta.shape}"
            )
        chi = w.noise_concentration
        if chi is None:
            raise ValueError("noisy conditional requires noise_concentration")
        rho_c[pm.n_latent :] += chi * np.cos(theta)
        rho_s[pm.n_latent :] += chi * np.sin(theta)
    return ConditionalParams(rho_c, rho_s, pm.matrix)


def energy(phi, w: ParamVector, pm: PrecisionModel) -> float:
    """U(varphi|w): quadratic spin coupling minus the concentration pull.

    Uses cos(a - b) = cos a cos b + sin a sin b to reduce the double sum
    over precision entries to two quadratic forms.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (pm.size,):
        raise ValueError(f"expected {pm.size} angles, got {phi.shape}")
    c, s = np.cos(phi), np.sin(phi)
    quad = 0.5 * (c @ pm.matrix @ c + s @ pm.matrix @ s)
    pull = w.concentration * np.sum(np.cos(phi - w.mean_direction))
    return float(quad - pull)
