"""Angle arithmetic, circular summary statistics and 1D von Mises sampling.

All angles are kept in radians, normalized to (-pi, pi]. Conversions from
degrees or cycle percentages happen at I/O boundaries only (see vmqp.data).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

# Below this resultant length the mean direction is numerically meaningless.
DEGENERATE_RESULTANT = 1e-12


def as_generator(seed_or_rng) -> np.random.Generator:
    """Accept either an integer seed or an existing Generator."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def normalize_angle(a):
    """Wrap angle(s) into (-pi, pi]."""
    a = np.asarray(a, dtype=float)
    r = np.mod(a, TWO_PI)  # [0, 2*pi)
    r = np.where(r > np.pi, r - TWO_PI, r)
    if r.ndim == 0:
        return float(r)
    return r


@dataclass(frozen=True)
class CircularSummary:
    """First circular moment of a sample of angles.

    ``circular_variance`` is exactly ``1 - resultant_length``. When the
    resultant is numerically zero the mean direction is undefined; it is
    reported as 0.0 with ``degenerate`` set.
    """

    resultant_length: float
    mean_direction: float
    circular_variance: float
    degenerate: bool = False


def circular_summary(angles) -> CircularSummary:
    """Resultant length, mean direction and circular variance of a sample."""
    angles = np.asarray(angles, dtype=float)
    if angles.size == 0:
        raise ValueError("empty sample")
    z = np.exp(1j * angles.ravel()).mean()
    r = min(float(abs(z)), 1.0)
    degenerate = r < DEGENERATE_RESULTANT
    gamma = 0.0 if degenerate else normalize_angle(np.angle(z))
    return CircularSummary(r, gamma, 1.0 - r, degenerate)


def cos_sin(phi: np.ndarray) -> np.ndarray:
    """The block [cos(phi); sin(phi)] of shape (2,) + phi.shape.

    Both halves are written in place into one buffer, which costs less than
    stacking two new arrays.
    """
    cs = np.empty((2,) + np.shape(phi))
    np.cos(phi, out=cs[0])
    np.sin(phi, out=cs[1])
    return cs


def sample_von_mises(mean, concentration, rng, size=None):
    """Draw from the density proportional to exp(a*cos(phi - mean)).

    Uses the Best-Fisher wrapped-Cauchy rejection sampler (numpy's
    generator implementation), which falls through to a uniform draw for
    vanishing concentration. ``mean`` and ``concentration`` broadcast, so
    a vector of independent heterogeneous draws costs one call.
    """
    conc = np.asarray(concentration, dtype=float)
    # min >= 0 fails on NaN, -inf and negatives, max < inf on +inf
    if conc.size and not (conc.min() >= 0.0 and conc.max() < np.inf):
        raise ValueError("concentration must be finite and >= 0")
    rng = as_generator(rng)
    draw = rng.vonmises(np.asarray(mean, dtype=float), conc, size=size)
    return normalize_angle(draw)


def circular_distance(alpha, beta):
    """d(a, b) = 1 - cos(a - b); symmetric, in [0, 2]."""
    d = 1.0 - np.cos(np.asarray(alpha, dtype=float) - np.asarray(beta, dtype=float))
    if np.ndim(d) == 0:
        return float(d)
    return d
