"""Chain diagnostics and probabilistic forecast scoring."""

from __future__ import annotations

import numpy as np

from .circular import circular_distance, circular_summary


# Column RESS transforms at most this many entries (2n per column of n
# draws) at a time, so its scratch memory stays near 0.5 MB whatever the
# number of columns, while a block still holds dozens of short columns.
_FFT_BLOCK = 1 << 14


def _row_autocorrelations(x: np.ndarray) -> np.ndarray:
    """Normalized autocorrelations of each row of a C-ordered (k, n) array.

    One FFT along the rows; a row with no positive variance gives NaN.
    Every row gets the values it would get alone as a (1, n) array.
    """
    n = x.shape[1]
    x = x - x.mean(axis=1, keepdims=True)
    nfft = 1
    while nfft < 2 * n:
        nfft *= 2
    f = np.fft.rfft(x, nfft)
    # f times its conjugate, in that order: the ``*`` operator may reuse a
    # large temporary with the operands swapped, which moves the last bit
    # of the fused products
    np.multiply(f, np.conj(f), out=f)
    acov = np.fft.irfft(f, nfft)[:, :n] / n
    var = acov[:, :1].copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        acov /= var
    acov[var[:, 0] <= 0] = np.nan
    return acov


def _row_ress(x: np.ndarray) -> np.ndarray:
    """Geyer RESS of each row of a C-ordered (k, n) array; NaN if undefined.

    Undefined means fewer than 10 draws or a constant row. Consecutive lag
    pairs are added one at a time, in lag order, up to the first one that
    is not positive.
    """
    k, n = x.shape
    out = np.full(k, np.nan)
    live = np.ptp(x, axis=1) > 0.0 if n >= 10 else np.zeros(k, dtype=bool)
    if not live.any():
        return out
    rho = _row_autocorrelations(x[live])
    pairs = rho[:, 1 : n - 1 : 2] + rho[:, 2:n:2]  # (rho_1 + rho_2), (rho_3 + rho_4), ...
    kept = np.logical_and.accumulate(pairs > 0.0, axis=1)
    total = np.cumsum(np.where(kept, pairs, 0.0), axis=1)[:, -1]
    total[np.isnan(rho[:, 0])] = np.nan
    out[live] = 1.0 / (1.0 + 2.0 * total)
    return out


def autocorrelations(trace: np.ndarray) -> np.ndarray:
    """Normalized autocorrelation function via FFT; rho[0] == 1."""
    x = np.asarray(trace, dtype=float)
    rho = _row_autocorrelations(x.reshape(1, -1))[0]
    if np.isnan(rho[0]):
        raise ValueError("zero variance")
    return rho


def ress(trace) -> float:
    """Relative effective sample size 1 / (1 + 2 * sum of autocorrelations).

    The infinite sum is truncated with Geyer's initial positive sequence
    rule: consecutive lag pairs (rho_{2k-1} + rho_{2k}) are accumulated
    while they stay positive.
    """
    x = np.asarray(trace, dtype=float)
    if x.size < 10:
        raise ValueError("trace too short for a RESS estimate")
    r = _row_ress(x.reshape(1, -1))[0]
    if np.isnan(r):
        raise ValueError("zero variance")
    return float(r)


def circular_column_ress(angles) -> np.ndarray:
    """RESS of every column of an (n, k) array of angle traces.

    Column j gets the minimum over its cos and sin components, as
    ``circular_ress`` gives it, or NaN where that raises: fewer than 10
    rows, or a constant component. Columns are transformed in blocks of
    about ``_FFT_BLOCK`` padded entries.
    """
    x = np.asarray(angles, dtype=float)
    n, k = x.shape
    out = np.full(k, np.nan)
    if n < 10:
        return out
    step = max(1, _FFT_BLOCK // (2 * n))
    for lo in range(0, k, step):
        rows = np.ascontiguousarray(x[:, lo : lo + step].T)
        out[lo : lo + step] = np.minimum(_row_ress(np.cos(rows)), _row_ress(np.sin(rows)))
    return out


def circular_ress(angle_trace) -> float:
    """RESS of an angle trace: minimum over its cos and sin components.

    The one-column case of ``circular_column_ress``; raises ``ValueError``
    where that gives NaN.
    """
    x = np.asarray(angle_trace, dtype=float)
    r = circular_column_ress(x.reshape(-1, 1))[0]
    if np.isnan(r):
        raise ValueError("trace too short for a RESS estimate, or a constant component")
    return float(r)


def circular_crps(predictive, observation: float) -> float:
    """Monte Carlo circular CRPS, lower is better.

    E[d(theta, obs)] - E[d(theta, theta')] / 2 with d(a,b) = 1 - cos(a-b).
    The self-distance term pairs the draws disjointly (2i, 2i+1) so the
    two draws in each pair are independent.
    """
    pred = np.asarray(predictive, dtype=float)
    if pred.size < 2:
        raise ValueError("need at least two predictive draws")
    e_obs = float(np.mean(circular_distance(pred, observation)))
    half = pred.size // 2
    e_pair = float(np.mean(circular_distance(pred[0 : 2 * half : 2], pred[1 : 2 * half : 2])))
    return e_obs - 0.5 * e_pair


def predictive_summary(samples):
    """Per-location circular mean and variance of predictive draws.

    ``samples`` has one column per test location. Returns (means, variances).
    """
    s = np.atleast_2d(np.asarray(samples, dtype=float))
    summaries = [circular_summary(s[:, j]) for j in range(s.shape[1])]
    means = np.array([cs.mean_direction for cs in summaries])
    variances = np.array([cs.circular_variance for cs in summaries])
    return means, variances
