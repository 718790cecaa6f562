"""The benchmark's own scoring and output checks, in plain numpy.

Nothing here imports ``vmqp``: a change to ``vmqp.evaluation`` must not
be able to move the score it is judged by.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

import numpy as np


def _autocorrelation(x: np.ndarray) -> np.ndarray:
    x = x - x.mean()
    n = x.size
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, nfft)
    acov = np.fft.irfft(f * np.conj(f), nfft)[:n]
    return acov / acov[0]


def ess(trace) -> float:
    """Effective sample size by Geyer's initial positive sequence.

    Sums the lag pairs rho_{2k} + rho_{2k+1}, starting at k = 0 with
    rho_0 = 1, while they stay positive; ESS = n / (2 * sum - 1).
    """
    x = np.asarray(trace, dtype=float)
    if x.size < 4 or np.ptp(x) == 0.0:
        raise ValueError("trace too short or constant for an ESS estimate")
    rho = _autocorrelation(x)
    pairs = rho[: 2 * (rho.size // 2)].reshape(-1, 2).sum(axis=1)
    stop = np.flatnonzero(pairs <= 0.0)
    kept = pairs[: stop[0]] if stop.size else pairs
    tau = 2.0 * kept.sum() - 1.0
    return float(x.size / max(tau, 1.0 / x.size))


def circular_ess(angles) -> float:
    """ESS of an angle trace: the smaller of its cos and sin components."""
    a = np.asarray(angles, dtype=float)
    return min(ess(np.cos(a)), ess(np.sin(a)))


def mean_ess(samples: np.ndarray) -> float:
    """Mean over prediction locations (columns) of the circular ESS."""
    return float(np.mean([circular_ess(samples[:, j]) for j in range(samples.shape[1])]))


def circular_crps(samples: np.ndarray, truth: np.ndarray) -> float:
    """Mean circular CRPS over locations; 0.5 is the uniform baseline.

    Per location: E d(theta, y) - E d(theta, theta') / 2 with
    d(a, b) = 1 - cos(a - b), the second expectation over the disjoint
    draw pairs (0, 1), (2, 3), ... as in the model's CRPS definition.
    """
    s = np.asarray(samples, dtype=float)
    y = np.asarray(truth, dtype=float)
    to_truth = np.mean(1.0 - np.cos(s - y[None, :]), axis=0)
    even = s[0 : 2 * (s.shape[0] // 2)]
    pair = np.mean(1.0 - np.cos(even[0::2] - even[1::2]), axis=0)
    return float(np.mean(to_truth - 0.5 * pair))


def read_table(path: Path) -> tuple[list, np.ndarray]:
    """Header and float body of a CSV table written by the CLI."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [row for row in reader if row]
    body = np.array(rows, dtype=float).reshape(len(rows), len(header))
    return header, body


def check_samples(path: Path, n_rows: int, n_cols: int) -> np.ndarray:
    """phi_samples.csv: the configured shape, every value finite in (-pi, pi]."""
    header, body = read_table(path)
    if header != [f"phi_{j + 1}" for j in range(n_cols)]:
        raise ValueError(f"{path.name}: unexpected header")
    if body.shape != (n_rows, n_cols):
        raise ValueError(f"{path.name}: shape {body.shape}, expected {(n_rows, n_cols)}")
    if not np.all(np.isfinite(body)):
        raise ValueError(f"{path.name}: non-finite value")
    if np.any(body <= -math.pi) or np.any(body > math.pi):
        raise ValueError(f"{path.name}: angle outside (-pi, pi]")
    return body


def check_table(path: Path, header: list, n_rows: int) -> None:
    """A CLI table with the given header and row count."""
    got, body = read_table(path)
    if got != header:
        raise ValueError(f"{path.name}: header {got}, expected {header}")
    if body.shape[0] != n_rows:
        raise ValueError(f"{path.name}: {body.shape[0]} rows, expected {n_rows}")


def hash_outputs(directory: Path) -> str:
    """One digest over the names and bytes of every file in ``directory``."""
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()
