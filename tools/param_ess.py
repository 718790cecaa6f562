"""Parameter-chain mixing of ``vmqp fit`` on the fit-wind-d400 inputs.

    python tools/param_ess.py SRC [--seeds 7,11] [--n-iter 400]

SRC is a directory that holds the ``vmqp`` package (a checkout's
``src``). For each data seed s and each replicate r of the fit-wind-d400
workload, it writes the inputs of ``perfbench/workloads.generate(w, s, r,
dir)`` and runs ``vmqp fit`` once, in a fresh process with one BLAS thread,
with the workload's fit config at ``n_iter`` iterations and the chain seed
that ``perfbench/run.py`` gives that replicate.
From each run's ``w_trace.csv`` it takes the Geyer ESS of every parameter
column (for ``nu`` the smaller of the ESS of its cos and sin), and prints
per parameter the pooled ESS per second: the sum of the ESS over all runs
divided by the sum of their wall times. The ESS is computed here with
numpy, so two trees are judged by one estimator. Nothing under
``perfbench/`` is written.
"""

from __future__ import annotations

import argparse
import csv
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import WORKLOADS, Stage, generate  # noqa: E402

THREAD_ENV = {key: "1" for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
WIND = WORKLOADS["fit-wind-d400"]


def ess(x: np.ndarray) -> float:
    """Geyer initial-positive-sequence ESS of one trace; 0 for a constant one."""
    x = np.asarray(x, dtype=float) - np.mean(x)
    n = len(x)
    if n < 10 or not np.any(x):
        return 0.0
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, nfft)
    acov = np.fft.irfft(f * np.conj(f), nfft)[:n]
    rho = acov / acov[0]
    pairs = rho[1 : n - 1 : 2] + rho[2:n:2]
    kept = np.logical_and.accumulate(pairs > 0.0)
    return n / (1.0 + 2.0 * float(np.sum(pairs[kept])))


def column_ess(header: list, rows: np.ndarray) -> dict:
    """ESS of each parameter column of a ``w_trace.csv`` table."""
    out = {}
    for j, name in enumerate(header):
        if name in ("iter", "accepted"):
            continue
        col = rows[:, j]
        out[name] = min(ess(np.cos(col)), ess(np.sin(col))) if name == "nu" else ess(col)
    return out


def run_fit(src: Path, config: Path, data: Path, out: Path) -> float:
    """Run ``vmqp fit`` under ``src``; return its wall time in seconds."""
    argv = [
        sys.executable, "-m", "vmqp.cli", "fit",
        "--config", str(config),
        "--data", str(data / "train.csv"),
        "--test-data", str(data / "test.csv"),
        "--schema", WIND.schema,
        "--out", str(out),
    ]
    env = dict(os.environ, PYTHONPATH=str(src), **THREAD_ENV)
    start = time.perf_counter()
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"{src}: fit exited {done.returncode}:\n{done.stderr}")
    return wall


def read_trace(path: Path) -> tuple:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = np.array([[float(v) for v in row] for row in reader])
    return header, rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", type=Path)
    parser.add_argument("--seeds", default="7,11")
    parser.add_argument("--n-iter", type=int, default=400)
    args = parser.parse_args(argv)
    src = args.src.resolve()
    seeds = [int(s) for s in args.seeds.split(",")]
    config = dict(WIND.stages[0].config, n_iter=args.n_iter)
    totals, wall = {}, 0.0
    with tempfile.TemporaryDirectory(prefix="param_ess_") as tmp:
        work = Path(tmp)
        for seed in seeds:
            for r in range(WIND.replicates):
                case = work / f"s{seed}-r{r}"
                generate(WIND, seed, r, case)
                cfg = case / "run.cfg"
                chain_seed = int(np.random.SeedSequence([seed, r]).generate_state(1)[0])
                cfg.write_text(Stage("fit", config, {}).config_text(False, chain_seed))
                wall += run_fit(src, cfg, case, case / "out")
                for name, value in column_ess(*read_trace(case / "out" / "w_trace.csv")).items():
                    totals[name] = totals.get(name, 0.0) + value
    runs = len(seeds) * WIND.replicates
    print(f"runs {runs}, wall {wall:.2f} s, n_iter {args.n_iter}")
    for name, total in totals.items():
        print(f"{name} ess {total:.1f} ess_per_s {total / wall:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
