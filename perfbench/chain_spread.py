"""Chain-seed spread of the benchmark's quality metrics.

    python3 perfbench/chain_spread.py [--seed N] [--chains K] [--workload NAME ...]

Holds each workload's inputs fixed (data seed N) and reruns its full
commands under K different chain seeds. For the same code ``crps`` repeats
exactly and ``ess_per_s`` up to timing noise, but a change to the random
stream moves both by Monte Carlo noise; the spread printed here, and
written to ``perfbench/chain_seed_spread.json``, is the yardstick for such
a change. Each value is the benchmark's own metric: a mean over the
workload's replicate datasets.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from run import WORK, WORKLOADS, Inputs, score, run_session  # pins BLAS threads first

import numpy as np  # noqa: E402

OUT = Path(__file__).resolve().parent / "chain_seed_spread.json"


def spread(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "values": values,
        "median": med,
        "iqr_over_median": (q3 - q1) / med,
        "range_over_median": (max(values) - min(values)) / med,
    }


def measure(name: str, seed: int, chains: int) -> dict:
    workload = WORKLOADS[name]
    crps, ress = [], []
    for k in range(chains):
        per_replicate = []
        for r in range(workload.replicates):
            chain_seed = int(np.random.SeedSequence([seed, r, 1 + k]).generate_state(1)[0])
            inputs = Inputs(workload, seed, r, WORK / f"chain-spread-{name}", chain_seed)
            session = run_session(inputs, setup=False)
            if session.error:
                raise RuntimeError(session.error)
            ess, crps_value = score(inputs, session.samples)
            per_replicate.append((ess / session.samples.shape[0], crps_value))
        ress.append(statistics.fmean(p[0] for p in per_replicate))
        crps.append(statistics.fmean(p[1] for p in per_replicate))
        print(f"{name} chain set {k}: crps {crps[-1]:.4f} relative ESS {ress[-1]:.4f}", flush=True)
    return {
        "data_seed": seed,
        "replicates": workload.replicates,
        "crps": spread(crps),
        "relative_ess": spread(ress),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--chains", type=int, default=5)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    result = {name: measure(name, args.seed, args.chains) for name in args.workload or WORKLOADS}
    OUT.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
