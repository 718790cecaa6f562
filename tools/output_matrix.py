"""Compare the CLI outputs of two source trees on the benchmark inputs.

    python tools/output_matrix.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold the ``vmqp`` package (a
checkout's ``src``). Each case runs one CLI command under both trees, with
one BLAS thread, on inputs from ``perfbench/workloads.generate(w, s, 0,
dir)`` for data seeds s in {7, 13} and chain seed 11:

- fit-wind-d400 ``fit``: plain, ``chi = 5``, ``bridge_levels = 0`` and
  ``learn_mean = false`` (the sigma2-only move schedule);
- diagnose-gait-d40 ``diagnose`` and ``sample``: plain and ``chi = 5``;
- an ``anisotropic_gaussian`` ``fit`` on the gait inputs with the fit-wind
  settings (``n_iter = 30``, ``burn_in = 5``, ``bridge_levels = 1``):
  plain and ``chi = 5``.

It prints one line per output file: ``same`` when the bytes are equal,
else the largest absolute difference of its numeric values, or what
differs when the files do not hold the same cells or a cell changes
between NaN and a number. It exits 0 when every
file is ``same`` and 1 otherwise, so a byte-identity gate is one command.
"""

from __future__ import annotations

import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import WORKLOADS, Stage, generate  # noqa: E402

DATA_SEEDS = (7, 13)
CHAIN_SEED = 11
THREAD_ENV = {key: "1" for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

WIND, GAIT = WORKLOADS["fit-wind-d400"], WORKLOADS["diagnose-gait-d40"]
WIND_FIT = WIND.stages[0].config
GAIT_DIAGNOSE, GAIT_SAMPLE = (stage.config for stage in GAIT.stages)
GAIT_KERNEL = {key: GAIT_SAMPLE[key] for key in GAIT_SAMPLE if key.startswith("kernel_")}
ANISO_FIT = dict(WIND_FIT, **GAIT_KERNEL, n_iter=30, burn_in=5, bridge_levels=1)
CHI = {"chi": 5.0}

# (name, workload whose inputs it reads, command, config)
CASES = (
    ("fit-wind", WIND, "fit", WIND_FIT),
    ("fit-wind-chi", WIND, "fit", dict(WIND_FIT, **CHI)),
    ("fit-wind-levels0", WIND, "fit", dict(WIND_FIT, bridge_levels=0)),
    ("fit-wind-fixed-mean", WIND, "fit", dict(WIND_FIT, learn_mean=False)),
    ("diagnose-gait", GAIT, "diagnose", GAIT_DIAGNOSE),
    ("diagnose-gait-chi", GAIT, "diagnose", dict(GAIT_DIAGNOSE, **CHI)),
    ("sample-gait", GAIT, "sample", GAIT_SAMPLE),
    ("sample-gait-chi", GAIT, "sample", dict(GAIT_SAMPLE, **CHI)),
    ("fit-aniso-gait", GAIT, "fit", ANISO_FIT),
    ("fit-aniso-gait-chi", GAIT, "fit", dict(ANISO_FIT, **CHI)),
)


def run_cli(src: Path, workload, command: str, config: Path, data: Path, out: Path) -> None:
    argv = [
        sys.executable, "-m", "vmqp.cli", command,
        "--config", str(config),
        "--data", str(data / "train.csv"),
        "--test-data", str(data / "test.csv"),
        "--schema", workload.schema,
        "--out", str(out),
    ]
    env = dict(os.environ, PYTHONPATH=str(src), **THREAD_ENV)
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{src}: {command} exited {done.returncode}:\n{done.stderr}")


def _cells(path: Path) -> list:
    return [c for c in re.split(r"[,\s=]+", path.read_text()) if c]


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def compare(old: Path, new: Path) -> str:
    """``same``, the largest absolute difference, or what else differs."""
    if not old.exists() or not new.exists():
        return f"only in {'new' if new.exists() else 'old'}"
    if old.read_bytes() == new.read_bytes():
        return "same"
    a, b = _cells(old), _cells(new)
    if len(a) != len(b):
        return f"differs: {len(a)} cells -> {len(b)}"
    largest = 0.0
    for x, y in zip(a, b):
        fx, fy = _number(x), _number(y)
        if fx is None or fy is None or math.isnan(fx) != math.isnan(fy):
            if x != y:
                return f"differs: {x!r} -> {y!r}"
        elif fx != fy and not math.isnan(fx):
            largest = max(largest, abs(fx - fy))
    return f"{largest:.3g}"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python tools/output_matrix.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    trees = {"old": Path(args[0]).resolve(), "new": Path(args[1]).resolve()}
    all_same = True
    with tempfile.TemporaryDirectory(prefix="output_matrix_") as tmp:
        work = Path(tmp)
        for seed in DATA_SEEDS:
            for workload in (WIND, GAIT):
                generate(workload, seed, 0, work / f"{workload.name}-{seed}")
            for name, workload, command, config in CASES:
                case = work / f"{name}-{seed}"
                case.mkdir()
                cfg = case / "run.cfg"
                cfg.write_text(Stage(command, config, {}).config_text(False, CHAIN_SEED))
                data = work / f"{workload.name}-{seed}"
                for side, src in trees.items():
                    run_cli(src, workload, command, cfg, data, case / side)
                files = sorted({p.name for side in trees for p in (case / side).iterdir()})
                for file in files:
                    verdict = compare(case / "old" / file, case / "new" / file)
                    print(f"seed {seed} {name} {file}: {verdict}", flush=True)
                    all_same = all_same and verdict == "same"
    return 0 if all_same else 1


if __name__ == "__main__":
    sys.exit(main())
