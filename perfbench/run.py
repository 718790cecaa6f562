"""Benchmark of the vmqp command-line tool.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is taken from
``src/``. The benchmark is a closed loop with one client: it runs one CLI
command at a time, each in a fresh process, on inputs generated from the
seed (see ``workloads.py``), and checks every output.

``--trace 0`` reports the end-to-end metrics: wall time of the command,
set-up time (the same command with every sampling loop cut to its
smallest legal length), effective predictive draws per second, circular
CRPS against the generated truth, and peak resident memory. A run lasts
about ``--seconds`` in all, input generation included. Full and set-up
sessions alternate through it, going round the replicate datasets, and
its timings are medians over all of them; quartiles and counts are
printed above the result line. ``--trace 1`` runs the same commands in-process
under ``tracer.Tracer`` and reports per-layer spans, counts and ratios.

Child processes run with the BLAS pool pinned to one thread. Work files
go to ``.perfbench_work/`` in the checkout; a successful run keeps only
its ``result.json`` (and ``spans.csv`` when traced) there. The last line
of standard output is the JSON result.
"""

from __future__ import annotations

import os

# BLAS sizes its thread pool when numpy first loads, so pin it before any
# import that pulls numpy in; child processes inherit the setting.
BLAS_THREADS = 1
THREAD_ENV = {
    key: str(BLAS_THREADS)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import scoring  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, Stage, Workload, generate  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

COMMAND_TIMEOUT_S = 120.0
# cd_gradient.csv header of the anisotropic kernel, the one diagnose uses.
GRADIENT_NAMES = ["sigma2", "lengthscale", "gradient_lengthscale", "kappa", "nu"]

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "ess_per_s": "draws/s",
    "crps": "score",
    "peak_rss_mb": "MB",
}


@dataclass
class Session:
    """One pass over a workload's stages, each stage one CLI command."""

    wall_s: float = 0.0
    rss_mb: float = 0.0
    error: str | None = None
    hashes: list = field(default_factory=list)
    samples: np.ndarray | None = None


class Inputs:
    """Generated files of one replicate: data, configs and output dirs."""

    def __init__(self, workload: Workload, seed: int, replicate: int, base: Path,
                 chain_seed: int | None = None):
        self.workload = workload
        self.checked: dict = {}  # output digest -> checked samples (or None)
        self.dir = base / f"r{replicate}"
        self.truth = generate(workload, seed, replicate, self.dir)
        if chain_seed is None:
            chain_seed = int(np.random.SeedSequence([seed, replicate]).generate_state(1)[0])
        self.chain_seed = chain_seed
        for stage in workload.stages:
            for setup in (False, True):
                self.config(stage, setup).write_text(stage.config_text(setup, self.chain_seed))

    def config(self, stage: Stage, setup: bool) -> Path:
        return self.dir / f"{stage.command}{'_setup' if setup else ''}.cfg"

    def out(self, stage: Stage, setup: bool) -> Path:
        return self.dir / f"out_{stage.command}{'_setup' if setup else ''}"

    def argv(self, stage: Stage, setup: bool) -> list:
        return [
            stage.command,
            "--config", str(self.config(stage, setup)),
            "--data", str(self.dir / "train.csv"),
            "--test-data", str(self.dir / "test.csv"),
            "--schema", self.workload.schema,
            "--out", str(self.out(stage, setup)),
        ]


def _retained(cfg: dict) -> int:
    return len(range(cfg["burn_in"], cfg["n_iter"], cfg.get("thin", 1)))


def check_stage(inputs: Inputs, stage: Stage, setup: bool):
    """Check one stage's output files; return its samples, if any."""
    cfg = dict(stage.config, **(stage.setup if setup else {}))
    out = inputs.out(stage, setup)
    w = inputs.workload
    if stage.command == "diagnose":
        scoring.check_table(
            out / "lambda_sweep.csv",
            ["lambda_multiplier", "median_ress"],
            len(cfg["lambda_multipliers"]),
        )
        scoring.check_table(out / "cd_gradient.csv", GRADIENT_NAMES, cfg["cd_repeats"])
        return None
    return scoring.check_samples(out / "phi_samples.csv", _retained(cfg), w.n_pred)


# The child runs ``python -m vmqp.cli`` through runpy and, at exit, writes
# the high-water mark of its own address space (VmHWM) to a file. The
# ru_maxrss that wait4 returns would not do: exec keeps the larger of the
# old and the new image's peak, and the old image of a vforked child is
# this process, so a child would report at least this process's peak.
CHILD = """\
import atexit, os, runpy
def peak():
    with open("/proc/self/status") as src, open(os.environ["PERFBENCH_PEAK_FILE"], "w") as out:
        out.write(next(line for line in src if line.startswith("VmHWM:")))
atexit.register(peak)
runpy.run_module("vmqp.cli", run_name="__main__", alter_sys=True)
"""


def _spawn(argv: list, log: Path) -> tuple:
    """Run ``python -m vmqp.cli argv``; return (wall s, peak RSS MB, exit code)."""
    peak = log.with_name("peak.txt")
    peak.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC), PERFBENCH_PEAK_FILE=str(peak))
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", CHILD, *argv],
            cwd=ROOT, env=env, stdout=fh, stderr=subprocess.STDOUT,
        )
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            code = proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    if code != 0:
        return wall, 0.0, code
    return wall, int(peak.read_text().split()[1]) / 1024.0, code  # VmHWM is in kB


def run_session(inputs: Inputs, setup: bool) -> Session:
    """Run every stage of the workload once in child processes."""
    session = Session()
    for stage in inputs.workload.stages:
        out = inputs.out(stage, setup)
        shutil.rmtree(out, ignore_errors=True)
        wall, rss, code = _spawn(inputs.argv(stage, setup), inputs.dir / "cli.log")
        session.wall_s += wall
        session.rss_mb = max(session.rss_mb, rss)
        if code != 0:
            session.error = f"{stage.command} exited {code}"
            return session
        _finish_stage(session, inputs, stage, setup)
        if session.error:
            return session
    return session


def _finish_stage(session: Session, inputs: Inputs, stage: Stage, setup: bool) -> None:
    """Check a stage's outputs, once per distinct output digest."""
    try:
        digest = scoring.hash_outputs(inputs.out(stage, setup))
        if digest not in inputs.checked:
            inputs.checked[digest] = check_stage(inputs, stage, setup)
    except (OSError, ValueError, StopIteration) as exc:
        session.error = f"{stage.command} output: {exc}"
        return
    if inputs.checked[digest] is not None:
        session.samples = inputs.checked[digest]
    session.hashes.append(digest)


class Ledger:
    """Counts attempted and failed sessions and the byte-identity check."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []
        self._hashes: dict = {}

    def record(self, key, session: Session) -> bool:
        self.attempted += 1
        if session.error is None:
            first = self._hashes.setdefault(key, session.hashes)
            if first != session.hashes:
                session.error = f"outputs of {key} differ between runs of one seed"
        if session.error is not None:
            self.failures.append(session.error)
            print(f"FAILED: {session.error}", file=sys.stderr)
            return False
        return True


def calib_probe() -> float:
    """Seconds for a fixed pure-Python and numpy loop; shows machine drift."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    a = np.linspace(1.0, 2.0, 50_000)
    m = np.eye(150) + 1e-3
    for _ in range(150):
        a = np.sqrt(a * a + 1.0) - 0.5
        m = m @ m
        m /= np.abs(m).max()
    return time.perf_counter() - start


def machine_facts() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "machine": platform.machine(),
    }


def _summary(values: list) -> dict:
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def run_untraced(workload: Workload, seed: int, seconds: float, base: Path) -> dict:
    deadline = time.perf_counter() + seconds
    replicates = [Inputs(workload, seed, r, base) for r in range(workload.replicates)]
    ledger = Ledger()
    calib = [calib_probe()]
    # Warm-up: the first command of a run loads the interpreter, numpy,
    # scipy and vmqp from disk; it is checked but not timed.
    ledger.record(("setup", 0), run_session(replicates[0], setup=True))

    # One step is a full session and then a set-up session of the same
    # replicate, so both timings are spread over the whole run. Steps go
    # round the replicates, so no replicate runs more than once more than
    # another; the first pass always completes, because the quality metrics
    # need every replicate, and later steps start only if the slowest step
    # so far still fits before the deadline. The timings are pooled over
    # replicates: a session's time depends on the machine, not the dataset.
    walls = [[] for _ in replicates]
    setup_walls = [[] for _ in replicates]
    rss, quality, steps = [], {}, []
    i = 0
    while i < len(replicates) or time.perf_counter() + max(steps) <= deadline:
        r = i % len(replicates)
        inputs = replicates[r]
        i += 1
        begin = time.perf_counter()
        session = run_session(inputs, setup=False)
        if ledger.record(("full", r), session):
            walls[r].append(session.wall_s)
            rss.append(session.rss_mb)
            if r not in quality:
                quality[r] = score(inputs, session.samples)
        session = run_session(inputs, setup=True)
        if ledger.record(("setup", r), session):
            setup_walls[r].append(session.wall_s)
        steps.append(time.perf_counter() - begin)
    calib.append(calib_probe())

    pooled = [v for w in walls for v in w]
    setup_pooled = [v for w in setup_walls for v in w]
    if not pooled or not setup_pooled:
        raise RuntimeError("no successful run: " + "; ".join(ledger.failures[:3]))
    wall = statistics.median(pooled)
    ess = [q[0] for q in quality.values()]
    crps = [q[1] for q in quality.values()]
    stats = {
        "wall_s": _summary(pooled),
        "setup_s": _summary(setup_pooled),
        "ess_per_s": _summary([e / wall for e in ess]),
        "crps": _summary(crps),
        "peak_rss_mb": _summary(rss),
    }
    values = {
        "wall_s": wall,
        "setup_s": statistics.median(setup_pooled),
        "ess_per_s": statistics.fmean(ess) / wall,
        "crps": statistics.fmean(crps),
        "peak_rss_mb": statistics.median(rss),
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return {
        "ledger": ledger,
        "metrics": metrics,
        "stats": stats,
        "calib_s": calib,
        "replicates": len(replicates),
        "wall_s_by_replicate": walls,
        "setup_s_by_replicate": setup_walls,
    }


def score(inputs: Inputs, samples: np.ndarray) -> tuple:
    """Mean predictive ESS and CRPS of one replicate's retained draws."""
    return scoring.mean_ess(samples), scoring.circular_crps(samples, inputs.truth)


def import_package():
    """Import vmqp from the checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import vmqp.cli

    origin = Path(vmqp.cli.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise RuntimeError(f"vmqp was imported from {origin}, not from {SRC}")
    return vmqp.cli


def _in_process(cli, inputs: Inputs, trace: bool):
    """Run every stage through ``cli.main`` in this process."""
    session = Session()
    active = tracer.Tracer() if trace else None
    for stage in inputs.workload.stages:
        out = inputs.out(stage, False)
        shutil.rmtree(out, ignore_errors=True)
        if active is not None:
            active.install()
        start = time.perf_counter()
        try:
            code = cli.main(inputs.argv(stage, False))
        except Exception as exc:  # a crash is a failed run, not a benchmark error
            code = f"raised {exc!r}"
        finally:
            session.wall_s += time.perf_counter() - start
            if active is not None:
                active.uninstall()
        if code != 0:
            session.error = f"{stage.command} exited {code}"
            break
        _finish_stage(session, inputs, stage, False)
        if session.error:
            break
    return session, (active.spans if active is not None else None)


def run_traced(workload: Workload, seed: int, seconds: float, base: Path) -> dict:
    inputs = Inputs(workload, seed, 0, base)
    cli = import_package()
    ledger = Ledger()
    calib = calib_probe()
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while True:
        session, _ = _in_process(cli, inputs, trace=False)
        if ledger.record("full", session):
            plain.append(session.wall_s)
        session, spans = _in_process(cli, inputs, trace=True)
        if ledger.record("full", session):
            traced.append(session.wall_s)
            layers.append(tracer.layer_metrics(spans))
            if len(layers) == 1:
                tracer.write_spans(spans, base / "spans.csv")
        del spans
        elapsed = time.perf_counter() - start
        if ledger.failures or elapsed + 2 * statistics.median(plain) > seconds:
            break
    if not layers or not plain:
        raise RuntimeError("no successful traced run: " + "; ".join(ledger.failures[:3]))
    merged = tracer.merge(layers)
    iters = merged.pop("trace.iters")[0]
    merged["machine.calib_s"] = (calib, "s")
    merged["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0,
        "ratio",
    )
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in merged.items()}
    return {
        "ledger": ledger,
        "metrics": metrics,
        "stats": {"traced_wall_s": _summary(traced), "untraced_wall_s": _summary(plain)},
        "sampler_iterations": iters,
        "calib_s": [calib],
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    # Turn SIGTERM into an exception, so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, _terminate)
    args = parse_args(argv)
    if not (SRC / "vmqp" / "cli.py").is_file():
        print(f"error: no vmqp sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    base = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    runner = run_traced if args.trace else run_untraced
    try:
        report = runner(workload, args.seed, args.seconds, base)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    ledger = report.pop("ledger")
    machine = machine_facts()
    print("machine " + json.dumps(machine, sort_keys=True))
    print(f"calib_s {report['calib_s']}")
    for name, s in report["stats"].items():
        unit = report["metrics"].get(name, {}).get("unit", "s")
        print(
            f"{workload.name} {name}: median {s['median']:.6g} {unit} "
            f"(q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n {s['n']})"
        )
    print(
        f"{workload.name} failed_frac: {len(ledger.failures)}/{ledger.attempted} "
        f"= {len(ledger.failures) / ledger.attempted:.3g}"
    )
    result = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": report["metrics"],
    }
    detail = dict(report, workload=workload.name, seed=args.seed, trace=args.trace,
                  machine=machine, failures=ledger.failures, result=result)
    (base / "result.json").write_text(json.dumps(detail, indent=1, sort_keys=True))
    if not ledger.failures:  # keep the inputs and outputs of a failed run
        for replicate in base.glob("r[0-9]*/"):
            shutil.rmtree(replicate)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
