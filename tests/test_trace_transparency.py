"""The benchmark tracer is transparent: every traced CLI run writes the bytes of the bare one.

The tracer's hooks read arguments (``n_iter``, ``config``, ``spec``, ``Q``,
``block``) and results (``matrix``, ``jitter``, ``lam``,
``lam_max_estimate``) of package functions, so a refactor that renames one
breaks a traced benchmark run; this test catches it in process. The
benchmark modules are imported from ``perfbench/`` by path, as
``tools/output_matrix.py`` does, and every file is written under pytest's
temporary directory.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracer  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

from vmqp import cli  # noqa: E402

DATA_SEED, CHAIN_SEED = 7, 11


def run_workload(name: str, base: Path, out: Path) -> dict:
    """Run every stage of workload ``name`` through ``cli.main``; return {file: bytes}."""
    workload = WORKLOADS[name]
    data = base / name
    if not data.exists():
        generate(workload, DATA_SEED, 0, data)
    written = {}
    for stage in workload.stages:
        config = data / f"{stage.command}.cfg"
        config.write_text(stage.config_text(False, CHAIN_SEED))
        stage_out = out / name / stage.command
        argv = [
            stage.command,
            "--config", str(config),
            "--data", str(data / "train.csv"),
            "--test-data", str(data / "test.csv"),
            "--schema", workload.schema,
            "--out", str(stage_out),
        ]
        assert cli.main(argv) == 0
        written.update({
            path.relative_to(out): path.read_bytes() for path in stage_out.rglob("*") if path.is_file()
        })
    return written


@pytest.mark.parametrize("name", ["fit-wind-d400", "diagnose-gait-d40"])
def test_traced_cli_runs_write_the_bytes_of_bare_ones(tmp_path, name):
    bare = run_workload(name, tmp_path, tmp_path / "bare")
    with tracer.Tracer() as active:
        traced = run_workload(name, tmp_path, tmp_path / "traced")
    assert bare and traced == bare

    metrics = tracer.layer_metrics(active.spans)
    for stage in WORKLOADS[name].stages:
        assert metrics[f"cli.cmd_{stage.command}.calls"][0] == 1
    for layer in ("kernels.build_gram", "model.build_precision", "inference.build_param_model"):
        assert metrics[f"{layer}.calls"][0] >= 1
    assert metrics["linalg.flops_computed"][0] > 0  # the factorization hooks ran
    if name == "fit-wind-d400":
        assert metrics["inference.block_gibbs_fit.calls"][0] == 1
        assert metrics["inference.dmh_step.kernel.calls"][0] > 0
    else:
        assert metrics["gibbs.run_chain.calls"][0] >= 1
        assert metrics["inference.cd_gradient.calls"][0] == 1
    assert metrics["trace.iters"][0] > 0
