"""Tests of the benchmark's own code: generator, scoring and tracer."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import scoring
import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent


@pytest.mark.parametrize("name", ["diagnose-gait-d40", "fit-wind-d400"])
def test_generator_is_deterministic_per_seed(tmp_path, name):
    w = workloads.WORKLOADS[name]
    truth = [workloads.generate(w, seed, 0, tmp_path / f"{i}") for i, seed in enumerate((3, 3, 4))]
    files = [
        [(tmp_path / f"{i}" / f).read_bytes() for f in ("train.csv", "test.csv")] for i in range(3)
    ]
    assert files[0] == files[1]
    assert files[0] != files[2]
    np.testing.assert_array_equal(truth[0], truth[1])
    assert truth[0].shape == (w.n_pred,)
    assert np.all((truth[0] > -math.pi) & (truth[0] <= math.pi))


def test_generated_files_load_as_truth_labelled_rows(tmp_path):
    from vmqp.data import load_dataset

    w = workloads.WORKLOADS["diagnose-gait-d40"]
    truth = workloads.generate(w, 7, 1, tmp_path)
    ds = load_dataset(tmp_path / "train.csv", w.schema, tmp_path / "test.csv")
    assert (ds.n_observed, ds.n_test) == (w.n_obs, w.n_pred)
    np.testing.assert_allclose(ds.test_angles, truth, atol=1e-12)


def test_crps_matches_package_definition():
    from vmqp.evaluation import circular_crps

    rng = np.random.default_rng(0)
    samples = rng.vonmises(0.4, 2.0, size=(101, 3))
    truth = np.array([0.1, -2.9, 3.0])
    expected = np.mean([circular_crps(samples[:, j], truth[j]) for j in range(3)])
    assert scoring.circular_crps(samples, truth) == pytest.approx(expected, abs=1e-12)


def test_ess_of_independent_and_correlated_draws():
    rng = np.random.default_rng(1)
    n = 4000
    white = rng.standard_normal(n)
    assert scoring.ess(white) == pytest.approx(n, rel=0.15)
    ar = np.empty(n)
    ar[0] = 0.0
    for t in range(1, n):  # AR(1) with rho = 0.9: ESS / n = 0.1 / 1.9
        ar[t] = 0.9 * ar[t - 1] + white[t]
    assert scoring.ess(ar) / n == pytest.approx(0.1 / 1.9, rel=0.35)


def test_check_samples_rejects_out_of_range(tmp_path):
    path = tmp_path / "phi_samples.csv"
    path.write_text("phi_1,phi_2\n0.5,-3.1\n3.1415,0.0\n")
    assert scoring.check_samples(path, 2, 2).shape == (2, 2)
    with pytest.raises(ValueError):
        scoring.check_samples(path, 3, 2)
    path.write_text("phi_1,phi_2\n0.5,-3.1\n4.0,0.0\n")
    with pytest.raises(ValueError):
        scoring.check_samples(path, 2, 2)


def test_tracer_counts_calls_exactly_and_restores_functions():
    import vmqp
    import vmqp.gibbs
    import vmqp.inference
    from vmqp.inference import build_param_model, sample_fictitious
    from vmqp.kernels import KernelSpec
    from vmqp.model import ParamVector, full_state_params

    originals = {
        (mod, key): getattr(mod, key)
        for mod, key in [
            (vmqp.gibbs, "gibbs_sweep"),
            (vmqp.inference, "gibbs_sweep"),
            (vmqp, "gibbs_sweep"),
            (vmqp.gibbs, "sample_von_mises"),
            (vmqp.inference, "sample_fictitious"),
        ]
    }
    w = ParamVector(KernelSpec("exponential", 1.0, 1.0), 0.5, 0.3)
    locations = np.linspace(0.0, 3.0, 6)[:, None]
    with tracer.Tracer() as active:
        model = vmqp.inference.build_param_model(w, locations, 2)
        vmqp.inference.sample_fictitious(model, 7, np.zeros(6), 0)
        cp = full_state_params(model.precision, w)
        vmqp.gibbs.gibbs_sweep(np.zeros(6), model.full_aug, cp, 0)
    for (mod, key), fn in originals.items():
        assert getattr(mod, key) is fn
    assert build_param_model is vmqp.inference.build_param_model
    assert sample_fictitious is vmqp.inference.sample_fictitious

    metrics = tracer.layer_metrics(active.spans)
    assert metrics["inference.sample_fictitious.calls"][0] == 1
    assert metrics["inference.build_param_model.calls"][0] == 1
    assert metrics["gibbs.gibbs_sweep.calls"][0] == 8
    assert metrics["circular.sample_von_mises.calls"][0] == 8
    assert metrics["kernels.build_gram.calls"][0] == 1
    sweeps = [s for s in active.spans if s.name == "gibbs.gibbs_sweep"]
    assert sum(s.parent is not None and s.parent.name == "inference.sample_fictitious"
               for s in sweeps) == 7
    fictitious = next(s for s in active.spans if s.name == "inference.sample_fictitious")
    assert fictitious.self_s <= fictitious.total_s
    assert fictitious.child_s == pytest.approx(
        sum(s.total_s for s in sweeps if s.parent is fictitious)
    )


def test_tracer_splits_exchange_moves_by_block():
    import vmqp.inference as inf
    from vmqp.kernels import KernelSpec
    from vmqp.model import ParamVector

    w = ParamVector(KernelSpec("exponential", 1.0, 1.0), 0.5, 0.3)
    locations = np.linspace(0.0, 3.0, 6)[:, None]
    model = inf.build_param_model(w, locations, 2)
    rng = np.random.default_rng(3)
    with tracer.Tracer() as active:
        for block in (inf.KERNEL_BLOCK, inf.MEAN_BLOCK, inf.MEAN_BLOCK):
            inf.dmh_step(model, np.zeros(6), inf.PriorSpec(), inf.ProposalSpec(),
                         inf.BridgeConfig(0, 2), rng, np.zeros(6), block=block)
    metrics = tracer.layer_metrics(active.spans)
    assert metrics["inference.dmh_step.kernel.calls"][0] == 1
    assert metrics["inference.dmh_step.mean.calls"][0] == 2
    builds = metrics["inference.build_param_model.calls"][0]
    assert builds + metrics["inference.dmh_step.support_rejects"][0] == 3


def test_tracer_computes_flops_per_factorization_path():
    import vmqp.gibbs as gibbs

    rng = np.random.default_rng(5)
    flops = {}
    for n in (40, 600):  # eigensolve below the package's limit, power iteration above
        B = rng.standard_normal((n, n))
        with tracer.Tracer() as active:
            gibbs.make_augmentation(B @ B.T / n)
        flops[n] = tracer.layer_metrics(active.spans)["linalg.flops_computed"][0]
    assert flops[40] == pytest.approx(4.0 * 40**3 / 3.0 + 40**3 / 3.0)
    assert flops[600] == pytest.approx(200 * 4.0 * 600**2 + 600**3 / 3.0)


def test_tracer_refuses_a_missing_layer(monkeypatch):
    import vmqp.gibbs as gibbs

    sweep = gibbs.gibbs_sweep
    monkeypatch.setattr(tracer, "SPANS", ("gibbs.gibbs_sweep", "gibbs.no_such_function"))
    with pytest.raises(LookupError, match="no_such_function"):
        tracer.Tracer().install()
    assert gibbs.gibbs_sweep is sweep


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    per_layer = {m["name"] for m in spec["per_layer"]}
    reported = set(tracer.layer_metrics([])) - {"trace.iters"}
    reported |= {"machine.calib_s", "trace.overhead_frac"}
    assert per_layer == reported
