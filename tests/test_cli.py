import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vmqp.cli import main, read_samples_csv, run
from vmqp.config import RunConfig, parse_config
from vmqp.data import angle_to_schema_units, ingest, load_dataset, split_indices
from vmqp.errors import ConfigError, DataError
from vmqp.inference import FitConfig

from test_inference import forbid_whole_precision, recording_eighs, recording_sweeps


def write(path, text):
    path.write_text(text)
    return str(path)


def read_kv(path):
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def read_table(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [row for row in reader if row]
    return header, rows


BASE_CONFIG = """
kernel_family = exponential
kernel_variance = 1.0
kernel_lengthscale = 1.0
kappa = 0.5
nu_rad = 0.3
n_iter = 400
burn_in = 100
thin = 3
seed = 11
"""


def with_keys(base, text):
    """The config ``base`` with each key that ``text`` sets taken from ``text``."""
    keys = {line.partition("=")[0].strip() for line in text.splitlines()}
    kept = [line for line in base.splitlines() if line.partition("=")[0].strip() not in keys]
    return "\n".join(kept) + "\n" + text


def make_generic(path, n_obs=8, n_pred=2, seed=0):
    rng = np.random.default_rng(seed)
    lines = ["x1,angle_rad"]
    for i in range(n_obs):
        lines.append(f"{rng.uniform(0, 4)},{rng.uniform(-np.pi, np.pi)}")
    for i in range(n_pred):
        lines.append(f"{rng.uniform(0, 4)},")
    return write(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------- config


def test_parse_config_values(tmp_path):
    cfg = parse_config(write(tmp_path / "run.cfg", BASE_CONFIG))
    assert cfg.kernel_family == "exponential"
    assert cfg.kappa == 0.5
    assert cfg.n_iter == 400
    assert cfg.thin == 3


def test_parse_config_comments_and_lists(tmp_path):
    text = "lambda_multipliers = 1.01, 2.0 # sweep\nlearn_mean = false\n"
    cfg = parse_config(write(tmp_path / "run.cfg", text))
    assert cfg.lambda_multipliers == (1.01, 2.0)
    assert cfg.learn_mean is False


def test_parse_config_learn_mean_true_and_not_a_boolean(tmp_path, capsys):
    assert parse_config(write(tmp_path / "t.cfg", "learn_mean = true\n")).learn_mean is True
    cfg = write(tmp_path / "m.cfg", BASE_CONFIG + "learn_mean = maybe\n")
    data = make_generic(tmp_path / "d.csv")
    assert main(["fit", "--config", cfg, "--data", data, "--out", str(tmp_path / "o")]) == 2
    assert "not a boolean: 'maybe'" in capsys.readouterr().err


def test_parse_config_unknown_key(tmp_path):
    path = write(tmp_path / "run.cfg", "\nkernal_family = gaussian\n")
    with pytest.raises(ConfigError, match="line 2.*kernal_family"):
        parse_config(path)


def test_parse_config_duplicate_key(tmp_path):
    path = write(tmp_path / "run.cfg", "kappa = 1\nkappa = 2\n")
    with pytest.raises(ConfigError, match="line 2.*duplicate"):
        parse_config(path)


def test_parse_config_bad_value(tmp_path):
    path = write(tmp_path / "run.cfg", "n_iter = soon\n")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config(path)


def test_parse_config_validation(tmp_path):
    path = write(tmp_path / "run.cfg", "n_iter = 10\nburn_in = 10\n")
    with pytest.raises(ConfigError):
        parse_config(path)


def test_run_config_fit_defaults_are_the_library_defaults():
    cfg = RunConfig()
    assert cfg.fit_config() == FitConfig(cfg.n_iter, cfg.burn_in, cfg.thin)


def test_readme_config_example_parses(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(write(tmp_path / "run.cfg", example))
    assert cfg.kernel_family == "exponential"
    assert cfg.step_nu == 0.3


# ------------------------------------------------------------------ data


def test_ingest_generic(tmp_path):
    path = write(
        tmp_path / "d.csv",
        "x1,x2,angle_rad\n0.0,1.0,7.0\n2.0,3.0,\n",
    )
    ds = ingest(path, "generic")
    assert ds.n_observed == 1 and ds.n_test == 1
    # 7.0 rad wraps into (-pi, pi]
    assert ds.observed_angles[0] == pytest.approx(7.0 - 2 * np.pi)
    assert np.isnan(ds.test_angles[0])


def test_ingest_wind_conversion(tmp_path):
    path = write(
        tmp_path / "w.csv",
        "lon,lat,direction_deg\n10.0,50.0,270.0\n",
    )
    ds = ingest(path, "wind")
    assert ds.observed_angles[0] == pytest.approx(-np.pi / 2)


def test_ingest_wind_out_of_range(tmp_path):
    path = write(
        tmp_path / "w.csv",
        "lon,lat,direction_deg\n10.0,50.0,400.0\n",
    )
    with pytest.raises(DataError, match="row 2"):
        ingest(path, "wind")


def test_ingest_gait_wraps_full_cycle(tmp_path):
    path = write(
        tmp_path / "g.csv",
        "ankle_deg,knee_deg,hip_deg,gradient_pct,cycle_pct\n"
        "1,2,3,0,100\n1,2,3,0,25\n",
    )
    ds = ingest(path, "gait")
    assert ds.observed_angles[0] == pytest.approx(0.0, abs=1e-12)
    assert ds.observed_angles[1] == pytest.approx(np.pi / 2)


def test_ingest_errors(tmp_path):
    with pytest.raises(DataError, match="expects columns x1..xk"):
        ingest(write(tmp_path / "a.csv", "x1,angle\n1,2\n"), "generic")
    with pytest.raises(DataError, match="missing column"):
        ingest(write(tmp_path / "w.csv", "lon,lat\n1,2\n"), "wind")
    with pytest.raises(DataError, match="row 3"):
        ingest(
            write(tmp_path / "b.csv", "x1,angle_rad\n1,2\nbad,1\n"),
            "generic",
        )
    with pytest.raises(DataError, match="empty file"):
        ingest(write(tmp_path / "c.csv", ""), "generic")
    with pytest.raises(DataError, match="unknown schema"):
        ingest(write(tmp_path / "d.csv", "x1,angle_rad\n"), "windy")
    # a repeated name would read its first column twice and drop the second
    with pytest.raises(DataError, match=r"repeated column\(s\): x1$"):
        ingest(write(tmp_path / "e.csv", "x1,x1,angle_rad\n0,5,0.1\n1,6,0.2\n"), "generic")
    with pytest.raises(DataError, match=r"repeated column\(s\): lat$"):
        ingest(write(tmp_path / "f.csv", "lon,lat,lat,direction_deg\n1,2,3,90\n"), "wind")
    # unnamed columns, as trailing commas make, are no repeat
    ds = ingest(write(tmp_path / "g.csv", "lon,lat,direction_deg,,\n1,2,90,,\n"), "wind")
    assert ds.observed_locations.tolist() == [[1.0, 2.0]]


def test_load_dataset_merges_test_file(tmp_path):
    data = write(tmp_path / "train.csv", "x1,angle_rad\n0.5,0.1\n1.5,0.2\n")
    test = write(tmp_path / "test.csv", "x1,angle_rad\n2.5,0.3\n3.5,\n")
    ds = load_dataset(data, "generic", test)
    assert ds.n_observed == 2
    assert ds.n_test == 2
    assert ds.test_angles[0] == pytest.approx(0.3)
    assert np.isnan(ds.test_angles[1])


def test_load_dataset_errors_name_the_file_of_the_bad_row(tmp_path, capsys):
    # both files have a row 3; the message says which one is short
    data = make_generic(tmp_path / "train.csv")
    test = write(tmp_path / "test.csv", "x1,angle_rad\n0.5,\n0.9\n")
    with pytest.raises(DataError, match=r"test\.csv: row 3 has 1 of 2 cells$"):
        load_dataset(data, "generic", test)
    cfg = write(tmp_path / "run.cfg", BASE_CONFIG)
    code = main(["sample", "--config", cfg, "--data", data, "--test-data", test,
                 "--out", str(tmp_path / "o")])
    assert code == 3
    assert capsys.readouterr().err == f"data error: {test}: row 3 has 1 of 2 cells\n"


@pytest.mark.parametrize("row", ["3.0,4.0", "5.0,6.0,180,77"], ids=["short", "long"])
def test_cli_row_with_another_cell_count_than_the_header_is_a_data_error(tmp_path, capsys, row):
    # the prediction row 2,2, keeps its empty angle cell and passes
    data = write(tmp_path / "w.csv", f"lon,lat,direction_deg\n0,0,10\n1,1,20\n2,2,\n{row}\n")
    cfg = write(tmp_path / "run.cfg", BASE_CONFIG)
    assert main(["sample", "--config", cfg, "--data", data, "--schema", "wind",
                 "--out", str(tmp_path / "o")]) == 3
    cells = len(row.split(","))
    assert capsys.readouterr().err == f"data error: {data}: row 5 has {cells} of 3 cells\n"


def test_cli_test_data_with_other_coordinates_is_a_data_error(tmp_path, capsys):
    cfg = write(tmp_path / "run.cfg", BASE_CONFIG)
    data = make_generic(tmp_path / "d.csv")
    test = write(tmp_path / "t.csv", "x1,x2,angle_rad\n0.5,1.0,\n")
    code = main(["sample", "--config", cfg, "--data", data, "--test-data", test,
                 "--out", str(tmp_path / "o")])
    assert code == 3
    assert "test data has 2 location coordinates, data has 1" in capsys.readouterr().err


def test_cli_kernel_with_more_terms_than_coordinates_is_a_data_error(tmp_path, capsys):
    # the anisotropic kernel needs joint angles and a gradient coordinate
    text = with_keys(BASE_CONFIG, "kernel_family = anisotropic_gaussian\n"
                                  "kernel_gradient_lengthscale = 0.7\n")
    cfg = write(tmp_path / "run.cfg", text)
    data = make_generic(tmp_path / "d.csv")
    for command in ("sample", "fit", "diagnose"):
        out = tmp_path / command
        code = main([command, "--config", cfg, "--data", data, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 3, (command, err)
        assert err == ("data error: anisotropic_gaussian kernel needs >= 2 location "
                       "coordinates, data has 1\n"), command
        assert not out.exists(), command


def test_angle_roundtrip():
    for schema, raw in (("wind", 123.0), ("gait", 37.5), ("generic", -1.2)):
        angle = {"wind": np.radians(123.0), "gait": 2 * np.pi * 0.375, "generic": -1.2}[
            schema
        ]
        assert angle_to_schema_units(angle, schema) == pytest.approx(raw)


def test_split_indices():
    train, test = split_indices(260, 0.2, 0)
    assert len(test) == 52
    assert len(train) == 208
    assert not set(train) & set(test)
    train2, test2 = split_indices(260, 0.2, 0)
    assert np.array_equal(test, test2)
    with pytest.raises(DataError):
        split_indices(10, 0.01, 0)
    with pytest.raises(DataError):
        split_indices(10, 1.5, 0)


# ------------------------------------------------------------------- cli


def test_cli_sample_deterministic(tmp_path):
    cfg = write(tmp_path / "run.cfg", BASE_CONFIG)
    data = make_generic(tmp_path / "d.csv")
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    for out in (out1, out2):
        assert run([
            "sample", "--config", cfg, "--data", data,
            "--schema", "generic", "--out", str(out),
        ]) == 0
    for name in ("phi_samples.csv", "diagnostics.csv", "report.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    samples = read_samples_csv(out1 / "phi_samples.csv")
    assert samples.shape == (100, 2)
    header, rows = read_table(out1 / "diagnostics.csv")
    assert header == ["location", "mean_rad", "circular_variance", "ress"]
    assert len(rows) == 2


def test_cli_sample_seed_override(tmp_path):
    cfg = write(tmp_path / "run.cfg", BASE_CONFIG)
    data = make_generic(tmp_path / "d.csv")
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    run(["sample", "--config", cfg, "--data", data, "--out", str(out1)])
    run(["sample", "--config", cfg, "--data", data, "--out", str(out2),
         "--seed", "99"])
    assert (out1 / "phi_samples.csv").read_bytes() != (
        out2 / "phi_samples.csv"
    ).read_bytes()
    assert read_kv(out2 / "report.txt")["seed"] == "99"


def test_cli_sample_requires_predictions(tmp_path, capsys):
    cfg = write(tmp_path / "run.cfg", BASE_CONFIG)
    data = make_generic(tmp_path / "d.csv", n_pred=0)
    code = main(["sample", "--config", cfg, "--data", data,
                 "--out", str(tmp_path / "o")])
    assert code == 3
    assert "no prediction locations" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_sample_roundtrip_diagnostics(tmp_path):
    # recomputing diagnostics from the emitted samples reproduces the file
    from vmqp import evaluation

    cfg = write(tmp_path / "run.cfg", BASE_CONFIG)
    data = make_generic(tmp_path / "d.csv")
    out = tmp_path / "o"
    run(["sample", "--config", cfg, "--data", data, "--out", str(out)])
    samples = read_samples_csv(out / "phi_samples.csv")
    _, rows = read_table(out / "diagnostics.csv")
    means, variances = evaluation.predictive_summary(samples)
    for j, row in enumerate(rows):
        assert float(row[1]) == pytest.approx(means[j], abs=1e-9)
        assert float(row[2]) == pytest.approx(variances[j], abs=1e-9)
        assert float(row[3]) == pytest.approx(
            evaluation.circular_ress(samples[:, j]), abs=1e-9
        )


def test_cli_sample_diagnostics_reuse_chain_ress(tmp_path, monkeypatch):
    # the ress column is the chain's own per-location RESS, written as is
    import vmqp.cli as cli

    chains = []

    def recording(*args, **kwargs):
        chains.append(cli_run_chain(*args, **kwargs))
        return chains[-1]

    cli_run_chain = cli.run_chain
    monkeypatch.setattr(cli, "run_chain", recording)
    cfg = write(tmp_path / "run.cfg", BASE_CONFIG)
    data = make_generic(tmp_path / "d.csv", n_pred=3)
    out = tmp_path / "o"
    run(["sample", "--config", cfg, "--data", data, "--out", str(out)])
    _, rows = read_table(out / "diagnostics.csv")
    assert len(chains) == 1 and len(rows) == 3
    assert [row[3] for row in rows] == [f"{r:.17g}" for r in chains[0].ress[:3]]


def test_cli_fit_reports_numerical_rejections(tmp_path, monkeypatch):
    import vmqp.inference as inference
    from vmqp.errors import NumericalError

    build_gram = inference.build_gram
    built = []

    def fail_after_first(spec, X, *args):
        if built:
            raise NumericalError("kernel matrix numerically singular")
        built.append(spec)
        return build_gram(spec, X, *args)

    monkeypatch.setattr(inference, "build_gram", fail_after_first)
    cfg = write(tmp_path / "run.cfg", FIT_CONFIG)
    data = make_generic(tmp_path / "d.csv", n_obs=6, n_pred=2)
    out = tmp_path / "o"
    assert run(["fit", "--config", cfg, "--data", data, "--out", str(out)]) == 0
    report = read_kv(out / "summary.txt")
    # of the 12 kernel moves, the 6 lengthscale ones build a Gram matrix;
    # the 6 sigma2 ones rescale the first and never reach build_gram
    assert len(built) == 1
    assert report["rejects_lengthscale_numerical"] == "6"
    assert report["rejects_lengthscale_support"] == "0"
    assert report["rejects_lengthscale_mh"] == "0"
    assert float(report["accept_rate_lengthscale"]) == 0.0
    assert report["rejects_variance_numerical"] == "0"
    assert "rejects_mean_numerical" not in report


CONFIG_ERRORS = [
    ("sample", "bogus = 1\n"),
    ("fit", "step_kappa = 0\n"),
    ("sample", "chi = -1\n"),
    ("diagnose", "sweep_iters = 50\nsweep_burn_in = 50\n"),
    ("diagnose", "cd_mc_samples = 0\n"),
    ("sample", "nu_rad = inf\n"),
    ("fit", "prior_kappa_scale = 0\n"),
    ("diagnose", "sweep_seeds = 0\n"),
    ("diagnose", "lambda_multipliers = 2.0, 0.5\n"),
    ("diagnose", "lambda_multipliers = 1.01, nan\n"),
    ("diagnose", "lambda_multipliers = 1.0\n"),
    ("diagnose", "chi = 4.0\nslack = 0.5\nlambda_multipliers = 1.2, 2.0\n"),
    ("diagnose", "slack = 0.5\n"),
    ("sample", "seed = -1\n"),
    ("fit", "kernel_family = gaussian\nkernel_gradient_lengthscale = 0.7\n"),
    ("fit", "kernel_family = exponential\nkernel_gradient_lengthscale = 0.7\n"),
]


def test_cli_config_error_exit_code(tmp_path, capsys):
    data = make_generic(tmp_path / "d.csv")
    # a rejected run leaves no output directory behind
    for i, (command, text) in enumerate(CONFIG_ERRORS):
        cfg = write(tmp_path / f"run{i}.cfg", with_keys(BASE_CONFIG, text))
        out = tmp_path / f"o{i}"
        code = main([command, "--config", cfg, "--data", data, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2, (text, err)
        assert err.startswith("configuration error"), (text, err)
        assert not out.exists(), text
    # a split fraction outside (0, 1) is a setting, like a negative seed
    out = tmp_path / "split"
    for fraction in ("2", "0", "1", "-0.5", "nan"):
        code = main(["split", "--data", data, "--fraction", fraction, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2, (fraction, err)
        assert err == f"configuration error: split fraction {float(fraction)} must be in (0, 1)\n"
        assert not out.exists(), fraction
    # one that leaves a side empty for the file's n = 8 rows is a data error
    assert main(["split", "--data", data, "--fraction", "0.01", "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("data error: fraction 0.01 leaves an empty side")
    assert not out.exists()


def test_only_diagnose_checks_the_lambda_multipliers(tmp_path):
    # fit and sample never read the multipliers, so the default 1.01 stands
    # next to a slack of 0.5; diagnose, which reads them, rejects it (the
    # last row of CONFIG_ERRORS)
    assert RunConfig(slack=0.5).validate().lambda_multipliers[0] < 1.5
    cfg = write(tmp_path / "run.cfg", with_keys(BASE_CONFIG, "n_iter = 40\nburn_in = 10\nslack = 0.5\n"))
    data = make_generic(tmp_path / "d.csv")
    assert main(["sample", "--config", cfg, "--data", data, "--out", str(tmp_path / "o")]) == 0
    assert float(read_kv(tmp_path / "o" / "report.txt")["lambda"]) > 0


def test_cli_imports_no_scipy():
    # a fresh interpreter, because the test modules themselves import scipy
    code = "import sys, vmqp.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


FIT_CONFIG = """
kernel_family = exponential
kernel_variance = 1.0
kernel_lengthscale = 1.0
kappa = 0.5
nu_rad = 0.3
n_iter = 12
burn_in = 4
thin = 1
phi_sweeps = 2
inner_sweeps = 3
seed = 11
"""


@pytest.mark.parametrize("chi", ["", "chi = 4.0\n"], ids=["plain", "chi"])
def test_cli_runs_never_form_the_whole_precision(tmp_path, monkeypatch, chi):
    # every product with M = K^-1 reads the Gram eigenpairs: fit, sample and
    # diagnose, plain and noisy, run while the whole d x d M cannot be formed
    forbid_whole_precision(monkeypatch)
    data = make_generic(tmp_path / "d.csv", n_obs=6, n_pred=2)
    configs = (("fit", FIT_CONFIG + "bridge_levels = 1\n"),
               ("sample", BASE_CONFIG), ("diagnose", DIAG_CONFIG))
    for command, config in configs:
        cfg = write(tmp_path / f"{command}.cfg", config + chi)
        out = tmp_path / command
        assert run([command, "--config", cfg, "--data", data, "--out", str(out)]) == 0
        assert read_kv(out / ("summary.txt" if command == "fit" else "report.txt"))


@pytest.mark.parametrize("chi", ["", "chi = 4.0\n"], ids=["plain", "chi"])
def test_cli_runs_call_no_eigh_of_size_d(tmp_path, monkeypatch, chi):
    # fit, sample and diagnose factor every matrix by Cholesky, the latent
    # blocks too: no eigh at all, with chi unset or set
    eighs = recording_eighs(monkeypatch)
    data = make_generic(tmp_path / "d.csv", n_obs=6, n_pred=2)
    configs = (("fit", FIT_CONFIG + "bridge_levels = 1\n"),
               ("sample", BASE_CONFIG), ("diagnose", DIAG_CONFIG))
    for command, config in configs:
        del eighs[:]
        cfg = write(tmp_path / f"{command}.cfg", config + chi)
        assert run([command, "--config", cfg, "--data", data,
                    "--out", str(tmp_path / command)]) == 0
        assert eighs == [], command


@pytest.mark.parametrize("levels", [0, 2])
def test_cli_fit_schema(tmp_path, levels):
    cfg = write(tmp_path / "run.cfg", FIT_CONFIG + f"bridge_levels = {levels}\n")
    data = make_generic(tmp_path / "d.csv", n_obs=6, n_pred=2)
    out = tmp_path / f"o{levels}"
    assert run(["fit", "--config", cfg, "--data", data, "--out", str(out)]) == 0
    header, rows = read_table(out / "w_trace.csv")
    assert header == ["iter", "sigma2", "l", "kappa", "nu", "accepted"]
    assert len(rows) == 8
    assert all(row[5] in ("0", "1") for row in rows)
    report = read_kv(out / "summary.txt")
    # 12 iterations: exchange moves alternate between (sigma2, kappa) and
    # the lengthscale, and nu has no exchange move
    moves = {"variance": 6, "lengthscale": 6}
    assert {key for key in report if key.startswith("accept_rate_")} == {
        f"accept_rate_{move}" for move in moves
    }
    for move, total in moves.items():
        counts = [int(report[f"rejects_{move}_{r}"]) for r in ("support", "numerical", "mh")]
        accepted = float(report[f"accept_rate_{move}"]) * total
        assert sum(counts) + accepted == pytest.approx(total)
    assert "predictive_mean_rad_1" in report
    samples = read_samples_csv(out / "phi_samples.csv")
    assert samples.shape == (8, 2)


def test_cli_fit_runs_at_the_configured_slack(tmp_path, monkeypatch):
    # the slack key reaches the model the fit starts from, every model
    # built for a proposal and every factor a chain of the fit sweeps on:
    # the latent ones (size 2) and the fictitious ones (size 8)
    import vmqp.cli as cli
    import vmqp.inference as inference

    given, slacks = [], []
    fit, build = cli.block_gibbs_fit, inference.build_param_model

    def recording_fit(theta, model, config, rng):
        given.append(model)
        return fit(theta, model, config, rng)

    def recording_build(*args):
        slacks.append(args[3])  # a call without slack fails here
        return build(*args)

    monkeypatch.setattr(cli, "block_gibbs_fit", recording_fit)
    monkeypatch.setattr(cli, "build_param_model", recording_build)
    monkeypatch.setattr(inference, "build_param_model", recording_build)
    factors = recording_sweeps(monkeypatch)
    cfg = write(tmp_path / "run.cfg", FIT_CONFIG + "slack = 0.5\n")
    data = make_generic(tmp_path / "d.csv", n_obs=6, n_pred=2)
    assert run(["fit", "--config", cfg, "--data", data, "--out", str(tmp_path / "o")]) == 0
    (model,) = given
    assert model.slack == 0.5
    assert model.full_aug.lam == 1.5 * model.full_aug.lam_max_estimate
    assert len(slacks) > 1 and all(slack == 0.5 for slack in slacks), slacks
    assert {aug.size for aug in factors} == {2, 8}
    assert all(aug.lam == 1.5 * aug.lam_max_estimate for aug in factors)


def test_cli_eval_perfect_and_single_split(tmp_path):
    # constant predictive at the exact truth scores zero
    pred = tmp_path / "phi_samples.csv"
    with open(pred, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["phi_1", "phi_2"])
        for _ in range(50):
            writer.writerow(["0.5", "-1.25"])
    truth = write(tmp_path / "truth.csv", "x1,angle_rad\n0.1,0.5\n0.2,-1.25\n")
    out = tmp_path / "o"
    assert run(["eval", "--pred", str(pred), "--truth", truth,
                "--schema", "generic", "--out", str(out)]) == 0
    header, rows = read_table(out / "crps.csv")
    assert header == ["split", "location", "crps"]
    assert [float(r[2]) for r in rows] == pytest.approx([0.0, 0.0], abs=1e-12)
    report = read_kv(out / "summary.txt")
    assert float(report["crps_mean"]) == pytest.approx(0.0, abs=1e-12)
    assert float(report["crps_std"]) == 0.0
    assert report["n_splits"] == "1"


def test_cli_eval_mismatch(tmp_path, capsys):
    truth = write(tmp_path / "t.csv", "x1,angle_rad\n0.1,0.5\n0.2,0.6\n")
    cases = [
        ("phi_1\n0.1\n0.2\n", "truth rows"),
        ("phi_1,phi_2\n0.1,0.2\n0.3,soon\n", "row 3: unparseable"),
        ("phi_1,phi_2\n0.1,0.2\n0.3\n", "row 3 has 1 of 2 cells"),
        ("phi_1,phi_2\n0.1,0.2\n", "at least 2 draws, got 1"),
        ("phi_1,phi_2\n", "at least 2 draws, got 0"),
        ("phi_1,phi_2\n0.1,nan\n0.3,0.4\n", "row 2: non-finite value"),
        ("phi_1,phi_2\n0.1,0.2\n0.3,inf\n", "row 3: non-finite value"),
    ]
    for i, (text, message) in enumerate(cases):
        pred = tmp_path / f"p{i}.csv"
        with open(pred, "w", newline="") as fh:
            fh.write(text)
        code = main(["eval", "--pred", str(pred), "--truth", truth,
                     "--out", str(tmp_path / "o")])
        assert code == 3, text
        assert message in capsys.readouterr().err, text
        assert not (tmp_path / "o").exists(), text


DIAG_CONFIG = BASE_CONFIG + """
lambda_multipliers = 1.5
sweep_seeds = 2
sweep_iters = 60
sweep_burn_in = 20
cd_mc_samples = 3
cd_repeats = 2
"""


def test_cli_diagnose(tmp_path):
    cfg = write(tmp_path / "run.cfg", DIAG_CONFIG)
    data = make_generic(tmp_path / "d.csv", n_obs=5, n_pred=2)
    out = tmp_path / "o"
    assert run(["diagnose", "--config", cfg, "--data", data,
                "--out", str(out)]) == 0
    header, rows = read_table(out / "lambda_sweep.csv")
    assert header == ["lambda_multiplier", "median_ress"]
    assert len(rows) == 1 and float(rows[0][0]) == 1.5
    header, rows = read_table(out / "cd_gradient.csv")
    assert header == ["sigma2", "lengthscale", "kappa", "nu"]
    assert len(rows) == 2


def test_cli_split(tmp_path):
    data = make_generic(tmp_path / "d.csv", n_obs=20, n_pred=0)
    out = tmp_path / "o"
    assert run(["split", "--data", data, "--fraction", "0.2",
                "--seed", "4", "--out", str(out)]) == 0
    train = ingest(str(out / "train.csv"), "generic")
    test = ingest(str(out / "test.csv"), "generic")
    assert train.n_observed == 16
    assert test.n_observed == 4
    report = read_kv(out / "report.txt")
    assert report["n_train"] == "16" and report["n_test"] == "4"
    # angles survive the round trip
    original = ingest(data, "generic")
    combined = np.sort(np.concatenate([train.observed_angles, test.observed_angles]))
    assert np.allclose(combined, np.sort(original.observed_angles), atol=1e-12)


@pytest.mark.parametrize("schema", ["wind", "gait"])
def test_cli_split_keeps_the_angles_of_a_fixed_schema(tmp_path, schema):
    # the split files keep the schema's columns and units (degrees, cycle
    # percent), so ingest reads the same angles back
    rng = np.random.default_rng(3)
    cols = {"wind": ["lon", "lat", "direction_deg"],
            "gait": ["ankle_deg", "knee_deg", "hip_deg", "gradient_pct", "cycle_pct"]}[schema]
    units = rng.uniform(1.0, 99.0, 10) * (3.6 if schema == "wind" else 1.0)
    rows = [",".join([*map(str, rng.uniform(0, 4, len(cols) - 1)), str(u)]) for u in units]
    data = write(tmp_path / "d.csv", "\n".join([",".join(cols), *rows]) + "\n")
    out = tmp_path / "o"
    assert run(["split", "--data", data, "--schema", schema, "--fraction", "0.3",
                "--out", str(out)]) == 0
    tables = [read_table(out / name) for name in ("train.csv", "test.csv")]
    assert [header for header, _ in tables] == [cols, cols]
    assert [len(body) for _, body in tables] == [7, 3]
    written = np.concatenate([np.array(body, dtype=float)[:, -1] for _, body in tables])
    np.testing.assert_allclose(np.sort(written), np.sort(units), rtol=1e-12)
    angles = [ingest(str(out / name), schema).observed_angles for name in ("train.csv", "test.csv")]
    np.testing.assert_allclose(np.sort(np.concatenate(angles)),
                               np.sort(ingest(data, schema).observed_angles), rtol=0, atol=1e-12)


def test_cli_diagnose_factors_once_per_multiplier(tmp_path, monkeypatch):
    # one latent factorization in all of diagnose, at the slack rule; each
    # multiplier's factor, shared by every sweep seed, is one Cholesky of
    # the latent coupling at multiplier * estimate, and the CD chains run
    # on the latent factor itself
    import vmqp.cli as cli
    import vmqp.gibbs as gibbs
    import vmqp.inference as inference

    latent, moves, factors, sweeps = [], [], [], recording_sweeps(monkeypatch)

    def factoring(Q, slack):
        latent.append(make_augmentation(Q, slack))
        return latent[-1]

    def moving(aug, lam):
        moves.append(at(aug, lam))
        return moves[-1]

    def recording_chain(cp, aug, *args, **kwargs):
        factors.append(aug)
        return run_chain(cp, aug, *args, **kwargs)

    make_augmentation, at, run_chain = inference.make_augmentation, gibbs.Augmentation.at, cli.run_chain
    monkeypatch.setattr(inference, "make_augmentation", factoring)
    monkeypatch.setattr(gibbs.Augmentation, "at", moving)
    monkeypatch.setattr(cli, "run_chain", recording_chain)
    cfg = write(tmp_path / "run.cfg", DIAG_CONFIG.replace(
        "lambda_multipliers = 1.5", "lambda_multipliers = 1.5, 3.0"))
    data = make_generic(tmp_path / "d.csv", n_obs=5, n_pred=2)
    assert run(["diagnose", "--config", cfg, "--data", data,
                "--out", str(tmp_path / "o")]) == 0
    assert len(latent) == 1 and latent[0].size == 2
    unit = latent[0]
    Q = unit.unit  # the latent block at variance 1, the config's kernel_variance
    assert unit.lam_max_estimate <= np.linalg.eigvalsh(Q)[-1] < unit.lam == 1.01 * unit.lam_max_estimate
    # one Cholesky per multiplier, whose factor all its seeds share
    assert len(factors) == len(moves) == 2 and all(f is g for f, g in zip(factors, moves))
    for aug, mult in zip(factors, (1.5, 3.0)):
        assert aug.unit is Q and aug.lam == mult * unit.lam_max_estimate
        assert np.max(np.abs(aug.factor.T @ aug.factor + Q - aug.lam * np.eye(2))) < 1e-12 * aug.lam
    cd_factors = [aug for aug in sweeps if aug.size == 2]  # the other is the full-space one
    assert len(sweeps) == 2 and len(cd_factors) == 1 and cd_factors[0].basis is unit.basis
    assert cd_factors[0].lam == 1.01 * unit.lam_max_estimate


def test_cli_anisotropic_fit_writes_the_scales_of_its_trace(tmp_path, monkeypatch):
    # w_trace.csv writes l and g, the square roots of the squared scales
    # that the fit keeps, in the order of the header
    import vmqp.cli as cli

    fits = []

    def recording(*args, **kwargs):
        fits.append(block_gibbs_fit(*args, **kwargs))
        return fits[-1]

    block_gibbs_fit = cli.block_gibbs_fit
    monkeypatch.setattr(cli, "block_gibbs_fit", recording)
    text = FIT_CONFIG.replace("exponential", "anisotropic_gaussian")
    cfg = write(tmp_path / "run.cfg", text + "kernel_gradient_lengthscale = 0.7\n")
    rng = np.random.default_rng(3)
    lines = ["x1,x2,angle_rad"]
    lines += [f"{a},{b},{c}" for a, b, c in zip(rng.uniform(0, 3, 6), rng.uniform(0, 2, 6),
                                                rng.uniform(-np.pi, np.pi, 6))]
    lines += [f"{a},{b}," for a, b in zip(rng.uniform(0, 3, 2), rng.uniform(0, 2, 2))]
    data = write(tmp_path / "d.csv", "\n".join(lines) + "\n")
    out = tmp_path / "o"
    assert run(["fit", "--config", cfg, "--data", data, "--out", str(out)]) == 0
    header, rows = read_table(out / "w_trace.csv")
    assert header == ["iter", "sigma2", "l", "g", "kappa", "nu", "accepted"]
    (fit,) = fits
    table = np.array(rows, dtype=float)
    trace = fit.param_trace
    names = list(fit.param_names)
    assert np.array_equal(table[:, 0], np.arange(8))
    assert np.array_equal(table[:, 2], np.sqrt(trace[:, names.index("lengthscale2")]))
    assert np.array_equal(table[:, 3], np.sqrt(trace[:, names.index("gradient2")]))
    for col, name in ((1, "sigma2"), (4, "kappa"), (5, "nu")):
        assert np.array_equal(table[:, col], trace[:, names.index(name)])
    assert np.array_equal(table[:, 6], fit.accepted_trace)
    assert len(set(table[:, 3])) > 1  # the gradient lengthscale moved


def test_cli_noisy_sample_runs_on_the_model_factor(tmp_path, monkeypatch):
    # under noisy observations the latent chain spans all d angles and its
    # factor is the triangular one the model already holds: sample's chain
    # and diagnose's CD chains; diagnose's lambda sweep factors
    # lam*I - M at each multiplier by one Cholesky of the same unit precision
    import vmqp.cli as cli
    import vmqp.gibbs as gibbs
    import vmqp.inference as inference

    models, factors, sweeps = [], [], []

    def building(*args, **kwargs):
        models.append(build_param_model(*args, **kwargs))
        return models[-1]

    def recording(cp, aug, *args, **kwargs):
        factors.append(aug)
        return run_chain(cp, aug, *args, **kwargs)

    def sweeping(phi, aug, *args, **kwargs):
        sweeps.append(aug)
        return run_sweeps(phi, aug, *args, **kwargs)

    build_param_model, run_chain, run_sweeps = cli.build_param_model, cli.run_chain, gibbs.run_sweeps
    eighs = recording_eighs(monkeypatch)
    monkeypatch.setattr(cli, "build_param_model", building)
    monkeypatch.setattr(cli, "run_chain", recording)
    monkeypatch.setattr(inference, "run_sweeps", sweeping)
    data = make_generic(tmp_path / "d.csv", n_obs=6, n_pred=2)
    for command, config in (("sample", BASE_CONFIG), ("diagnose", DIAG_CONFIG)):
        del models[:], factors[:], sweeps[:], eighs[:]
        cfg = write(tmp_path / f"{command}.cfg", config + "chi = 4.0\n")
        out = tmp_path / command
        assert run([command, "--config", cfg, "--data", data, "--out", str(out)]) == 0
        assert len(models) == 1 and len(factors) == 1
        assert eighs == []  # none of the Gram matrix, and no latent block's
        full_aug = models[0].full_aug
        if command == "sample":
            assert factors[0] is full_aug and not sweeps
            assert read_samples_csv(out / "phi_samples.csv").shape == (100, 2)
        else:
            aug = factors[0]
            assert aug.unit is full_aug.unit and aug.variance == full_aug.variance
            assert aug.lam == 1.5 * full_aug.lam_max_estimate
            gap = aug.lam * np.eye(8) - models[0].precision.matrix
            assert np.max(np.abs(aug.factor.T @ aug.factor - gap)) <= 1e-12 * aug.lam
            # the full-space CD chains, then the latent ones, on the one factor
            assert len(sweeps) == 2 and all(aug is full_aug for aug in sweeps)
            assert read_table(out / "cd_gradient.csv")[0] == ["sigma2", "lengthscale", "kappa", "nu"]


def old_write_csv(path, header, rows):
    """The csv-module writer that ``cli._write_csv`` replaced, as the reference."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{float(cell):.17g}" for cell in row])


@pytest.mark.parametrize(
    "rows",
    [
        [[1, 2, 3], [-4, 0, 2**60]],
        [[0.0, -0.0, 5e-324], [1e308, np.nan, np.inf], [-np.inf, 0.1, -1e-300]],
        [[3, 0.5, -0.0]],
        np.random.default_rng(0).standard_normal((6, 4)) * 10.0 ** np.arange(-8, 16, 6),
        np.arange(12).reshape(4, 3),
        [],
        np.empty((0, 3)),
    ],
    ids=["ints", "specials", "mixed", "floats", "int-array", "no-rows", "no-rows-array"],
)
def test_write_csv_is_byte_identical_to_the_csv_module_writer(tmp_path, rows):
    from vmqp.cli import _write_csv

    header = ["a", "b c", 'd"e']
    _write_csv(tmp_path / "new.csv", header, rows)
    old_write_csv(tmp_path / "old.csv", header, rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_cli_reports_the_numerics_in_use(tmp_path):
    # the jitter on the Gram diagonal, and lambda_max of the latent coupling
    data = make_generic(tmp_path / "d.csv", n_obs=5, n_pred=2)
    keys = {}
    for command, config, report in (
        ("fit", FIT_CONFIG, "summary.txt"),
        ("sample", BASE_CONFIG, "report.txt"),
        ("diagnose", DIAG_CONFIG, "report.txt"),
    ):
        cfg = write(tmp_path / f"{command}.cfg", config)
        out = tmp_path / command
        assert run([command, "--config", cfg, "--data", data, "--out", str(out)]) == 0
        keys[command] = read_kv(out / report)
    fit, sample, diag = keys["fit"], keys["sample"], keys["diagnose"]
    assert 0 < float(fit["jitter_min"]) <= float(fit["jitter_max"]) < 1e-2
    # sample and diagnose share the config's kernel, so its jitter and lambda_max
    jitter = float(sample["jitter"])
    assert jitter == float(diag["jitter"])
    assert float(fit["jitter_min"]) <= jitter <= float(fit["jitter_max"])
    assert float(sample["lambda"]) == pytest.approx(1.01 * float(diag["lambda_max"]), rel=1e-12)


def test_package_version_matches_pyproject():
    # outputs are byte-identical only within one version, so both must agree
    tomllib = pytest.importorskip("tomllib")
    import vmqp

    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    assert tomllib.loads(pyproject.read_text())["project"]["version"] == vmqp.__version__


def test_cli_diagnose_runs_one_chain_stack_per_multiplier_and_one_cd_call(tmp_path, monkeypatch):
    import vmqp.cli as cli

    chains, grads = [], []

    def chaining(cp, aug, *args, **kwargs):
        chains.append((kwargs["init"].shape, run_chain(cp, aug, *args, **kwargs)))
        return chains[-1][1]

    def grading(*args, **kwargs):
        grads.append(cd_gradient(*args, **kwargs))
        return grads[-1]

    run_chain, cd_gradient = cli.run_chain, cli.cd_gradient
    monkeypatch.setattr(cli, "run_chain", chaining)
    monkeypatch.setattr(cli, "cd_gradient", grading)
    cfg = write(tmp_path / "run.cfg", DIAG_CONFIG.replace(
        "lambda_multipliers = 1.5", "lambda_multipliers = 1.5, 3.0, 6.0").replace(
        "sweep_seeds = 2", "sweep_seeds = 4"))
    data = make_generic(tmp_path / "d.csv", n_obs=5, n_pred=2)
    out = tmp_path / "o"
    assert run(["diagnose", "--config", cfg, "--data", data, "--out", str(out)]) == 0
    assert [shape for shape, _ in chains] == [(4, 2)] * 3
    assert all(chain.ress.shape == (4, 2) for _, chain in chains)
    assert len(grads) == 1 and grads[0].shape == (2, 4)
    _, rows = read_table(out / "lambda_sweep.csv")
    for row, (_, chain) in zip(rows, chains):
        per_chain = np.median(chain.ress, axis=1)  # every RESS is finite here
        assert float(row[1]) == pytest.approx(np.median(per_chain), rel=1e-15)
    assert "median_ress_nan" not in read_kv(out / "report.txt")


SETUP_DIAGNOSE = BASE_CONFIG + """
lambda_multipliers = 1.5
sweep_seeds = 1
cd_repeats = 1
cd_mc_samples = 1
sweep_iters = 1
sweep_burn_in = 0
"""


def run_cli_process(tmp_path, config_text, after=""):
    """Run ``vmqp.cli.main`` on a generic data set in a fresh interpreter."""
    cfg = write(tmp_path / "run.cfg", config_text)
    data = make_generic(tmp_path / "d.csv", n_obs=5, n_pred=2)
    argv = ["diagnose", "--config", cfg, "--data", data, "--out", str(tmp_path / "o")]
    code = f"import sys, vmqp.cli\ncode = vmqp.cli.main({argv!r})\n{after}\nsys.exit(code)"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)


def test_cli_setup_size_diagnose_is_quiet_and_says_why_ress_is_nan(tmp_path):
    # one kept sweep per chain leaves no finite RESS: that is reported in
    # report.txt, not as a warning on stderr
    done = run_cli_process(tmp_path, SETUP_DIAGNOSE)
    assert done.returncode == 0 and done.stderr == ""
    _, rows = read_table(tmp_path / "o" / "lambda_sweep.csv")
    assert rows == [["1.5", "nan"]]
    assert "keeps 1 sweeps" in read_kv(tmp_path / "o" / "report.txt")["median_ress_nan"]


def test_cli_diagnose_with_fewer_than_ten_kept_sweeps_writes_nan_and_says_why(tmp_path):
    # in process: a chain that keeps 5 sweeps has no finite RESS
    text = with_keys(DIAG_CONFIG, "sweep_iters = 25\nsweep_burn_in = 20\n")
    cfg = write(tmp_path / "run.cfg", text)
    data = make_generic(tmp_path / "d.csv", n_obs=5, n_pred=2)
    out = tmp_path / "o"
    assert run(["diagnose", "--config", cfg, "--data", data, "--out", str(out)]) == 0
    assert read_table(out / "lambda_sweep.csv")[1] == [["1.5", "nan"]]
    assert "each chain keeps 5 sweeps" in read_kv(out / "report.txt")["median_ress_nan"]


def test_cli_diagnose_imports_no_numpy_ma(tmp_path):
    # np.median would import numpy.ma on its first call
    after = "print([m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.')])"
    done = run_cli_process(tmp_path, DIAG_CONFIG, after)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
    _, rows = read_table(tmp_path / "o" / "lambda_sweep.csv")
    assert np.isfinite(float(rows[0][1]))


def test_cli_negative_cd_repeats_is_a_config_error(tmp_path, capsys):
    cfg = write(tmp_path / "run.cfg", DIAG_CONFIG.replace("cd_repeats = 2", "cd_repeats = -1"))
    data = make_generic(tmp_path / "d.csv")
    assert main(["diagnose", "--config", cfg, "--data", data, "--out", str(tmp_path / "o")]) == 2
    assert "cd_repeats" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sample", "split"])
def test_cli_negative_seed_option_is_a_config_error(tmp_path, capsys, command):
    data = make_generic(tmp_path / "d.csv", n_obs=20)
    argv = [command, "--data", data, "--seed", "-1", "--out", str(tmp_path / "o")]
    if command == "sample":
        argv += ["--config", write(tmp_path / "run.cfg", BASE_CONFIG)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "configuration error: seed must be >= 0\n"
