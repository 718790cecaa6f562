"""Command-line pipeline: sample, fit, eval, diagnose, split.

All randomness flows from the configured seed; the diagnose batches
(one per lambda multiplier, one for the CD repeats) each use one child of
``SeedSequence(seed)``, so equal configs and inputs give byte-identical
outputs. Angles in every output file are radians. No
plotting: outputs are plot-ready CSV tables plus key-value reports.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

import numpy as np

from . import evaluation
from .circular import sample_von_mises
from .config import RunConfig, parse_config
from .data import SCHEMAS, Dataset, ingest, load_dataset, split_indices, write_rows
from .errors import ConfigError, DataError, NumericalError, VmqpError
from .gibbs import run_chain
from .inference import block_gibbs_fit, build_param_model, cd_gradient, gradient_names
from .kernels import FAMILY_TERMS


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _write_csv(path, header, rows) -> None:
    """Header row, then numeric rows in ``_fmt`` notation, CRLF line ends."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        np.savetxt(fh, rows, fmt="%.17g", delimiter=",", newline="\r\n")


def _write_report(path, items) -> None:
    with open(path, "w") as fh:
        for key, value in items:
            fh.write(f"{key} = {value}\n")


def read_samples_csv(path) -> np.ndarray:
    """Read a phi_samples.csv back into an (S, m) array of S >= 2 finite draws."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = []
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"{path}: row {line} has {len(row)} of {len(header)} cells")
            try:
                rows.append([float(c) for c in row])
            except ValueError:
                raise DataError(f"{path}: row {line}: unparseable value") from None
            if not all(map(math.isfinite, rows[-1])):
                raise DataError(f"{path}: row {line}: non-finite value")
    if len(rows) < 2:
        raise DataError(f"{path}: need at least 2 draws, got {len(rows)}")
    return np.array(rows, dtype=float)


def _assemble(cfg: RunConfig, dataset: Dataset):
    """The model that fit, sample and diagnose start from, over [prediction; training]."""
    if dataset.n_test == 0:
        raise DataError("no prediction locations")
    locations = np.vstack([dataset.test_locations, dataset.observed_locations])
    return build_param_model(cfg.param_vector(), locations, dataset.n_test, cfg.slack)


def _diagnostics_rows(samples: np.ndarray, ress: np.ndarray):
    means, variances = evaluation.predictive_summary(samples)
    return [[j + 1, means[j], variances[j], ress[j]] for j in range(samples.shape[1])]


def cmd_sample(cfg: RunConfig, dataset: Dataset, out: Path) -> None:
    model = _assemble(cfg, dataset)
    cp, aug = model.latent(dataset.observed_angles)
    rng = np.random.default_rng(cfg.seed)
    init = sample_von_mises(model.w.mean_direction, model.w.concentration * np.ones(cp.size), rng)
    chain = run_chain(cp, aug, cfg.n_iter, cfg.burn_in, cfg.thin, seed=rng, init=init)
    m = dataset.n_test
    samples = chain.samples[:, :m]
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out / "phi_samples.csv",
        [f"phi_{j + 1}" for j in range(m)],
        samples,
    )
    _write_csv(
        out / "diagnostics.csv",
        ["location", "mean_rad", "circular_variance", "ress"],
        _diagnostics_rows(samples, chain.ress[:m]),
    )
    _write_report(
        out / "report.txt",
        [
            ("command", "sample"),
            ("n_retained", samples.shape[0]),
            ("lambda", _fmt(aug.lam)),
            ("jitter", _fmt(model.jitter)),
            ("seed", cfg.seed),
        ],
    )


def cmd_fit(cfg: RunConfig, dataset: Dataset, out: Path) -> None:
    result = block_gibbs_fit(
        dataset.observed_angles,
        _assemble(cfg, dataset),
        cfg.fit_config(),
        np.random.default_rng(cfg.seed),
    )
    # the trace holds sigma2, l^2, [g^2], kappa, nu; w_trace.csv writes l (and g)
    trace = result.param_trace.copy()
    trace[:, 1:-2] = np.sqrt(trace[:, 1:-2])
    header = ["iter", "sigma2", *("l", "g")[: trace.shape[1] - 3], "kappa", "nu", "accepted"]
    rows = np.column_stack([np.arange(len(trace)), trace, result.accepted_trace])
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "w_trace.csv", header, rows)
    _write_csv(
        out / "phi_samples.csv",
        [f"phi_{j + 1}" for j in range(dataset.n_test)],
        result.phi_samples,
    )
    items = [("command", "fit"), ("n_retained", result.param_trace.shape[0]), ("seed", cfg.seed)]
    items.append(("jitter_min", _fmt(result.jitter_range[0])))
    items.append(("jitter_max", _fmt(result.jitter_range[1])))
    for block, counts in result.outcomes.items():
        rate = counts["accepted"] / max(sum(counts.values()), 1)
        items.append((f"accept_rate_{block}", _fmt(rate)))
    for block, counts in result.outcomes.items():
        for reason, count in counts.items():
            if reason != "accepted":
                items.append((f"rejects_{block}_{reason}", count))
    means, variances = evaluation.predictive_summary(result.phi_samples)
    for j in range(dataset.n_test):
        items.append((f"predictive_mean_rad_{j + 1}", _fmt(means[j])))
        items.append((f"predictive_variance_{j + 1}", _fmt(variances[j])))
    _write_report(out / "summary.txt", items)


def cmd_eval(pred_paths, truth_paths, schema: str, out: Path) -> None:
    if len(pred_paths) != len(truth_paths):
        raise DataError("need one truth file per prediction file")
    rows = []
    split_means = []
    for split_idx, (pred_path, truth_path) in enumerate(
        zip(pred_paths, truth_paths), start=1
    ):
        samples = read_samples_csv(pred_path)
        truth_ds = ingest(truth_path, schema)
        truth = truth_ds.observed_angles
        if truth.shape[0] != samples.shape[1]:
            raise DataError(
                f"split {split_idx}: {samples.shape[1]} prediction columns but "
                f"{truth.shape[0]} truth rows"
            )
        scores = [
            evaluation.circular_crps(samples[:, j], truth[j])
            for j in range(samples.shape[1])
        ]
        rows.extend(
            [split_idx, j + 1, score] for j, score in enumerate(scores)
        )
        split_means.append(float(np.mean(scores)))
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "crps.csv", ["split", "location", "crps"], rows)
    _write_report(
        out / "summary.txt",
        [
            ("command", "eval"),
            ("n_splits", len(split_means)),
            ("crps_mean", _fmt(np.mean(split_means))),
            ("crps_std", _fmt(np.std(split_means))),
        ],
    )


def _finite_median(values) -> float:
    """Median of the finite entries; NaN when there are none.

    Sorts directly: ``np.median`` imports ``numpy.ma`` on its first call.
    """
    v = np.sort(values[np.isfinite(values)])
    if v.size == 0:
        return math.nan
    half = v.size // 2
    return float(v[half] if v.size % 2 else 0.5 * (v[half - 1] + v[half]))


def cmd_diagnose(cfg: RunConfig, dataset: Dataset, out: Path) -> None:
    # lambda_max is an estimate from below, within a factor 1 + slack, and
    # a factor exists only above the true one; no other command reads these
    if not all(math.isfinite(c) and c >= 1.0 + cfg.slack for c in cfg.lambda_multipliers):
        raise ConfigError("lambda_multipliers must be finite and >= 1 + slack")
    model = _assemble(cfg, dataset)
    cp, latent_aug = model.latent(dataset.observed_angles)
    w = model.w
    batches = np.random.SeedSequence(cfg.seed).spawn(len(cfg.lambda_multipliers) + 1)
    init_conc = w.concentration * np.ones((cfg.sweep_seeds, cp.size))
    sweep_rows = []
    lam_max = latent_aug.lam_max_estimate
    for mult, batch in zip(cfg.lambda_multipliers, batches):
        # all sweep seeds of one multiplier run as one stack on one factor,
        # one Cholesky of the latent coupling at multiplier * lambda_max
        rng = np.random.default_rng(batch)
        aug = latent_aug.at(mult * lam_max)
        init = sample_von_mises(w.mean_direction, init_conc, rng)
        chain = run_chain(cp, aug, cfg.sweep_iters, cfg.sweep_burn_in, thin=1, seed=rng, init=init)
        per_chain = np.array([_finite_median(r) for r in chain.ress])
        sweep_rows.append([mult, _finite_median(per_chain)])
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "lambda_sweep.csv", ["lambda_multiplier", "median_ress"], sweep_rows)

    grads = cd_gradient(
        dataset.observed_angles,
        model,
        cfg.cd_mc_samples,
        np.random.default_rng(batches[-1]),
        repeats=cfg.cd_repeats,
    )
    _write_csv(out / "cd_gradient.csv", list(gradient_names(w)), grads)
    items = [
        ("command", "diagnose"),
        ("sweep_seeds", cfg.sweep_seeds),
        ("cd_repeats", cfg.cd_repeats),
        ("jitter", _fmt(model.jitter)),
        ("lambda_max", _fmt(lam_max)),
        ("seed", cfg.seed),
    ]
    if any(math.isnan(median) for _, median in sweep_rows):
        kept = cfg.sweep_iters - cfg.sweep_burn_in
        items.append((
            "median_ress_nan",
            f"no finite RESS in a row of lambda_sweep.csv; each chain keeps {kept} sweeps, "
            "and a RESS needs at least 10 and a trace that is not constant",
        ))
    _write_report(out / "report.txt", items)


def cmd_split(data_path, schema: str, fraction: float, seed: int, out: Path) -> None:
    ds = ingest(data_path, schema)
    train_idx, test_idx = split_indices(ds.n_observed, fraction, seed)
    out.mkdir(parents=True, exist_ok=True)
    write_rows(
        out / "train.csv",
        schema,
        ds.observed_locations[train_idx],
        ds.observed_angles[train_idx],
    )
    write_rows(
        out / "test.csv",
        schema,
        ds.observed_locations[test_idx],
        ds.observed_angles[test_idx],
    )
    _write_report(
        out / "report.txt",
        [
            ("command", "split"),
            ("n_train", len(train_idx)),
            ("n_test", len(test_idx)),
            ("fraction", _fmt(fraction)),
            ("seed", seed),
        ],
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vmqp", description="Circular regression with von Mises quasi-processes"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--schema", choices=SCHEMAS, default="generic")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--data", required=True)
        p.add_argument("--test-data", default=None)

    common(sub.add_parser("sample", help="fixed-parameter posterior sampling"))
    common(sub.add_parser("fit", help="fully Bayesian transductive fit"))

    p = sub.add_parser("eval", help="score predictions with circular CRPS")
    p.add_argument("--pred", action="append", required=True, help="phi_samples.csv (repeatable)")
    p.add_argument("--truth", action="append", required=True, help="truth CSV (repeatable)")
    p.add_argument("--schema", choices=SCHEMAS, default="generic")
    p.add_argument("--out", required=True)

    common(sub.add_parser("diagnose", help="lambda sweep and CD-gradient tables"))

    p = sub.add_parser("split", help="seeded train/test split")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", choices=SCHEMAS, default="generic")
    p.add_argument("--fraction", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = Path(args.out)  # each command makes it just before its first write
    if args.command == "split":
        if args.seed < 0:
            raise ConfigError("seed must be >= 0")
        if not 0.0 < args.fraction < 1.0:
            raise ConfigError(f"split fraction {args.fraction} must be in (0, 1)")
        cmd_split(args.data, args.schema, args.fraction, args.seed, out)
        return 0
    if args.command == "eval":
        cmd_eval(args.pred, args.truth, args.schema, out)
        return 0
    cfg = parse_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
        cfg.validate()
    dataset = load_dataset(args.data, args.schema, args.test_data)
    need = len(FAMILY_TERMS[cfg.kernel_family])  # a coordinate or more per kernel term
    if dataset.observed_locations.shape[1] < need:
        raise DataError(f"{cfg.kernel_family} kernel needs >= {need} location coordinates, "
                        f"data has {dataset.observed_locations.shape[1]}")
    if args.command == "sample":
        cmd_sample(cfg, dataset, out)
    elif args.command == "fit":
        cmd_fit(cfg, dataset, out)
    elif args.command == "diagnose":
        cmd_diagnose(cfg, dataset, out)
    return 0


_ERROR_CATEGORIES = (
    (ConfigError, "configuration error", 2),
    (DataError, "data error", 3),
    (NumericalError, "numerical error", 4),
    (VmqpError, "error", 1),
)


def main(argv=None) -> int:
    try:
        return run(argv)
    except VmqpError as exc:
        for klass, label, code in _ERROR_CATEGORIES:
            if isinstance(exc, klass):
                print(f"{label}: {exc}", file=sys.stderr)
                return code
        raise AssertionError  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
