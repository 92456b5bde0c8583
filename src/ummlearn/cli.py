"""Experiment harness: train/eval/report commands over a flat key=value config.

Every command is reproducible byte-for-byte from (config, seed): all
randomness flows from one 64-bit master seed through named streams, and
output files are written atomically (temp + rename).

Exit codes: 0 success, 1 runtime failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import tempfile
import traceback
from contextlib import contextmanager
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import metrics as metrics_mod
from .errors import ConfigurationError, CsvFormatError, ParameterError, TrainingDivergenceError
from .gradcheck import check, selector_problems
from .network import (
    EpochRecord,
    MlpModel,
    RunConfig,
    ensemble_class_uncertainty,
    evaluate,
    forward,
    load_model,
    save_model,
    train,
    train_runs,
)
from .seeding import stream_rng, stream_seed

# Each sweep token names a training variant: its overrides of the run config.
SWEEP_VARIANTS = {
    "softmax": {"train_loss": "softmax"},
    "umm": {"train_loss": "uncertainty-weighted", "train_epochs_sum": 0},
    "umm-sum": {"train_loss": "uncertainty-weighted"},
    "hybrid": {"train_loss": "hybrid-cluster"},
    "large-margin": {"train_loss": "large-margin"},
    "angular-i": {"train_loss": "angular-i"},
    "angular-ii": {"train_loss": "angular-ii"},
}


# Flat config keys: the first underscore of a field name becomes the section
# dot (data_kind -> data.kind); the bare "seed" stays as is.
_KEY_TO_FIELD = {f.name.replace("_", ".", 1): f.name for f in fields(RunConfig)}


def _parse_value(field_name: str, raw: str):
    default = getattr(RunConfig(), field_name)
    raw = raw.strip()
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, float):
        return float(raw)
    if isinstance(default, tuple):
        return tuple(int(v) for v in raw.split(",") if v.strip())
    return raw


def parse_config(path) -> RunConfig:
    """Parse a key=value file; unknown keys are rejected by name.

    Keys left out keep their defaults; ``RunConfig`` checks every value.
    """
    values = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"line {lineno}: expected key=value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _KEY_TO_FIELD:
            raise ConfigurationError(f"unknown config key {key!r}")
        field_name = _KEY_TO_FIELD[key]
        try:
            values[field_name] = _parse_value(field_name, raw)
        except ValueError as exc:
            raise ConfigurationError(f"bad value for {key!r}: {exc}") from exc
    return RunConfig(**values)


def config_lines(cfg: RunConfig) -> list[str]:
    """Resolved configuration as sorted key=value lines."""
    lines = []
    for key in sorted(_KEY_TO_FIELD):
        value = getattr(cfg, _KEY_TO_FIELD[key])
        if isinstance(value, tuple):
            text = ",".join(str(v) for v in value)
        elif isinstance(value, float):
            text = f"{value:.17g}"
        else:
            text = str(value)
        lines.append(f"{key}={text}")
    return lines


@contextmanager
def atomic_path(path):
    """Yield a temporary path next to ``path``; rename it over ``path`` on success.

    Creates the parent directory. A failed write leaves no partial file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    os.close(fd)
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    with atomic_path(path) as tmp:
        Path(tmp).write_text(text, encoding="utf-8", newline="")


def _report(text: str, out, name: str) -> int:
    """Echo a report to stdout; with ``--out``, also write it atomically as <out>/<name>."""
    if out:
        atomic_write_text(Path(out) / name, text)
    sys.stdout.write(text)
    return 0


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def build_datasets(cfg: RunConfig) -> tuple[data_mod.Dataset, data_mod.Dataset | None]:
    """Training set (imbalanced) plus a balanced test set for synthetic kinds."""
    if cfg.data_kind == "csv":
        return data_mod.load_csv(cfg.data_path), None
    if cfg.data_kind == "longtail":
        specs = data_mod.longtail_blob_specs(
            n_classes=cfg.data_classes,
            base_count=cfg.data_base_count,
            decay=cfg.data_decay,
            dim=cfg.data_dim,
            radius=cfg.data_radius,
            std=cfg.data_std,
        )
    else:
        specs = data_mod.two_class_blob_specs(
            majority_count=cfg.data_majority,
            minority_count=cfg.data_minority,
            separation=cfg.data_separation,
            dim=cfg.data_dim,
            std=cfg.data_std,
        )
    test_specs = [replace(spec, count=cfg.data_test_count) for spec in specs]
    train_ds = data_mod.gaussian_blobs(specs, seed=stream_seed(cfg.seed, "data-train"))
    test_ds = data_mod.gaussian_blobs(test_specs, seed=stream_seed(cfg.seed, "data-test"))
    return train_ds, test_ds


def metrics_csv_text(records: list[EpochRecord], n_classes: int) -> str:
    header = ["epoch", "phase", "loss", "accuracy", "bca", "g_mean"] + [
        f"recall_{k}" for k in range(n_classes)
    ]
    lines = [",".join(header)]
    for r in records:
        row = [str(r.epoch), str(r.phase), _fmt(r.loss), _fmt(r.accuracy), _fmt(r.bca), _fmt(r.g_mean)]
        row += [_fmt(v) for v in r.recalls]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _initial_model(cfg: RunConfig, train_ds: data_mod.Dataset) -> MlpModel:
    """The untrained model of a run: ``model.hidden`` layers, initialized from the seed."""
    return MlpModel.init(train_ds.dim, cfg.model_hidden, train_ds.n_classes, stream_rng(cfg.seed, "init"))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_train(args) -> int:
    cfg = _load_config(args)
    train_ds, test_ds = build_datasets(cfg)  # a rejected CSV exits before any file is written
    out = Path(args.out)
    atomic_write_text(out / "config.txt", "\n".join(config_lines(cfg)) + "\n")
    model, records = train(_initial_model(cfg, train_ds), train_ds, cfg, test_ds)
    atomic_write_text(out / "metrics.csv", metrics_csv_text(records, train_ds.n_classes))
    with atomic_path(out / "model.npz") as tmp, open(tmp, "wb") as fh:
        save_model(model, fh)  # a file handle: np.savez would append .npz to the temp name
    for name, ds in (("train.csv", train_ds), ("test.csv", test_ds)):
        if ds is not None:
            with atomic_path(out / name) as tmp:
                data_mod.save_csv(ds, tmp)
    print(f"run complete: {out / 'metrics.csv'}")
    return 0


def _load_model_and_data(args) -> tuple[MlpModel, data_mod.Dataset]:
    """Load ``--model`` and the ``--data`` CSV, checking that the CSV fits the model.

    The dataset is sized by the model's classes, so a CSV that lacks the top
    classes still gets one table row per model class.
    """
    model = load_model(args.model)
    ds = data_mod.load_csv(args.data, n_classes=model.n_classes)
    if ds.dim != model.input_dim:
        raise ConfigurationError(
            f"{args.data} has {ds.dim} features per row, the model takes {model.input_dim}"
        )
    return model, ds


def cmd_eval(args) -> int:
    model, ds = _load_model_and_data(args)
    preds = evaluate(model, ds)
    counts = metrics_mod.ConfusionCounts.from_predictions(ds.labels, preds, ds.n_classes)
    prf = metrics_mod.precision_recall_f1(counts)
    lines = ["metric,value"]
    lines.append(f"accuracy,{_fmt(float(np.mean(preds == ds.labels)))}")
    lines.append(f"bca,{_fmt(metrics_mod.bca(counts))}")  # nan if a model class has no rows
    lines.append(f"g_mean,{_fmt(metrics_mod.g_mean(counts))}")
    lines.append(f"iba,{_fmt(metrics_mod.iba(counts))}")
    lines.append(f"macro_f1,{_fmt(prf.macro_f1)}")
    for k in range(ds.n_classes):
        lines.append(f"recall_{k},{_fmt(float(prf.recall[k]))}")
    return _report("\n".join(lines) + "\n", args.out, "eval.csv")


def cmd_uncertainty(args) -> int:
    model, ds = _load_model_and_data(args)
    cfg = _load_config(args)
    seed = stream_seed(cfg.seed, "uncertainty-report")
    u = ensemble_class_uncertainty(model, ds, cfg, seed)
    lines = ["class,count,frequency,mean_uncertainty"]
    for k in range(ds.n_classes):
        lines.append(
            f"{k},{int(ds.class_counts[k])},{_fmt(float(ds.class_frequencies[k]))},{_fmt(float(u[k]))}"
        )
    return _report("\n".join(lines) + "\n", args.out, "uncertainty.csv")


def cmd_features2d(args) -> int:
    model, ds = _load_model_and_data(args)
    if model.feature_dim != 2:
        raise ConfigurationError(
            f"features2d needs a penultimate width of 2, model has {model.feature_dim}"
        )
    feats = forward(model, ds.features).feature
    lines = ["x,y,label"]
    for row, lab in zip(feats, ds.labels):
        lines.append(f"{_fmt(row[0])},{_fmt(row[1])},{int(lab)}")
    return _report("\n".join(lines) + "\n", args.out, "features2d.csv")


def cmd_gradcheck(args) -> int:
    if not 0.0 < args.tolerance < math.inf:
        raise ConfigurationError(f"--tolerance must be finite and positive, got {args.tolerance!r}")
    problems = selector_problems(args.loss, args.seed)
    reports = [(name, check(*problem, tolerance=args.tolerance)) for name, problem in problems]
    print(f"loss={args.loss} seed={args.seed}")
    for name, report in reports:
        print(f"{name + ':':<9} {report}" if name else report)
    return 0 if all(report.passed for _, report in reports) else 1


def cmd_bias_demo(args) -> int:
    if not 1.0 <= args.ratio < math.inf:
        raise ConfigurationError(f"--ratio must be finite and at least 1, got {args.ratio!r}")
    report = data_mod.boundary_bias_demo(args.ratio, seed=args.seed)
    lines = [
        f"imbalance_ratio={args.ratio:g}",
        f"majority_mean={_fmt(report.majority_mean)} (n={report.majority_count})",
        f"minority_mean={_fmt(report.minority_mean)} (n={report.minority_count})",
        f"learned_threshold={_fmt(report.learned_threshold)}",
        f"equal_prior_optimal={_fmt(report.optimal_threshold)}",
        f"bayes_threshold={_fmt(report.bayes_threshold)}",
        f"displaced_toward_minority={str(report.displaced_toward_minority).lower()}",
        f"balanced_error_learned={_fmt(report.balanced_error_learned)}",
        f"balanced_error_optimal={_fmt(report.balanced_error_optimal)}",
    ]
    return _report("\n".join(lines) + "\n", args.out, "bias_demo.txt")


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    losses = [t.strip() for t in args.losses.split(",") if t.strip()]
    for t in losses:
        if t not in SWEEP_VARIANTS:
            raise ConfigurationError(f"unknown sweep loss token {t!r}")
    dropout_tokens = [v.strip() for v in (args.dropouts or "").split(",") if v.strip()]
    try:
        dropouts = [float(v) for v in dropout_tokens] if args.dropouts else [cfg.ensemble_dropout]
    except ValueError:
        raise ConfigurationError(f"--dropouts must list numbers, got {args.dropouts!r}") from None
    # a repeated token would train the same runs twice and count them twice in mean/std
    for flag, tokens, values in (("--losses", losses, losses), ("--dropouts", dropout_tokens, dropouts)):
        for i, value in enumerate(values):
            if value in values[:i]:
                raise ConfigurationError(f"{flag} repeats {tokens[i]!r}")
    # every run's config is built, and so checked, before the first one trains
    runs = [
        (token, p, seed, replace(cfg, seed=seed, ensemble_dropout=p, **SWEEP_VARIANTS[token]))
        for token in losses
        for p in dropouts
        for seed in range(cfg.seed, cfg.seed + args.seeds)
    ]
    if not runs:  # --seeds below 1, or --losses or --dropouts naming no value
        raise ConfigurationError(
            f"the sweep has no runs: --seeds {args.seeds}, --losses {args.losses!r}, "
            f"--dropouts {args.dropouts!r}"
        )

    # only runs of one (dropout, seed) can share a curriculum prefix, so
    # each such group trains on its own, in its own worker when there are CPUs
    groups: dict[tuple, list] = {}
    for i, (_, p, seed, run_cfg) in enumerate(runs):
        groups.setdefault((p, seed), []).append((i, run_cfg))
    results = _map_groups(list(groups.values()))
    failures = [failure for _, failure in results if failure]
    if failures:  # the failure a serial sweep would meet first
        _, exc, worker_traceback = min(failures, key=lambda failure: failure[0])
        if exc.__traceback__ is None:  # pickled back from a worker, which drops its frames
            raise exc from _WorkerTraceback(worker_traceback)
        raise exc
    finals = dict(pair for done, _ in results for pair in done)

    rows = []  # (loss, dropout, seed, metric, value)
    for i, (token, p, seed, _) in enumerate(runs):
        final = finals[i]
        rows.append((token, p, seed, "accuracy", final.accuracy))
        rows.append((token, p, seed, "bca", final.bca))
        rows.append((token, p, seed, "g_mean", final.g_mean))
        for k, r in enumerate(final.recalls):
            rows.append((token, p, seed, f"recall_{k}", float(r)))

    lines = ["loss,dropout,seed,metric,value"]
    for token, p, seed, metric, value in rows:
        lines.append(f"{token},{_fmt(p)},{seed},{metric},{_fmt(value)}")
    # mean/std summary rows per (loss, dropout, metric), in first-seen order
    groups: dict[tuple, list[float]] = {}
    for token, p, seed, metric, value in rows:
        groups.setdefault((token, p, metric), []).append(value)
    for (token, p, metric), values in groups.items():
        vals = np.asarray(values)
        lines.append(f"{token},{_fmt(p)},mean,{metric},{_fmt(float(vals.mean()))}")
        lines.append(f"{token},{_fmt(p)},std,{metric},{_fmt(float(vals.std()))}")
    out = Path(args.out)
    atomic_write_text(out / "sweep.csv", "\n".join(lines) + "\n")
    print(f"sweep complete: {out / 'sweep.csv'}")
    return 0


def _train_group(group: list) -> tuple[list, tuple | None]:
    """Train one prefix group's (run index, config) pairs in order, in one ``train_runs`` call.

    Its runs differ only in ``train`` fields, so they share one data set and initial
    model. Returns the (run index, final record) pairs trained and the first failure
    (run index, exception, formatted traceback), which ends the group, or None.
    """
    indices, cfgs = zip(*group)
    done = []
    try:
        train_ds, test_ds = build_datasets(cfgs[0])
        runs = train_runs(_initial_model(cfgs[0], train_ds), train_ds, cfgs, test_ds)
        for i, (_, records) in zip(indices, runs):
            done.append((i, records[-1]))
    except Exception as exc:
        return done, (indices[len(done)], exc, traceback.format_exc())
    return done, None


class _WorkerTraceback(Exception):
    """A sweep worker's formatted traceback, chained as the cause of the error it returned."""


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set, where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_groups(groups: list) -> list:
    """``_train_group`` over the groups: in forked workers, one per usable CPU, or in-process.

    The pool modules are imported only here, so that the other commands do
    not pay for their import.
    """
    workers = min(_usable_cpus(), len(groups))
    if workers > 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor

            context = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(workers, mp_context=context) as pool:
                return list(pool.map(_train_group, groups))
    return list(map(_train_group, groups))


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _load_config(args) -> RunConfig:
    cfg = parse_config(args.config) if args.config else RunConfig()
    return cfg if args.seed is None else replace(cfg, seed=args.seed)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every ``main`` call.

    Callers must not change it.
    """
    parser = argparse.ArgumentParser(
        prog="ummlearn",
        description="Uncertainty-driven max-margin learning experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, out_required=False):
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--seed", type=int, default=None, help="master seed (overrides config)")
        p.add_argument("--out", required=out_required, help="output directory")

    p_train = sub.add_parser("train", help="train a model and emit metrics.csv")
    add_common(p_train, out_required=True)
    p_train.set_defaults(fn=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a saved model on a CSV dataset")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--out")
    p_eval.set_defaults(fn=cmd_eval)

    p_unc = sub.add_parser("uncertainty", help="per-class uncertainty/frequency report")
    p_unc.add_argument("--model", required=True)
    p_unc.add_argument("--data", required=True)
    add_common(p_unc)
    p_unc.set_defaults(fn=cmd_uncertainty)

    p_feat = sub.add_parser("features2d", help="dump 2-D penultimate features")
    p_feat.add_argument("--model", required=True)
    p_feat.add_argument("--data", required=True)
    p_feat.add_argument("--out")
    p_feat.set_defaults(fn=cmd_features2d)

    p_grad = sub.add_parser("gradcheck", help="finite-difference check for a loss")
    p_grad.add_argument("--loss", default="softmax")
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.add_argument("--tolerance", type=float, default=1e-4)
    p_grad.set_defaults(fn=cmd_gradcheck)

    p_bias = sub.add_parser("bias-demo", help="boundary bias of empirical loss minimization")
    p_bias.add_argument("--ratio", type=float, default=10.0)
    p_bias.add_argument("--seed", type=int, default=0)
    p_bias.add_argument("--out")
    p_bias.set_defaults(fn=cmd_bias_demo)

    p_sweep = sub.add_parser("sweep", help="seeds x losses (x dropouts) comparison")
    add_common(p_sweep, out_required=True)
    p_sweep.add_argument("--seeds", type=int, default=10, help="number of consecutive seeds")
    p_sweep.add_argument("--losses", default="softmax,umm,umm-sum,hybrid")
    p_sweep.add_argument("--dropouts", default=None, help="comma list of keep-probabilities")
    p_sweep.set_defaults(fn=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigurationError, ParameterError, CsvFormatError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TrainingDivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
