"""The benchmark's workloads: set-up, the timed unit of work, and output checks.

Every workload is a closed loop with one client in one process: the next
operation starts when the previous one has returned. Operations go through
``ummlearn.cli.main``, the program's public entry point, looked up on the
module at call time so that the tracer's wrappers see them. Inputs come from
the run seed; the program only ever sees the generated files and arguments.
"""

from __future__ import annotations

import contextlib
import io
import math
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

# The default long-tail config: 1,998 samples in 10 classes, hidden 32-32,
# 20/15/10 epochs. Every other key keeps the CLI default.
LONGTAIL = "data.kind=longtail\n"
# Tiny sizes for the benchmark's own tests; same code paths, ~1000x less work.
TINY = "data.base_count=40\ndata.test_count=5\ntrain.epochs_softmax=1\ntrain.epochs_umm=1\ntrain.epochs_sum=1\n"
# Class uncertainties are variances plus the 1/tau floor; the second-moment
# difference can round a zero variance to about -1e-17.
FLOOR_SLACK = 1e-12


@dataclass
class Op:
    """One timed operation: latency, rows of work done, test BCA, outcome."""

    seconds: float
    rows: int
    bca: float
    ok: bool


class Runner:
    """Shared state of one benchmark run: paths, seed, CLI calls and failure counts."""

    def __init__(self, work: Path, seed: int, tiny: bool = False):
        import ummlearn.cli
        import ummlearn.network

        self.cli = ummlearn.cli
        self.selectors = ummlearn.network.LOSS_CHOICES
        self.work = work
        self.seed = seed
        self.tiny = tiny
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, argv: list[str]) -> tuple[bool, str, float]:
        """Run one CLI command in-process; returns (exit code 0, stdout, seconds)."""
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main([str(a) for a in argv])
        except Exception:
            code = None
            err.write(traceback.format_exc())
        seconds = perf_counter() - t0
        if code != 0:
            self.note(f"{argv[0]} exited {code}: {(err.getvalue() or out.getvalue()).strip()[-500:]}")
        return code == 0, out.getvalue(), seconds

    def note(self, message: str) -> None:
        self.errors.append(message)
        print(f"# check failed: {message}", file=sys.stderr)

    def record(self, ok: bool) -> bool:
        self.attempted += 1
        self.failed += not ok
        return ok

    def config(self, name: str, extra: str = "", tiny: bool = False) -> Path:
        """Write a long-tail config file; tiny sizes for warm-ups and for tests."""
        path = self.work / name
        path.write_text(LONGTAIL + extra + (TINY if tiny or self.tiny else ""), encoding="utf-8")
        return path

    def gradcheck(self) -> None:
        """The finite-difference oracle must pass at 1e-4 for every loss selector, at the run seed."""
        for selector in self.selectors:
            ok, _, _ = self.call(["gradcheck", "--loss", selector, "--seed", self.seed, "--tolerance", "1e-4"])
            self.record(ok)


def in_unit_interval(values) -> bool:
    return all(0.0 <= v <= 1.0 for v in values)


def training_rows(runner: Runner, config: Path) -> int:
    """Sample-epochs of one training run under ``config``."""
    cfg = runner.cli.parse_config(config)
    train_ds, _ = runner.cli.build_datasets(cfg)
    return train_ds.n_samples * (cfg.train_epochs_softmax + cfg.train_epochs_umm + cfg.train_epochs_sum)


class Workload:
    """A named workload; BENCHMARK.json says why each one exists."""

    name = ""

    def __init__(self, runner: Runner):
        self.runner = runner
        self.first_outputs: dict[str, str] = {}

    def same_as_first(self, key: str, text: str) -> bool:
        """Byte-identity against the first output under ``key`` (same config, same seed)."""
        first = self.first_outputs.setdefault(key, text)
        if first != text:
            self.runner.note(f"{key} differs from the first run with the same seed")
        return first == text

    def setup(self) -> None:
        """Prepare inputs and warm up; timed as set-up and repeated."""
        raise NotImplementedError

    def unit(self) -> list[Op]:
        """One unit of timed work; the loop repeats it until time is up."""
        raise NotImplementedError


class SweepUmm(Workload):
    name = "sweep-umm"
    losses = "softmax,umm-sum"
    seeds = 2

    def setup(self) -> None:
        r = self.runner
        self.config = r.config("sweep.cfg")
        self.rows = self.seeds * len(self.losses.split(",")) * training_rows(r, self.config)
        warm = r.config("warm.cfg", tiny=True)
        ok, _, _ = r.call(["sweep", "--config", warm, "--out", r.work / "warm", "--seeds", 1, "--losses", self.losses])
        r.record(ok and self.same_as_first("warm-up sweep.csv", (r.work / "warm" / "sweep.csv").read_text()))

    def unit(self) -> list[Op]:
        r = self.runner
        out = r.work / "sweep"
        ok, _, seconds = r.call(
            ["sweep", "--config", self.config, "--out", out, "--seeds", self.seeds,
             "--losses", self.losses, "--seed", r.seed]
        )
        bca = math.nan
        if ok:
            text = (out / "sweep.csv").read_text(encoding="utf-8")
            ok, bca = self.check(text)
        return [Op(seconds, self.rows, bca, r.record(ok))]

    def check(self, text: str) -> tuple[bool, float]:
        r = self.runner
        rows = [line.split(",") for line in text.splitlines()[1:]]
        per_seed = [row for row in rows if row[2] not in ("mean", "std")]
        bcas = [float(row[4]) for row in per_seed if row[3] == "bca"]
        ok = True
        if len(bcas) != self.seeds * len(self.losses.split(",")):
            r.note(f"sweep.csv has {len(bcas)} bca rows")
            ok = False
        if not in_unit_interval(float(row[4]) for row in rows):
            r.note("sweep.csv has a metric outside [0, 1]")
            ok = False
        ok = self.same_as_first("sweep.csv", text) and ok
        return ok, float(np.mean(bcas)) if bcas else math.nan


class TrainHybrid(Workload):
    name = "train-hybrid"
    artifacts = ("config.txt", "metrics.csv", "model.npz", "train.csv", "test.csv")

    def setup(self) -> None:
        r = self.runner
        self.config = r.config("hybrid.cfg", "train.loss=hybrid-cluster\n")
        self.rows = training_rows(r, self.config)
        warm = r.config("warm.cfg", "train.loss=hybrid-cluster\n", tiny=True)
        ok, _, _ = r.call(["train", "--config", warm, "--out", r.work / "warm"])
        r.record(ok and self.same_as_first("warm-up metrics.csv", (r.work / "warm" / "metrics.csv").read_text()))

    def unit(self) -> list[Op]:
        r = self.runner
        out = r.work / "train"
        ok, _, seconds = r.call(["train", "--config", self.config, "--out", out, "--seed", r.seed])
        bca = math.nan
        if ok:
            ok, bca = self.check(out)
        return [Op(seconds, self.rows, bca, r.record(ok))]

    def check(self, out: Path) -> tuple[bool, float]:
        r = self.runner
        missing = [a for a in self.artifacts if not (out / a).is_file()]
        if missing:
            r.note(f"train wrote no {', '.join(missing)}")
            return False, math.nan
        text = (out / "metrics.csv").read_text(encoding="utf-8")
        lines = text.splitlines()
        header, rows = lines[0].split(","), [[float(v) for v in line.split(",")] for line in lines[1:]]
        ok = True
        metric_cols = [i for i, h in enumerate(header) if h not in ("epoch", "phase", "loss")]
        if not all(math.isfinite(row[header.index("loss")]) for row in rows):
            r.note("metrics.csv has a non-finite loss")
            ok = False
        if not in_unit_interval(row[i] for row in rows for i in metric_cols):
            r.note("metrics.csv has a metric outside [0, 1]")
            ok = False
        ok = self.same_as_first("metrics.csv", text) and ok
        return ok, rows[-1][header.index("bca")]


class ScoreShards(Workload):
    name = "score-shards"
    n_shards = 24
    size_range = (200, 5000)
    tiny_size_range = (20, 60)
    tau = 100.0  # the CLI default ensemble.tau

    def setup(self) -> None:
        r = self.runner
        import ummlearn.data as data

        config = r.config("score.cfg")
        model_dir = r.work / "model"
        ok, _, _ = r.call(["train", "--config", config, "--out", model_dir, "--seed", r.seed])
        r.record(ok and self.same_as_first("model metrics.csv", (model_dir / "metrics.csv").read_text()))
        self.model = model_dir / "model.npz"

        rng = np.random.default_rng([r.seed, 0x5C0])
        low, high = self.tiny_size_range if r.tiny else self.size_range
        # stratified log-uniform sizes: each seed jitters sizes inside fixed
        # strata, so the size mix (and the work per pass) stays the same
        strata = (np.arange(self.n_shards) + rng.random(self.n_shards)) / self.n_shards
        sizes = np.round(np.exp(np.log(low) + strata * np.log(high / low))).astype(int)
        specs = data.longtail_blob_specs()
        n_classes = len(specs)
        shard_dir = r.work / "shards"
        shard_dir.mkdir(exist_ok=True)
        self.shards = []
        for i in rng.permutation(self.n_shards):
            # every class appears, so each shard is scored over the model's classes
            counts = 1 + rng.multinomial(sizes[i] - n_classes, rng.dirichlet(np.ones(n_classes)))
            blobs = data.gaussian_blobs(
                [data.BlobSpec(mean=s.mean, std=s.std, count=int(c)) for s, c in zip(specs, counts)],
                seed=int(rng.integers(2**63)),
            )
            order = rng.permutation(blobs.n_samples)
            shard = data.Dataset.from_arrays(blobs.features[order], blobs.labels[order], n_classes)
            path = shard_dir / f"shard-{len(self.shards):02d}.csv"
            data.save_csv(shard, path)
            self.shards.append((path, int(sizes[i])))

    def unit(self) -> list[Op]:
        r = self.runner
        ops = []
        for path, rows in self.shards:
            out = r.work / "scores" / path.stem
            ok_eval, eval_text, t_eval = r.call(["eval", "--model", self.model, "--data", path, "--out", out])
            ok_unc, unc_text, t_unc = r.call(
                ["uncertainty", "--model", self.model, "--data", path, "--seed", r.seed, "--out", out]
            )
            ok, bca = ok_eval and ok_unc, math.nan
            if ok:
                ok, bca = self.check(path, rows, eval_text, unc_text)
            ops.append(Op(t_eval + t_unc, rows, bca, r.record(ok)))
        return ops

    def check(self, path: Path, rows: int, eval_text: str, unc_text: str) -> tuple[bool, float]:
        r = self.runner
        ok = True
        scores = dict(line.split(",") for line in eval_text.splitlines()[1:])
        if not in_unit_interval(float(v) for v in scores.values()):
            r.note(f"eval of {path.name} has a metric outside [0, 1]")
            ok = False
        table = [line.split(",") for line in unc_text.splitlines()[1:]]
        u = [float(row[3]) for row in table]
        if not all(math.isfinite(v) and v >= 1.0 / self.tau - FLOOR_SLACK for v in u):
            r.note(f"uncertainty of {path.name} has a value below 1/tau or non-finite")
            ok = False
        if sum(int(row[1]) for row in table) != rows:
            r.note(f"uncertainty of {path.name} does not count {rows} rows")
            ok = False
        ok = self.same_as_first(f"scores of {path.name}", eval_text + unc_text) and ok
        return ok, float(scores.get("bca", math.nan))


WORKLOADS = {w.name: w for w in (SweepUmm, TrainHybrid, ScoreShards)}
