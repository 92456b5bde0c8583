"""End-to-end CLI: config parsing, commands, exit codes, reproducibility."""

import multiprocessing
import os
import subprocess
import sys
import traceback
from pathlib import Path

import numpy as np
import pytest

from ummlearn.cli import RunConfig, build_datasets, config_lines, main, parse_config
from ummlearn.data import load_csv
from ummlearn.errors import ConfigurationError, TrainingDivergenceError
from ummlearn.network import LOSS_CHOICES, load_model

SMALL_CONFIG = """
# tiny smoke configuration
data.kind=binary
data.majority=40
data.minority=8
data.test_count=20
model.hidden=8,8
train.epochs_softmax=3
train.epochs_umm=2
train.epochs_sum=1
train.batch_size=16
seed=5
"""

# four long-tail classes of 40, 20, 10 and 5 samples, 50 test samples per
# class (fine enough that a wrongly shared prefix shows), two epochs per phase
TINY_LONGTAIL = """
data.kind=longtail
data.classes=4
data.base_count=40
data.test_count=50
model.hidden=8,8
train.epochs_softmax=2
train.epochs_umm=2
train.epochs_sum=2
train.batch_size=16
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SMALL_CONFIG)
    return path


@pytest.fixture
def no_training(config_path, tmp_path, monkeypatch):
    """Fail the test if a sweep trains; the check at teardown shows that the tripwire is live."""
    import ummlearn.cli

    def tripwire(*args):
        raise AssertionError("a run trained before the sweep's arguments were checked")

    monkeypatch.setattr(ummlearn.cli, "train", tripwire)
    monkeypatch.setattr(ummlearn.cli, "train_runs", tripwire)
    yield
    with pytest.raises(AssertionError, match="a run trained"):
        main(["sweep", "--config", str(config_path), "--out", str(tmp_path / "live"), "--seeds", "1",
              "--losses", "softmax"])


class TestConfigParsing:
    def test_defaults_documented(self):
        cfg = RunConfig()
        lines = config_lines(cfg)
        assert any(line.startswith("ensemble.passes=10") for line in lines)
        assert any(line.startswith("ensemble.dropout=0.5") for line in lines)
        assert any(line.startswith("train.margin=3") for line in lines)

    def test_parse_round_trip(self, config_path):
        cfg = parse_config(config_path)
        assert cfg.data_majority == 40
        assert cfg.model_hidden == (8, 8)
        assert cfg.seed == 5

    def test_unknown_key_rejected_by_name(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("data.bogus=1\n")
        with pytest.raises(ConfigurationError, match="data.bogus"):
            parse_config(path)

    def test_bad_value(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("train.lr=abc\n")
        with pytest.raises(ConfigurationError):
            parse_config(path)

    def test_csv_kind_needs_path(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("data.kind=csv\n")
        with pytest.raises(ConfigurationError):
            parse_config(path)

    def test_readme_config_block_lists_every_default(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = next(b for b in readme.split("```")[1::2] if b.lstrip().startswith("data.kind="))
        lines = [line.split("#", 1)[0].strip() for line in block.splitlines()]
        path = tmp_path / "readme.cfg"
        path.write_text("\n".join(lines))
        assert parse_config(path) == RunConfig()
        keys = sorted(line.split("=", 1)[0] for line in lines if line)
        assert keys == [line.split("=", 1)[0] for line in config_lines(RunConfig())]


class TestBuildDatasets:
    def test_binary_counts(self):
        cfg = RunConfig(data_majority=40, data_minority=8, data_test_count=20)
        train_ds, test_ds = build_datasets(cfg)
        assert train_ds.class_counts.tolist() == [40, 8]
        assert test_ds.class_counts.tolist() == [20, 20]

    def test_longtail_counts(self):
        cfg = RunConfig(data_kind="longtail", data_classes=10)
        train_ds, _ = build_datasets(cfg)
        assert train_ds.class_counts[0] == 1000
        assert train_ds.class_counts[-1] == 2


class TestTrainCommand:
    def test_run_artifacts(self, config_path, tmp_path):
        out = tmp_path / "run"
        code = main(["train", "--config", str(config_path), "--out", str(out)])
        assert code == 0
        assert (out / "config.txt").exists()
        assert (out / "metrics.csv").exists()
        assert (out / "model.npz").exists()
        # every artifact arrives by rename: no temporary file is left behind
        assert sorted(p.name for p in out.iterdir()) == [
            "config.txt", "metrics.csv", "model.npz", "test.csv", "train.csv"
        ]
        header = (out / "metrics.csv").read_text().splitlines()[0]
        assert header == "epoch,phase,loss,accuracy,bca,g_mean,recall_0,recall_1"
        model = load_model(out / "model.npz")
        assert model.n_classes == 2

    def test_byte_identical_reruns(self, config_path, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["train", "--config", str(config_path), "--out", str(out_a)]) == 0
        assert main(["train", "--config", str(config_path), "--out", str(out_b)]) == 0
        assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
        assert (out_a / "config.txt").read_bytes() == (out_b / "config.txt").read_bytes()

    def test_failed_write_keeps_previous_artifact(self, config_path, tmp_path, monkeypatch):
        import ummlearn.data

        out = tmp_path / "run"
        assert main(["train", "--config", str(config_path), "--out", str(out)]) == 0
        before = (out / "train.csv").read_bytes()

        def broken_save_csv(ds, path):
            with open(path, "w") as fh:
                fh.write("f0,f1,label\n")
            raise OSError("disk full")

        monkeypatch.setattr(ummlearn.data, "save_csv", broken_save_csv)
        assert main(["train", "--config", str(config_path), "--out", str(out), "--seed", "6"]) == 1
        assert (out / "train.csv").read_bytes() == before
        assert not [p.name for p in out.iterdir() if p.name.startswith(".")]

    def test_seed_flag_overrides(self, config_path, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["train", "--config", str(config_path), "--out", str(out_a), "--seed", "9"])
        main(["train", "--config", str(config_path), "--out", str(out_b)])
        assert (out_a / "metrics.csv").read_bytes() != (out_b / "metrics.csv").read_bytes()
        assert "seed=9" in (out_a / "config.txt").read_text()

    def test_unknown_key_exit_code_2(self, tmp_path, capsys):
        # cluster.random_init named an ablation that is gone
        for key in ("no.such.key", "cluster.random_init"):
            path = tmp_path / "bad.cfg"
            path.write_text(f"{key}=1\n")
            code = main(["train", "--config", str(path), "--out", str(tmp_path / "x")])
            assert code == 2
            assert f"unknown config key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra, key",
        [
            ("train.lr=0\n", "train.lr"),
            ("train.margin=9\n", "train.margin"),
            ("train.batch_size=0\n", "train.batch_size"),
            ("model.hidden=0\n", "model.hidden"),
            ("ensemble.dropout=1.0\n", "ensemble.dropout"),
            ("model.hidden=\ntrain.loss=uncertainty-weighted\n", "model.hidden"),
            ("ensemble.passes=1\n", "ensemble.passes"),
            ("data.kind=csv\ndata.path=no/such/file.csv\n", "data.path"),
            ("data.radius=nan\n", "data.radius"),
            ("data.separation=inf\n", "data.separation"),
            ("data.std=inf\n", "data.std"),
            ("data.decay=nan\n", "data.decay"),
            ("train.lr=inf\n", "train.lr"),
            ("data.kind=bogus\n", "data.kind"),
            ("train.lr 0.1\n", "expected key=value"),
        ],
    )
    def test_bad_value_rejected_before_any_output(self, extra, key, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(SMALL_CONFIG + extra)
        out = tmp_path / "run"
        assert main(["train", "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("top", ["2", "1000000000000000000"])
    def test_csv_labels_skipping_a_class_exit_code_2(self, top, tmp_path, capsys):
        data = tmp_path / "gap.csv"
        data.write_text(f"f0,f1,label\n0.5,1.0,0\n-1.0,2.0,{top}\n")
        path = tmp_path / "csv.cfg"
        path.write_text(SMALL_CONFIG + f"data.kind=csv\ndata.path={data}\n")
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
        captured = capsys.readouterr()
        assert "no row of class 1" in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "bad_row", ["-1.0,2.0,2", "-1.0,2.0,1000000000000000000", "-1.0,x,1", "-1.0,2.0,0"]
    )
    def test_rejected_csv_leaves_no_run_directory(self, bad_row, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text(f"f0,f1,label\n0.5,1.0,0\n{bad_row}\n")
        path = tmp_path / "csv.cfg"
        path.write_text(SMALL_CONFIG + f"data.kind=csv\ndata.path={data}\n")
        out = tmp_path / "run"
        assert main(["train", "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()
        assert "Traceback" not in capsys.readouterr().err

    def test_divergence_exit_code_1(self, tmp_path):
        path = tmp_path / "diverge.cfg"
        path.write_text(SMALL_CONFIG + "train.lr=80.0\ntrain.epochs_softmax=30\n")
        code = main(["train", "--config", str(path), "--out", str(tmp_path / "x")])
        assert code == 1


class TestReportingCommands:
    @pytest.fixture
    def run_dir(self, config_path, tmp_path):
        out = tmp_path / "run"
        main(["train", "--config", str(config_path), "--out", str(out)])
        return out

    def test_eval(self, run_dir, tmp_path, capsys):
        code = main(
            ["eval", "--model", str(run_dir / "model.npz"), "--data", str(run_dir / "test.csv"),
             "--out", str(tmp_path / "ev")]
        )
        assert code == 0
        text = (tmp_path / "ev" / "eval.csv").read_text()
        assert text.splitlines()[0] == "metric,value"
        assert "bca," in text
        assert "recall_1," in text

    def test_uncertainty_report(self, run_dir, config_path, tmp_path, capsys):
        code = main(
            ["uncertainty", "--model", str(run_dir / "model.npz"),
             "--data", str(run_dir / "train.csv"), "--config", str(config_path),
             "--out", str(tmp_path / "un")]
        )
        assert code == 0
        lines = (tmp_path / "un" / "uncertainty.csv").read_text().splitlines()
        assert lines[0] == "class,count,frequency,mean_uncertainty"
        assert len(lines) == 3  # header + one row per class

    def test_features2d_requires_width_two(self, run_dir, capsys):
        code = main(
            ["features2d", "--model", str(run_dir / "model.npz"), "--data", str(run_dir / "test.csv")]
        )
        assert code == 2  # hidden width is 8

    def test_features2d_rows(self, tmp_path, capsys):
        cfg_path = tmp_path / "feat.cfg"
        cfg_path.write_text(SMALL_CONFIG.replace("model.hidden=8,8", "model.hidden=8,2"))
        out = tmp_path / "run2"
        main(["train", "--config", str(cfg_path), "--out", str(out)])
        code = main(
            ["features2d", "--model", str(out / "model.npz"), "--data", str(out / "test.csv"),
             "--out", str(tmp_path / "ft")]
        )
        assert code == 0
        lines = (tmp_path / "ft" / "features2d.csv").read_text().splitlines()
        test_ds = load_csv(out / "test.csv")
        assert lines[0] == "x,y,label"
        assert len(lines) == 1 + test_ds.n_samples

    @staticmethod
    def score(command, run_dir, data_path, out=None):
        argv = [command, "--model", str(run_dir / "model.npz"), "--data", str(data_path)]
        return main(argv + (["--out", str(out)] if out else []))

    @pytest.mark.parametrize("command", ["eval", "uncertainty"])
    def test_csv_without_top_class_sized_by_model(self, command, run_dir, tmp_path, capsys):
        path = tmp_path / "class0.csv"
        path.write_text("f0,f1,label\n-1.5,0.25,0\n-2.0,-0.5,0\n")
        assert self.score(command, run_dir, path, tmp_path / "out") == 0
        text = capsys.readouterr().out
        if command == "eval":
            assert "recall_1," in text
            assert "bca,nan" in text
        else:
            assert text.splitlines()[2].startswith("1,0,0,")  # class 1: no rows

    @pytest.mark.parametrize("command", ["eval", "uncertainty"])
    def test_non_finite_feature_exit_code_2(self, command, run_dir, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        path.write_text("f0,f1,label\n0.5,0.5,0\nnan,0.5,1\n")
        assert self.score(command, run_dir, path) == 2
        err = capsys.readouterr().err
        assert "line 3" in err and "non-finite" in err

    @pytest.mark.parametrize("command", ["eval", "uncertainty"])
    def test_dimension_mismatch_exit_code_2(self, command, run_dir, tmp_path, capsys):
        path = tmp_path / "wide.csv"
        path.write_text("f0,f1,f2,label\n0.5,0.5,0.5,0\n0.5,-0.5,1.0,1\n")
        assert self.score(command, run_dir, path) == 2
        assert "3 features per row, the model takes 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "uncertainty", "features2d"])
    def test_label_beyond_model_exit_code_2(self, command, run_dir, tmp_path, capsys):
        # a per-class table sized by label 10**18 would take exabytes; the load
        # rejects it first, before features2d checks the model's width too
        for label in (2, 10**18):
            path = tmp_path / "extra.csv"
            path.write_text(f"f0,f1,label\n0.5,0.5,0\n0.5,-0.5,{label}\n")
            assert self.score(command, run_dir, path) == 2
            assert f"label {label}, the model has 2 classes" in capsys.readouterr().err

    @pytest.mark.parametrize("label", ["-1", "x", "99999999999999999999"])
    def test_bad_label_exit_code_2(self, label, run_dir, tmp_path, capsys):
        path = tmp_path / "label.csv"
        path.write_text(f"f0,f1,label\n0.5,0.5,0\n0.5,-0.5,{label}\n")
        assert self.score("eval", run_dir, path) == 2
        err = capsys.readouterr().err
        assert "line 3" in err and "label" in err

    @staticmethod
    def write_model(path, run_dir, **changes):
        """Copy run_dir's model.npz to ``path`` with arrays replaced (None drops one)."""
        with np.load(run_dir / "model.npz") as archive:
            arrays = {name: archive[name] for name in archive.files}
        for name, value in changes.items():
            if value is None:
                del arrays[name]
            else:
                arrays[name] = value
        np.savez(path, **arrays)

    def test_model_missing_array_exit_code_2(self, run_dir, tmp_path, capsys):
        model = tmp_path / "broken.npz"
        self.write_model(model, run_dir, hidden_b0=None)
        assert main(["eval", "--model", str(model), "--data", str(run_dir / "test.csv")]) == 2
        err = capsys.readouterr().err
        assert str(model) in err and "hidden_b0" in err

    @pytest.mark.parametrize(
        "name, shape", [("hidden_w1", (8, 5)), ("classifier_weights", (2, 3)), ("margins", (3,))]
    )
    def test_model_shapes_must_chain_exit_code_2(self, name, shape, run_dir, tmp_path, capsys):
        model = tmp_path / "broken.npz"
        value = np.ones(shape, dtype=np.int64 if name == "margins" else np.float64)
        self.write_model(model, run_dir, **{name: value})
        assert main(["eval", "--model", str(model), "--data", str(run_dir / "test.csv")]) == 2
        err = capsys.readouterr().err
        assert str(model) in err and name in err

    @pytest.mark.parametrize("command", ["eval", "uncertainty"])
    def test_model_zero_width_layer_exit_code_2(self, command, run_dir, tmp_path, capsys):
        # shapes that chain, through a hidden layer with no units
        model = tmp_path / "broken.npz"
        self.write_model(model, run_dir, hidden_w0=np.ones((0, 2)), hidden_b0=np.ones(0),
                         hidden_w1=np.ones((8, 0)))
        assert main([command, "--model", str(model), "--data", str(run_dir / "test.csv")]) == 2
        err = capsys.readouterr().err
        assert str(model) in err and "hidden_w0" in err

    @pytest.mark.parametrize("command", ["eval", "uncertainty", "features2d"])
    @pytest.mark.parametrize(
        "name, value, reported",
        [
            ("hidden_w0", np.where(np.eye(8, 2) > 0, np.nan, 0.5), "hidden_w0"),
            ("hidden_b1", np.full(8, np.inf), "hidden_b1"),
            ("hidden_w1", np.full((8, 8), "a"), "hidden_w1"),
            ("n_hidden", np.array(2.5), "n_hidden"),
            ("n_hidden", np.array(-1), "n_hidden"),
            ("margins", np.ones((2, 1), dtype=np.int64), "margins has shape (2, 1), expected 1-D"),
            ("classifier_weights", np.full((2, 8), np.nan), "weights contains non-finite entries"),
            ("class_uncertainty", np.array([0.1, np.nan]), "class_uncertainty contains non-finite"),
            ("class_uncertainty", np.array([0.1, -0.1]), "class_uncertainty must be nonnegative"),
        ],
        ids=["nan-weight", "inf-bias", "text-weight", "fractional-n_hidden", "negative-n_hidden",
             "rank-margins", "nan-classifier", "nan-uncertainty", "negative-uncertainty"],
    )
    def test_model_bad_hidden_array_exit_code_2(
        self, command, name, value, reported, run_dir, tmp_path, capsys
    ):
        model = tmp_path / "broken.npz"
        self.write_model(model, run_dir, **{name: value})
        assert main([command, "--model", str(model), "--data", str(run_dir / "test.csv")]) == 2
        err = capsys.readouterr().err
        assert str(model) in err and reported in err

    def test_uncertainty_needs_a_hidden_layer_exit_code_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "linear.cfg"
        cfg_path.write_text(SMALL_CONFIG + "model.hidden=\n")
        out = tmp_path / "linear"
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert self.score("uncertainty", out, out / "train.csv") == 2
        assert "dropout ensembles need at least one hidden layer" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "uncertainty", "features2d"])
    def test_csv_header_exit_code_2(self, command, run_dir, tmp_path, capsys):
        path = tmp_path / "header.csv"
        path.write_text("x0,label\n0.5,0\n")
        assert self.score(command, run_dir, path) == 2
        err = capsys.readouterr().err
        assert "line 1" in err and "header must be f0,...,f{d-1},label" in err

    @pytest.mark.parametrize("command", ["eval", "uncertainty", "features2d"])
    @pytest.mark.parametrize("bad", [2.5, np.nan], ids=["fractional", "nan"])
    def test_model_non_integer_margin_exit_code_2(self, command, bad, run_dir, tmp_path, capsys):
        # a margin is a whole number: 2.5 must not load as margin 2
        model = tmp_path / "broken.npz"
        with np.load(run_dir / "model.npz") as archive:
            margins = archive["margins"].astype(np.float64)
        margins[0] = bad
        self.write_model(model, run_dir, margins=margins)
        assert main([command, "--model", str(model), "--data", str(run_dir / "test.csv")]) == 2
        err = capsys.readouterr().err
        assert str(model) in err and "margins" in err

    def test_model_not_an_npz_exit_code_2(self, run_dir, tmp_path, capsys):
        model = tmp_path / "model.npz"
        model.write_text("not an archive\n")
        assert main(["eval", "--model", str(model), "--data", str(run_dir / "test.csv")]) == 2
        assert str(model) in capsys.readouterr().err

    @pytest.mark.parametrize("loss", LOSS_CHOICES)
    def test_gradcheck_command(self, loss, capsys):
        code = main(["gradcheck", "--loss", loss, "--seed", "3"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert lines[0] == f"loss={loss} seed=3"
        # hybrid-cluster checks the features and the center-separation term; every
        # classifier loss is one unnamed check
        prefixes = ["features: ", "centers:  "] if loss == "hybrid-cluster" else [""]
        assert len(lines) == 1 + len(prefixes)
        assert all(line.startswith(p + "PASS max_rel_error=") for line, p in zip(lines[1:], prefixes))

    def test_gradcheck_unknown_loss_exit_code_2(self, capsys):
        assert main(["gradcheck", "--loss", "bogus"]) == 2
        captured = capsys.readouterr()
        assert "'bogus'" in captured.err and captured.out == ""

    @pytest.mark.parametrize(
        "command, flag, value",
        [("bias-demo", "--ratio", v) for v in ("nan", "inf", "0.5")]
        + [("gradcheck", "--tolerance", v) for v in ("nan", "-1", "inf")],
    )
    def test_bad_argument_exit_code_2(self, command, flag, value, capsys):
        assert main([command, flag, value]) == 2
        captured = capsys.readouterr()
        assert flag in captured.err and captured.out == ""

    def test_bias_demo_command(self, capsys):
        code = main(["bias-demo", "--ratio", "10", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "learned_threshold=" in out
        assert "displaced_toward_minority=true" in out


class TestSweepCommand:
    def test_grid_of_one(self, config_path, tmp_path):
        out = tmp_path / "sweep"
        code = main(
            ["sweep", "--config", str(config_path), "--out", str(out), "--seeds", "1",
             "--losses", "softmax"]
        )
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "loss,dropout,seed,metric,value"
        data_rows = [l for l in lines[1:] if ",mean," not in l and ",std," not in l]
        summary_rows = [l for l in lines[1:] if ",mean," in l or ",std," in l]
        # accuracy, bca, g_mean + two recalls per (seed, loss)
        assert len(data_rows) == 5
        assert len(summary_rows) == 10

    def test_deterministic_output(self, config_path, tmp_path):
        outs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            main(["sweep", "--config", str(config_path), "--out", str(out), "--seeds", "2",
                  "--losses", "softmax,umm"])
            outs.append((out / "sweep.csv").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize(
        "extra, losses",
        [
            ("", "softmax,umm,umm-sum,hybrid"),
            ("train.epochs_softmax=0\n", "softmax,umm,umm-sum,hybrid"),
            ("train.epochs_umm=0\n", "softmax,umm,umm-sum,hybrid"),
            ("model.hidden=\n", "softmax,hybrid"),
        ],
        ids=["curriculum", "no-phase-1", "no-phase-2", "no-hidden-layer"],
    )
    def test_shared_prefixes_match_plain_training(self, extra, losses, tmp_path, monkeypatch):
        # the dropouts differ in phase 1 already: a prefix key without
        # ensemble.dropout would share phase 1 across them
        import ummlearn.cli
        import ummlearn.network

        path = tmp_path / "longtail.cfg"
        path.write_text(TINY_LONGTAIL + extra)
        monkeypatch.setattr(ummlearn.cli, "_usable_cpus", lambda: 1)  # count the steps in-process
        plain_train, plain_step, steps = ummlearn.network.train, ummlearn.network.sgd_step, []
        monkeypatch.setattr(ummlearn.network, "sgd_step", lambda *a: steps.append(1) or plain_step(*a))

        def sweep(name):
            steps.clear()
            out = tmp_path / name
            assert main(["sweep", "--config", str(path), "--out", str(out), "--seeds", "2",
                         "--losses", losses, "--dropouts", "0.3,0.5"]) == 0
            return (out / "sweep.csv").read_bytes(), len(steps)

        def from_scratch(model, ds, cfgs, eval_ds):
            # every run on its own data and initial model, as if swept alone
            for cfg in cfgs:
                train_ds, test_ds = build_datasets(cfg)
                yield plain_train(ummlearn.cli._initial_model(cfg, train_ds), train_ds, cfg, test_ds)

        forked, forked_steps = sweep("forked")
        monkeypatch.setattr(ummlearn.cli, "train_runs", from_scratch)
        plain, plain_steps = sweep("plain")
        assert forked == plain
        assert forked_steps < plain_steps  # the shared prefixes trained once

    def test_worker_count_does_not_change_bytes(self, tmp_path, monkeypatch):
        import ummlearn.cli
        import ummlearn.network

        path = tmp_path / "longtail.cfg"
        path.write_text(TINY_LONGTAIL)
        plain_step, steps = ummlearn.network.sgd_step, []
        monkeypatch.setattr(ummlearn.network, "sgd_step", lambda *a: steps.append(1) or plain_step(*a))

        def sweep(workers, losses="softmax,umm,umm-sum,hybrid", dropouts="0.3,0.5", seeds=("0", "2")):
            steps.clear()
            monkeypatch.setattr(ummlearn.cli, "_usable_cpus", lambda: workers)
            out = tmp_path / f"{workers}-{losses}-{dropouts}-{seeds[0]}"
            assert main(["sweep", "--config", str(path), "--out", str(out), "--seed", seeds[0],
                         "--seeds", seeds[1], "--losses", losses, "--dropouts", dropouts]) == 0
            return (out / "sweep.csv").read_bytes(), len(steps)

        serial, serial_steps = sweep(1)
        fanned, fanned_steps = sweep(2)
        assert serial == fanned
        assert serial_steps > 0
        # forked workers step their own copies of the counter, so none shows here
        assert (fanned_steps == 0) == ("fork" in multiprocessing.get_all_start_methods())

        def run_rows(csv):
            return [line for line in csv.splitlines()[1:] if b",mean," not in line and b",std," not in line]

        # every run's rows are its own: the same as when the run is swept alone
        alone = [
            run_rows(sweep(1, loss, p, (seed, "1"))[0])
            for loss in ("softmax", "umm", "umm-sum", "hybrid") for p in ("0.3", "0.5") for seed in ("0", "1")
        ]
        assert sum(alone, []) == run_rows(serial)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_first_failure_in_run_order_is_raised(self, workers, config_path, tmp_path, monkeypatch, capsys):
        import ummlearn.cli
        import ummlearn.network

        # runs go (loss, dropout, seed); groups go (dropout, seed). Group
        # (0.3, 5) fails at run 4 and group (0.5, 6) at run 3, so the first
        # group's failure is not the one a serial sweep meets first.
        # A run fails in the first phase it trains itself; a forked worker
        # inherits the patch.
        failing = {("hybrid-cluster", 0.3, 5), ("softmax", 0.5, 6), ("hybrid-cluster", 0.5, 6)}
        plain_phase = ummlearn.network._run_phase

        def run_phase(state, phase, n_epochs, dataset, cfg, eval_ds):
            if (cfg.train_loss, cfg.ensemble_dropout, cfg.seed) in failing:
                raise TrainingDivergenceError(f"{cfg.train_loss} at {cfg.ensemble_dropout}/{cfg.seed}", 2)
            plain_phase(state, phase, n_epochs, dataset, cfg, eval_ds)

        monkeypatch.setattr(ummlearn.network, "_run_phase", run_phase)
        monkeypatch.setattr(ummlearn.cli, "_usable_cpus", lambda: workers)
        out = tmp_path / "x"
        code = main(["sweep", "--config", str(config_path), "--out", str(out), "--seeds", "2",
                     "--losses", "softmax,hybrid", "--dropouts", "0.3,0.5"])
        assert code == 1
        assert capsys.readouterr().err == "training diverged: epoch 2: softmax at 0.5/6\n"
        assert not (out / "sweep.csv").exists()

    def test_worker_traceback_is_the_cause(self, config_path, tmp_path, monkeypatch):
        # a worker's error comes back by pickle, without its frames; the
        # worker's formatted traceback is chained as the cause instead
        import ummlearn.cli
        import ummlearn.network

        def sgd_step(*args):
            raise TypeError("no step")

        monkeypatch.setattr(ummlearn.network, "sgd_step", sgd_step)
        monkeypatch.setattr(ummlearn.cli, "_usable_cpus", lambda: 2)
        with pytest.raises(TypeError, match="no step") as info:
            main(["sweep", "--config", str(config_path), "--out", str(tmp_path / "x"), "--seeds", "2",
                  "--losses", "softmax"])
        text = "".join(traceback.format_exception(info.value))
        assert "in _run_phase" in text and "in sgd_step" in text
        if "fork" in multiprocessing.get_all_start_methods():
            assert isinstance(info.value.__cause__, ummlearn.cli._WorkerTraceback)

    def test_cli_import_leaves_out_the_pool_modules(self):
        # only a sweep with more than one worker needs them; they cost every command set-up time
        import ummlearn

        src = Path(ummlearn.__file__).resolve().parent.parent
        code = "import sys, ummlearn.cli; print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert proc.stdout == "[]\n"

    def test_every_run_checked_before_training(self, no_training, tmp_path, capsys):
        path = tmp_path / "linear.cfg"
        path.write_text(SMALL_CONFIG + "model.hidden=\n")  # fine for softmax, not for umm
        out = tmp_path / "x"
        code = main(["sweep", "--config", str(path), "--out", str(out), "--seeds", "1",
                     "--losses", "softmax,umm"])
        assert code == 2
        assert "model.hidden" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "epochs, losses, token",
        [("0,0,0", "softmax", "softmax"), ("0,0,3", "umm-sum,umm", "umm")],
    )
    def test_runs_without_epochs_exit_code_2(
        self, epochs, losses, token, no_training, tmp_path, capsys
    ):
        # umm zeroes train.epochs_sum itself: its runs train nothing where umm-sum's train
        softmax, umm, sum_ = epochs.split(",")
        path = tmp_path / "idle.cfg"
        path.write_text(SMALL_CONFIG + f"train.epochs_softmax={softmax}\ntrain.epochs_umm={umm}\n"
                        f"train.epochs_sum={sum_}\n")
        out = tmp_path / "x"
        code = main(["sweep", "--config", str(path), "--out", str(out), "--seeds", "2",
                     "--losses", losses])
        assert code == 2
        assert f"sweep loss {token!r} trains no epochs" in capsys.readouterr().err
        assert not out.exists()

    def test_non_numeric_dropouts_exit_code_2(self, config_path, tmp_path, capsys):
        out = tmp_path / "x"
        code = main(["sweep", "--config", str(config_path), "--out", str(out), "--seeds", "1",
                     "--losses", "softmax", "--dropouts", "abc"])
        assert code == 2
        assert "--dropouts" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize(
        "seeds, losses", [("0", "softmax"), ("-3", "softmax"), ("1", ",")]
    )
    def test_no_runs_exit_code_2(self, seeds, losses, config_path, tmp_path, capsys):
        out = tmp_path / "x"
        code = main(["sweep", "--config", str(config_path), "--out", str(out), "--seeds", seeds,
                     "--losses", losses])
        assert code == 2
        assert f"--seeds {seeds}" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize(
        "flag, tokens, repeated",
        [("--losses", "softmax,umm,softmax", "softmax"), ("--dropouts", "0.5,0.7,0.50", "0.50")],
    )
    def test_repeated_token_exit_code_2(
        self, flag, tokens, repeated, no_training, config_path, tmp_path, capsys
    ):
        out = tmp_path / "x"
        code = main(["sweep", "--config", str(config_path), "--out", str(out), "--seeds", "1",
                     "--losses", "softmax", flag, tokens])
        assert code == 2
        assert f"{flag} repeats {repeated!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_loss_token(self, config_path, tmp_path, capsys):
        code = main(["sweep", "--config", str(config_path), "--out", str(tmp_path / "x"),
                     "--seeds", "1", "--losses", "nonsense"])
        assert code == 2


class TestSmoke:
    def test_untrained_model_uniform_uncertainty(self):
        import numpy as np

        from ummlearn.data import gaussian_blobs, two_class_blob_specs
        from ummlearn.network import MlpModel, RunConfig, ensemble_class_uncertainty
        from ummlearn.seeding import stream_rng, stream_seed

        ds = gaussian_blobs(two_class_blob_specs(80, 80), seed=stream_seed(0, "data"))
        model = MlpModel.init(2, (16, 16), 2, stream_rng(0, "init"))
        u = ensemble_class_uncertainty(model, ds, RunConfig(ensemble_passes=20), 7)
        assert np.max(u) <= 2.0 * np.min(u)

    def test_default_config_train_under_sixty_seconds(self, tmp_path):
        import time

        t0 = time.time()
        out = tmp_path / "default-run"
        assert main(["train", "--out", str(out), "--seed", "0"]) == 0
        assert (out / "metrics.csv").exists()
        assert time.time() - t0 < 60.0

    def test_default_losses_sweep_smoke(self, tmp_path):
        import time

        t0 = time.time()
        out = tmp_path / "sweep-default"
        code = main(["sweep", "--out", str(out), "--seeds", "2",
                     "--losses", "softmax,umm,umm-sum,hybrid", "--seed", "0"])
        assert code == 0
        text = (out / "sweep.csv").read_text()
        for token in ("softmax", "umm", "umm-sum", "hybrid"):
            assert f"\n{token}," in text
        assert time.time() - t0 < 180.0
