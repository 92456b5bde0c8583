"""Dataset generation, subsampling, CSV round-trip, boundary-bias demo."""

import math
import warnings

import numpy as np
import pytest

from ummlearn import data as data_mod
from ummlearn.data import (
    BlobSpec,
    Dataset,
    balanced_gaussian_error,
    boundary_bias_demo,
    gaussian_blobs,
    imbalance_subsample,
    load_csv,
    longtail_blob_specs,
    save_csv,
    two_class_blob_specs,
)
from ummlearn.errors import CsvFormatError, DimensionError, LabelError, ParameterError


def balanced_error_simpson(threshold, mean_a, mean_b, std=1.0, half_width=10.0, n=20001):
    """Oracle: equal-prior error by Simpson integration of the two densities."""

    def density(x, mu):
        return np.exp(-0.5 * ((x - mu) / std) ** 2) / (std * math.sqrt(2 * math.pi))

    w = np.ones(n)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    # P_A(x > t)
    xs = np.linspace(threshold, mean_a + half_width * std, n)
    h = (xs[-1] - xs[0]) / (n - 1)
    p_a_above = h / 3 * np.sum(w * density(xs, mean_a))
    # P_B(x < t)
    xs = np.linspace(mean_b - half_width * std, threshold, n)
    h = (xs[-1] - xs[0]) / (n - 1)
    p_b_below = h / 3 * np.sum(w * density(xs, mean_b))
    return 0.5 * p_a_above + 0.5 * p_b_below


class TestGaussianBlobs:
    @pytest.mark.parametrize(
        "specs",
        [[], [BlobSpec((0.0, 0.0), 1.0, 3), BlobSpec((0.0,), 1.0, 3)],
         [BlobSpec((0.0, 0.0), 1.0, 0), BlobSpec((5.0, 5.0), 1.0, 0)]],
        ids=["no-spec", "mixed-dims", "all-counts-zero"],
    )
    def test_rejected_specs(self, specs):
        with pytest.raises(DimensionError):
            gaussian_blobs(specs, seed=1)

    @pytest.mark.parametrize("std, count", [(0.0, 3), (1.0, -1)])
    def test_bad_blob_spec(self, std, count):
        with pytest.raises(ParameterError):
            BlobSpec((0.0,), std, count)

    def test_zero_count_class_absent(self):
        specs = [BlobSpec((0.0, 0.0), 1.0, 10), BlobSpec((5.0, 5.0), 1.0, 0)]
        ds = gaussian_blobs(specs, seed=1)
        assert ds.class_counts.tolist() == [10, 0]
        assert ds.class_frequencies[1] == 0.0

    def test_tiny_std_concentrates(self):
        specs = [BlobSpec((2.0, -1.0), 1e-9, 50), BlobSpec((0.0, 0.0), 1.0, 5)]
        ds = gaussian_blobs(specs, seed=2)
        rows = ds.features[ds.labels == 0]
        np.testing.assert_allclose(rows, np.tile([2.0, -1.0], (50, 1)), atol=1e-6)

    def test_law_of_large_numbers(self):
        specs = [BlobSpec((1.5, -2.5), 1.0, 10_000), BlobSpec((0.0, 0.0), 1.0, 10)]
        ds = gaussian_blobs(specs, seed=3)
        mean = ds.features[ds.labels == 0].mean(axis=0)
        assert np.all(np.abs(mean - np.array([1.5, -2.5])) < 0.05)

    def test_deterministic_per_seed(self):
        specs = [BlobSpec((0.0,), 1.0, 20)]
        a = gaussian_blobs(specs, seed=9)
        b = gaussian_blobs(specs, seed=9)
        np.testing.assert_array_equal(a.features, b.features)

    def test_frequency_invariant(self):
        ds = gaussian_blobs(longtail_blob_specs(), seed=5)
        assert abs(ds.class_frequencies.sum() - 1.0) < 1e-12
        assert ds.class_counts.sum() == ds.n_samples


class TestImbalanceSubsample:
    def _dataset(self, seed=0):
        return gaussian_blobs(
            [BlobSpec((0.0, 0.0), 1.0, 100), BlobSpec((3.0, 0.0), 1.0, 80)], seed=seed
        )

    def test_zero_drop_identity(self):
        ds = self._dataset()
        out = imbalance_subsample(ds, 0.0, [0], seed=1)
        np.testing.assert_array_equal(out.features, ds.features)
        np.testing.assert_array_equal(out.labels, ds.labels)

    def test_drop_ninety_percent(self):
        ds = self._dataset()
        out = imbalance_subsample(ds, 0.9, [0], seed=1)
        assert out.class_counts[0] == 10
        assert out.class_counts[1] == 80

    def test_frequencies_renormalized(self):
        ds = self._dataset()
        out = imbalance_subsample(ds, 0.9, [0], seed=1)
        assert abs(out.class_frequencies.sum() - 1.0) < 1e-12

    def test_deterministic_and_order_stable(self):
        ds = self._dataset()
        a = imbalance_subsample(ds, 0.5, [0, 1], seed=7)
        b = imbalance_subsample(ds, 0.5, [0, 1], seed=7)
        np.testing.assert_array_equal(a.features, b.features)
        # retained rows keep their original relative order
        kept = a.features[a.labels == 1]
        orig = ds.features[ds.labels == 1]
        idx = [np.flatnonzero((orig == row).all(axis=1))[0] for row in kept]
        assert idx == sorted(idx)

    def test_unknown_class(self):
        with pytest.raises(LabelError):
            imbalance_subsample(self._dataset(), 0.5, [7], seed=0)

    def test_bad_fraction(self):
        with pytest.raises(ParameterError):
            imbalance_subsample(self._dataset(), 1.0, [0], seed=0)


class TestCsvRoundTrip:
    def test_round_trip_exact(self, tmp_path):
        ds = gaussian_blobs(two_class_blob_specs(30, 11), seed=13)
        path = tmp_path / "ds.csv"
        save_csv(ds, path)
        back = load_csv(path)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_header_contract(self, tmp_path):
        ds = gaussian_blobs([BlobSpec((0.0, 1.0), 1.0, 3)], seed=1)
        path = tmp_path / "ds.csv"
        save_csv(ds, path)
        assert path.read_text().splitlines()[0] == "f0,f1,label"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(CsvFormatError):
            load_csv(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\n1.0,0\nnot_a_number,1\n")
        with pytest.raises(CsvFormatError) as info:
            load_csv(path)
        assert info.value.line == 3

    def test_bad_label(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\n1.0,-2\n")
        with pytest.raises(CsvFormatError) as info:
            load_csv(path)
        assert info.value.line == 2

    @pytest.mark.parametrize("label", ["-1", "x", "1.5", "99999999999999999999"])
    def test_bad_label_reports_line(self, label, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(f"f0,label\n1.0,0\n2.0,{label}\n")
        with pytest.raises(CsvFormatError, match="label") as info:
            load_csv(path)
        assert info.value.line == 3

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1.0,2.0,0\n")
        with pytest.raises(CsvFormatError):
            load_csv(path)

    @pytest.mark.parametrize("header", ["x0,label", "label", "f0,f1", "f1,f0,label"])
    def test_header_names_every_column(self, header, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(f"{header}\n1.0,2.0,0\n")
        with pytest.raises(CsvFormatError, match="header") as info:
            load_csv(path)
        assert info.value.line == 1


def csv_outcome(path, n_classes):
    """What ``load_csv(path, n_classes)`` makes: the dataset's bytes, or the error it raises.

    Any warning that escapes ``load_csv`` fails the test.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            ds = load_csv(path, n_classes)
        except CsvFormatError as exc:
            result = ("error", str(exc), exc.line)
        else:
            result = (
                "dataset",
                ds.features.tobytes(), ds.features.shape, ds.features.flags.c_contiguous,
                ds.labels.tobytes(), ds.labels.dtype, ds.labels.shape,
                ds.class_counts.tobytes(), ds.class_frequencies.tobytes(),
            )
    assert [str(w.message) for w in caught] == []
    return result


def row_loop_outcome(path, n_classes, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(data_mod, "_parse_table", lambda path, dim: None)
        return csv_outcome(path, n_classes)


class TestCsvFastPath:
    """The vectorized parse gives what the row loop gives: the same dataset, bit for
    bit, or the same error, message and line.

    Every valid label in these files is below 8, so a model class count of 8 keeps the
    feature parse under test; ``test_training_labels_match_row_loop`` covers the rule
    for labels read without one."""

    @pytest.mark.parametrize(
        "body, fast",
        [
            ("1.5,-2,0\n\n3,4,1\n\n", True),  # blank lines
            ("1.5,-2,0\n   \n3,4,1\n", False),  # whitespace-only line
            ("1.5,-2,0\n# note\n3,4,1\n", False),
            ("1.5,-2,0\n3,4,5,1\n", False),  # extra field
            ("1.5,-2,0\n3,1\n", False),  # missing field
            ("1.5,-2,0,\n3,4,1,\n", False),  # trailing comma
            ('1.5,-2,0\n"3",4,1\n', False),  # quoted field
            ("1.5,-2,0\n1_0,4,1\n", False),
            ("1.5,-2,0\nnan,4,1\n", False),
            ("1.5,-2,0\n3,-inf,1\n", False),
            ("1.5,-2,0\n3,1e400,1\n", False),
            ("1.5,-2,0\n3,4,-1\n", False),
            ("1.5,-2,0\n3,4,1.0\n", False),
            ("1.5,-2,0\n3,4, 3\n", True),
            ("1.5,-2,0\n3,4,99999999999999999999\n", False),  # overflows int64
            ("1.5,-2,0\r\n3,4,1\r\n", True),  # CRLF
            ("", False),  # header only
        ],
    )
    def test_same_outcome_as_row_loop(self, body, fast, tmp_path, monkeypatch):
        path = tmp_path / "case.csv"
        path.write_bytes(("f0,f1,label\n" + body).encode())
        assert csv_outcome(path, 8) == row_loop_outcome(path, 8, monkeypatch)
        assert (data_mod._parse_table(path, 2) is not None) == fast

    @pytest.mark.parametrize(
        "body, missing",
        [
            ("1.5,-2,0\n3,4,1\n", None),
            ("1.5,-2,1\n\n3,4, 0\n", None),
            ("1.5,-2,0\n3,4,2\n", 1),
            ("1.5,-2,2\n3,4,1\n", 0),
            ('1.5,-2,0\n"3",4,3\n', 1),  # row loop only
            ("1.5,-2,0\r\n3,4,1\r\n5,6,3\r\n", 2),
        ],
    )
    def test_training_labels_match_row_loop(self, body, missing, tmp_path, monkeypatch):
        path = tmp_path / "case.csv"
        path.write_bytes(("f0,f1,label\n" + body).encode())
        outcome = csv_outcome(path, None)
        assert outcome == row_loop_outcome(path, None, monkeypatch)
        if missing is None:
            assert outcome[0] == "dataset"
        else:
            assert outcome[0] == "error" and f"no row of class {missing} " in outcome[1]

    @pytest.mark.parametrize("seed", range(4))
    def test_random_floats_take_the_fast_path(self, seed, tmp_path, monkeypatch):
        rng = np.random.default_rng(seed)
        n, dim = 300, int(rng.integers(1, 5))
        values = rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-300, 300, (n, dim))
        short = ["{:.3g}", "{:.6e}", "{!r}", "{:.0f}", "{:g}"]
        text = ["%s,label" % ",".join(f"f{i}" for i in range(dim))]
        for row in values.tolist():
            fields = [
                f"{v:.17g}" if rng.random() < 0.5 else short[rng.integers(len(short))].format(v)
                for v in row
            ]
            text.append(",".join(fields) + f",{rng.integers(0, 7)}")
        path = tmp_path / "floats.csv"
        path.write_text("\n".join(text) + "\n")
        assert data_mod._parse_table(path, dim) is not None
        assert csv_outcome(path, 8) == row_loop_outcome(path, 8, monkeypatch)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_tricky_fields_match_row_loop(self, seed, tmp_path, monkeypatch):
        feature_tokens = ["1", "-2.5", " 3", "3 ", "+4", ".5", "5.", "1E5", "1_0", '"1"', "",
                          "nan", "inf", "1e400", "0x10", "1d5", "\u0663", "\x0c7", "#1", "-0"]
        label_tokens = ["0", "2", " 3", "+1", "007", "1.0", "-1", "1e1", "x", "", "\u0663",
                        "99999999999999999999"]
        rng = np.random.default_rng(seed)
        datasets = 0
        for case in range(40):
            dim = int(rng.integers(1, 4))
            lines = [",".join(f"f{i}" for i in range(dim)) + ",label"]
            for _ in range(int(rng.integers(1, 6))):
                fields = [feature_tokens[rng.integers(len(feature_tokens))] for _ in range(dim)]
                # mostly clean rows, so that a fault often sits past the first line
                if rng.random() < 0.6:
                    fields = [f"{v:.17g}" for v in rng.standard_normal(dim)]
                label = label_tokens[rng.integers(len(label_tokens))] if rng.random() < 0.4 else "1"
                lines.append(",".join(fields + [label]))
                if rng.random() < 0.2:
                    lines.append("")
            end = "\r\n" if rng.random() < 0.3 else "\n"
            path = tmp_path / f"case{case}.csv"
            path.write_bytes((end.join(lines) + end).encode())
            outcome = csv_outcome(path, 8)
            assert outcome == row_loop_outcome(path, 8, monkeypatch), lines
            datasets += outcome[0] == "dataset"
        assert datasets >= 5  # the features of many files are compared, not only errors


class TestDataset:
    def test_label_feature_mismatch(self):
        with pytest.raises(DimensionError):
            Dataset.from_arrays(np.zeros((3, 2)), np.zeros(2, dtype=np.int64))

    def test_counts(self):
        ds = Dataset.from_arrays(np.zeros((4, 1)), np.array([0, 0, 1, 2]))
        assert ds.class_counts.tolist() == [2, 1, 1]

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            Dataset.from_arrays(np.zeros((0, 2)), np.zeros(0, dtype=np.int64))

    @pytest.mark.parametrize("labels, n_classes", [([0, -1], None), ([0, 3], 3)])
    def test_label_range(self, labels, n_classes):
        with pytest.raises(LabelError):
            Dataset.from_arrays(np.zeros((2, 1)), np.array(labels), n_classes)


class TestBoundaryBiasDemo:
    def test_balanced_symmetric_near_zero(self):
        report = boundary_bias_demo(1.0, seed=0)
        assert abs(report.learned_threshold - report.optimal_threshold) < 0.1

    def test_ten_to_one_displaced_toward_minority(self):
        hits = 0
        for seed in range(10):
            report = boundary_bias_demo(10.0, seed=seed)
            hits += report.displaced_toward_minority
        assert hits >= 9

    def test_learned_error_exceeds_optimal_error(self):
        report = boundary_bias_demo(10.0, seed=3)
        assert report.balanced_error_learned > report.balanced_error_optimal

    def test_balanced_error_matches_integration_oracle(self):
        for t in (-0.3, 0.0, 0.7, 1.3):
            closed = balanced_gaussian_error(t, -1.0, 1.0)
            oracle = balanced_error_simpson(t, -1.0, 1.0)
            assert closed == pytest.approx(oracle, abs=1e-8)

    def test_learned_threshold_near_prior_bayes(self):
        # logistic regression on 1-D equal-variance Gaussians is
        # well-specified: the population optimum is the prior-aware
        # Bayes threshold ln(ratio)/separation + midpoint
        report = boundary_bias_demo(10.0, seed=1)
        assert report.bayes_threshold == pytest.approx(math.log(10.0) / 2.0, abs=1e-12)
        assert abs(report.learned_threshold - report.bayes_threshold) < 0.35

    def test_invalid_ratio(self):
        with pytest.raises(ParameterError):
            boundary_bias_demo(0.5, seed=0)
