"""Tests for CSV handling, model files, and the flat config format."""

import dataclasses
import os

import numpy as np
import pytest

from gplda import (
    HyperParams,
    METHOD_PDA,
    ParseError,
    RunConfig,
    ValidationError,
    default_run_config,
    format_config,
    load_config,
    load_csv,
    load_model,
    mle_lda_fit,
    parse_config,
    predict,
    read_labeled_csv,
    save_dataset_csv,
    save_model,
)
from gplda.io import atomic_write_text

from helpers import sample_well_posed_dataset, two_class_separable


class TestAtomicWrite:
    def test_writes_and_overwrites(self, tmp_path):
        path = str(tmp_path / "out.txt")
        atomic_write_text(path, "first\n")
        atomic_write_text(path, "second\n")
        with open(path) as fh:
            assert fh.read() == "second\n"

    def test_leaves_no_temp_files(self, tmp_path):
        path = str(tmp_path / "out.txt")
        atomic_write_text(path, "content\n")
        assert os.listdir(tmp_path) == ["out.txt"]


class TestLabeledCsv:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        data = sample_well_posed_dataset(rng)
        path = str(tmp_path / "curves.csv")
        save_dataset_csv(path, data)
        loaded = load_csv(path)
        np.testing.assert_array_equal(loaded.y, data.y)
        np.testing.assert_array_equal(loaded.labels, data.labels)
        # CSV is untyped, so label values come back as their text forms
        assert loaded.label_names == tuple(str(v) for v in data.label_names)

    def test_header_row_skipped_on_request(self, tmp_path):
        path = str(tmp_path / "curves.csv")
        with open(path, "w") as fh:
            fh.write("label,t1,t2\n")
            fh.write("a,1.0,2.0\n" * 2)
            fh.write("b,3.0,4.0\n")
        data = load_csv(path, has_header=True)
        assert data.n == 3
        assert data.label_names == ("a", "b")

    def test_blank_lines_ignored(self, tmp_path):
        path = str(tmp_path / "curves.csv")
        with open(path, "w") as fh:
            fh.write("a,1.0,2.0\n\n\na,0.5,1.5\nb,3.0,4.0\n")
        labels, values = read_labeled_csv(path)
        assert labels == ["a", "a", "b"]
        assert values.shape == (3, 2)

    def test_unparsable_number_reports_row_and_column(self, tmp_path):
        path = str(tmp_path / "curves.csv")
        with open(path, "w") as fh:
            fh.write("a,1.0,2.0\nb,oops,4.0\n")
        with pytest.raises(ParseError, match="row 2 column 2") as info:
            read_labeled_csv(path)
        assert info.value.row == 2
        assert info.value.column == 2

    def test_ragged_row_reports_position(self, tmp_path):
        path = str(tmp_path / "curves.csv")
        with open(path, "w") as fh:
            fh.write("a,1.0,2.0\nb,1.0\n")
        with pytest.raises(ParseError, match="row 2 has 2 columns, expected 3"):
            read_labeled_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = str(tmp_path / "curves.csv")
        open(path, "w").close()
        with pytest.raises(ParseError, match="no data rows"):
            read_labeled_csv(path)

    def test_value_free_rows_rejected(self, tmp_path):
        path = str(tmp_path / "curves.csv")
        with open(path, "w") as fh:
            fh.write("a\nb\n")
        with pytest.raises(ParseError, match="no value columns"):
            read_labeled_csv(path)


class TestModelFiles:
    def test_round_trip_predicts_identically(self, tmp_path):
        data = two_class_separable(10, 6, gap=2.0, seed=5)
        model = mle_lda_fit(data, ridge=0.0)
        path = str(tmp_path / "model.json")
        save_model(path, model)
        loaded = load_model(path)
        assert loaded.method_tag == model.method_tag
        assert loaded.class_labels == model.class_labels
        np.testing.assert_array_equal(loaded.directions, model.directions)
        np.testing.assert_array_equal(
            loaded.projected_centroids, model.projected_centroids
        )
        probe = np.linspace(-1.0, 1.0, 6)
        assert predict(loaded, probe) == predict(model, probe)

    def test_within_covariance_not_persisted(self, tmp_path):
        data = two_class_separable(10, 6, gap=2.0, seed=5)
        model = mle_lda_fit(data)
        path = str(tmp_path / "model.json")
        save_model(path, model)
        loaded = load_model(path)
        assert loaded.within_cov_used is None
        assert loaded.eigenvalues is None

    def test_penalty_descriptor_persisted(self, tmp_path):
        data = two_class_separable(10, 6, gap=2.0, seed=5)
        model = mle_lda_fit(data)
        relabeled = dataclasses.replace(model, method_tag=METHOD_PDA, penalty="d2")
        path = str(tmp_path / "model.json")
        save_model(path, relabeled)
        assert load_model(path).penalty == "d2"

    def test_invalid_json_rejected(self, tmp_path):
        path = str(tmp_path / "model.json")
        with open(path, "w") as fh:
            fh.write("{not json")
        with pytest.raises(ParseError, match="not a valid model file"):
            load_model(path)

    def test_unrecognized_format_rejected(self, tmp_path):
        path = str(tmp_path / "model.json")
        with open(path, "w") as fh:
            fh.write('{"format": "something-else"}')
        with pytest.raises(ParseError, match="unrecognized model format"):
            load_model(path)

    def test_missing_field_rejected(self, tmp_path):
        path = str(tmp_path / "model.json")
        with open(path, "w") as fh:
            fh.write('{"format": "gplda-model-v1", "method_tag": "PDA"}')
        with pytest.raises(ParseError, match="malformed model file"):
            load_model(path)


DEFAULT_CONFIG_LINES = (
    "method = gplda",
    "k = auto",
    "seed = 0",
    "data = ",
    "out = ",
    "penalty.kind = auto",
    "penalty.grid = ",
    "pda.alpha = cv",
    "pca.q = 1",
    "mle.ridge = auto",
    "hyper.a1 = 1.0",
    "hyper.b1 = 20.0",
    "hyper.a2 = 1.0",
    "hyper.b2 = 100.0",
    "hyper.a3 = 1.0",
    "hyper.b3 = 0.001",
    "hyper.delta = 2.0",
    "fit.max_sweeps = 500",
    "fit.rel_tol = 1e-06",
    "fit.jitter_scale = 1e-08",
    "bench.which = sim1",
    "bench.methods = gplda,pda",
    "bench.n_values = 50,200",
    "bench.reps = 30",
    "bench.n_test = 200",
)


class TestConfigFormat:
    def test_default_text_is_pinned(self):
        # round trips cannot catch a renamed or reordered key; this can
        assert format_config(RunConfig()) == "\n".join(DEFAULT_CONFIG_LINES) + "\n"

    def test_default_round_trip(self):
        config = default_run_config()
        assert parse_config(format_config(config)) == config

    def test_modified_round_trip(self):
        config = RunConfig(
            method="pda",
            k=2,
            seed=9,
            data="in.csv",
            out="model.json",
            penalty_kind="lap2d",
            penalty_grid=(4, 8),
            pda_alpha=2.5,
            pca_q=3,
            mle_ridge=0.125,
            hyper=HyperParams(a1=1.5, b1=2.0, a2=3.0, b2=4.0, a3=1.25, b3=0.5,
                              delta=6.0),
            max_sweeps=77,
            rel_tol=1e-9,
            jitter_scale=0.0,
            bench_which="sim2",
            bench_methods=("gplda", "pca-lda"),
            bench_n_values=(20, 40),
            bench_reps=5,
            bench_n_test=123,
        )
        assert parse_config(format_config(config)) == config

    def test_partial_config_keeps_defaults(self):
        config = parse_config("method = mle\nseed = 3\n")
        assert config.method == "mle"
        assert config.seed == 3
        assert config.max_sweeps == 500
        assert config.hyper == HyperParams()

    def test_comments_and_blanks_ignored(self):
        config = parse_config("# a comment\n\nmethod = pda\n")
        assert config.method == "pda"

    def test_cv_and_auto_sentinels(self):
        config = parse_config("pda.alpha = cv\nmle.ridge = auto\nk = auto\n")
        assert config.pda_alpha == "cv"
        assert config.mle_ridge == "auto"
        assert config.k is None
        numeric = parse_config("pda.alpha = 3.5\nmle.ridge = 0.5\nk = 2\n")
        assert numeric.pda_alpha == 3.5
        assert numeric.mle_ridge == 0.5
        assert numeric.k == 2

    def test_unknown_key_named_in_error(self):
        with pytest.raises(ParseError, match="unknown config key 'pda.beta'"):
            parse_config("pda.beta = 1\n")
        with pytest.raises(ParseError, match="hyper.zeta"):
            parse_config("hyper.zeta = 1\n")

    def test_missing_separator_reports_line(self):
        with pytest.raises(ParseError, match="config line 2") as info:
            parse_config("method = pda\nnonsense\n")
        assert info.value.row == 2

    def test_bad_numbers_rejected(self):
        with pytest.raises(ParseError, match="cannot parse 'many'"):
            parse_config("seed = many\n")
        with pytest.raises(ParseError, match="cannot parse 'wide'"):
            parse_config("fit.rel_tol = wide\n")

    def test_bad_grid_shape_rejected(self):
        with pytest.raises(ParseError, match="ROWSxCOLS"):
            parse_config("penalty.grid = 12\n")

    def test_hyper_merge_keeps_unset_fields(self):
        config = parse_config("hyper.b2 = 7.0\n")
        assert config.hyper.b2 == 7.0
        assert config.hyper.a2 == HyperParams().a2

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot read config file"):
            load_config(str(tmp_path / "absent.cfg"))

    def test_load_config_reads_file(self, tmp_path):
        path = str(tmp_path / "run.cfg")
        with open(path, "w") as fh:
            fh.write("method = pca-lda\npca.q = 4\n")
        config = load_config(path)
        assert config.method == "pca-lda"
        assert config.pca_q == 4
