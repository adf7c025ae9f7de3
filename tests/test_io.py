"""Tests for CSV handling, model files, and the flat config format."""

import dataclasses
import json
import os

import numpy as np
import pytest

from gplda import (
    HyperParams,
    METHOD_PDA,
    ParseError,
    RunConfig,
    SimSpec,
    ValidationError,
    default_run_config,
    format_config,
    generate,
    load_config,
    load_csv,
    load_model,
    mle_lda_fit,
    parse_config,
    predict,
    read_labeled_csv,
    save_dataset_csv,
    save_model,
    validate_dataset,
)
from gplda.io import atomic_write_text

from helpers import (
    csv_module_read,
    csv_module_text,
    sample_well_posed_dataset,
    two_class_separable,
)


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

    def test_writes_pieces_in_order(self, tmp_path):
        path = str(tmp_path / "out.txt")
        atomic_write_text(path, (f"{i}\n" for i in range(3)))
        with open(path) as fh:
            assert fh.read() == "0\n1\n2\n"

    def test_failed_piece_leaves_the_old_file(self, tmp_path):
        path = str(tmp_path / "out.txt")
        atomic_write_text(path, "old\n")

        def pieces():
            yield "new\n"
            raise RuntimeError("stop")

        with pytest.raises(RuntimeError):
            atomic_write_text(path, pieces())
        assert os.listdir(tmp_path) == ["out.txt"]
        with open(path) as fh:
            assert fh.read() == "old\n"


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
            fh.write("a,1.0,2.0\na,1.5,2.5\n")
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


# (file contents, has_header): the reader must give what the csv module
# and float() give, or the same ParseError.
CSV_CASES = {
    "header": ("label,t1,t2\na,1.0,2.0\nb,3,4\n", True),
    "header after blank rows": ("\n \n,,\nlabel,x,y\na,1,2\nb,3,4\n", True),
    "blank rows": ('a,1,2\n\n   \n,,\n , ,\t\n"",""\n" ",\na,3,4\n\n', False),
    "crlf": ("a,1,2\r\n\r\nb,3,4\r\n", False),
    "carriage returns only": ("a,1,2\rb,3,4\r", False),
    "quoted labels": ('"a,b",1,2\n"say ""hi""",3,4\n"two\nlines",5,6\n" c ",7,8\n', False),
    "quoted numbers": ('a,"1.5"," 2"\nb,"-3e-5",4\n', False),
    "hash labels": ("#x,1,2\n# y,3,4\n#,5,6\n", False),
    "nan and inf": ("a,nan,inf\nb,-Infinity,NaN\nc,+inf,-nan\n", False),
    "padded cells": (" a , 1.5 ,\t2 \n b,3 , 4\n", False),
    "number forms": ("a,1e-320,.5\nb,5.,-0\nc,1E+308,4.9e-324\n", False),
    "one value column": ("a,1\nb,2\n", False),
    "no final line break": ("a,1,2\nb,3,4", False),
    "empty file": ("", False),
    "only a header": ("label,x\n", True),
    "only blank rows": ("\n ,\n", False),
    "value-free rows": ("a\nb\n", False),
    "not UTF-8": (b"a,1,2\n\xff,3,4\n", False),
    "short row": ("a,1,2\nb,1\n", False),
    "long row": ("a,1,2\nb,1,2,3\n", False),
    "unparsable cell": ("a,1.0,2.0\nb,oops,4.0\n", False),
    "empty cell": ("a,1,\nb,2,3\n", False),
    "unparsable cell after blank rows": ("a,1,2\n,,\n\nb,3,x\n", False),
    "unparsable cell after a header": ("h,x,y\na,1,2\nb,3,x\n", True),
    "unparsable cell before a short row": ("a,1,2\nb,x,2\nc,1\n", False),
    "short row before an unparsable cell": ("a,1,2\nc,1\nb,x,2\n", False),
    "comment after a value": ("a,1,2 # note\n", False),
    "quoted comma in a value": ('a,"1,5",2\n', False),
}


def _read_both(path, has_header):
    outcomes = []
    for reader in (read_labeled_csv, csv_module_read):
        try:
            outcomes.append(reader(path, has_header=has_header))
        except ParseError as exc:
            outcomes.append((str(exc), exc.row, exc.column))
    return outcomes


class TestCsvAgainstTheCsvModule:
    @pytest.mark.parametrize("case", sorted(CSV_CASES))
    def test_same_rows_values_and_errors(self, case, tmp_path):
        content, has_header = CSV_CASES[case]
        path = str(tmp_path / "curves.csv")
        with open(path, "wb") as fh:
            fh.write(content if isinstance(content, bytes) else content.encode("utf-8"))
        got, want = _read_both(path, has_header)
        if isinstance(want[1], np.ndarray):
            assert got[0] == want[0]
            assert got[1].dtype == want[1].dtype and got[1].flags.c_contiguous
            assert got[1].shape == want[1].shape
            assert got[1].tobytes() == want[1].tobytes()
        else:
            assert got == want

    def test_generated_dataset_round_trips_bit_for_bit(self, tmp_path):
        _, data = generate(SimSpec(which="sim1", n_train=20, n_test=2000, seed=4))
        path = str(tmp_path / "curves.csv")
        save_dataset_csv(path, data)
        with open(path, encoding="utf-8", newline="") as fh:
            assert fh.read() == csv_module_text(data)
        labels, values = read_labeled_csv(path)
        want_labels, want_values = csv_module_read(path)
        assert labels == want_labels
        assert values.tobytes() == want_values.tobytes() == data.y.tobytes()

    @pytest.mark.parametrize("label", ["a,b", 'say "hi"', "#x", "two\nlines", "cr\rhere"])
    def test_labels_that_need_quoting_round_trip(self, label, tmp_path):
        base = two_class_separable(3, 4, gap=2.0, seed=1)
        data = validate_dataset(base.y, [label] * 3 + ["plain"] * 3)
        path = str(tmp_path / "curves.csv")
        save_dataset_csv(path, data)
        with open(path, encoding="utf-8", newline="") as fh:
            assert fh.read() == csv_module_text(data)
        loaded = load_csv(path)
        assert loaded.label_names == (label, "plain")
        np.testing.assert_array_equal(loaded.y, data.y)

    def test_digit_underscores_are_not_numbers(self, tmp_path):
        # float() reads "1_0" as 10; NumPy's reader, and so this format, does not.
        path = str(tmp_path / "curves.csv")
        with open(path, "w") as fh:
            fh.write("a,1,2\nb,1_0,3\n")
        with pytest.raises(ParseError, match="row 2 column 2: cannot parse '1_0'") as info:
            read_labeled_csv(path)
        assert (info.value.row, info.value.column) == (2, 2)


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

    def test_numpy_labels_round_trip(self, tmp_path):
        base = two_class_separable(10, 6, gap=2.0, seed=5)
        data = validate_dataset(base.y, np.repeat(np.array([1, 2], dtype=np.int64), 10))
        assert isinstance(data.label_names[0], np.int64)
        model = mle_lda_fit(data, ridge=0.0)
        path = str(tmp_path / "model.json")
        save_model(path, model)
        loaded = load_model(path)
        assert loaded.class_labels == (1, 2)
        probe = base.y[[0, 15]]
        np.testing.assert_array_equal(predict(loaded, probe), predict(model, probe))

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

    def test_notes_persisted(self, tmp_path):
        data = two_class_separable(10, 6, gap=2.0, seed=5)
        model = mle_lda_fit(data, k=3)
        assert any("clamped" in note for note in model.warnings)
        path = str(tmp_path / "model.json")
        save_model(path, model)
        assert load_model(path).warnings == model.warnings
        # files written before notes were stored load with none
        with open(path) as fh:
            payload = json.load(fh)
        del payload["notes"]
        with open(path, "w") as fh:
            json.dump(payload, fh)
        assert load_model(path).warnings == ()

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

    @pytest.mark.parametrize("key", ["pda.alpha", "mle.ridge", "fit.rel_tol", "fit.jitter_scale"])
    @pytest.mark.parametrize("text", ["nan", "inf", "-1"])
    def test_weights_must_be_finite_and_non_negative(self, key, text):
        message = f"config key {key}: cannot parse '{text}' as a finite non-negative number"
        with pytest.raises(ParseError, match=message):
            parse_config(f"{key} = {text}\n")

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
