"""Tests for the command-line interface."""

import ast
import inspect
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import gplda
import gplda.cli
from gplda import DEFAULT_PDA_ALPHA_GRID, METHODS, parse_config, save_dataset_csv
from gplda.cli import _FLAG_KEYS, cli_dispatch
from gplda.io import _FIELDS_BY_KEY

from helpers import lap2d_image_set, two_class_separable


def _write_training_csv(tmp_path, name="train.csv", gap=2.5):
    data = two_class_separable(10, 8, gap=gap, seed=0)
    path = str(tmp_path / name)
    save_dataset_csv(path, data)
    return path


class TestPrintConfig:
    def test_prints_parseable_defaults(self, capsys):
        assert cli_dispatch(["--print-config"]) == 0
        out = capsys.readouterr().out
        config = parse_config(out)
        assert config.method == "gplda"
        assert config.bench_reps == 30

    def test_reflects_config_file_and_flags(self, tmp_path, capsys):
        path = str(tmp_path / "run.cfg")
        with open(path, "w") as fh:
            fh.write("seed = 11\nmethod = pda\n")
        assert cli_dispatch(["--config", path, "--print-config"]) == 0
        config = parse_config(capsys.readouterr().out)
        assert config.seed == 11
        assert config.method == "pda"


# (subcommand, flag, text, config key): the flag and the config key must
# read the same text the same way.
_PARITY_CASES = (
    ("fit", "method", "pda", "method"),
    ("fit", "k", "auto", "k"),
    ("fit", "k", "3", "k"),
    ("fit", "seed", "7", "seed"),
    ("fit", "data", "train.csv", "data"),
    ("bench", "out", "report.csv", "out"),
    ("fit", "alpha", "cv", "pda.alpha"),
    ("fit", "alpha", "10", "pda.alpha"),
    ("bench", "reps", "3", "bench.reps"),
    ("simulate", "which", "sim2", "bench.which"),
)


def _config_line(lines, key):
    return next(line for line in lines.splitlines() if line.startswith(key + " = "))


class TestFlagConfigParity:
    def test_cases_cover_the_flag_table(self):
        assert {(flag, key) for _, flag, _, key in _PARITY_CASES} == set(_FLAG_KEYS)

    @pytest.mark.parametrize("command, flag, text, key", _PARITY_CASES)
    def test_flag_prints_what_the_config_key_prints(
        self, tmp_path, capsys, command, flag, text, key
    ):
        path = str(tmp_path / "run.cfg")
        with open(path, "w") as fh:
            fh.write(f"{key} = {text}\n")
        assert cli_dispatch(["--config", path, "--print-config"]) == 0
        expected = _config_line(capsys.readouterr().out, key)
        assert cli_dispatch(["--print-config", command, f"--{flag}", text]) == 0
        assert _config_line(capsys.readouterr().out, key) == expected

    @pytest.mark.parametrize(
        "command, flag, text, key",
        [("fit", "seed", "x", "seed"), ("fit", "k", "two", "k"),
         ("bench", "reps", "2.5", "bench.reps")],
    )
    def test_flag_rejects_what_the_config_key_rejects(
        self, tmp_path, capsys, command, flag, text, key
    ):
        path = str(tmp_path / "run.cfg")
        with open(path, "w") as fh:
            fh.write(f"{key} = {text}\n")
        assert cli_dispatch(["--config", path, "--print-config"]) == 1
        expected = capsys.readouterr().err
        assert cli_dispatch(["--print-config", command, f"--{flag}", text]) == 1
        assert capsys.readouterr().err == expected

    def test_unparsable_seed_names_the_key(self, capsys):
        assert cli_dispatch(["--print-config", "fit", "--seed", "x"]) == 1
        assert capsys.readouterr().err == (
            "error: config key seed: cannot parse 'x' as an integer\n"
        )

    def test_flag_keys_are_config_keys(self):
        assert {key for _, key in _FLAG_KEYS} <= set(_FIELDS_BY_KEY)

    def test_table_flags_leave_parsing_to_the_config_table(self):
        # argparse must hand a table flag's text to parse_field unconverted.
        tree = ast.parse(inspect.getsource(gplda.cli))
        flags = {f"--{flag}" for flag, _ in _FLAG_KEYS}
        offenders = [
            f"cli.py:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_argument"
            and any(isinstance(a, ast.Constant) and a.value in flags for a in node.args)
            and any(kw.arg == "type" for kw in node.keywords)
        ]
        assert offenders == []


class TestSimulate:
    def test_writes_deterministic_pair(self, tmp_path, capsys):
        prefix = str(tmp_path / "run")
        args = [
            "simulate", "--which", "sim2", "--n-train", "10",
            "--n-test", "6", "--seed", "3", "--out", prefix,
        ]
        assert cli_dispatch(args) == 0
        out = capsys.readouterr().out
        assert "10 curves" in out and "6 curves" in out
        with open(prefix + "_train.csv") as fh:
            first = fh.read()
        assert cli_dispatch(args) == 0
        with open(prefix + "_train.csv") as fh:
            assert fh.read() == first
        with open(prefix + "_test.csv") as fh:
            assert len(fh.read().strip().splitlines()) == 6


class TestFitAndPredict:
    def test_plain_discriminant_flow(self, tmp_path, capsys):
        train = _write_training_csv(tmp_path)
        model_path = str(tmp_path / "model.json")
        assert cli_dispatch(
            ["fit", "--method", "mle", "--data", train, "--out", model_path]
        ) == 0
        out = capsys.readouterr().out
        assert "MLE_LDA" in out

        assert cli_dispatch(["predict", "--model", model_path, "--data", train]) == 0
        out = capsys.readouterr().out
        assert "error rate: 0.000000" in out

    def test_backfitting_flow_writes_trace(self, tmp_path, capsys):
        train = _write_training_csv(tmp_path)
        model_path = str(tmp_path / "model.json")
        code = cli_dispatch(
            ["fit", "--method", "gplda", "--data", train, "--out", model_path]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "converged" in out
        with open(model_path + ".trace") as fh:
            trace = json.load(fh)
        assert trace["converged"] is True
        assert set(trace["final_residuals"]) == {
            "alpha1", "alpha2", "noise_precision", "x_max", "mu_max", "sigma_w",
        }
        block, value = max(trace["final_residuals"].items(), key=lambda kv: kv[1])
        assert f"largest first-order residual {value:.3g} ({block})\n" in out
        objectives = trace["log_posterior_per_sweep"]
        assert len(objectives) == trace["sweeps_run"] + 1
        assert f"objective {objectives[-1]:.6f}\n" in out

    def test_penalized_fit_with_fixed_weight(self, tmp_path, capsys):
        train = _write_training_csv(tmp_path)
        model_path = str(tmp_path / "model.json")
        code = cli_dispatch(
            [
                "fit", "--method", "pda", "--alpha", "2.0",
                "--penalty", "d2", "--data", train, "--out", model_path,
            ]
        )
        assert code == 0
        capsys.readouterr()
        with open(model_path) as fh:
            payload = json.load(fh)
        assert payload["method_tag"] == "PDA"
        assert payload["penalty"] == "d2"

    @pytest.mark.parametrize("tag", sorted(METHODS))
    def test_every_method_fits(self, tmp_path, capsys, tag):
        train = _write_training_csv(tmp_path)
        model_path = str(tmp_path / "model.json")
        cli_name = METHODS[tag][0]
        assert cli_dispatch(
            ["fit", "--method", cli_name, "--data", train, "--out", model_path]
        ) == 0
        capsys.readouterr()
        with open(model_path) as fh:
            assert json.load(fh)["method_tag"] == tag

    def test_cross_validated_alpha_is_reported(self, tmp_path, capsys):
        train = _write_training_csv(tmp_path)
        model_path = str(tmp_path / "model.json")
        assert cli_dispatch(
            ["fit", "--method", "pda", "--alpha", "cv", "--data", train, "--out", model_path]
        ) == 0
        notes = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("note: cross-validated alpha = ")
        ]
        assert len(notes) == 1
        assert float(notes[0].rsplit("=", 1)[1]) in DEFAULT_PDA_ALPHA_GRID
        with open(model_path) as fh:
            assert json.load(fh)["notes"] == [notes[0][len("note: "):]]

    @pytest.mark.parametrize("tag", sorted(METHODS))
    def test_lap2d_images_fit_and_predict(self, tmp_path, capsys, tag):
        images = str(tmp_path / "images.csv")
        save_dataset_csv(images, lap2d_image_set(np.random.default_rng(6), 30, 6, 6))
        model_path = str(tmp_path / "model.json")
        assert cli_dispatch([
            "fit", "--method", METHODS[tag][0], "--penalty", "lap2d:6x6",
            "--data", images, "--out", model_path,
        ]) == 0
        assert cli_dispatch(["predict", "--model", model_path, "--data", images]) == 0
        assert "error rate: " in capsys.readouterr().out
        with open(model_path) as fh:
            assert json.load(fh)["method_tag"] == tag

    def test_non_finite_rows_rejected(self, tmp_path, capsys):
        train = _write_training_csv(tmp_path)
        model_path = str(tmp_path / "model.json")
        cli_dispatch(["fit", "--method", "mle", "--data", train, "--out", model_path])
        for bad in ("nan", "inf"):
            path = str(tmp_path / f"{bad}.csv")
            with open(path, "w") as fh:
                fh.write("?," + ",".join(["0.5"] * 8) + "\n")
                fh.write("?," + ",".join(["0.5"] * 7 + [bad]) + "\n")
            capsys.readouterr()
            assert cli_dispatch(["predict", "--model", model_path, "--data", path]) == 1
            captured = capsys.readouterr()
            assert "error:" in captured.err and "row 2" in captured.err
            assert captured.out == ""

    def test_fit_numbers_a_non_finite_row_from_one(self, tmp_path, capsys):
        path = str(tmp_path / "nan.csv")
        with open(path, "w") as fh:
            for i, cell in enumerate(["0.5", "nan", "0.5", "0.5"]):
                fh.write(f"{i % 2}," + ",".join(["0.5", "1.5", cell]) + "\n")
        code = cli_dispatch(["fit", "--method", "mle", "--data", path,
                             "--out", str(tmp_path / "m.json")])
        assert code == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err and "row 2 " in captured.err
        assert not (tmp_path / "m.json").exists()

    def test_predictions_to_file_without_truth(self, tmp_path, capsys):
        train = _write_training_csv(tmp_path)
        model_path = str(tmp_path / "model.json")
        cli_dispatch(["fit", "--method", "mle", "--data", train, "--out", model_path])
        unlabeled = str(tmp_path / "new.csv")
        with open(unlabeled, "w") as fh:
            for row in np.linspace(-1.0, 1.0, 3 * 8).reshape(3, 8):
                fh.write("?," + ",".join(str(v) for v in row) + "\n")
        out_path = str(tmp_path / "predicted.txt")
        capsys.readouterr()
        assert cli_dispatch(
            ["predict", "--model", model_path, "--data", unlabeled, "--out", out_path]
        ) == 0
        out = capsys.readouterr().out
        assert "error rate" not in out
        with open(out_path) as fh:
            assert len(fh.read().strip().splitlines()) == 3


class TestBench:
    def test_report_files_and_determinism(self, tmp_path, capsys):
        cfg = str(tmp_path / "bench.cfg")
        with open(cfg, "w") as fh:
            fh.write(
                "bench.which = sim2\n"
                "bench.methods = pca-lda,mle\n"
                "bench.n_values = 20\n"
                "bench.n_test = 20\n"
            )
        report_path = str(tmp_path / "report.csv")
        args = ["--config", cfg, "bench", "--reps", "2", "--out", report_path]
        assert cli_dispatch(args) == 0
        out = capsys.readouterr().out
        assert out.startswith("method,N,mean_pct,std_pct,failures,seconds")
        with open(report_path) as fh:
            lines = fh.read().strip().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("PCA_LDA,20,")
        with open(report_path + ".summary.json") as fh:
            summary = json.load(fh)
        assert summary["reps"] == 2
        first_errors = summary["cells"][0]["errors"]
        assert cli_dispatch(args) == 0
        capsys.readouterr()
        with open(report_path + ".summary.json") as fh:
            assert json.load(fh)["cells"][0]["errors"] == first_errors


    @pytest.mark.parametrize(
        "line, message",
        [
            ("bench.methods = gplda,gplda", "method 'GPLDA' is listed more than once"),
            ("bench.n_values =", "training sizes list is empty"),
        ],
        ids=["repeated-method", "empty-n-values"],
    )
    def test_repeated_method_exits_1(self, tmp_path, capsys, line, message):
        cfg = str(tmp_path / "bench.cfg")
        with open(cfg, "w") as fh:
            fh.write(line + "\n")
        args = ["--config", cfg, "bench", "--reps", "1", "--out", str(tmp_path / "r.csv")]
        assert cli_dispatch(args) == 1
        assert message in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "r.csv")

    def test_alpha_that_is_not_finite_stops_before_any_fit(self, tmp_path, capsys, monkeypatch):
        cfg = str(tmp_path / "bench.cfg")
        with open(cfg, "w") as fh:
            fh.write("pda.alpha = nan\nbench.methods = gplda,pda\nbench.n_values = 20\n")
        fits = []
        monkeypatch.setattr(gplda.simulate, "fit_method", lambda *args: fits.append(args))
        out = str(tmp_path / "r.csv")
        assert cli_dispatch(["--config", cfg, "bench", "--reps", "1", "--out", out]) == 1
        assert "config key pda.alpha" in capsys.readouterr().err
        assert fits == []
        assert not os.path.exists(out) and not os.path.exists(out + ".summary.json")

    def test_penalty_settings_apply(self, tmp_path, capsys):
        cfg = str(tmp_path / "bench.cfg")
        with open(cfg, "w") as fh:
            fh.write(
                "bench.which = sim2\n"
                "bench.n_values = 20\n"
                "penalty.kind = lap2d\n"
                "penalty.grid = 3x3\n"
            )
        args = ["--config", cfg, "bench", "--reps", "1", "--out", str(tmp_path / "r.csv")]
        assert cli_dispatch(args) == 1
        assert "covers 9 points" in capsys.readouterr().err


# Each edit leaves a model file that parses as JSON but cannot predict.
_MODEL_BREAKERS = {
    "centroid-width": lambda m: m.update(projected_centroids=[[0.0, 1.0], [1.0, 0.0]]),
    "extra-label": lambda m: m["class_labels"].append("3"),
    "nan-direction": lambda m: m.update(
        directions=[[float("nan")] + m["directions"][0][1:]]
    ),
    "one-class": lambda m: m.update(
        class_labels=m["class_labels"][:1],
        projected_centroids=m["projected_centroids"][:1],
    ),
    "list-labels": lambda m: m.update(class_labels=[[1], [2]]),
    "flat-directions": lambda m: m.update(directions=m["directions"][0]),
}


class TestExitCodes:
    def test_missing_required_inputs(self, tmp_path, capsys):
        assert cli_dispatch(["fit", "--method", "mle"]) == 1
        assert "error:" in capsys.readouterr().err
        assert cli_dispatch(["predict"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_output_or_curves(self, tmp_path, capsys):
        train = _write_training_csv(tmp_path)
        assert cli_dispatch(["fit", "--method", "mle", "--data", train]) == 1
        assert "fit needs --out" in capsys.readouterr().err
        assert cli_dispatch(["predict", "--model", str(tmp_path / "m.json")]) == 1
        assert "predict needs --data" in capsys.readouterr().err

    def test_lap2d_penalty_without_a_grid(self, tmp_path, capsys):
        cfg = str(tmp_path / "run.cfg")
        with open(cfg, "w") as fh:
            fh.write("penalty.kind = lap2d\n")
        model_path = tmp_path / "m.json"
        code = cli_dispatch([
            "--config", cfg, "fit", "--method", "pda", "--alpha", "1",
            "--data", _write_training_csv(tmp_path), "--out", str(model_path),
        ])
        assert code == 1
        assert "error: penalty.kind lap2d needs penalty.grid" in capsys.readouterr().err
        assert not model_path.exists()

    def test_usage_problems(self, capsys):
        assert cli_dispatch(["fit", "--method", "svm"]) == 1
        assert "usage" in capsys.readouterr().err
        assert cli_dispatch([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_usage_errors_come_in_argparse_format(self, capsys):
        assert cli_dispatch(["fit", "--method", "svm"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: gplda fit ")
        assert "gplda fit: error: argument --method: invalid choice: 'svm'" in err

    def test_help_exits_cleanly(self, capsys):
        assert cli_dispatch(["--help"]) == 0
        assert "simulate" in capsys.readouterr().out

    def test_numeric_failure_is_code_two(self, tmp_path, capsys):
        # a forced zero ridge makes the pooled scatter singular when p > n
        data = two_class_separable(3, 30, gap=1.0, seed=2)
        train = str(tmp_path / "train.csv")
        save_dataset_csv(train, data)
        cfg = str(tmp_path / "run.cfg")
        with open(cfg, "w") as fh:
            fh.write("mle.ridge = 0.0\n")
        code = cli_dispatch(
            [
                "--config", cfg, "fit", "--method", "mle",
                "--data", train, "--out", str(tmp_path / "model.json"),
            ]
        )
        assert code == 2
        assert "numeric failure:" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        "fit.rel_tol = nan", "fit.jitter_scale = nan", "fit.max_sweeps = -1",
    ])
    def test_out_of_range_fit_settings(self, tmp_path, capsys, line):
        cfg = str(tmp_path / "run.cfg")
        with open(cfg, "w") as fh:
            fh.write(line + "\n")
        code = cli_dispatch([
            "--config", cfg, "fit", "--method", "gplda",
            "--data", _write_training_csv(tmp_path), "--out", str(tmp_path / "m.json"),
        ])
        assert code == 1
        assert line.split("=")[0].strip().removeprefix("fit.") in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_gplda_on_curves_without_within_class_variation(self, tmp_path, capsys):
        labels = np.repeat([1, 2], 5)
        data = gplda.LabeledFunctionalDataset(
            y=np.repeat([[0.0], [1.0]], 5, axis=0) * np.ones(8),
            labels=labels, label_names=(1, 2),
        )
        train = str(tmp_path / "train.csv")
        save_dataset_csv(train, data)
        code = cli_dispatch(
            ["fit", "--method", "gplda", "--data", train, "--out", str(tmp_path / "m.json")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "no within-class variation" in err and "state." not in err

    @pytest.mark.parametrize("method", ["gplda", "pda", "mle", "pca-lda"])
    def test_any_method_on_duplicated_curves(self, method, tmp_path, capsys):
        # copies of one curve per class: the training CSV is refused when
        # it is read, whatever the method
        labels = np.repeat([1, 2], 6)
        curves = np.random.default_rng(4).standard_normal((2, 50))
        data = gplda.LabeledFunctionalDataset(
            y=curves[labels - 1], labels=labels, label_names=(1, 2)
        )
        train = str(tmp_path / "train.csv")
        save_dataset_csv(train, data)
        out = tmp_path / "m.json"
        code = cli_dispatch(["fit", "--method", method, "--data", train, "--out", str(out)])
        assert code == 1
        assert "error: no within-class variation" in capsys.readouterr().err
        assert not out.exists()

    def test_unreadable_data_file(self, tmp_path, capsys):
        code = cli_dispatch(
            [
                "fit", "--method", "mle",
                "--data", str(tmp_path / "absent.csv"),
                "--out", str(tmp_path / "model.json"),
            ]
        )
        assert code == 1
        assert "cannot read" in capsys.readouterr().err

    def test_unreadable_model_file(self, tmp_path, capsys):
        train = _write_training_csv(tmp_path)
        code = cli_dispatch(
            ["predict", "--model", str(tmp_path / "absent.json"), "--data", train]
        )
        assert code == 1
        assert "cannot read" in capsys.readouterr().err


    def test_model_file_that_is_not_an_object(self, tmp_path, capsys):
        train = _write_training_csv(tmp_path)
        model_path = str(tmp_path / "model.json")
        with open(model_path, "w") as fh:
            fh.write("[1, 2]\n")
        assert cli_dispatch(["predict", "--model", model_path, "--data", train]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(_MODEL_BREAKERS))
    def test_broken_model_file(self, tmp_path, capsys, case):
        train = _write_training_csv(tmp_path)
        model_path = str(tmp_path / "model.json")
        assert cli_dispatch(["fit", "--method", "mle", "--data", train, "--out", model_path]) == 0
        with open(model_path) as fh:
            payload = json.load(fh)
        _MODEL_BREAKERS[case](payload)
        with open(model_path, "w") as fh:
            json.dump(payload, fh)
        capsys.readouterr()
        assert cli_dispatch(["predict", "--model", model_path, "--data", train]) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err and "malformed model file" in captured.err
        assert captured.out == ""

    def test_csv_that_is_not_utf8(self, tmp_path, capsys):
        path = str(tmp_path / "train.csv")
        with open(path, "wb") as fh:
            fh.write(b"1,0.5,\xff\xfe\n2,0.25,0.75\n")
        code = cli_dispatch(
            ["fit", "--method", "mle", "--data", path, "--out", str(tmp_path / "m.json")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        path = str(tmp_path / "run.cfg")
        with open(path, "wb") as fh:
            fh.write(b"method = \xff\n")
        assert cli_dispatch(["--config", path, "--print-config"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_alpha_that_is_not_a_number(self, tmp_path, capsys):
        train = _write_training_csv(tmp_path)
        code = cli_dispatch(
            ["fit", "--method", "pda", "--alpha", "abc", "--data", train,
             "--out", str(tmp_path / "m.json")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_alpha_that_is_not_finite(self, tmp_path, capsys):
        train = _write_training_csv(tmp_path)
        model_path = tmp_path / "m.json"
        code = cli_dispatch(
            ["fit", "--method", "pda", "--alpha", "nan", "--data", train,
             "--out", str(model_path)]
        )
        assert code == 1
        message = "config key pda.alpha: cannot parse 'nan' as a finite non-negative number"
        assert message in capsys.readouterr().err
        assert not os.path.exists(model_path)


class TestConsoleEntryPoint:
    def test_installed_script_prints_config(self):
        # The child imports the package under test, also when pytest put
        # it on the path and PYTHONPATH does not name it.
        package_root = os.path.dirname(os.path.dirname(gplda.__file__))
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "gplda.cli", "--print-config"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0
        assert "method = gplda" in result.stdout
        assert result.stderr == ""
