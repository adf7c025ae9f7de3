"""Tests for the repository tools under ``tools/``."""

import runpy

import numpy as np
import pytest

from gplda import FIRST_DIFF, FitConfig, build_penalty, gplda_fit

from helpers import load_tool

cli_scale = load_tool("cli_scale")
count_code_lines = load_tool("count_code_lines")
fit_digest = load_tool("fit_digest")
image_scale = load_tool("image_scale")
line_coverage = load_tool("line_coverage")

FIXTURE = '''"""Module docstring,
on two lines."""

import math  # a trailing comment keeps its line


# a comment-only line
class Shape:
    """Class docstring."""

    sides = 0

    def area(self):
        """Function docstring,

        with a blank line inside."""
        text = """a multi-line string
        that is not a docstring"""
        return (math.pi
                * 2)
'''


def test_counts_code_token_lines_only():
    # import, class, sides, def, the two string lines, return and its
    # continuation: eight lines.
    assert count_code_lines.code_lines(FIXTURE) == 8


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\ny = 2\n")
    assert count_code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "    8 a.py", "    2 b.py", "   10 total",
    ]


def _zero_jitter_fit_digests():
    curves = fit_digest.shifted_normal_curves(80, 10, seed=0)
    config = FitConfig(penalty=build_penalty(FIRST_DIFF, 10), jitter_scale=0.0)
    return fit_digest.gplda_digests(curves, config)


def test_fit_digest_is_stable_across_calls():
    first = _zero_jitter_fit_digests()
    assert list(first) == ["GPLDA-fit", "GPLDA-resid", "GPLDA"]
    assert all(len(value) == 64 for value in first.values())
    assert _zero_jitter_fit_digests() == first


def test_fit_digest_sees_a_one_ulp_change_in_a_direction():
    curves = fit_digest.shifted_normal_curves(80, 10, seed=0)
    model, _ = gplda_fit(curves)
    directions = model.directions.copy()
    assert fit_digest.digest(directions) == fit_digest.digest(model.directions)
    directions[0, 3] = np.nextafter(directions[0, 3], np.inf)
    assert fit_digest.digest(directions) != fit_digest.digest(model.directions)


COVERAGE_FIXTURE = '''"""Module docstring."""

import math

LIMIT = 3


def clip(value):
    """Function docstring."""
    global LIMIT
    try:
        if value > LIMIT:
            return (LIMIT
                    + math.floor(0.5))
        elif value < 0:
            return 0
    except TypeError:
        raise
    return value


class Box:
    """Class docstring."""

    size = clip(5)
'''


def test_statements_leave_out_docstrings_headers_and_imports():
    # LIMIT, the if header, the two-line return, the elif header, return 0,
    # raise, return value and size; not the try, global, def or class lines.
    assert line_coverage.statements(COVERAGE_FIXTURE) == [
        (5,), (12,), (13, 14), (15,), (16,), (18,), (19,), (25,),
    ]


def test_traced_run_reports_the_branches_it_missed(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(COVERAGE_FIXTURE)
    with line_coverage.LineRecorder(tmp_path) as recorder:
        runpy.run_path(str(path))
    executed = recorder.executed[str(path.resolve())]
    assert line_coverage.unrun_lines(COVERAGE_FIXTURE, executed) == [15, 16, 18, 19]
    assert line_coverage.report(tmp_path, recorder.executed) == [
        "    4 fixture.py: 15-16, 18-19",
    ]
    assert line_coverage.unrun_lines(COVERAGE_FIXTURE, set()) == [
        5, 12, 13, 15, 16, 18, 19, 25,
    ]


FORK_FIXTURE = '''import os

pid = os.fork()
if pid == 0:
    in_child = True
    os._exit(0)
os.waitpid(pid, 0)
'''


def test_forked_children_report_their_lines(tmp_path):
    path = tmp_path / "forking.py"
    path.write_text(FORK_FIXTURE)
    with line_coverage.LineRecorder(tmp_path) as alone:
        runpy.run_path(str(path))
    assert line_coverage.unrun_lines(FORK_FIXTURE, alone.executed[str(path.resolve())]) == [5, 6]
    with line_coverage.LineRecorder(tmp_path) as recorder:
        with line_coverage.forked_children(recorder):
            runpy.run_path(str(path))
    assert line_coverage.unrun_lines(FORK_FIXTURE, recorder.executed[str(path.resolve())]) == []


def test_image_scale_prints_one_line_per_grid_and_method(capsys):
    # Each line comes from its own process.
    assert image_scale.main(["--sides", "6", "--methods", "GPLDA,PDA", "--n", "20"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "grid method n seconds peak_rss_mib"
    rows = [line.split() for line in lines[1:]]
    assert [row[:3] for row in rows] == [["6x6", "GPLDA", "20"], ["6x6", "PDA", "20"]]
    assert all(float(row[3]) > 0 and float(row[4]) > 0 for row in rows)


def test_image_scale_refuses_an_unknown_method():
    with pytest.raises(SystemExit):
        image_scale.main(["--sides", "6", "--methods", "LDA"])


def test_cli_scale_prints_each_command_with_its_peaks(capsys):
    # Each command runs in its own process.
    assert cli_scale.main(["--n-test", "400"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "command n_test seconds own_rss_mib children_rss_mib"
    rows = [line.split() for line in lines[1:]]
    assert [row[:2] for row in rows] == [["simulate", "400"], ["fit", "400"], ["predict", "400"]]
    assert all(float(row[2]) > 0 and float(row[3]) > 0 and float(row[4]) >= 0 for row in rows)
