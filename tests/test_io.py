"""Tests for CSV handling, model files, and the flat config format."""

import dataclasses
import json
import os
import tracemalloc
import warnings

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
from gplda import io as io_module
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
    "quote inside an unquoted cell": ('a"b,1,2\nc,3,4\n', False),
    "quote inside an unquoted cell, then a quoted whitespace line": (
        'a"b,1,2\n"p\n  \nq",3,4\n', False
    ),
    "whitespace line inside a quoted label": ('"x\n  \ny",1,2\nb,3,4\n', False),
    "CRLF inside a quoted label": ('"x\r\ny",1,2\r\nb,3,4\r\n', False),
    # Rows of quotes, commas and whitespace: blank unless a cell holds a quote.
    "quotes as labels, quoted blank rows": ('"""",1\n"",""\n"\n",\n" """,2\n', False),
    "a row of quoted quotes": ('a,1\n"""",""""\nb,2\n', False),
    # A quote inside an unquoted cell, such as the label 'q"', then cells
    # quoted over more than one line: the file is cut only where the csv
    # module ends a row (see TestSplitCsv).
    "stray quotes, quoted line breaks": ('a"b,1,2\n"x\ny",3,4\nc,5,6\nd,7,8\n', False),
    "stray quotes, quoted line breaks, CRLF": (
        '#h,"6\n",1,1\r\n"p\n  \nq",2.5,1,2.5\r\n"p\n  \nq",1,1,nan\r\na"b,"5",1,2.5\r\n'
        ' c ,2.5,2.5,"6\n"\r\na"b,2.5,nan,2.5\r\n#h,2.5,1,"5"\r\n"say ""hi""",1,1,1\r\n,,\r\n'
        'a"b, 4 ,2.5,1\r\nq",1,1,2.5\r\nb,2.5,2.5,2.5\r\nq",2.5,1,1\r\na"b,2.5,2.5,2.5\r\n'
        '"a,b",-3e-2,2.5,2.5\r\n',
        False,
    ),
    "stray quotes, quoted line breaks, lone CR": (
        '"p\n  \nq",1\r\r"a,b",1\r  \ra"b,2.5\rb,"6\n"\rq",2.5\r"a,b","6\n"',
        False,
    ),
    "stray quotes, quoted line breaks in values": (
        'q","6\n","6\n"\r\nq",-3e-2,2.5\r\nq", 4 ,-3e-2\r\na,1,nan\r\n#h,2.5,1\r\n',
        False,
    ),
    "stray quotes, quoted line breaks, after a header": (
        'q",1\r\n"x\ny",1\r\n#h,1\r\nq","6\n"\r\n#h,1\r\nq",1\r\n#h,2.5\r\na,1\r\n',
        True,
    ),
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


@pytest.fixture
def forks(monkeypatch):
    """Let the CSV codec see 2 CPUs, and record each fork it makes."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    made = []
    fork = os.fork

    def counted_fork():
        made.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    return made


def _one_part(monkeypatch, call, *args):
    """``call(*args)`` as on a 1-CPU host, which never splits."""
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0})
        return call(*args)


def _read(monkeypatch, split, path):
    """``read_labeled_csv(path)``, in two parts if ``split`` and the file
    is large enough, else as on a 1-CPU host."""
    return read_labeled_csv(path) if split else _one_part(monkeypatch, read_labeled_csv, path)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _one_loadtxt(path, has_header):
    """Labels and values of one ``loadtxt`` call over the data lines of
    ``path``: its lines of more than whitespace, after the header row."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if not line.isspace()][int(has_header):]
    columns = [("label", object), ("values", float, (lines[0].count(","),))]
    table = np.loadtxt(lines, dtype=columns, ndmin=1, delimiter=",", quotechar='"', comments=None)
    return [label.strip() for label in table["label"]], np.ascontiguousarray(table["values"])


def _quoted_labels(lines, labels):
    """Labels with commas and doubled quotes, every 4000th over two lines."""
    names = [("two\nlines" if r % 4000 == 0 else f'a,"{label}"') for r, label in enumerate(labels)]
    cells = ['"' + name.replace('"', '""') + '"' for name in names]
    return [cell + line[line.index(",") :] for cell, line in zip(cells, lines)], names, None


def _bad_last_cell(lines, labels):
    lines[-1] = lines[-1][: lines[-1].rindex(",")] + ",oops\n"
    error = f"row {len(lines)} column {lines[-1].count(',') + 1}: cannot parse 'oops' as a number"
    return lines, labels, error


# How the 20,000-curve file is changed before the memory test reads it:
# (lines, labels) -> (lines, labels, the ParseError message or None).
_VARIANTS = {
    "as written": lambda lines, labels: (lines, labels, None),
    "quoted labels": _quoted_labels,
    "lone CR line ends": lambda lines, labels: ([l[:-1] + "\r" for l in lines], labels, None),
    "a row of blank cells": lambda lines, labels: (
        lines[:9999] + [",,\n"] + lines[9999:], labels, None
    ),
    "a bad cell in the last row": _bad_last_cell,
}


@pytest.fixture(scope="module")
def curves_20000(tmp_path_factory):
    """A written 20,000-curve sim1 test set: its path and dataset."""
    _, data = generate(SimSpec(which="sim1", n_train=20, n_test=20000, seed=4))
    path = str(tmp_path_factory.mktemp("curves") / "curves.csv")
    save_dataset_csv(path, data)
    yield path, data
    os.remove(path)


class TestSplitCsv:
    """A CSV of at least 2 * _ROWS_PER_WRITE rows is formatted and parsed
    in two halves, the second in a forked child, with the output of one
    process."""

    def test_large_set_is_written_and_read_as_by_one_process(self, forks, monkeypatch, tmp_path):
        _, data = generate(SimSpec(which="sim1", n_train=20, n_test=20000, seed=4))
        split, whole = str(tmp_path / "split.csv"), str(tmp_path / "whole.csv")
        save_dataset_csv(split, data)
        _one_part(monkeypatch, save_dataset_csv, whole, data)
        assert len(forks) == 1
        with open(split, "rb") as a, open(whole, "rb") as b:
            assert a.read() == b.read()
        labels, values = read_labeled_csv(split)
        want_labels, want_values = _one_part(monkeypatch, read_labeled_csv, split)
        assert len(forks) == 2
        assert labels == want_labels
        assert values.flags.c_contiguous and values.shape == data.y.shape
        assert values.tobytes() == want_values.tobytes() == data.y.tobytes()
        assert sorted(os.listdir(tmp_path)) == ["split.csv", "whole.csv"]
        _no_child_left()

    def test_quoted_labels_odd_row_count(self, forks, monkeypatch, tmp_path):
        monkeypatch.setattr(io_module, "_ROWS_PER_WRITE", 3)
        base = two_class_separable(7, 5, gap=2.0, seed=2)
        data = validate_dataset(base.y[:13], ["a,b", 'say "hi"', "cr\rhere"] * 4 + ["a,b"])
        path = str(tmp_path / "curves.csv")
        save_dataset_csv(path, data)
        assert len(forks) == 1
        with open(path, encoding="utf-8", newline="") as fh:
            assert fh.read() == csv_module_text(data)
        # Split where the csv module ends a row, like any file.
        loaded = load_csv(path)
        assert len(forks) == 2
        assert loaded.label_names == ("a,b", 'say "hi"', "cr\rhere")
        np.testing.assert_array_equal(loaded.y, data.y)

    def test_below_the_row_threshold_takes_one_part(self, forks, monkeypatch, tmp_path):
        # 14 rows, under the 16 that _ROWS_PER_WRITE = 8 asks for
        monkeypatch.setattr(io_module, "_ROWS_PER_WRITE", 8)
        data = two_class_separable(7, 3, gap=2.0, seed=2)
        path = str(tmp_path / "curves.csv")
        save_dataset_csv(path, data)
        labels, values = read_labeled_csv(path)
        assert forks == []
        assert values.tobytes() == data.y.tobytes()
        assert labels == [str(name) for name in np.array(data.label_names)[data.labels - 1]]

    def test_blank_lines_leave_no_half_without_rows(self, forks, monkeypatch, tmp_path):
        # Four rows, then four blank lines: split by lines, the child's
        # half would hold no data, and NumPy would warn about it.
        monkeypatch.setattr(io_module, "_ROWS_PER_WRITE", 2)
        path = str(tmp_path / "curves.csv")
        with open(path, "w") as fh:
            fh.write("a,1,2\nb,3,4\na,5,6\nb,7,8\n\n\n\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            labels, values = read_labeled_csv(path)
        assert len(forks) == 1
        assert labels == ["a", "b", "a", "b"]
        assert values.tolist() == [[1, 2], [3, 4], [5, 6], [7, 8]]

    # The split offset is the middle byte of the data rows; the halves
    # part at the first line break after it that ends a row.
    @pytest.mark.parametrize(
        "content,has_header,middle_byte",
        [
            ("a,1,2.5\nb,3,4\na,5,6\nb,7,8\n", False, b"\n"),
            ("a,1,2\nb,3,4\n\n \n\t\n\na,5,6\nb,7,8\n", False, b"\t"),
            ("a,1,2\nb,3\t,4\n\u03bb\u03bb\u03bb,5,6\nb,7,8\nb,9,9\n", False, b"\xbb"),
            ("a,1,2\r\nb,3,4\r\n\r\na,5,6\r\nb,7,8\r\n", False, b"\n"),
            ("a,1,2\nb,3,4\na,5,6\nb,7,8\na,9,10", False, b","),
            ("label,\u03bb1,\u03bb2\na,1,2\nb,3,4\na,5,6\nb,7,8\n", True, b"a"),
            ('a,1,2\nb,3,4\n"x\ny",5,6\nb,7,8\n', False, b"\n"),
            ("a,1,2.5\rb,3,4\ra,5,6\rb,7,8\r", False, b"\r"),
        ],
        ids=[
            "on a newline", "in a run of blank lines", "in a multi-byte label",
            "between CR and LF", "no final line break", "after a header",
            "on a line break in a quoted label", "on a lone CR",
        ],
    )
    def test_split_anywhere_reads_as_one_loadtxt(
        self, forks, monkeypatch, tmp_path, content, has_header, middle_byte
    ):
        monkeypatch.setattr(io_module, "_ROWS_PER_WRITE", 2)
        monkeypatch.setattr(io_module, "_located", None)  # each block parses
        raw = content.encode("utf-8")
        begin = raw.index(b"\n") + 1 if has_header else 0
        middle = (begin + len(raw)) // 2
        assert raw[middle : middle + 1] == middle_byte
        path = str(tmp_path / "curves.csv")
        with open(path, "wb") as fh:
            fh.write(raw)
        labels, values = read_labeled_csv(path, has_header=has_header)
        assert len(forks) == 1
        want_labels, want_values = _one_loadtxt(path, has_header)
        assert labels == want_labels
        assert values.flags.c_contiguous and values.shape == want_values.shape
        assert values.tobytes() == want_values.tobytes()
        _no_child_left()

    @pytest.mark.parametrize("split", [True, False], ids=["split", "one process"])
    @pytest.mark.parametrize("rows_per_block", [2, 3])
    @pytest.mark.parametrize("case", sorted(case for case in CSV_CASES if "stray" in case))
    def test_stray_quotes_are_cut_where_the_csv_module_ends_a_row(
        self, forks, monkeypatch, tmp_path, case, rows_per_block, split
    ):
        # A count of quotes would cut these inside a quoted cell, and
        # loadtxt would read both sides without an error.
        monkeypatch.setattr(io_module, "_ROWS_PER_WRITE", rows_per_block)
        content, has_header = CSV_CASES[case]
        path = str(tmp_path / "curves.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(content)
        with monkeypatch.context() as patch:
            if not split:
                patch.setattr(os, "sched_getaffinity", lambda pid: {0})
            labels, values = read_labeled_csv(path, has_header=has_header)
        want_labels, want_values = csv_module_read(path, has_header=has_header)
        assert labels == want_labels
        assert values.tobytes() == want_values.tobytes()
        # Each file has at least 2 * 2 lines, but not all have 2 * 3.
        assert len(forks) == int(split) or rows_per_block == 3
        _no_child_left()

    @pytest.mark.parametrize("split", [True, False], ids=["split", "one process"])
    @pytest.mark.parametrize("variant", sorted(_VARIANTS))
    def test_split_read_traces_its_result_and_a_few_blocks(
        self, forks, monkeypatch, curves_20000, tmp_path, variant, split
    ):
        source, data = curves_20000
        with open(source, encoding="utf-8", newline="") as fh:
            lines = fh.readlines()
        labels = [line.split(",", 1)[0] for line in lines]
        lines, labels, error = _VARIANTS[variant](lines, labels)
        path = str(tmp_path / "curves.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(lines)
        del lines
        tracemalloc.start()
        try:
            try:
                got_labels, values = _read(monkeypatch, split, path)
            except ParseError as exc:
                got_labels, values = str(exc), None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            os.remove(path)  # 38 MB
        assert len(forks) == int(split)
        if error is None:
            assert got_labels == labels
            assert values.tobytes() == data.y.tobytes()
        else:
            assert got_labels == f"{path}: {error}"
        assert peak < data.y.nbytes + 8 * 2**20

    def _located_error(self, monkeypatch, tmp_path, line, bad_row):
        """The ParseErrors of a split and a one-process read of 12 rows
        whose row ``line`` (from 0) is ``bad_row``."""
        monkeypatch.setattr(io_module, "_ROWS_PER_WRITE", 3)
        lines = [f"{'ab'[r % 2]},{r}.5,{r}.25,-{r}\n" for r in range(12)]
        lines[line] = bad_row
        path = str(tmp_path / "curves.csv")
        with open(path, "w") as fh:
            fh.writelines(lines)
        with pytest.raises(ParseError) as split:
            read_labeled_csv(path)
        with pytest.raises(ParseError) as whole:
            _one_part(monkeypatch, read_labeled_csv, path)
        _no_child_left()
        return path, split.value, whole.value

    @pytest.mark.parametrize(
        "bad_row,message,row,column",
        [
            ("b,1.0,oops,3.0\n", "row 9 column 3: cannot parse 'oops' as a number", 9, 3),
            ("b,1.0,2.0\n", "row 9 has 3 columns, expected 4", 9, None),
        ],
    )
    def test_error_in_the_second_half_is_located_as_before(
        self, forks, monkeypatch, tmp_path, bad_row, message, row, column
    ):
        path, split, whole = self._located_error(monkeypatch, tmp_path, 8, bad_row)
        assert len(forks) == 1
        assert str(split) == str(whole) == f"{path}: {message}"
        assert (split.row, split.column) == (row, column)

    @pytest.mark.parametrize(
        "bad_row,message,row,column",
        [
            ("b,1.0,2.0,x\n", "row 2 column 4: cannot parse 'x' as a number", 2, 4),
            ("b,1.0,2.0,3.0,4.0\n", "row 2 has 5 columns, expected 4", 2, None),
        ],
    )
    def test_error_in_the_first_half_is_located_as_before(
        self, forks, monkeypatch, tmp_path, bad_row, message, row, column
    ):
        path, split, whole = self._located_error(monkeypatch, tmp_path, 1, bad_row)
        assert len(forks) == 1
        assert str(split) == str(whole) == f"{path}: {message}"
        assert (split.row, split.column) == (row, column)

    def test_a_fault_is_located_by_blocks_and_probed_in_its_block(self, monkeypatch, tmp_path):
        # 12 rows, 3 a block: three blocks parse in one call each; the
        # fourth fails and is probed row by row, then cell by cell.
        monkeypatch.setattr(io_module, "_ROWS_PER_WRITE", 3)
        lines = [f"{'ab'[r % 2]},{r}.5,{r}.25,-{r}\n" for r in range(11)] + ["b,1.0,oops,3.0\n"]
        path = str(tmp_path / "curves.csv")
        with open(path, "w") as fh:
            fh.writelines(lines)
        calls = []
        parses = io_module._parses

        def spy(rows, **options):
            calls.append((len(rows), sorted(options)))
            return parses(rows, **options)

        monkeypatch.setattr(io_module, "_parses", spy)
        with pytest.raises(ParseError) as located:
            _one_part(monkeypatch, read_labeled_csv, path)
        assert str(located.value) == f"{path}: row 12 column 3: cannot parse 'oops' as a number"
        assert calls == [(3, ["dtype"])] * 4 + [(1, ["dtype"])] * 3 + [(1, ["usecols"])] * 2

    @pytest.mark.parametrize("split", [True, False], ids=["split", "one process"])
    def test_a_fault_before_bytes_not_utf8_in_its_block_is_reported_first(
        self, forks, monkeypatch, tmp_path, split
    ):
        # Row 1001 opens the second block of 1,000 rows; the bytes that
        # are not UTF-8 come 500 rows later, in the same block, but the
        # rows read before them are checked first, as the csv module
        # would read them.
        lines = [b"a,%d.5,%d\n" % (r, r) for r in range(1000)] + [b"b,x,2\n"]
        lines += [b"a,%d.5,%d\n" % (r, r) for r in range(500)] + [b"\xff,1,2\n"]
        lines += [b"a,%d.5,%d\n" % (r, r) for r in range(600)]  # 2,102 lines: split
        path = str(tmp_path / "curves.csv")
        with open(path, "wb") as fh:
            fh.writelines(lines)
        with pytest.raises(ParseError) as located:
            _read(monkeypatch, split, path)
        assert str(located.value) == f"{path}: row 1001 column 2: cannot parse 'x' as a number"
        assert (located.value.row, located.value.column) == (1001, 2)
        assert len(forks) == int(split)
        _no_child_left()

    def test_bytes_not_utf8_in_the_second_half_are_reported_as_before(
        self, forks, monkeypatch, tmp_path
    ):
        # Past the first 8 KiB, which the search for the first row decodes.
        monkeypatch.setattr(io_module, "_ROWS_PER_WRITE", 3)
        path = str(tmp_path / "curves.csv")
        with open(path, "wb") as fh:
            fh.write(b"".join(b"a,%d.5,%d\n" % (r, r) for r in range(2000)) + b"\xff,1,2\n")
        with pytest.raises(ParseError, match="not UTF-8 text") as split:
            read_labeled_csv(path)
        assert len(forks) == 1
        with pytest.raises(ParseError) as whole:
            _one_part(monkeypatch, read_labeled_csv, path)
        with pytest.raises(ParseError) as reference:
            csv_module_read(path)
        assert str(split.value) == str(whole.value) == str(reference.value)
        _no_child_left()

    @pytest.mark.parametrize("split", [True, False], ids=["split", "one process"])
    @pytest.mark.parametrize("change", ["grows", "shrinks by a row", "shrinks mid-row"])
    def test_file_changed_during_the_read_raises(
        self, forks, monkeypatch, tmp_path, change, split
    ):
        monkeypatch.setattr(io_module, "_ROWS_PER_WRITE", 2)
        path = str(tmp_path / "curves.csv")
        with open(path, "w") as fh:
            fh.writelines(f"{'ab'[r % 2]},{r}.5,{r}\n" for r in range(8))
        in_parts = io_module._in_parts

        def change_then_read(*args):
            with open(path, "r+") as fh:
                if change == "grows":
                    fh.seek(0, os.SEEK_END)
                    fh.write("a,9.5,9\n")
                else:
                    fh.truncate(os.path.getsize(path) - (8 if change == "shrinks by a row" else 3))
            return in_parts(*args)

        monkeypatch.setattr(io_module, "_in_parts", change_then_read)
        # A ParseError is a ValidationError: `gplda predict` exits with code 1.
        with pytest.raises(ParseError, match="changed while it was read"):
            _read(monkeypatch, split, path)
        assert len(forks) == int(split)
        _no_child_left()

    @pytest.mark.parametrize(
        "in_child,fail,error,message",
        [
            (True, "raise", RuntimeError, "formatting failed"),
            (False, "raise", RuntimeError, "formatting failed"),
            (True, "exit", ChildProcessError, "second half ended early"),
        ],
        ids=["child raises", "parent raises", "child exits"],
    )
    def test_failed_half_keeps_the_old_file(
        self, forks, monkeypatch, tmp_path, in_child, fail, error, message
    ):
        monkeypatch.setattr(io_module, "_ROWS_PER_WRITE", 2)
        data = two_class_separable(5, 3, gap=2.0, seed=2)
        path = str(tmp_path / "curves.csv")
        with open(path, "w") as fh:
            fh.write("old\n")
        parent = os.getpid()
        format_rows = io_module._format_rows

        def failing_format(*args):
            if (os.getpid() != parent) == in_child:
                if fail == "exit":
                    os._exit(3)
                raise RuntimeError("formatting failed")
            return format_rows(*args)

        monkeypatch.setattr(io_module, "_format_rows", failing_format)
        with pytest.raises(error, match=message):
            save_dataset_csv(path, data)
        assert len(forks) == 1
        assert os.listdir(tmp_path) == ["curves.csv"]
        with open(path) as fh:
            assert fh.read() == "old\n"
        _no_child_left()

    def test_failed_fork_is_raised_by_the_reader(self, monkeypatch, tmp_path):
        # As by the writer: the read is not redone a slower way.
        monkeypatch.setattr(io_module, "_ROWS_PER_WRITE", 2)
        path = str(tmp_path / "curves.csv")
        save_dataset_csv(path, two_class_separable(5, 3, gap=2.0, seed=2))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

        def no_fork():
            raise OSError("cannot fork")

        monkeypatch.setattr(os, "fork", no_fork)
        with pytest.raises(OSError, match="cannot fork"):
            read_labeled_csv(path)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_failed_fork_closes_the_pipe(self, monkeypatch, tmp_path):
        monkeypatch.setattr(io_module, "_ROWS_PER_WRITE", 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

        def no_fork():
            raise OSError("cannot fork")

        monkeypatch.setattr(os, "fork", no_fork)
        data = two_class_separable(5, 3, gap=2.0, seed=2)
        open_files = len(os.listdir("/proc/self/fd"))
        with pytest.raises(OSError, match="cannot fork"):
            save_dataset_csv(str(tmp_path / "curves.csv"), data)
        assert len(os.listdir("/proc/self/fd")) == open_files
        assert os.listdir(tmp_path) == []


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
