"""File formats: labeled-curve CSV, model files, and run configuration.

CSV rows are ``label, v1, ..., vp``.  Model files are JSON with float
values written in full precision so a save/load round trip reproduces
the model bit for bit.  Run configuration is a flat ``key = value`` text
format with dotted section prefixes, designed to diff cleanly; every
field of :class:`RunConfig` has a printable default, and one table of
(key, field, codec) rows drives both the formatter and the parser, so
the pair is an exact round trip.

All file writes go through a temporary file in the target directory
followed by an atomic rename, so readers never observe partial files.

The CSV writer formats ``_ROWS_PER_WRITE`` rows at a time.  The reader
has one path for every file: it reads ``_ROWS_PER_WRITE`` lines at a
time, a block ending only where the csv module ends a row (a line break
outside a quoted cell), drops the rows of blank cells, and parses each
block straight into its rows of the one values array, so neither holds
the file's text.  A file whose blocks fail to parse is read again by the
csv module's rows, a block at a time, to locate the fault.  On a host
where the process may run on 2 or more CPUs, a file of at least
``2 * _ROWS_PER_WRITE`` rows (lines, for the reader) is handled in two
halves: the writer splits the rows in two, the reader the bytes at the
first record boundary after the middle one, and one forked child formats
or reads the second half while the process handles the first.  The
output is the same as from one process, byte for byte and value for
value.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import os
import pickle
import shutil
import tempfile
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field, fields

import numpy as np

from .discriminant import DiscriminantModel
from .exceptions import ParseError, ValidationError
from .model import FitConfig, HyperParams, LabeledFunctionalDataset, validate_dataset

MODEL_FORMAT = "gplda-model-v1"


@contextlib.contextmanager
def _atomic_file(path: str):
    """Yield a text file that replaces ``path`` when the block ends, and
    is removed, leaving ``path`` as it was, when the block raises."""
    directory = os.path.dirname(os.path.abspath(path))
    handle, temp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(temp_path, path)
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise


def atomic_write_text(path: str, text: str | Iterable[str]) -> None:
    """Write the whole file or nothing: temp file plus atomic rename.

    ``text`` is the file's text, or an iterable of pieces written in order.
    """
    with _atomic_file(path) as fh:
        fh.writelines([text] if isinstance(text, str) else text)


# Rows (or lines) formatted or parsed at a time: bounds the text held in
# memory at once.  A file of at least twice as many is split between two
# processes.
_ROWS_PER_WRITE = 1000


def _in_parts(count: int, bounds: tuple, run: Callable, send: Callable, finish: Callable):
    """``finish(run(start, stop), None)``, or the same work in two parts.

    ``bounds`` is ``(start, middle, stop)``.  The work is split at
    ``middle`` when this process may run on at least 2 CPUs and ``count``,
    the rows or lines from ``start`` to ``stop``, is at least
    ``2 * _ROWS_PER_WRITE``.  Then one forked child runs ``run(middle,
    stop)`` and passes what it returns to ``send(part, stream)``, which
    writes it to a pipe, while this process runs ``run(start, middle)``;
    the result is ``finish(first part, stream)``, where ``finish`` reads
    what ``send`` wrote.  An exception in the child is raised here.  The
    child always ends in ``os._exit``; it is killed if this process stops
    before reading all it sent, and reaped before this returns or raises.
    """
    start, middle, stop = bounds
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if not (cpus >= 2 and count >= 2 * _ROWS_PER_WRITE):
        return finish(run(start, stop), None)
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            with os.fdopen(write_end, "wb") as stream:
                try:
                    part = run(middle, stop)
                except Exception as exc:
                    pickle.dump(exc, stream)
                else:
                    pickle.dump(None, stream)
                    send(part, stream)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    received = False
    try:
        with os.fdopen(read_end, "rb") as stream:
            first = run(start, middle)
            try:
                error = pickle.load(stream)
            except (EOFError, pickle.UnpicklingError):
                error = ChildProcessError("the process handling the second half ended early")
            result = finish(first, stream) if error is None else None
            received = True
    finally:
        if not received:
            import signal  # here, so that importing gplda loads no new module

            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    if error is None:
        return result
    try:
        raise error
    finally:
        # The traceback holds this frame: without this, the error and the
        # frame, with the results it holds, would be freed only by the
        # cycle collector.
        del error


# How NumPy's C reader splits the labeled-curve CSV: cells separated by
# commas and quoted as the csv module quotes them, with "#" as data.
_CSV_CELLS = {"delimiter": ",", "quotechar": '"', "comments": None}

# Bytes read at a time while a file is scanned for line breaks and quotes.
_SCAN_BYTES = 1 << 20


def _kept(lines: Iterable[str], into: list):
    """``lines``, each appended to ``into`` as it is given out."""
    for line in lines:
        into.append(line)
        yield line


def _blank(cells: list[str]) -> bool:
    return not any(cell.strip() for cell in cells)


def _records(lines: Iterable[str]):
    """``(lines, blank)`` of each row of ``lines`` as the csv module splits
    them: the lines it spans, and whether its cells are all empty or
    whitespace.  A row that starts on a line without a double quote is
    that line, found without the csv module."""
    lines = iter(lines)
    for line in lines:
        if '"' not in line:
            # A line is blank only if it starts with a comma or whitespace.
            yield [line], (line[0] == "," or line[0].isspace()) and _blank(line.split(","))
            continue
        row: list[str] = []
        # Whether a row ends at a line break depends only on the line up to
        # its last quote, so the csv module is given each line that far.
        row_lines = _kept(itertools.chain([line], lines), row)
        next(csv.reader(text[: text.rfind('"') + 1] for text in row_lines))
        # A character other than a comma, a quote or whitespace is in a cell.
        text = "".join(row).replace(",", "").replace('"', "")
        yield row, not text.strip() and _blank(next(csv.reader(row)))


def _width(row: list[str]) -> int:
    """The count of cells of a ``_records`` row as the csv module splits
    it; that of a line without a double quote is counted by its commas."""
    if len(row) == 1 and '"' not in row[0]:
        return row[0].count(",") + 1
    return len(next(csv.reader(row)))


def _data_rows(path: str, lines: Iterable[str], has_header: bool):
    """``(lines, width)`` of each ``_records`` row of ``lines`` that is not
    blank, with its count of cells (``_width``), after the header row if
    ``has_header``.  Raises ParseError, when the first is asked for, if
    there is none or it has no value cell.
    """
    rows = ((row, _width(row)) for row, blank in _records(lines) if not blank)
    if has_header:
        next(rows, None)
    first = next(rows, None)
    if first is None:
        raise ParseError(f"{path}: no data rows")
    if first[1] < 2:
        raise ParseError(f"{path}: row 1 has no value columns", row=1)
    yield first
    yield from rows


def _columns(n_cells: int) -> np.dtype:
    """The ``loadtxt`` dtype of rows of ``n_cells`` cells: a label, then values."""
    return np.dtype([("label", object), ("values", float, (n_cells - 1,))])


def read_labeled_csv(path: str, has_header: bool = False):
    """Read a labeled-curve CSV into raw labels and a float matrix.

    Returns ``(labels, values)`` without dataset-level validation, so it
    is usable for prediction inputs of any size.  Rows whose cells are all
    empty or whitespace are skipped; with ``has_header`` so is the first
    other row.  Cells may be quoted as the csv module quotes them, labels
    are stripped, and values are parsed by NumPy's C reader (``loadtxt``).

    Every file is read by one path.  A record is a row as the csv module
    splits the file: a CR, LF or CRLF line break ends one unless a quoted
    cell spans it.  A record that starts on a line without a double quote
    is that line, found without the csv module.  The records are read
    ``_ROWS_PER_WRITE`` lines at a time, blank ones dropped, and each
    block is parsed by one ``loadtxt`` call straight into its rows of the
    one (n, p) result, which is allocated from a count of the line breaks.
    A file of ``2 * _ROWS_PER_WRITE`` lines or more may be read in two
    halves split at the first record boundary after its middle byte
    (``_in_parts``): a forked child reads the second byte range and sends
    its values as raw float64 bytes into the rows after the first half's.
    So no more than one block of the file's text is held at a time.  A
    block that fails to parse sends the read to one pass, in this process,
    over the csv module's rows with one ``loadtxt`` call per block, and
    one per row only in the block that fails, which locates the failure:
    parse failures carry one-based row and column positions, counting
    data rows only.  A file that changes while it is read raises
    ParseError too.
    """
    try:
        return _read_in_blocks(path, has_header)
    except ParseError:
        raise
    except ValueError as exc:
        # Not UTF-8, a ragged row or a cell that is no number.  Only the
        # message is kept, so that the blocks' values are freed here.
        error = str(exc)
    raise _located(path, has_header, error)


def _scan(path: str, begin: int) -> tuple[int, int, bool]:
    """The count of line breaks from byte ``begin`` of ``path`` to its
    end, plus one for a last line without one, the end's offset, and
    whether those bytes hold a double quote."""
    count, quoted, last = 0, False, b""
    with open(path, "rb") as raw:
        raw.seek(begin)
        while chunk := raw.read(_SCAN_BYTES):
            count += chunk.count(b"\n")
            if b"\r" in chunk:
                count += chunk.count(b"\r") - chunk.count(b"\r\n")
            quoted = quoted or b'"' in chunk
            last = chunk[-1:]
        return count + (last not in b"\r\n"), raw.tell(), quoted


def _middle(path: str, begin: int, end: int, quoted: bool) -> int:
    """The first record boundary after the middle byte of bytes ``begin``
    to ``end`` of ``path``, or ``end``.  Without a quote every line break
    is one, so the search starts at the middle byte."""
    at = (begin + end) // 2
    start = begin if quoted else at
    with open(path, "rb") as raw:
        raw.seek(start)
        # One character per byte, so that a line's length is its byte
        # count; the csv module's quotes, commas and line breaks are ASCII.
        with io.TextIOWrapper(raw, encoding="latin-1", newline="") as lines:
            for record, _ in _records(lines):
                start += sum(map(len, record))
                if start > at:
                    return start
    return end


def _read_in_blocks(path: str, has_header: bool):
    """``read_labeled_csv`` by blocks of records, in one or two parts."""
    seen: list[str] = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            first, width = next(_data_rows(path, _kept(fh, seen), has_header))
        begin = sum(len(line.encode("utf-8")) for line in seen[: len(seen) - len(first)])
        count, end, quoted = _scan(path, begin)
        middle = _middle(path, begin, end, quoted)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    columns = _columns(width)
    values = np.empty((count, width - 1))

    def parse(start: int, stop: int):
        labels = _parse_records(path, start, stop, columns, values)
        return labels, values[: len(labels)]

    def join(first_part, stream):
        labels, rows = first_part
        rest_labels, rest = pickle.load(stream) if stream is not None else ([], 0)
        tail = values[len(rows) : len(rows) + rest]
        if len(tail) != rest or os.path.getsize(path) != end:
            raise ParseError(f"{path} changed while it was read")
        if rest and stream.readinto(tail) != tail.nbytes:
            raise ChildProcessError("the process handling the second half ended early")
        return labels + rest_labels, values[: len(rows) + rest]

    return _in_parts(count, (begin, middle, end), parse, _send_rows, join)


def _parse_records(path: str, start: int, stop: int, columns: np.dtype, into: np.ndarray) -> list:
    """The labels of the rows in bytes ``start`` to ``stop`` of ``path``,
    whose values go into the leading rows of ``into``.

    ``start`` and ``stop`` are record boundaries.  The records that are
    not blank are parsed ``_ROWS_PER_WRITE`` lines, or a few more, at a
    time.
    """
    labels, block = [], []
    with open(path, "rb") as raw:
        raw.seek(start)
        with io.TextIOWrapper(raw, encoding="utf-8", newline="") as lines:
            for record, blank in _records(lines):
                if start >= stop:
                    break
                # A full block is parsed once a record follows it, so that
                # a file cut short ends in the check below.
                if len(block) >= _ROWS_PER_WRITE:
                    labels += _parse_block(block, columns, into[len(labels) :])
                    block = []
                start += len("".join(record).encode("utf-8"))
                block += [] if blank else record
    if start != stop:
        raise ParseError(f"{path} changed while it was read")
    return labels + _parse_block(block, columns, into[len(labels) :])


def _parse_block(lines: list[str], columns: np.dtype, into: np.ndarray) -> list:
    """The labels of the rows of ``lines``, whose values go into the
    leading rows of ``into``."""
    if not lines:
        return []
    table = np.loadtxt(lines, dtype=columns, ndmin=1, **_CSV_CELLS)
    into[: len(table)] = table["values"]
    return [label.strip() for label in table["label"]]


def _send_rows(part, stream) -> None:
    """Write ``(labels, values)`` to ``stream``: the labels and the row
    count as one pickle, then the values as raw float64 bytes."""
    labels, values = part
    pickle.dump((labels, len(values)), stream)
    for start in range(0, len(values), _ROWS_PER_WRITE):
        stream.write(values[start : start + _ROWS_PER_WRITE].tobytes())


def _located(path: str, has_header: bool, error: str) -> ParseError:
    """The ParseError for ``error``, which a block of ``path`` raised: at
    the first ragged row or cell ``loadtxt`` cannot parse, found in this
    process by the csv module's rows, ``_ROWS_PER_WRITE`` at a time.

    The file is decoded from its first byte as the csv module decodes it,
    so bytes that are not UTF-8 are reported where they would be there,
    after any fault in the rows read before them.
    """
    start, expected, rows = 1, 0, []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            for row in _data_rows(path, fh, has_header):
                expected = expected or row[1]
                rows.append(row)
                if len(rows) == _ROWS_PER_WRITE:
                    if fault := _fault(path, rows, start, expected):
                        return fault
                    start, rows = start + len(rows), []
    except OSError as exc:
        return ParseError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        return _fault(path, rows, start, expected) or ParseError(f"{path}: not UTF-8 text: {exc}")
    return _fault(path, rows, start, expected) or ParseError(f"{path}: {error}")


def _fault(path: str, rows: list, start: int, expected: int) -> ParseError | None:
    """The ParseError of the first of ``rows``, ``(lines, width)`` of the
    data rows numbered from ``start``, that has other than ``expected``
    cells or a cell ``loadtxt`` cannot parse, or None.  The rows before
    the first ragged one are parsed by one ``loadtxt`` call, and one at a
    time only when it fails, so a ragged row is reported only after the
    rows before it have parsed."""
    even = next((i for i, (_, width) in enumerate(rows) if width != expected), len(rows))
    lines = [line for record, _ in rows[:even] for line in record]
    if lines and not _parses(lines, dtype=_columns(expected)):
        for r, (record, _) in enumerate(rows[:even], start=start):
            if not _parses(record, dtype=_columns(expected)):
                for c in range(1, expected):
                    if not _parses(record, usecols=c):
                        cell = next(csv.reader(record))[c].strip()
                        message = f"row {r} column {c + 1}: cannot parse {cell!r} as a number"
                        return ParseError(f"{path}: {message}", row=r, column=c + 1)
    if even < len(rows):
        r, width = start + even, rows[even][1]
        return ParseError(f"{path}: row {r} has {width} columns, expected {expected}", row=r)
    return None


def _parses(lines: list[str], **options) -> bool:
    """Whether one ``loadtxt`` call parses ``lines`` with ``options``."""
    try:
        np.loadtxt(lines, **options, **_CSV_CELLS)
    except ValueError:
        return False
    return True


def load_csv(path: str, has_header: bool = False) -> LabeledFunctionalDataset:
    """Load and validate a labeled-curve CSV as a training dataset.

    The checks are ``validate_dataset``'s, so a file whose curves leave
    no within-class covariance estimable (fewer curves than classes plus
    one, or every curve equal to its class mean) is refused when it is
    read, with a ``ValidationError``.
    """
    labels, values = read_labeled_csv(path, has_header=has_header)
    return validate_dataset(values, labels)


def _csv_cell(text: str) -> str:
    """``text`` as the csv module writes a cell: quoted, with its quotes
    doubled, if it holds a comma, a double quote or a line break.
    """
    if any(char in text for char in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _format_rows(names: list[str], labels: np.ndarray, rows: np.ndarray) -> str:
    """CSV text of ``rows``, each after its label's cell ``names[label - 1]``,
    with values in Python's shortest round-trip form."""
    return "".join(
        f"{names[label - 1]},{','.join(map(repr, row))}\n"
        for label, row in zip(labels.tolist(), rows.tolist())
    )


def save_dataset_csv(path: str, dataset: LabeledFunctionalDataset) -> None:
    """Write a dataset in the labeled-curve CSV format.

    Values are written in Python's shortest round-trip form, so reading
    the file back gives the same floats.  Rows are formatted and written
    ``_ROWS_PER_WRITE`` at a time.  A dataset of ``2 * _ROWS_PER_WRITE``
    rows or more may be written in two halves (``_in_parts``): a forked
    child writes the second half to an unnamed temp file in the target
    directory, and this process writes the first half to the atomic temp
    file, then appends the bytes of the child's text.  The file is the
    same either way, and on any failure the old file stays and no temp
    file is left.
    """
    names = [_csv_cell(f"{name}") for name in dataset.label_names]
    directory = os.path.dirname(os.path.abspath(path))
    with _atomic_file(path) as fh, tempfile.TemporaryFile(
        "w+", encoding="utf-8", newline="", dir=directory
    ) as rest:

        def write(start: int, stop: int) -> None:
            out = rest if start else fh
            for begin in range(start, stop, _ROWS_PER_WRITE):
                end = min(begin + _ROWS_PER_WRITE, stop)
                out.write(_format_rows(names, dataset.labels[begin:end], dataset.y[begin:end]))
            # The child ends in os._exit, which drops text not yet flushed.
            out.flush()

        def append_rest(first, stream) -> None:
            # The child's text is copied as the bytes it wrote.
            fh.flush()
            rest.buffer.seek(0)
            shutil.copyfileobj(rest.buffer, fh.buffer)

        bounds = (0, dataset.n // 2, dataset.n)
        _in_parts(dataset.n, bounds, write, lambda part, stream: None, append_rest)


def save_model(path: str, model: DiscriminantModel) -> None:
    """Serialize a fitted discriminant to a JSON model file.

    Stores the method tag, class labels, directions, projected centroids,
    the penalty descriptor, and the fit's warnings as ``notes``.  Floats
    keep full precision, so loading reproduces them exactly.
    """
    payload = {
        "format": MODEL_FORMAT,
        "method_tag": model.method_tag,
        "class_labels": list(model.class_labels),
        "directions": [[float(v) for v in row] for row in model.directions],
        "projected_centroids": [
            [float(v) for v in row] for row in model.projected_centroids
        ],
        "penalty": model.penalty,
        "notes": list(model.warnings),
    }
    # NumPy scalars, such as np.int64 labels, are written as Python values.
    atomic_write_text(path, json.dumps(payload, indent=1, default=np.generic.item) + "\n")


def _is_label(value) -> bool:
    return isinstance(value, (str, int, float)) and not isinstance(value, bool)


def load_model(path: str) -> DiscriminantModel:
    """Load a model file written by ``save_model``.

    The within covariance and eigenvalues are not stored, so the loaded
    model predicts but does not expose them; older files without ``notes``
    load with no warnings.  Raises ``ParseError`` unless the directions
    are a finite k x p array (k >= 1), the class labels are c >= 2 strings
    or numbers, and the projected centroids are a finite c x k array.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: not a valid model file: {exc}") from exc
    if not isinstance(payload, dict):
        raise ParseError(f"{path}: not a valid model file: expected a JSON object")
    if payload.get("format") != MODEL_FORMAT:
        raise ParseError(
            f"{path}: unrecognized model format {payload.get('format')!r}"
        )
    try:
        directions = np.asarray(payload["directions"], dtype=float)
        centroids = np.asarray(payload["projected_centroids"], dtype=float)
        labels = payload["class_labels"]
        model = DiscriminantModel(
            method_tag=payload["method_tag"],
            directions=directions,
            projected_centroids=centroids,
            class_labels=tuple(labels),
            penalty=payload.get("penalty"),
            warnings=tuple(payload.get("notes", [])),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed model file: {exc}") from exc
    if directions.ndim != 2 or directions.size == 0 or not np.isfinite(directions).all():
        problem = "directions must be a finite k x p array with k >= 1"
    elif not (isinstance(labels, list) and len(labels) >= 2 and all(map(_is_label, labels))):
        problem = "class_labels must hold at least 2 strings or numbers"
    elif centroids.shape != (len(labels), model.k) or not np.isfinite(centroids).all():
        problem = f"projected_centroids must be a finite {len(labels)} x {model.k} array"
    else:
        return model
    raise ParseError(f"{path}: malformed model file: {problem}")


@dataclass(frozen=True)
class RunConfig:
    """Everything a CLI run needs, with printable defaults.

    ``penalty_kind`` of ``"auto"`` resolves to first differences for the
    posterior method and second differences for the penalized baseline.
    ``pda_alpha`` is a number or ``"cv"`` for cross-validated selection;
    ``mle_ridge`` is a number or ``"auto"`` for the singularity-dependent
    default.
    """

    method: str = "gplda"
    k: int | None = None
    seed: int = 0
    data: str | None = None
    out: str | None = None
    penalty_kind: str = "auto"
    penalty_grid: tuple[int, int] | None = None
    pda_alpha: float | str = "cv"
    pca_q: int = 1
    mle_ridge: float | str = "auto"
    hyper: HyperParams = field(default_factory=HyperParams)
    max_sweeps: int = FitConfig.max_sweeps
    rel_tol: float = FitConfig.rel_tol
    jitter_scale: float = FitConfig.jitter_scale
    bench_which: str = "sim1"
    bench_methods: tuple[str, ...] = ("gplda", "pda")
    bench_n_values: tuple[int, ...] = (50, 200)
    bench_reps: int = 30
    bench_n_test: int = 200


def default_run_config() -> RunConfig:
    return RunConfig()


def _format_float(value: float) -> str:
    return repr(float(value))


def _parse_grid(raw: str) -> tuple[int, int]:
    rows, cols = raw.lower().split("x")
    return int(rows), int(cols)


def _finite_non_negative(raw: str) -> float:
    value = float(raw)
    if not (np.isfinite(value) and value >= 0):
        raise ValueError(f"{raw!r} is not finite and non-negative")
    return value


def _or(codec, value, *words):
    """``codec`` plus ``value``, which is read from any of ``words`` and
    written as the first.
    """
    parse, fmt, what = codec
    return (
        lambda raw: value if raw in words else parse(raw),
        lambda v: words[0] if v == value else fmt(v),
        f"{what} or {words[0]!r}" if words[0] else what,
    )


def _sequence(codec):
    """Codec for a comma-separated tuple of ``codec`` values."""
    parse, fmt, what = codec
    return (
        lambda raw: tuple(parse(part.strip()) for part in raw.split(",") if part.strip()),
        lambda values: ",".join(fmt(v) for v in values),
        f"a comma-separated list, each {what}",
    )


# A codec is (parse, format, description): parse raises ValueError on text
# that is not of the described form.
_TEXT = (str, str, "text")
_INT = (int, str, "an integer")
_FLOAT = (float, _format_float, "a number")
_WEIGHT = (_finite_non_negative, _format_float, "a finite non-negative number")
_GRID = (_parse_grid, lambda grid: "%dx%d" % grid, "ROWSxCOLS")

# (key, RunConfig attribute, codec) in output order.  A "hyper.<name>"
# attribute is a field of RunConfig.hyper.
_CONFIG_FIELDS = (
    ("method", "method", _TEXT),
    ("k", "k", _or(_INT, None, "auto", "")),
    ("seed", "seed", _INT),
    ("data", "data", _or(_TEXT, None, "")),
    ("out", "out", _or(_TEXT, None, "")),
    ("penalty.kind", "penalty_kind", _TEXT),
    ("penalty.grid", "penalty_grid", _or(_GRID, None, "")),
    ("pda.alpha", "pda_alpha", _or(_WEIGHT, "cv", "cv")),
    ("pca.q", "pca_q", _INT),
    ("mle.ridge", "mle_ridge", _or(_WEIGHT, "auto", "auto")),
    *((f"hyper.{f.name}", f"hyper.{f.name}", _FLOAT) for f in fields(HyperParams)),
    ("fit.max_sweeps", "max_sweeps", _INT),
    ("fit.rel_tol", "rel_tol", _WEIGHT),
    ("fit.jitter_scale", "jitter_scale", _WEIGHT),
    ("bench.which", "bench_which", _TEXT),
    ("bench.methods", "bench_methods", _sequence(_TEXT)),
    ("bench.n_values", "bench_n_values", _sequence(_INT)),
    ("bench.reps", "bench_reps", _INT),
    ("bench.n_test", "bench_n_test", _INT),
)
_FIELDS_BY_KEY = {key: (attribute, codec) for key, attribute, codec in _CONFIG_FIELDS}


def parse_field(key: str, raw: str):
    """Parse one config value as ``(RunConfig attribute, value)``; errors name the key."""
    if key not in _FIELDS_BY_KEY:
        raise ParseError(f"unknown config key {key!r}")
    attribute, (parse, _, what) = _FIELDS_BY_KEY[key]
    try:
        return attribute, parse(raw.strip())
    except ValueError:
        raise ParseError(f"config key {key}: cannot parse {raw.strip()!r} as {what}") from None


def format_config(config: RunConfig) -> str:
    """Render a config as flat ``key = value`` lines."""
    lines = []
    for key, attribute, (_, fmt, _) in _CONFIG_FIELDS:
        owner = config
        for name in attribute.split("."):
            owner = getattr(owner, name)
        lines.append(f"{key} = {fmt(owner)}")
    return "\n".join(lines) + "\n"


def parse_config(text: str) -> RunConfig:
    """Parse the flat key-value format back into a RunConfig.

    Unknown keys raise a parse error naming the key; missing keys keep
    their defaults, so partial configs are valid.
    """
    values: dict = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError(f"config line {line_no}: expected 'key = value'", row=line_no)
        key, _, raw = stripped.partition("=")
        attribute, value = parse_field(key.strip(), raw)
        values[attribute] = value
    hyper = {a[6:]: values.pop(a) for a in list(values) if a.startswith("hyper.")}
    if hyper:
        values["hyper"] = HyperParams(**hyper)
    return RunConfig(**values)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"config file {path}: not UTF-8 text: {exc}") from exc
    return parse_config(text)
