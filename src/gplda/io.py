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

On a host where the process may run on 2 or more CPUs, the CSV writer
and reader split a file of at least ``2 * _ROWS_PER_WRITE`` rows in two
at a row boundary: one forked child formats or parses the second half
while the process handles the first.  The output is the same as from one
process, byte for byte and value for value.
"""

from __future__ import annotations

import contextlib
import csv
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


# Rows formatted per write: bounds the text held in memory at once.  A
# file of at least twice as many rows is split between two processes.
_ROWS_PER_WRITE = 1000


def _in_parts(n_rows: int, run: Callable, send: Callable, finish: Callable, splittable: bool):
    """``finish(run(0, n_rows), None)``, or the same work in two parts.

    The rows are split at ``n_rows // 2`` when ``splittable`` holds, this
    process may run on at least 2 CPUs and there are at least
    ``2 * _ROWS_PER_WRITE`` rows.  Then one forked child runs
    ``run(half, n_rows)`` and passes what it returns to ``send(part,
    stream)``, which writes it to a pipe, while this process runs
    ``run(0, half)``; the result is ``finish(first part, stream)``, where
    ``finish`` reads what ``send`` wrote.  An exception in the child is
    raised here.  The child always ends in ``os._exit``; it is killed if
    this process stops before reading all it sent, and reaped before this
    returns or raises.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if not (splittable and cpus >= 2 and n_rows >= 2 * _ROWS_PER_WRITE):
        return finish(run(0, n_rows), None)
    half = n_rows // 2
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
                    part = run(half, n_rows)
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
            first = run(0, half)
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
    if error is not None:
        raise error
    return result


# How NumPy's C reader splits the labeled-curve CSV: cells separated by
# commas and quoted as the csv module quotes them, with "#" as data.
_CSV_CELLS = {"delimiter": ",", "quotechar": '"', "comments": None}


def _csv_rows(lines: list[str]):
    """``(first line, end line, cells)`` of each row of ``lines`` that has a
    cell other than whitespace, split by the csv module.
    """
    reader = csv.reader(lines)
    begin = 0
    for cells in reader:
        if any(cell.strip() for cell in cells):
            yield begin, reader.line_num, cells
        begin = reader.line_num


def read_labeled_csv(path: str, has_header: bool = False):
    """Read a labeled-curve CSV into raw labels and a float matrix.

    Returns ``(labels, values)`` without dataset-level validation, so it
    is usable for prediction inputs of any size.  Rows whose cells are all
    empty or whitespace are skipped; with ``has_header`` so is the first
    other row.  Cells may be quoted as the csv module quotes them, labels
    are stripped, and values are parsed by NumPy's C reader (``loadtxt``).
    Where no data line holds a double quote, each line is one row, and a
    file of ``2 * _ROWS_PER_WRITE`` lines or more may be parsed in two
    halves (``_in_parts``): a forked child sends its half's values as raw
    float64 bytes into the rows of the one (n, p) result.  When a half
    fails to parse, the whole file is read again in this process.
    Parse failures carry one-based row and column positions, counting
    data rows only.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    rows = _csv_rows(lines)
    if has_header:
        next(rows, None)
    first = next(rows, None)
    if first is None:
        raise ParseError(f"{path}: no data rows")
    begin, _, cells = first
    if len(cells) < 2:
        raise ParseError(f"{path}: row 1 has no value columns", row=1)
    columns = np.dtype([("label", object), ("values", float, (len(cells) - 1,))])
    data_lines = lines[begin:]
    # Only a quoted cell can span lines.  Without one, each line is a row,
    # and blank lines are dropped, so that neither half is left without rows.
    one_line_rows = not any('"' in line for line in data_lines)
    if one_line_rows:
        data_lines = [line for line in data_lines if not line.isspace()]

    def parse(start: int, stop: int):
        table = np.loadtxt(data_lines[start:stop], dtype=columns, ndmin=1, **_CSV_CELLS)
        return _labels_and_values(table)

    try:
        return _in_parts(len(data_lines), parse, _send_rows, _join_rows, one_line_rows)
    except ValueError:
        # A row of blank cells, a ragged row or a cell that is no number.
        return _join_rows(_labels_and_values(_read_data_rows(path, data_lines, columns)), None)


def _labels_and_values(table: np.ndarray):
    return [label.strip() for label in table["label"]], table["values"]


def _send_rows(part, stream) -> None:
    """Write ``(labels, values)`` to ``stream`` for ``_join_rows``: the
    labels and the row count as one pickle, then the values as raw
    float64 bytes."""
    labels, values = part
    pickle.dump((labels, len(values)), stream)
    for start in range(0, len(values), _ROWS_PER_WRITE):
        stream.write(values[start : start + _ROWS_PER_WRITE].tobytes())


def _join_rows(first, stream):
    """The labels and one (n, p) float array of the rows of ``first``,
    ``(labels, values)``, followed by those ``_send_rows`` wrote to
    ``stream``, if it is not None.  The array is allocated once, and the
    sent values are read straight into its rows."""
    labels, head = first
    rest_labels, rest = pickle.load(stream) if stream is not None else ([], 0)
    values = np.empty((len(head) + rest, head.shape[1]))
    values[: len(head)] = head
    tail = values[len(head) :]
    if rest and stream.readinto(tail) != tail.nbytes:
        raise ChildProcessError("the process handling the second half ended early")
    return labels + rest_labels, values


def _read_data_rows(path: str, lines: list[str], columns: np.dtype) -> np.ndarray:
    """Read the data rows in ``lines`` again, split into rows by the csv module.

    The csv module drops the blank rows and finds a ragged one; the values
    still come from ``loadtxt``, which the first cell it cannot parse stops.
    """
    expected = 1 + columns["values"].shape[0]
    spans = []
    for r, (begin, end, cells) in enumerate(_csv_rows(lines), start=1):
        if len(cells) != expected:
            _raise_on_bad_cell(path, lines, spans, expected)
            raise ParseError(
                f"{path}: row {r} has {len(cells)} columns, expected {expected}", row=r
            )
        spans.append((begin, end))
    kept = [line for begin, end in spans for line in lines[begin:end]]
    try:
        return np.loadtxt(kept, dtype=columns, ndmin=1, **_CSV_CELLS)
    except ValueError as exc:
        _raise_on_bad_cell(path, lines, spans, expected)
        raise ParseError(f"{path}: {exc}") from exc


def _raise_on_bad_cell(path: str, lines: list[str], spans: list, expected: int) -> None:
    """Raise a ParseError at the first value cell, in the rows that
    ``spans`` delimit in ``lines``, that ``loadtxt`` cannot parse.
    """
    for r, (begin, end) in enumerate(spans, start=1):
        row = lines[begin:end]
        if _parses(row, range(1, expected)):
            continue
        c = next((c for c in range(1, expected) if not _parses(row, c)), None)
        if c is not None:
            cell = next(csv.reader(row))[c]
            raise ParseError(
                f"{path}: row {r} column {c + 1}: cannot parse {cell.strip()!r} as a number",
                row=r,
                column=c + 1,
            )


def _parses(row: list[str], columns) -> bool:
    try:
        np.loadtxt(row, usecols=columns, **_CSV_CELLS)
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
    file, then appends the child's text.  The file is the same either way,
    and on any failure the old file stays and no temp file is left.
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
            rest.seek(0)
            shutil.copyfileobj(rest, fh)

        _in_parts(dataset.n, write, lambda part, stream: None, append_rest, True)


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
