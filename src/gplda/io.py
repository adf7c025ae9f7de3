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
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from dataclasses import dataclass, field, fields

import numpy as np

from .discriminant import DiscriminantModel
from .exceptions import ParseError, ValidationError
from .model import HyperParams, LabeledFunctionalDataset, validate_dataset

MODEL_FORMAT = "gplda-model-v1"


def atomic_write_text(path: str, text: str) -> None:
    """Write the whole file or nothing: temp file plus atomic rename."""
    directory = os.path.dirname(os.path.abspath(path))
    handle, temp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(temp_path, path)
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise


def read_labeled_csv(path: str, has_header: bool = False):
    """Read a labeled-curve CSV into raw labels and a float matrix.

    Returns ``(labels, values)`` without dataset-level validation, so it
    is usable for prediction inputs of any size.  Parse failures carry
    one-based row and column positions, counting data rows only.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            raw_rows = [
                row for row in csv.reader(fh) if row and any(cell.strip() for cell in row)
            ]
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    if has_header and raw_rows:
        raw_rows = raw_rows[1:]
    if not raw_rows:
        raise ParseError(f"{path}: no data rows")
    labels = []
    values = []
    expected = len(raw_rows[0])
    if expected < 2:
        raise ParseError(f"{path}: row 1 has no value columns", row=1)
    for r, row in enumerate(raw_rows, start=1):
        if len(row) != expected:
            raise ParseError(
                f"{path}: row {r} has {len(row)} columns, expected {expected}",
                row=r,
            )
        labels.append(row[0].strip())
        parsed = []
        for c, cell in enumerate(row[1:], start=2):
            try:
                parsed.append(float(cell))
            except ValueError:
                raise ParseError(
                    f"{path}: row {r} column {c}: cannot parse {cell.strip()!r} as a number",
                    row=r,
                    column=c,
                ) from None
        values.append(parsed)
    return labels, np.asarray(values, dtype=float)


def load_csv(path: str, has_header: bool = False) -> LabeledFunctionalDataset:
    """Load and validate a labeled-curve CSV as a training dataset."""
    labels, values = read_labeled_csv(path, has_header=has_header)
    return validate_dataset(values, labels)


def save_dataset_csv(path: str, dataset: LabeledFunctionalDataset) -> None:
    """Write a dataset in the labeled-curve CSV format."""
    lines = []
    names = list(dataset.label_names)
    for i in range(dataset.n):
        label = names[dataset.labels[i] - 1]
        values = ",".join(repr(float(v)) for v in dataset.y[i])
        lines.append(f"{label},{values}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def save_model(path: str, model: DiscriminantModel) -> None:
    """Serialize a fitted discriminant to a JSON model file.

    Stores the method tag, class labels, directions, projected centroids,
    and the penalty descriptor.  Floats keep full precision, so loading
    reproduces them exactly.
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
    }
    atomic_write_text(path, json.dumps(payload, indent=1) + "\n")


def load_model(path: str) -> DiscriminantModel:
    """Load a model file written by ``save_model``.

    The within covariance and eigenvalues are not stored, so the loaded
    model predicts but does not expose them.
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
        return DiscriminantModel(
            method_tag=payload["method_tag"],
            directions=np.asarray(payload["directions"], dtype=float),
            projected_centroids=np.asarray(payload["projected_centroids"], dtype=float),
            class_labels=tuple(payload["class_labels"]),
            penalty=payload.get("penalty"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed model file: {exc}") from exc


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
    max_sweeps: int = 500
    rel_tol: float = 1e-6
    jitter_scale: float = 1e-8
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
    ("pda.alpha", "pda_alpha", _or(_FLOAT, "cv", "cv")),
    ("pca.q", "pca_q", _INT),
    ("mle.ridge", "mle_ridge", _or(_FLOAT, "auto", "auto")),
    *((f"hyper.{f.name}", f"hyper.{f.name}", _FLOAT) for f in fields(HyperParams)),
    ("fit.max_sweeps", "max_sweeps", _INT),
    ("fit.rel_tol", "rel_tol", _FLOAT),
    ("fit.jitter_scale", "jitter_scale", _FLOAT),
    ("bench.which", "bench_which", _TEXT),
    ("bench.methods", "bench_methods", _sequence(_TEXT)),
    ("bench.n_values", "bench_n_values", _sequence(_INT)),
    ("bench.reps", "bench_reps", _INT),
    ("bench.n_test", "bench_n_test", _INT),
)
_FIELDS_BY_KEY = {key: (attribute, codec) for key, attribute, codec in _CONFIG_FIELDS}


def parse_field(key: str, raw: str):
    """Parse the text of one config value; errors name the key."""
    if key not in _FIELDS_BY_KEY:
        raise ParseError(f"unknown config key {key!r}")
    parse, _, what = _FIELDS_BY_KEY[key][1]
    try:
        return parse(raw.strip())
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
        key = key.strip()
        value = parse_field(key, raw)
        values[_FIELDS_BY_KEY[key][0]] = value
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
