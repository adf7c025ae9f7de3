"""Seeded simulation benchmarks for the discriminant methods.

Two synthetic two-class problems are provided.  The first builds curves
from random convex combinations of shifted triangular bumps, observed
with unit noise on a grid of 101 points over [1, 21].  The second builds
sinusoids sharing a random common component on a grid of 100 points over
[0, 1], with noise variance 0.1; the classes differ only by a low-energy
mean offset, which is what makes it hard for variance-driven projections.

All randomness flows through a counter-based 64-bit generator keyed by
(seed, role), where the role separates training from test draws, so any
single replication is reproducible in isolation and independent of the
order replications run in.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace
from functools import partial

import numpy as np

from .discriminant import (
    METHOD_GPLDA,
    METHOD_MLE_LDA,
    METHOD_PCA_LDA,
    METHOD_PDA,
    PdaPath,
    error_rate,
    gplda_fit,
    mle_lda_fit,
    pca_lda_fit,
    pda_fit,
    predict,
)
from .exceptions import NumericError, ValidationError
from .io import RunConfig
from .linalg import FIRST_DIFF, LAPLACIAN_2D, SECOND_DIFF, blas_threads_for, build_penalty
from .model import FitConfig, LabeledFunctionalDataset

SIM1 = "sim1"
SIM2 = "sim2"

_ROLE_TRAIN = 0
_ROLE_TEST = 1

_MASK64 = (1 << 64) - 1


def _resolve_penalty(config: RunConfig, tag: str, p: int):
    """The config's penalty on p points; kind ``auto`` is d2 for PDA, else d1."""
    kind = config.penalty_kind
    if kind == "auto":
        kind = SECOND_DIFF if tag == METHOD_PDA else FIRST_DIFF
    if kind != LAPLACIAN_2D:
        return build_penalty(kind, p)
    if config.penalty_grid is None:
        raise ValidationError("penalty.kind lap2d needs penalty.grid = ROWSxCOLS")
    rows, cols = config.penalty_grid
    if rows * cols != p:
        raise ValidationError(
            f"penalty grid {rows}x{cols} covers {rows * cols} points, data has p={p}"
        )
    return build_penalty(kind, (rows, cols))


def _ridge(config: RunConfig):
    return None if config.mle_ridge == "auto" else float(config.mle_ridge)


# The fit functions call the library by module-level name at call time, so
# that patching a name in this module (as tracers and test hooks do)
# reaches every method.

def _fit_gplda(train, config: RunConfig, seed: int):
    fit_config = FitConfig(
        penalty=_resolve_penalty(config, METHOD_GPLDA, train.p),
        max_sweeps=config.max_sweeps,
        rel_tol=config.rel_tol,
        jitter_scale=config.jitter_scale,
    )
    return gplda_fit(train, hyper=config.hyper, config=fit_config, k=config.k)


def _fit_pda(train, config: RunConfig, seed: int):
    penalty = _resolve_penalty(config, METHOD_PDA, train.p)
    if config.pda_alpha != "cv":
        return pda_fit(train, penalty, float(config.pda_alpha), k=config.k), None
    alpha = select_pda_alpha(train, penalty, seed=seed)
    model = pda_fit(train, penalty, alpha, k=config.k)
    note = f"cross-validated alpha = {alpha}"
    return replace(model, warnings=model.warnings + (note,)), None


def _fit_mle(train, config: RunConfig, seed: int):
    return mle_lda_fit(train, k=config.k, ridge=_ridge(config)), None


def _fit_pca_lda(train, config: RunConfig, seed: int):
    return pca_lda_fit(train, q=config.pca_q, k=config.k, ridge=_ridge(config)), None


# tag -> (CLI name, fit).  fit(train, config, seed) returns (model, trace),
# where trace is the backfitting trace for GPLDA and None otherwise, and
# seed keys the cross-validation folds of PDA.
METHODS = {
    METHOD_GPLDA: ("gplda", _fit_gplda),
    METHOD_PDA: ("pda", _fit_pda),
    METHOD_MLE_LDA: ("mle", _fit_mle),
    METHOD_PCA_LDA: ("pca-lda", _fit_pca_lda),
}


def normalize_method(name: str) -> str:
    """Map a CLI-style method name or tag to the canonical method tag."""
    if name in METHODS:
        return name
    tags = {cli_name: tag for tag, (cli_name, _) in METHODS.items()}
    key = name.strip().lower()
    if key not in tags:
        raise ValidationError(
            f"unknown method {name!r}; expected one of {sorted(tags)} or {tuple(METHODS)}"
        )
    return tags[key]


def fit_method(method: str, train: LabeledFunctionalDataset, config: RunConfig, seed: int):
    """Fit a method, by tag or CLI name, with ``config``; see ``METHODS``."""
    return METHODS[normalize_method(method)][1](train, config, seed)


@dataclass(frozen=True)
class SimSpec:
    """One simulated classification problem.

    ``n_train`` and ``n_test`` are totals over the two balanced classes
    and must be even and at least 2.
    """

    which: str
    n_train: int
    n_test: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.which not in (SIM1, SIM2):
            raise ValidationError(
                f"unknown simulation {self.which!r}, expected {SIM1!r} or {SIM2!r}"
            )
        for name in ("n_train", "n_test"):
            value = getattr(self, name)
            if value < 2 or value % 2 != 0:
                raise ValidationError(f"{name} must be even and >= 2, got {value}")


def _stream(seed: int, role: int) -> np.random.Generator:
    key = ((role & _MASK64) << 64) | (seed & _MASK64)
    return np.random.Generator(np.random.Philox(key=key))


def sim1_grid() -> np.ndarray:
    """101 equidistant points spanning [1, 21]."""
    return np.linspace(1.0, 21.0, 101)


def triangular_bump(t: np.ndarray) -> np.ndarray:
    """Triangle of height 6 centered at 11 with support [5, 17]."""
    return np.maximum(6.0 - np.abs(t - 11.0), 0.0)


# Rows of the class signal formed at a time and added to the noise, so
# that a curve set takes one array of its own size.  Each value is the
# same float sum as signal + noise, since one float + or x gives the same
# bits in either operand order.
_ROWS_PER_BLOCK = 1000


def _sim1_curves(rng: np.random.Generator, n: int, noise_scale: float):
    t = sim1_grid()
    base = triangular_bump(t)
    right = triangular_bump(t - 4.0)
    left = triangular_bump(t + 4.0)
    weights = rng.random(n)
    y = rng.standard_normal((n, t.size))
    y *= noise_scale
    half = n // 2
    for first, last, other in ((0, half, right), (half, n, left)):
        for start in range(first, last, _ROWS_PER_BLOCK):
            w = weights[start : min(start + _ROWS_PER_BLOCK, last), None]
            y[start : start + len(w)] += w * base + (1.0 - w) * other
    labels = np.repeat([1, 2], half)
    return y, labels


def sim2_grid() -> np.ndarray:
    """100 equidistant points spanning [0, 1], endpoints included."""
    return np.linspace(0.0, 1.0, 100)


def sim2_mean_difference(t) -> np.ndarray:
    """Population mean difference between the two classes."""
    return np.sin(2.0 * np.pi * np.asarray(t, dtype=float)) / 4.0


def sim2_shared_component(t) -> np.ndarray:
    """Common random-amplitude component present in both classes."""
    return np.sin(4.0 * np.pi * np.asarray(t, dtype=float))


def _sim2_curves(rng: np.random.Generator, n: int, noise_scale: float):
    t = sim2_grid()
    offset = sim2_mean_difference(t)
    shared = sim2_shared_component(t)
    amplitude = rng.standard_normal(n)
    y = rng.standard_normal((n, t.size))
    y *= np.sqrt(0.1)
    y *= noise_scale
    for start in range(0, n, _ROWS_PER_BLOCK):
        a = amplitude[start : start + _ROWS_PER_BLOCK, None]
        y[start : start + len(a)] += a * shared
    half = n // 2
    y[:half] += offset
    labels = np.repeat([1, 2], half)
    return y, labels


def _make_dataset(y: np.ndarray, labels: np.ndarray) -> LabeledFunctionalDataset:
    return LabeledFunctionalDataset(y=y, labels=labels, label_names=(1, 2))


def generate(
    spec: SimSpec, noise_scale: float = 1.0
) -> tuple[LabeledFunctionalDataset, LabeledFunctionalDataset]:
    """Generate the (train, test) pair for a simulation spec.

    ``noise_scale`` multiplies the noise standard deviation and exists for
    noise-free sanity checks; the defined problems use 1.0.
    """
    maker = _sim1_curves if spec.which == SIM1 else _sim2_curves
    y_train, l_train = maker(_stream(spec.seed, _ROLE_TRAIN), spec.n_train, noise_scale)
    y_test, l_test = maker(_stream(spec.seed, _ROLE_TEST), spec.n_test, noise_scale)
    return _make_dataset(y_train, l_train), _make_dataset(y_test, l_test)


DEFAULT_PDA_ALPHA_GRID = (1e-2, 1e-1, 1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6)


def _held_out_error(fit, curves: np.ndarray, truth: np.ndarray) -> float | str:
    """Error rate on held-out ``curves`` of the model that ``fit()`` returns.

    A ``NumericError`` raised by fitting or predicting is returned as its
    ``"TypeName: message"`` text instead.  ``predict`` is looked up in this
    module at call time, so a hook set on ``simulate.predict`` sees every
    scored model.
    """
    try:
        return error_rate(predict(fit(), curves), truth)
    except NumericError as exc:
        return f"{type(exc).__name__}: {exc}"


def select_pda_alpha(data: LabeledFunctionalDataset, penalty, seed: int = 0) -> float:
    """Pick the penalty weight by stratified cross-validation.

    The candidate with the least mean fold error in ``pda_cv_errors``;
    ties resolve to the smallest candidate.
    """
    # argmin takes the first minimum: the smallest tied candidate.
    return float(DEFAULT_PDA_ALPHA_GRID[int(np.argmin(pda_cv_errors(data, penalty, seed)))])


def pda_cv_errors(
    data: LabeledFunctionalDataset, penalty, seed: int = 0
) -> tuple[float, ...]:
    """Mean cross-validated PDA test error of each penalty weight.

    One entry per candidate of ``DEFAULT_PDA_ALPHA_GRID``, the mean over
    the folds of each fold's held-out error rate.  Folds are assigned
    round-robin within each class after a seeded shuffle.  Five folds are
    used, fewer if some class has fewer than five curves.  Every class
    needs at least two curves, so that each fold trains and tests on every
    class, and curves that all equal their class means are refused
    (``check_within_estimable``) before any fold is fitted, so no weight
    is picked for a fit that exists only by rounding.

    Each fold's class means, pooled scatter and between factor are
    computed once (``PdaPath``, the path ``pda_fit`` takes).  Each
    candidate then solves the c centred means against the fold's within
    matrix: through an n x n capacitance when the fold has fewer curves
    than grid points, the weight is positive and the penalty carries its
    closed-form basis, and through a Cholesky factor otherwise.
    Every fold is scored by ``_held_out_error``, and a fold whose fit or
    prediction raises a ``NumericError`` scores an error of 1.
    """
    counts = data.class_counts
    if counts.min() < 2:
        name = data.label_names[int(np.argmin(counts))]
        raise ValidationError(
            f"class {name!r} has {int(counts.min())} curve(s); cross-validating the "
            "penalty weight needs at least 2 curves per class (pass --alpha)"
        )
    data.check_within_estimable()
    folds = min(5, int(counts.min()))
    rng = _stream(seed, 2)
    assignment = np.zeros(data.n, dtype=int)
    for i in range(1, data.c + 1):
        rows = data.class_rows(i)
        shuffled = rng.permutation(rows)
        assignment[shuffled] = np.arange(shuffled.size) % folds
    mean_errors = []
    with blas_threads_for():
        # Per fold, once: the training part's alpha-free fit inputs, and
        # the held-out rows with their true labels.
        splits = []
        for fold in range(folds):
            holdout = assignment == fold
            train = LabeledFunctionalDataset(
                y=data.y[~holdout],
                labels=data.labels[~holdout],
                label_names=data.label_names,
            )
            truth = np.asarray(data.label_names)[data.labels[holdout] - 1]
            splits.append((PdaPath.of(train, penalty), data.y[holdout], truth))
        for alpha in DEFAULT_PDA_ALPHA_GRID:
            scores = [
                _held_out_error(partial(path.fit, alpha), held_out, truth)
                for path, held_out, truth in splits
            ]
            # A fold whose fit or prediction failed (its score is the reason) counts 1.
            mean_errors.append(float(np.mean([1.0 if isinstance(s, str) else s for s in scores])))
    return tuple(mean_errors)


@dataclass(frozen=True)
class BenchmarkCell:
    """Aggregate result of one (method, training size) pair.

    ``errors`` holds the per-replication test error rates (fractions, not
    percent) of the successful replications, in replication order;
    ``replications`` maps each entry of ``errors`` to its replication
    index.  ``failures`` counts replications that raised a numeric error;
    they are excluded from the mean and never retried.
    ``failure_reasons`` holds one ``"TypeName: message"`` entry per failed
    replication, in replication order.
    """

    method: str
    n_train: int
    mean_pct: float
    std_pct: float
    failures: int
    seconds: float
    errors: tuple[float, ...]
    replications: tuple[int, ...]
    failure_reasons: tuple[str, ...]

    @classmethod
    def of(cls, method: str, n_train: int, records) -> "BenchmarkCell":
        """The cell of ``records``, one ``(replication, outcome, seconds)``
        per replication in replication order, where ``outcome`` is what
        ``_held_out_error`` returned: an error rate or a failure reason."""
        scored = [(r, outcome) for r, outcome, _ in records if not isinstance(outcome, str)]
        errors = tuple(error for _, error in scored)
        mean_pct = std_pct = float("nan")
        if errors:
            mean_pct = float(np.mean(errors)) * 100.0
            std_pct = float(np.std(errors, ddof=1)) * 100.0 if len(errors) > 1 else 0.0
        reasons = tuple(outcome for _, outcome, _ in records if isinstance(outcome, str))
        return cls(
            method=method, n_train=n_train, mean_pct=mean_pct, std_pct=std_pct,
            failures=len(reasons), seconds=sum(seconds for _, _, seconds in records),
            errors=errors, replications=tuple(r for r, _ in scored), failure_reasons=reasons,
        )


@dataclass(frozen=True)
class BenchmarkReport:
    """All cells of one benchmark run, plus the settings that produced it."""

    which: str
    reps: int
    base_seed: int
    n_test: int
    cells: tuple[BenchmarkCell, ...] = field(default_factory=tuple)

    def cell(self, method: str, n_train: int) -> BenchmarkCell:
        tag = normalize_method(method)
        for cell in self.cells:
            if cell.method == tag and cell.n_train == n_train:
                return cell
        raise KeyError(f"no cell for method {tag} at n_train={n_train}")

    def to_csv(self) -> str:
        lines = ["method,N,mean_pct,std_pct,failures,seconds"]
        for cell in self.cells:
            lines.append(
                f"{cell.method},{cell.n_train},{cell.mean_pct:.6f},"
                f"{cell.std_pct:.6f},{cell.failures},{cell.seconds:.3f}"
            )
        return "\n".join(lines) + "\n"

    def to_summary(self) -> dict:
        return asdict(self)


def run_benchmark(
    which: str,
    methods,
    n_values,
    reps: int,
    base_seed: int,
    n_test: int = 200,
    config: RunConfig | None = None,
) -> BenchmarkReport:
    """Monte Carlo comparison of methods over training sizes.

    Replication r draws its own (train, test) pair from seed
    ``base_seed + r``, fits every method on the same pair, and scores test
    error.  Numeric failures are counted per cell and excluded from the
    aggregates; nothing is retried.

    Parameters
    ----------
    which : str
        ``"sim1"`` or ``"sim2"``.
    methods : sequence of str
        Method tags or CLI names; non-empty, each method once.
    n_values : sequence of int
        Training sizes to sweep; non-empty, each size once.
    reps : int
        Replications per cell, >= 1.
    base_seed : int
        Seed offset; replication r uses base_seed + r.
    n_test : int
        Test curves per replication.
    config : RunConfig, optional
        Method settings (penalty, alpha, ridge, q, k, fit settings) shared
        by every replication; defaults to ``RunConfig()``.

    Returns
    -------
    BenchmarkReport
    """
    if reps < 1:
        raise ValidationError(f"reps must be >= 1, got {reps}")
    tags = [normalize_method(m) for m in methods]
    n_values = [int(n) for n in n_values]
    for kind, entries in (("method", tags), ("training size", n_values)):
        if not entries:
            raise ValidationError(f"{kind}s list is empty")
        repeated = [entry for i, entry in enumerate(entries) if entry in entries[:i]]
        if repeated:
            raise ValidationError(f"{kind} {repeated[0]!r} is listed more than once")
    config = RunConfig() if config is None else config

    # One ((method, size), (replication, outcome, seconds)) record per fit.
    records = []
    for n in n_values:
        for r in range(reps):
            seed = base_seed + r
            train, test = generate(SimSpec(which=which, n_train=n, n_test=n_test, seed=seed))
            truth = np.asarray(test.label_names)[test.labels - 1]
            for tag in tags:
                start = time.perf_counter()
                outcome = _held_out_error(
                    lambda: fit_method(tag, train, config, seed)[0], test.y, truth
                )
                records.append(((tag, n), (r, outcome, time.perf_counter() - start)))
    cells = tuple(
        BenchmarkCell.of(tag, n, [record for cell, record in records if cell == (tag, n)])
        for tag in tags
        for n in n_values
    )
    return BenchmarkReport(
        which=which, reps=reps, base_seed=base_seed, n_test=n_test, cells=cells
    )
