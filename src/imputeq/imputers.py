"""Imputer families behind one fit/transform contract.

Four families cover the useful spectrum: constant statistics (mean, median,
mode), empirical-distribution sampling, k-nearest-neighbor averaging with a
missingness-aware distance, and chained-equation iterative modeling.  Every
fitted imputer targets exactly one column; multivariate families read an
ordered predictor list so a dependency graph can restrict their inputs.

After filling, outputs are pseudo-rounded to stay plausible for the column
kind: adaptive rounding for binary columns, censoring to the nearest observed
value for discrete and categorical ones, nothing for continuous ones.
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Annotated

import numpy as np
from numpy.random.bit_generator import ISeedSequence
from scipy.special import ndtri

from .errors import (
    ImputeQWarning,
    ImputerTrainingError,
    InvalidArgument,
    SchemaError,
    UntrainableImputer,
    _require,
)
from .estimators import (
    ESTIMATORS,
    ChainModel,
    _is_int,
    _running_sum,
    check_chain_model,
    forest_fit,
    gbt_fit,
    is_estimator,
    model_predict,
    ridge_fit,
)
from .report import Jsonable, Vector, field_types, from_jsonable, to_jsonable
from .table import Column, ColumnKind, Table

FAMILIES = ("simple", "apprandom", "knn", "iterative")
SIMPLE_STATISTICS = ("mean", "median", "mode")


# family -> {parameter: (required, accepts(value), the accepted values)};
# an optional parameter is checked when given, and so is each parameter that
# an iterative spec's estimator reads (see `ESTIMATORS`)
_PARAMS = {
    "simple": {
        "statistic": (True, lambda v: v in SIMPLE_STATISTICS,
                      f"one of {SIMPLE_STATISTICS}"),
    },
    "apprandom": {},
    "knn": {
        "n_neighbors": (True, lambda v: _is_int(v, 1), "an integer >= 1"),
    },
    "iterative": {
        "estimator": (True, is_estimator, f"one of {tuple(ESTIMATORS)}"),
        "init_strategy": (False, lambda v: v in ("mode", "mean"),
                          "'mode' or 'mean'"),
        "max_iter": (False, lambda v: _is_int(v, 0), "an integer >= 0"),
    },
}
# the iterative family's own defaults: a chain starts from each column's
# mode and runs at most 20 rounds
ITERATIVE_DEFAULTS = {"init_strategy": "mode", "max_iter": 20}


@dataclass(frozen=True)
class ImputerSpec(Jsonable):
    """Declarative description of one imputer; `id` names it in reports."""

    id: str
    family: str
    params: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        """Check every field and every parameter that the family reads, so
        that a bad value fails here rather than in a fit or a transform.
        A bad field raises SchemaError at its name."""
        if not (isinstance(self.id, str) and self.id):
            raise SchemaError("id", "expected a non-empty string")
        if self.family not in FAMILIES:
            raise SchemaError("family", f"imputer {self.id!r}: expected one "
                              f"of {sorted(FAMILIES)}")
        # a seed names a numpy seed stream, which takes no negative number
        if not _is_int(self.seed, 0):
            raise SchemaError(
                "seed", f"imputer {self.id!r}: expected an integer >= 0")
        if not isinstance(self.params, dict):
            raise SchemaError("params", f"imputer {self.id!r}: expected a dict")
        rules, owner = _PARAMS[self.family], f"the {self.family} family"
        est = self.params.get("estimator")
        if self.family == "iterative" and is_estimator(est):
            rules = {**rules, **{name: (False, *rule) for name, rule
                                 in ESTIMATORS[est].params.items()}}
            owner = f"the {est} estimator"
        for name, (required, accepts, what) in rules.items():
            if (required or name in self.params) and not accepts(
                    self.params.get(name)):
                raise SchemaError(
                    "params", f"imputer {self.id!r}: {name} must be {what}")
        # a key that no fit reads is refused rather than ignored
        for name in self.params:
            if name not in rules:
                raise SchemaError("params", f"imputer {self.id!r}: {name!r} "
                                  f"is not a parameter of {owner}")

    @property
    def is_multivariate(self) -> bool:
        return self.family in ("knn", "iterative")

    @cached_property
    def seed_words(self) -> _SeedWords:
        """The PCG64 seed words of `np.random.default_rng(seed)`, derived
        on first use and never serialized: `np.random.PCG64(seed_words)`
        starts the same stream without hashing the seed again."""
        return _SeedWords(
            np.random.SeedSequence(self.seed).generate_state(4, np.uint64))


class _SeedWords(ISeedSequence):
    """A seed sequence that hands PCG64 its four precomputed uint64 seed
    words, the only state it asks for."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def default_imputer_roster(seed: int = 0) -> list[ImputerSpec]:
    """The stock candidate set: three constants, empirical sampling, three
    neighborhood sizes, and three chained-model variants."""
    it = dict(ITERATIVE_DEFAULTS)
    return [
        ImputerSpec("mean", "simple", {"statistic": "mean"}, seed),
        ImputerSpec("median", "simple", {"statistic": "median"}, seed),
        ImputerSpec("mode", "simple", {"statistic": "mode"}, seed),
        ImputerSpec("random", "apprandom", {}, seed),
        ImputerSpec("knn3", "knn", {"n_neighbors": 3}, seed),
        ImputerSpec("knn5", "knn", {"n_neighbors": 5}, seed),
        ImputerSpec("knn10", "knn", {"n_neighbors": 10}, seed),
        ImputerSpec("iter_ridge", "iterative",
                    dict(it, estimator="ridge", reg=1.0), seed),
        ImputerSpec("iter_forest", "iterative",
                    dict(it, estimator="forest", n_estimators=100), seed),
        ImputerSpec("iter_gbt", "iterative",
                    dict(it, estimator="gbt", n_estimators=100, max_depth=6,
                         learning_rate=0.1), seed),
    ]


@dataclass(frozen=True)
class FittedImputer:
    spec: ImputerSpec
    target_column: str
    predictor_columns: tuple[str, ...]
    state: dict
    observed_value_set: Vector  # empty for a continuous target

    @cached_property
    def rounding_set(self) -> list[float]:
        """The observed value set as a list of floats, derived on first use
        and never serialized: a one-cell fill is rounded against it."""
        return self.observed_value_set.tolist()


def task_seed(*parts: int) -> int:
    """A 31-bit seed drawn from the seed stream named by `parts`."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0] % (2**31))


def _mode(values: np.ndarray) -> float:
    uniq, counts = np.unique(values, return_counts=True)
    return float(uniq[np.argmax(counts)])  # first max -> smallest value


def _predictor_matrix(table: Table, names: tuple[str, ...]) -> np.ndarray:
    if not names:
        return np.empty((table.n_rows, 0))
    return np.column_stack([table.column(n).values for n in names])


def fit(
    spec: ImputerSpec,
    train: Table,
    target: str,
    predictors: tuple[str, ...] = (),
) -> FittedImputer:
    """Train one imputer for one target column.

    Univariate families ignore `predictors`; multivariate ones require at
    least one.  A target with no observed training values cannot be fit by
    any family here.
    """
    if target in predictors:
        raise InvalidArgument("target cannot be its own predictor")
    predictors = tuple(predictors)
    if spec.is_multivariate and not predictors:
        raise UntrainableImputer(
            f"{spec.id}: family {spec.family!r} needs at least one predictor"
        )
    col = train.column(target)

    def state_for(observed):
        if spec.family == "simple":
            stat = spec.params["statistic"]
            if stat == "mean":
                return {"fill": float(observed.mean())}
            if stat == "median":
                return {"fill": float(np.median(observed))}
            return {"fill": _mode(observed)}
        if spec.family == "apprandom":
            return {"observed": observed}
        if spec.family == "knn":
            X = _predictor_matrix(train, predictors)
            return _knn_state(spec, X[~col.mask], observed)
        return _iterative_fit(spec, train, target, predictors)

    return _fitted(spec, col, predictors, state_for)


def _fitted(spec, col: Column, predictors, state_for) -> FittedImputer:
    """The imputer of `spec` for target `col` with the state
    `state_for(observed target values)`; the target needs a kind and at
    least one observed value."""
    if col.kind is None:
        raise InvalidArgument(f"column {col.name!r} has no kind assigned")
    observed = col.observed_values()
    if observed.size == 0:
        raise UntrainableImputer(
            f"{spec.id}: target {col.name!r} has no observed training values"
        )
    return FittedImputer(
        spec=spec,
        target_column=col.name,
        predictor_columns=predictors,
        state=state_for(observed),
        observed_value_set=np.unique(
            [] if col.kind is ColumnKind.CONTINUOUS else observed),
    )


def _knn_state(spec: ImputerSpec, ref_X: np.ndarray, ref_y: np.ndarray) -> dict:
    """The kNN state over reference rows `ref_X` with targets `ref_y`; the
    fill of a row that no reference matches is the global mean."""
    return {
        "ref_X": ref_X,
        "ref_y": ref_y,
        "k": spec.params["n_neighbors"],
        "global_mean": float(ref_y.mean()),
    }


def transform(f: FittedImputer, t: Table) -> Table:
    """Fill the target column's missing cells, then pseudo-round the fills.

    Only originally-missing target cells change; their mask bits clear.  The
    result is deterministic for a fixed (fitted state, seed, input).
    """
    col = t.column(f.target_column)
    missing = np.flatnonzero(col.mask)
    if missing.size == 0:
        return t
    if f.spec.family == "simple":
        fills = np.full(missing.size, f.state["fill"])
    elif f.spec.family == "apprandom":
        fills = apprandom_sample(f.state["observed"], missing.size,
                                 f.spec.seed_words)
    elif f.spec.family == "knn":
        # one view that reads every predictor and reference, at one k
        s, k = f.state, f.state["k"]
        X = _predictor_matrix(t, f.predictor_columns)[missing]
        view = (range(X.shape[1]), None, s["ref_y"], s["global_mean"])
        [(by_k, unmatched)] = knn_view_fills(s["ref_X"], X, [view], (k,))
        if unmatched:
            warn_unmatched()
        fills = by_k[k]
    else:
        fills = _iterative_transform(f, t, missing)
    return _write_fills(f, t, col, missing, fills)


def with_fills(f: FittedImputer, t: Table, fills: np.ndarray) -> Table:
    """`t` with the target's missing cells, in row order, set to the
    pseudo-rounded `fills` that `f` computed for them."""
    col = t.column(f.target_column)
    return _write_fills(f, t, col, np.flatnonzero(col.mask), fills)


def _write_fills(f, t, col, missing, fills):
    fills = _apply_rounding(f, col, fills)
    values = col.values.copy()
    values[missing] = fills
    mask = col.mask.copy()
    mask[missing] = False
    new_col = Column(col.name, values, mask, kind=col.kind, labels=col.labels)
    return t.with_column(new_col)


def _apply_rounding(f, col, fills):
    if col.kind is ColumnKind.CONTINUOUS:
        return fills
    if col.n_rows == 1 == len(fills):
        return _round_one(f.rounding_set, col.kind, float(fills[0]))
    if col.kind is not ColumnKind.BINARY or len(f.observed_value_set) == 1:
        return censor_to_observed(fills, f.observed_value_set)
    lo, hi = float(f.observed_value_set[0]), float(f.observed_value_set[-1])
    # a large value over a small span overflows here to the inf (a sum of
    # infs to the NaN) that `_round_one` computes in plain floats, silently
    with np.errstate(over="ignore", invalid="ignore"):
        unit_fills = _unit_position(fills, lo, hi)
        unit_obs = _unit_position(col.observed_values(), lo, hi)
        marginal = float(np.concatenate([unit_obs, unit_fills]).mean())
        # a batch with no observed cell takes its marginal from the
        # unclipped fills alone, which a regression can push outside [0, 1]
        rounded = adaptive_round_binary(unit_fills,
                                        min(max(marginal, 0.0), 1.0))
        return np.where(rounded, hi, lo)


def _unit_position(x, lo: float, hi: float):
    """Where `x` lies from level `lo` (0) to level `hi` (1).  Levels more
    than the float maximum apart are placed by halves, exact at that size
    (the halves of two adjacent subnormal levels can be equal)."""
    h = 1.0 if hi - lo < math.inf else 0.5
    return (x * h - lo * h) / (hi * h - lo * h)


def _round_one(s: list[float], kind, x: float) -> float:
    """The fill `x` of a one-row batch, rounded against the observed set
    `s` as `_apply_rounding` rounds an array, operation for operation, in
    plain floats: a dozen numpy calls on one value cost more than the fill
    itself."""
    if kind is not ColumnKind.BINARY or len(s) == 1:
        if x != x:  # NaN sorts last in `np.searchsorted`
            return s[-1]
        pos = bisect.bisect_left(s, x)
        left, right = s[max(pos - 1, 0)], s[min(pos, len(s) - 1)]
        return left if abs(x - left) <= abs(right - x) else right
    unit = _unit_position(x, s[0], s[-1])
    # the batch has no observed cell: its marginal is the fill itself
    marginal = min(max(unit, 0.0), 1.0)
    _check_marginal(marginal)
    high = (unit >= _cutoff(marginal) if 0.0 < marginal < 1.0
            else marginal == 1.0)
    return s[-1] if high else s[0]


def apprandom_sample(observed: np.ndarray, n: int, seed) -> np.ndarray:
    """Draw n values with replacement from the observed empirical
    distribution: `observed[np.random.default_rng(seed).integers(0, size,
    n)]`, where `seed` is an integer seed or an `ImputerSpec.seed_words`."""
    observed = np.asarray(observed, dtype=float)
    if observed.size == 0:
        raise UntrainableImputer("no observed values to sample from")
    if n == 0:
        return np.empty(0)
    rng = np.random.Generator(np.random.PCG64(seed))
    if n == 1:
        # the scalar draw is the first of the array draw, at a third of
        # its cost
        i = rng.integers(0, observed.size)
        return observed[i:i + 1].copy()
    return observed[rng.integers(0, observed.size, n)]


# Cap on the (coordinates x rows x references) planes of one block together
# with the arrays that sum them.
_KNN_BLOCK_BYTES = 1 << 20


def warn_unmatched(stacklevel: int = 1) -> None:
    """Warn that a kNN fill gave some row the global mean, with the
    `stacklevel` of a `warnings.warn` that the caller made itself."""
    warnings.warn("no reference row shares an observed coordinate; falling "
                  "back to the global mean", ImputeQWarning,
                  stacklevel=stacklevel + 1)


def knn_view_fills(train_X: np.ndarray, X: np.ndarray, views, ks) -> list:
    """The kNN fills of the query rows `X` under several views of the
    candidate reference rows `train_X`, over the same columns, for every
    neighbour count in `ks`; each view's fills are bit for bit those of
    that view alone.

    A view is (cols, refs, ref_y, global_mean): the columns it reads, in
    its predictors' order; the rows of `train_X` that are its references
    (None: all of them), with their targets; and the fill of a row that
    shares no coordinate with any reference.  Gives, per view, its fills by
    k and whether some row had no such reference (the caller warns: see
    `warn_unmatched`).

    The distance to a reference row is the Euclidean distance over the
    coordinates both rows observe, scaled up by total/shared coordinate
    count: sqrt(p / shared * sum of squared shared differences), where p
    counts the view's columns; no shared coordinate gives +inf.  Each fill
    is the mean target of the k nearest references, ties going to the
    earlier reference row; a row with fewer than k finite distances uses
    all of them, and a row with none takes the view's global mean.
    Observed values must be finite: NaN is the only marker of a missing
    coordinate.

    Query rows go in blocks.  A block is coordinate-major: one plane of
    squared shared differences per column, (query rows x references), built
    once for every view.  Each view sums its own planes left to right in its
    predictors' order, selects its neighbours once for the largest k,
    nearest first, and takes every k's fill as the mean over a prefix of
    that one order; then the block is dropped.
    """
    n, p_all = train_X.shape
    # the planes and the one array that sums a view's planes
    rows = max(1, min(len(X), _KNN_BLOCK_BYTES // (8 * n * (p_all + 1))))
    # the planes come in groups of columns, each one array under 128 KiB,
    # glibc's default mmap threshold: freeing a larger array raises the
    # threshold, and with it the memory that the process keeps
    width = max(1, (1 << 17) // (8 * rows * n))
    groups = [(c, np.empty((min(width, p_all - c), rows, n)))
              for c in range(0, p_all, width)]
    ref_T = train_X.T[:, None, :]
    seen = (~np.isnan(train_X)).T.astype(float)  # (columns, references)
    reads = np.zeros((len(views), p_all))  # 1 where a view reads a column
    for i, (cols, *_) in enumerate(views):
        reads[i, list(cols)] = 1.0
    fills = [{k: np.full(len(X), view[3]) for k in ks} for view in views]
    unmatched = [False] * len(views)
    for lo in range(0, len(X), rows):
        q = X[lo:lo + rows]
        sq = []
        for c, g in groups:
            g = g[:, :len(q)]
            np.subtract(ref_T[c:c + len(g)], q.T[c:c + len(g), :, None], out=g)
            # g is NaN wherever either side is missing
            np.multiply(g, g, out=g)
            np.fmax(g, 0.0, out=g)  # NaN -> 0
            sq.extend(g)
        q_seen = (~np.isnan(q)).astype(float)
        for i, (cols, refs, ref_y, _) in enumerate(views):
            ss = _running_sum([sq[c] for c in cols])
            shared = (q_seen * reads[i]) @ seen  # exact counts over `cols`
            with np.errstate(divide="ignore", invalid="ignore"):
                d = np.divide(len(cols), shared)
                d *= ss
                np.sqrt(d, out=d)
            d[shared == 0] = np.inf
            if refs is not None:
                d = d[:, refs]
            n_finite = np.isfinite(d).sum(axis=1)
            unmatched[i] = unmatched[i] or not n_finite.all()
            near = ref_y[_nearest_first(d, min(max(ks), len(ref_y)))]
            sums = near.cumsum(axis=1)
            for k, f in fills[i].items():
                _prefix_means(sums, np.minimum(k, n_finite), f[lo:lo + len(q)])
    return list(zip(fills, unmatched))


def _prefix_means(sums: np.ndarray, k: np.ndarray, out) -> None:
    """Write into `out` each row's mean over its first k[i] neighbours,
    given `sums`, the running sums of each row's neighbour targets nearest
    first (one `cumsum` serves every k): sums[i, k[i] - 1] / k[i].  Rows
    with k[i] == 0 keep the value `out` holds."""
    sel = np.flatnonzero(k)
    out[sel] = sums[sel, k[sel] - 1] / k[sel]


def _nearest_first(d: np.ndarray, k: int) -> np.ndarray:
    """Each row's k nearest reference indices, nearest first with ties in
    reference order: the first k entries of a stable argsort of the row.
    Infinite distances sort last, so a row's finite ones come first."""
    kth = np.partition(d, k - 1, axis=1)[:, k - 1:k]
    take = d <= kth
    extra = take.sum(axis=1) - k
    tied = np.flatnonzero(extra)
    if tied.size:
        # drop the last `extra` references at the k-th distance
        at = d[tied] == kth[tied]
        from_end = np.cumsum(at[:, ::-1], axis=1)[:, ::-1]
        take[tied] &= ~(at & (from_end <= extra[tied, None]))
    rows, idx = np.nonzero(take)  # each row's k references, ascending
    order = d[rows, idx].reshape(-1, k).argsort(axis=1, kind="stable")
    return idx.reshape(-1, k)[np.arange(len(d))[:, None], order]


# ---------------------------------------------------------------------------
# iterative (chained-equation) family

_EARLY_STOP_REL_TOL = 1e-3


def _init_fill(values: np.ndarray, mask: np.ndarray, strategy: str) -> float:
    obs = values[~mask]
    if obs.size == 0:
        return 0.0
    if strategy == "mean":
        return float(obs.mean())
    return _mode(obs)


def _fit_column_estimator(spec: ImputerSpec, X, y, col_idx: int, round_idx: int):
    """The chain's estimator fit to one column, with the hyperparameters
    that the spec gives; the fit's own defaults stand for the rest."""
    est = spec.params["estimator"]
    given = {k: v for k, v in spec.params.items()
             if k in ESTIMATORS[est].params}
    try:
        if est == "ridge":
            return ridge_fit(X, y, **given)
        fit = forest_fit if est == "forest" else gbt_fit
        return fit(X, y, seed=task_seed(spec.seed, col_idx, round_idx), **given)
    except Exception as exc:
        raise ImputerTrainingError(
            f"{spec.id}: estimator failed on column index {col_idx}: {exc}"
        ) from exc


def _iterative_fit(spec, train, target, predictors) -> dict:
    """Chained-equation training over the target and its predictors, with
    the columns in name order: the chain depends on the rows, the spec and
    the column set, not on which column is the target.

    Missing cells start at the column mode; columns are revisited in
    descending-missingness order (ties by name), each refit against all the
    others, until the imputed cells stop moving or max_iter rounds pass.
    A column with no observed training value keeps its initial fill and is
    not visited.  The last model per visited column is kept for transform;
    the target always gets one.  The converged matrix stays in the state (not
    serialized), so that `retarget` can give another column its model.

    The chain works on the matrix column-major, `MT` (one C-contiguous row
    per column), and derives once, for each visited column, its observed
    rows, missing rows and the cells of its other columns.  A design matrix
    is one gather of those cells from `MT`, transposed: the Fortran-ordered
    array that `M[rows][:, other]` gives.  Its layout is part of the bit
    contract, because a column mean and a BLAS product round according to
    it.
    """
    names = sorted([*predictors, target])
    MT = np.array([train.column(n).values for n in names])
    masks = np.array([train.column(n).mask for n in names])
    params = {**ITERATIVE_DEFAULTS, **spec.params}
    init_values = np.array([_init_fill(v, m, params["init_strategy"])
                            for v, m in zip(MT, masks)])
    for v, m, fill in zip(MT, masks, init_values):
        v[m] = fill

    miss_counts = masks.sum(axis=1)
    visit = [
        int(j)
        for j in np.argsort(-miss_counts, kind="mergesort")
        if 0 < miss_counts[j] < MT.shape[1]
    ]
    # per visited column, in visiting order: its row of `MT`; the cells of
    # `MT`, as flat indices, of its other columns at its observed and at its
    # missing rows; those rows; and its delta scale
    steps = []
    for j in visit:
        obs, mis = np.flatnonzero(~masks[j]), np.flatnonzero(masks[j])
        other = np.array([i for i in range(len(names)) if i != j])[:, None]
        scale = float(np.std(MT[j, obs]))
        steps.append((j, MT[j], (other * MT.shape[1] + obs).ravel(),
                      (other * MT.shape[1] + mis).ravel(), obs, mis,
                      scale or 1.0))

    models: dict[int, object] = {}
    deltas = []
    for round_idx in range(params["max_iter"]):
        max_delta = 0.0
        for j, col, fit_cells, pred_cells, obs, mis, scale in steps:
            X = MT.take(fit_cells).reshape(-1, obs.size).T
            model = _fit_column_estimator(spec, X, col[obs], j, round_idx)
            models[j] = model
            pred = model_predict(model,
                                 MT.take(pred_cells).reshape(-1, mis.size).T)
            delta = np.abs(pred - col[mis]).max()
            max_delta = max(max_delta, delta / scale)
            col[mis] = pred
        deltas.append(max_delta)
        if max_delta < _EARLY_STOP_REL_TOL:
            break

    state = {
        "columns": tuple(names),
        "init_values": init_values,
        "visit": tuple(visit),
        "models": models,
        "deltas": deltas,  # diagnostic trace; not serialized
        "matrix": np.ascontiguousarray(MT.T),
    }
    t_idx = names.index(target)
    return _with_target_model(spec, state, t_idx, ~masks[t_idx])


def _with_target_model(spec, state: dict, t_idx: int, rows_obs) -> dict:
    """The chain state with the models of its visited columns and of column
    `t_idx`: a column the chain never visited gets one, fit on the converged
    matrix against all the other columns."""
    models = {j: m for j, m in state["models"].items()
              if j == t_idx or j in state["visit"]}
    if t_idx not in models:
        M = state["matrix"]
        other = [i for i in range(M.shape[1]) if i != t_idx]
        models[t_idx] = _fit_column_estimator(
            spec, M[rows_obs][:, other], M[rows_obs, t_idx], t_idx,
            {**ITERATIVE_DEFAULTS, **spec.params}["max_iter"],
        )
    return {**state, "models": models}


def retarget(
    chain: FittedImputer, train: Table, target: str,
    predictors: tuple[str, ...],
) -> FittedImputer:
    """The iterative imputer for `target` that reuses `chain`, an iterative
    imputer fit on the same rows and column set of `train` for any target:
    bit for bit what `fit` with the chain's spec gives."""
    col = train.column(target)
    t_idx = chain.state["columns"].index(target)
    return _fitted(
        chain.spec, col, tuple(predictors),
        lambda _: _with_target_model(chain.spec, chain.state, t_idx, ~col.mask),
    )


def _iterative_transform(f: FittedImputer, t: Table, missing_idx) -> np.ndarray:
    """Mode-initialize, run one pass of the stored chained models, and read
    the target predictions off the working matrix."""
    state = f.state
    names = state["columns"]
    cols = [t.column(n) for n in names]
    M = np.column_stack([c.values for c in cols])
    masks = np.column_stack([c.mask for c in cols])
    for j in range(M.shape[1]):
        M[masks[:, j], j] = state["init_values"][j]

    t_idx = names.index(f.target_column)
    order = [j for j in state["visit"] if j != t_idx] + [t_idx]
    for j in order:
        model = state["models"].get(j)
        if model is None:
            continue
        rows_mis = masks[:, j]
        if not rows_mis.any():
            continue
        other = [i for i in range(M.shape[1]) if i != j]
        M[rows_mis, j] = model_predict(model, M[rows_mis][:, other])
    return M[missing_idx, t_idx]


# ---------------------------------------------------------------------------
# pseudo-rounding


def adaptive_round_binary(values: np.ndarray, marginal: float) -> np.ndarray:
    """Round to {0,1} with a cutoff from the binomial-normal approximation.

    c = w - ndtri(w) * sqrt(w * (1 - w)) for marginal w; values at or above
    the cutoff become 1.  Degenerate marginals collapse to a constant.
    """
    values = np.asarray(values, dtype=float)
    _check_marginal(marginal)
    if marginal == 0.0:
        return np.zeros_like(values)
    if marginal == 1.0:
        return np.ones_like(values)
    return (values >= _cutoff(marginal)).astype(float)


def _check_marginal(marginal: float) -> None:
    if not 0.0 <= marginal <= 1.0:
        raise InvalidArgument(f"marginal must be in [0, 1], got {marginal}")


def _cutoff(marginal: float) -> float:
    return marginal - ndtri(marginal) * math.sqrt(marginal * (1.0 - marginal))


def censor_to_observed(values: np.ndarray, observed_set: np.ndarray) -> np.ndarray:
    """Snap each value to the nearest member of the observed set; exact
    midpoints take the smaller neighbor."""
    values = np.asarray(values, dtype=float)
    s = np.asarray(observed_set, dtype=float)
    if s.size == 0:
        raise InvalidArgument("observed set is empty")
    pos = np.searchsorted(s, values)
    left = s[np.maximum(pos - 1, 0)]
    right = s[np.minimum(pos, s.size - 1)]
    # near the float maximum only the larger of the two distances can
    # overflow, to inf, so the comparison is decided correctly all the same
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(np.abs(values - left) <= np.abs(right - values),
                        left, right)


# ---------------------------------------------------------------------------
# serialization (arrays may hold NaN, which JSON cannot; None stands in)


def encode_array(a: np.ndarray) -> list:
    a = np.asarray(a, dtype=float)
    nan = np.isnan(a)
    if not nan.any():
        return a.tolist()
    out = a.astype(object)
    out[nan] = None
    return out.tolist()


# a kNN's reference rows: a missing cell is NaN, and null in a plan
NanMatrix = Annotated[np.ndarray, list[list[float | None]]]

# family -> {field of its state that a plan stores: the field's type}; a
# kNN state's `k` and `global_mean` are derived from the spec and `ref_y`
# on loading, and a chain's `deltas` and `matrix` are never stored
STORED_STATE = {
    "simple": {"fill": float},
    "apprandom": {"observed": Vector},
    "knn": {"ref_X": NanMatrix, "ref_y": Vector},
    "iterative": {"columns": tuple[str, ...], "init_values": Vector,
                  "visit": tuple[int, ...], "models": dict[int, ChainModel]},
}


def fitted_to_jsonable(f: FittedImputer) -> dict:
    return {
        "spec": f.spec.to_jsonable(),
        "target_column": f.target_column,
        "predictor_columns": list(f.predictor_columns),
        "state": {name: (encode_array if tp is NanMatrix else to_jsonable)(
                      f.state[name])
                  for name, tp in STORED_STATE[f.spec.family].items()},
        "observed_value_set": encode_array(f.observed_value_set),
    }


def fitted_from_jsonable(d: dict, path: str = "fitted") -> FittedImputer:
    """The imputer that `fitted_to_jsonable` wrote as `d`, its state read by
    the types that `STORED_STATE` gives its family and judged at once, with
    SchemaError at `path.state.<key>`: its vectors are non-empty, a kNN's
    reference rows and targets match, and a chain's parts fit each other."""
    f = from_jsonable(field_types(FittedImputer), d, path)
    spec, at = f["spec"], f"{path}.state"
    s = f["state"] = from_jsonable(STORED_STATE[spec.family], f["state"], at)
    for key, tp in STORED_STATE[spec.family].items():
        _require(tp is not Vector or s[key].size, f"{at}.{key}",
                 "expected a non-empty list")
    if spec.family == "knn":
        _require(len(s["ref_y"]) == len(s["ref_X"]), f"{at}.ref_y",
                 "expected one value per ref_X row")
        _require(s["ref_X"].shape[1] == len(f["predictor_columns"]),
                 f"{at}.ref_X", "expected one cell per predictor in each row")
        f["state"] = _knn_state(spec, **s)
    elif spec.family == "iterative":
        cols, est = s["columns"], spec.params["estimator"]
        _require(sorted(cols) == sorted({f["target_column"],
                                         *f["predictor_columns"]}),
                 f"{at}.columns", "expected the target and predictors, once each")
        _require(s["init_values"].shape == (len(cols),), f"{at}.init_values",
                 "expected one value per column")
        _require(set(s["visit"]) <= set(range(len(cols))), f"{at}.visit",
                 "expected indices of columns")
        for j, m in s["models"].items():
            _require(0 <= j < len(cols), f"{at}.models.{j}",
                     "expected the index of a column")
            check_chain_model(m, est, len(cols) - 1, f"{at}.models.{j}")
    return FittedImputer(**f)
