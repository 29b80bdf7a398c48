"""Per-feature imputation quality assessment and trainable pipelines.

The assessment walks a (feature x imputer x fold) grid: candidate imputers
are fit on training folds, the test fold's observed target cells are masked
and re-imputed, and a kind-appropriate scorer measures how close the
re-imputations land.  Candidates whose pooled re-imputations are statistically
distinguishable from the observed distribution are vetoed; among the
survivors the best scorer wins the feature.  Combining the winner's score
delta with the feature's completeness mu gives the quality

    omega = mu + (1 - mu) * delta

which callers can threshold to decide which features to keep.  Thresholded
features are only dropped at the very end, so they still help impute others.

Everything is deterministic for a fixed seed: each grid task derives its own
generator from the seed and its (feature, imputer) position, each iterative
chain from the seed and its (imputer, fold) position, and the grid runs
serially in a fixed order.

Work that does not depend on the target is shared through `Folds`, which
holds the table and its dependencies.  Each fold's train and test rows are
cut once for the whole assessment; every fit, transform and fill reads its
columns by name.  A chain orders its columns by name, so it depends only on
its rows, its spec and its column set: it is fit once per (fold, candidate,
view column set) and every feature of that view reads it, in `assess` and
in `fit_pipeline` alike.  The kNN fills of every feature come from one
distance pass per fold, which builds each block's planes of squared
differences once for all the features and keeps the fills for the whole
assessment; a fold's first kNN request pays for every view.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .depgraph import validate_dependency_dict
from .estimators import GbtModel, RidgeModel
from .errors import (
    CorruptModel,
    DegenerateInput,
    ImputeQWarning,
    ImputerTrainingError,
    InvalidArgument,
    SchemaMismatch,
    UntrainableImputer,
    VersionMismatch,
)
from .imputers import (
    FittedImputer,
    ImputerSpec,
    _is_int,
    _is_number,
    fit as fit_imputer,
    fitted_from_jsonable,
    fitted_to_jsonable,
    knn_view_fills,
    retarget,
    task_seed,
    transform,
    with_fills,
)
from .metrics import balanced_accuracy, macro_balanced_accuracy, nrmse_score
from .stattests import TestResult, distribution_compatible
from .table import (
    DEFAULT_MISSING_SENTINELS,
    Column,
    ColumnKind,
    SplitIndices,
    Table,
    completeness,
    kfold_split,
)

PIPELINE_FORMAT = "imputeq-pipeline"
PIPELINE_SCHEMA_VERSION = 2
DEFAULT_FOLDS = 5
DEFAULT_ALPHA = 0.05
_FINAL_FIT_TAG = 0x7FFFFFFF  # seed-stream component for full-table fits


SCORER_REGISTRY = {
    "nrmse": nrmse_score,
    "balanced_accuracy": balanced_accuracy,
    "macro_balanced_accuracy": macro_balanced_accuracy,
}


def default_scorer_for(kind: ColumnKind):
    if kind is ColumnKind.BINARY:
        return balanced_accuracy
    if kind is ColumnKind.CATEGORICAL:
        return macro_balanced_accuracy
    return nrmse_score


@dataclass(frozen=True)
class AssessConfig:
    """Engine knobs; the CLI config file parses into this.

    A roster without an `apprandom` candidate gets one appended, seeded with
    the config seed: it is the fallback `select_imputer` picks when every
    other candidate is vetoed or skipped.
    """

    imputers: tuple[ImputerSpec, ...]
    n_folds: int = DEFAULT_FOLDS
    seed: int = 0
    alpha: float = DEFAULT_ALPHA
    threshold: float | None = None
    dependencies: dict[str, list[str]] | None = None
    scorers: dict[str, str] | None = None  # kind value -> registry name
    split_seed: int | None = None

    def __post_init__(self):
        if not self.imputers:
            raise InvalidArgument("at least one imputer is required")
        if not _is_int(self.seed, 0):
            raise InvalidArgument("seed must be an integer >= 0")
        if not (self.split_seed is None or _is_int(self.split_seed, 0)):
            raise InvalidArgument("split_seed must be None or an integer >= 0")
        if not any(s.family == "apprandom" for s in self.imputers):
            fallback = ImputerSpec("apprandom", "apprandom", {}, self.seed)
            object.__setattr__(self, "imputers", (*self.imputers, fallback))
        ids = [s.id for s in self.imputers]
        if len(set(ids)) != len(ids):
            raise InvalidArgument("imputer ids must be unique")
        if not _is_int(self.n_folds, 2):
            raise InvalidArgument("n_folds must be an integer >= 2")
        if not (_is_number(self.alpha, 0.0) and 0.0 < self.alpha < 1.0):
            raise InvalidArgument("alpha must be in (0, 1)")
        if self.threshold is not None and not (
                _is_number(self.threshold, 0.0) and self.threshold <= 1.0):
            raise InvalidArgument("threshold must be in [0, 1]")
        if self.scorers:
            kinds = {k.value for k in ColumnKind}
            for kind_name, scorer_name in self.scorers.items():
                if kind_name not in kinds:
                    raise InvalidArgument(f"unknown column kind {kind_name!r}")
                if scorer_name not in SCORER_REGISTRY:
                    raise InvalidArgument(f"unknown scorer {scorer_name!r}")

    def scorer_for(self, kind: ColumnKind):
        if self.scorers and kind.value in self.scorers:
            return SCORER_REGISTRY[self.scorers[kind.value]]
        return default_scorer_for(kind)

    def to_jsonable(self) -> dict:
        return {
            "imputers": [s.to_jsonable() for s in self.imputers],
            "n_folds": self.n_folds,
            "seed": self.seed,
            "alpha": self.alpha,
            "threshold": self.threshold,
            "dependencies": self.dependencies,
            "scorers": self.scorers,
            "split_seed": self.split_seed,
        }

    def config_hash(self) -> str:
        blob = json.dumps(self.to_jsonable(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(frozen=True)
class ScoreOutcome:
    """Fold-aggregated result for one (feature, imputer) pair."""

    mean: float  # clamped to [0, 1]
    std: float
    pooled: np.ndarray  # re-imputed values at originally observed cells
    fold_scores: tuple[float, ...]
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class ImputerEvaluation:
    imputer_id: str
    delta_mean: float
    delta_std: float
    n_predictors: int
    bias: TestResult | None
    skipped: bool
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class QualityRecord:
    feature: str
    completeness: float
    evaluations: tuple[ImputerEvaluation, ...]
    chosen_imputer: str
    delta: float
    omega: float
    kept: bool
    fallback_used: bool
    notes: tuple[str, ...] = ()


def quality_score(mu: float, delta: float) -> float:
    """omega = mu + (1 - mu) * delta; both arguments must be in [0, 1]."""
    if not 0.0 <= mu <= 1.0:
        raise InvalidArgument(f"mu must be in [0, 1], got {mu}")
    if not 0.0 <= delta <= 1.0:
        raise InvalidArgument(f"delta must be in [0, 1], got {delta}")
    return mu + (1.0 - mu) * delta


class Folds:
    """One assessment of table `t` under `config`: its folds, the columns
    each feature reads, and the work its candidates share.

    - Per fold: the table's train and test rows, cut on first use and kept
      for the whole assessment.  Every fit, transform and fill reads its
      columns by name, so one pair of slices serves every view.
    - An iterative candidate is fit once per (fold, candidate, view column
      set), with the chain seed of `fit`, and every feature of that column
      set gets its imputer through `retarget`.
    - Per fold: the kNN fills of every view and roster k, from one pass of
      distance blocks at the fold's first kNN request (see `knn_fills`),
      kept for the whole assessment.

    The table and the dependencies are fixed at construction, so nothing
    kept can outlive them.  `fit_pipeline` uses one with no splits: its one
    fold is the whole table, under `_FINAL_FIT_TAG`.
    """

    def __init__(self, t: Table, splits: SplitIndices | None,
                 config: AssessConfig):
        self.t = t
        self.splits = splits
        self._deps = config.dependencies
        self._seed = config.seed
        self._roster_pos = {s.id: i for i, s in enumerate(config.imputers)}
        self._ks = sorted({s.params["n_neighbors"] for s in config.imputers
                           if s.family == "knn"})
        self._rows = {}  # fold -> (train, test) rows of the table
        self._chains = {}  # (fold, imputer id, view columns) -> fitted chain
        self._knn = {}  # fold -> {target: [fills by k, warn]}

    def rows(self, fold_idx) -> tuple[Table, Table | None]:
        """The (train, test) rows of fold `fold_idx` of the table; with no
        splits, (the whole table, None)."""
        if self.splits is None:
            return self.t, None
        if fold_idx not in self._rows:
            train_idx, test_idx = self.splits.folds[fold_idx]
            self._rows[fold_idx] = (self.t.select_rows(train_idx),
                                    self.t.select_rows(test_idx))
        return self._rows[fold_idx]

    def predictors(self, feature: str) -> tuple[str, ...]:
        """The columns that impute `feature`: its dependencies, or else
        every other column of the table."""
        if self._deps is None:
            return tuple(n for n in self.t.column_names if n != feature)
        return tuple(self._deps.get(feature, []))

    def fit(self, fold_idx, spec, target: str) -> FittedImputer:
        """`spec` fit on the training rows of fold `fold_idx`, for `target`
        from its predictors."""
        train, _ = self.rows(fold_idx)
        predictors = self.predictors(target)
        if spec.family != "iterative":
            return fit_imputer(spec, train, target, predictors)
        if spec.id not in self._roster_pos:
            raise InvalidArgument(f"{spec.id}: not in the assessed roster")
        # the chain seed: the candidate's roster position and the fold
        spec = replace(spec, seed=task_seed(
            self._seed, self._roster_pos[spec.id], fold_idx))
        key = (fold_idx, spec.id, frozenset((*predictors, target)))
        if key not in self._chains:
            self._chains[key] = fit_imputer(spec, train, target, predictors)
        return retarget(self._chains[key], train, target, predictors)

    def knn_fills(self, fold_idx, fitted) -> np.ndarray:
        """`fitted`'s fills for every test row of fold `fold_idx`, where
        `fitted` is a kNN candidate of the roster from `fit`.

        The fold's first request fills every view of the table at once, for
        every roster k, bit for bit as `imputers.knn_fills` on each view's
        own fit; so one feature scored alone pays the kNN work of them all.
        The one "no reference row shares an observed coordinate" warning of
        a view and fold comes with its first read.
        """
        k = fitted.state["k"]
        if k not in self._ks:
            raise InvalidArgument(
                f"{fitted.spec.id}: not in the assessed roster")
        if fold_idx not in self._knn:
            self._knn[fold_idx] = self._knn_pass(fold_idx)
        entry = self._knn[fold_idx][fitted.target_column]
        if entry[1]:
            entry[1] = False
            warnings.warn(
                "no reference row shares an observed coordinate; falling "
                "back to the global mean",
                ImputeQWarning,
                stacklevel=2,
            )
        return entry[0][k]

    def _knn_pass(self, fold_idx) -> dict:
        """The fills of every kNN view of the table on fold `fold_idx`, by
        target, from one `knn_view_fills` pass.  A view with no predictor
        or no observed training target has no kNN fit, so the pass skips
        it."""
        train, test = self.rows(fold_idx)
        views = []
        for col in train.columns:
            predictors = self.predictors(col.name)
            if not predictors or col.mask.all():
                continue
            refs = np.flatnonzero(~col.mask) if col.mask.any() else None
            views.append((col.name, predictors, refs, col.observed_values()))
        names = list(dict.fromkeys(n for _, p, *_ in views for n in p))
        pos = {n: i for i, n in enumerate(names)}
        filled = knn_view_fills(
            np.column_stack([train.column(n).values for n in names]),
            np.column_stack([test.column(n).values for n in names]),
            [([pos[n] for n in p], refs, y, float(y.mean()))
             for _, p, refs, y in views],
            self._ks,
        )
        return {target: [fills, unmatched]
                for (target, *_), (fills, unmatched) in zip(views, filled)}


def imputation_score(
    feature: str,
    spec: ImputerSpec,
    folds: Folds,
    scorer=None,
    seed: int = 0,
) -> ScoreOutcome:
    """Mask-and-reimpute evaluation of one imputer on one feature of the
    table of `folds`.

    Per fold: fit on the training rows from the feature's predictors, mask
    every originally observed target cell in the test rows, transform, and
    score re-imputations against the originals.  Cells that were missing to
    begin with are filled too but never scored.  Returns the fold mean
    (clamped to [0, 1]), fold std, and the pooled re-imputations for the
    bias veto.

    Fold rows, chains and kNN fills are shared through `folds` with the
    other features and candidates scored on it (see `Folds`); every share is
    bit-identical to the feature's own fit.  `seed` seeds the non-iterative
    candidates of each fold; a chain takes the seed `Folds.fit` gives it.
    """
    col = folds.t.column(feature)
    if scorer is None:
        scorer = default_scorer_for(col.kind)
    if spec.is_multivariate and not folds.predictors(feature):
        raise UntrainableImputer(
            f"{spec.id}: no predictors available for {feature!r}"
        )

    fold_scores = []
    pooled = []
    notes = set()
    for fold_idx in range(len(folds.splits)):
        fold_spec = replace(spec, seed=task_seed(seed, fold_idx))
        fitted = folds.fit(fold_idx, fold_spec, feature)
        _, test = folds.rows(fold_idx)
        tcol = test.column(feature)
        observed_pos = np.flatnonzero(~tcol.mask)
        if observed_pos.size == 0:
            notes.add("empty_fold")
            continue
        blank = Column(
            feature,
            np.full(test.n_rows, np.nan),
            np.ones(test.n_rows, dtype=bool),
            kind=tcol.kind,
            labels=tcol.labels,
        )
        blanked = test.with_column(blank)
        if spec.family == "knn":
            out = with_fills(fitted, blanked,
                             folds.knn_fills(fold_idx, fitted))
        else:
            out = transform(fitted, blanked)
        got = out.column(feature).values[observed_pos]
        want = tcol.values[observed_pos]
        pooled.append(got)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                fold_scores.append(float(scorer(want, got)))
        except DegenerateInput:
            notes.add("unscorable_fold")

    if not fold_scores:
        raise UntrainableImputer(
            f"{spec.id}: no scorable fold for {feature!r}"
        )
    raw_mean = float(np.mean(fold_scores))
    if math.isnan(raw_mean):
        raise DegenerateInput(f"{spec.id}: score for {feature!r} is NaN")
    mean = min(max(raw_mean, 0.0), 1.0)
    if mean != raw_mean:
        notes.add("clamped")
    std = float(np.std(fold_scores))
    return ScoreOutcome(
        mean, std, np.concatenate(pooled), tuple(fold_scores),
        tuple(sorted(notes)),
    )


@dataclass(frozen=True)
class _Candidate:
    spec: ImputerSpec
    roster_pos: int
    n_predictors: int
    outcome: ScoreOutcome | None  # None when skipped
    skip_note: str = ""


def select_imputer(
    candidates: list[_Candidate], col: Column, alpha: float = DEFAULT_ALPHA
) -> tuple[str, bool, dict[str, TestResult]]:
    """Veto-then-argmax choice of the feature's imputer.

    Candidates whose pooled re-imputations fail the distribution test are
    discarded.  The best remaining mean score wins; ties prefer fewer
    predictors, then roster order.  When nothing but empirical sampling
    remains eligible (or nothing at all), the fallback flag is raised.
    """
    observed = col.observed_values()
    verdicts: dict[str, TestResult] = {}
    survivors = []
    for c in candidates:
        if c.outcome is None:
            continue
        verdict = distribution_compatible(col, observed, c.outcome.pooled, alpha)
        verdicts[c.spec.id] = verdict
        if not verdict.rejected:
            survivors.append(c)

    fallback = next(
        (c for c in candidates if c.spec.family == "apprandom"), None
    )
    real_survivors = [s for s in survivors if s.spec.family != "apprandom"]
    if not real_survivors:
        if fallback is None:
            raise InvalidArgument("no empirical-sampling fallback in roster")
        return fallback.spec.id, True, verdicts
    best = min(
        survivors,
        key=lambda c: (-c.outcome.mean, c.n_predictors, c.roster_pos),
    )
    return best.spec.id, False, verdicts


def _check_assessable(t: Table, config: AssessConfig) -> None:
    if t.n_rows < config.n_folds:
        raise InvalidArgument("fewer rows than folds")
    for c in t.columns:
        if not c.is_encoded:
            raise InvalidArgument(
                f"column {c.name!r} is not encoded; run label_encode first"
            )
        if c.kind is None:
            raise InvalidArgument(
                f"column {c.name!r} has no kind; run infer_column_kinds first"
            )
    if config.dependencies is not None:
        validate_dependency_dict(config.dependencies, t.column_names)


def assess(t: Table, config: AssessConfig) -> list[QualityRecord]:
    """Score every feature under every candidate imputer and pick winners.

    Failures are contained per (feature, imputer) pair: an untrainable
    candidate is recorded as skipped and the rest of the grid proceeds.  The
    result is bit-reproducible for a fixed seed.
    """
    _check_assessable(t, config)
    split_seed = config.seed if config.split_seed is None else config.split_seed
    folds = Folds(t, kfold_split(t.n_rows, config.n_folds, split_seed),
                  config)
    records = []
    for fi, feature in enumerate(t.column_names):
        col = t.column(feature)
        mu = completeness(col)
        candidates = []
        for ii, spec in enumerate(config.imputers):
            n_preds = len(folds.predictors(feature)) if (
                spec.is_multivariate) else 0
            try:
                outcome = imputation_score(
                    feature, spec, folds,
                    scorer=config.scorer_for(col.kind),
                    seed=task_seed(config.seed, fi, ii),
                )
            except (UntrainableImputer, ImputerTrainingError) as exc:
                candidates.append(_Candidate(spec, ii, n_preds, None, str(exc)))
            else:
                candidates.append(_Candidate(spec, ii, n_preds, outcome))

        chosen, fallback_used, verdicts = select_imputer(
            candidates, col, config.alpha
        )
        outcome = next(c.outcome for c in candidates if c.spec.id == chosen)
        delta = 0.0 if outcome is None else outcome.mean
        # nothing scorable; 100%-missing features land here
        unscorable = all(c.outcome is None for c in candidates)

        evaluations = tuple(
            ImputerEvaluation(
                imputer_id=c.spec.id,
                delta_mean=c.outcome.mean if c.outcome else 0.0,
                delta_std=c.outcome.std if c.outcome else 0.0,
                n_predictors=c.n_predictors,
                bias=verdicts.get(c.spec.id),
                skipped=c.outcome is None,
                notes=(c.outcome.notes if c.outcome else (c.skip_note,)),
            )
            for c in candidates
        )
        omega = quality_score(mu, delta)
        kept = True if config.threshold is None else omega >= config.threshold
        records.append(
            QualityRecord(
                feature=feature,
                completeness=mu,
                evaluations=evaluations,
                chosen_imputer=chosen,
                delta=delta,
                omega=omega,
                kept=kept,
                fallback_used=fallback_used,
                notes=("unscorable_feature",) if unscorable else (),
            )
        )
    return records


# ---------------------------------------------------------------------------
# multiple-imputation efficiency


def efficiency(gamma: float, m) -> float:
    """Relative efficiency (1 + gamma/m)^-1 of an m-imputation estimate."""
    if not 0.0 <= gamma <= 1.0:
        raise InvalidArgument(f"gamma must be in [0, 1], got {gamma}")
    if m < 1:
        raise InvalidArgument(f"m must be >= 1, got {m}")
    return 1.0 / (1.0 + gamma / m)


def recommend_imputations(gamma: float, target_efficiency: float) -> int:
    """Smallest integer m with efficiency(gamma, m) >= the target.

    Inverts the efficiency formula, m = gamma * eps / (1 - eps), and rounds
    up; a tiny slack keeps exact inverse pairs from ceiling one too high.
    """
    if not 0.0 <= gamma <= 1.0:
        raise InvalidArgument(f"gamma must be in [0, 1], got {gamma}")
    if not 0.0 < target_efficiency < 1.0:
        raise InvalidArgument(
            f"target efficiency must be in (0, 1), got {target_efficiency}"
        )
    if gamma == 0.0:
        return 1
    exact = gamma * target_efficiency / (1.0 - target_efficiency)
    return max(1, math.ceil(exact - 1e-9))


# ---------------------------------------------------------------------------
# pipeline fitting / application / serialization


@dataclass(frozen=True)
class ColumnSchema:
    name: str
    kind: ColumnKind
    labels: dict[int, str] | None = None

    def to_jsonable(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind.value,
            "labels": (
                None
                if self.labels is None
                else {str(k): v for k, v in self.labels.items()}
            ),
        }

    @classmethod
    def from_jsonable(cls, d: dict) -> "ColumnSchema":
        labels = d.get("labels")
        return cls(
            d["name"],
            ColumnKind(d["kind"]),
            None if labels is None else {int(k): v for k, v in labels.items()},
        )


@dataclass(frozen=True)
class PipelinePlan:
    schema: tuple[ColumnSchema, ...]
    fitted: tuple[FittedImputer, ...]
    drop_list: tuple[str, ...]
    dependencies: dict[str, list[str]] | None
    seed: int
    config_hash: str
    notes: tuple[str, ...] = ()
    # CSV cells that `imputeq apply` reads as missing, as at fit time
    missing_sentinels: tuple[str, ...] = DEFAULT_MISSING_SENTINELS


def fit_pipeline(
    t: Table, records: list[QualityRecord], config: AssessConfig
) -> PipelinePlan:
    """Fit each feature's chosen imputer on the full table, through one
    `Folds` whose fold is `_FINAL_FIT_TAG`: features that pick the same
    iterative candidate over one column set share its chain.

    Features below the quality threshold go on the drop list but still serve
    as predictors while everything else is fit.  A kept feature with no
    observed values at all cannot be fit and is moved to the drop list with a
    note rather than failing the pipeline.  The records must come from
    `assess` under the same roster and dependencies: a multivariate pick left
    without predictors raises `UntrainableImputer`.
    """
    by_id = {s.id: s for s in config.imputers}
    folds = Folds(t, None, config)
    fitted = []
    drop = [r.feature for r in records if not r.kept]
    notes = []
    for fi, record in enumerate(records):
        if not record.kept:
            continue
        col = t.column(record.feature)
        if col.observed_values().size == 0:
            drop.append(record.feature)
            notes.append(f"dropped_unfittable:{record.feature}")
            continue
        spec = replace(
            by_id[record.chosen_imputer],
            seed=task_seed(config.seed, fi, _FINAL_FIT_TAG),
        )
        fitted.append(folds.fit(_FINAL_FIT_TAG, spec, record.feature))

    schema = tuple(
        ColumnSchema(c.name, c.kind, c.labels) for c in t.columns
    )
    return PipelinePlan(
        schema=schema,
        fitted=tuple(fitted),
        drop_list=tuple(drop),
        dependencies=config.dependencies,
        seed=config.seed,
        config_hash=config.config_hash(),
        notes=tuple(notes),
    )


def _encode_column(col: Column, schema: ColumnSchema) -> Column:
    """Input column `col` encoded against its stored schema.  A cell whose
    label the schema lacks (in an encoded column: a code it lacks, or one
    that is not a finite integer) is an unseen category: it becomes a
    missing cell, so that the column's imputer fills it, and the column
    warns once.  An all-blank column loads as strings, so a numeric schema
    turns it into NaN cells under the same mask."""
    if schema.labels is None:
        if col.is_encoded:
            return Column(col.name, col.values, col.mask, schema.kind,
                          col.labels)
        if not col.mask.all():
            raise SchemaMismatch(
                f"column {col.name!r}: expected numeric values"
            )
        return Column(col.name, np.full(col.n_rows, np.nan), col.mask,
                      schema.kind, col.labels)
    if col.is_encoded:
        code_of = {k: float(k) for k in schema.labels}
    else:
        code_of = {v: float(k) for k, v in schema.labels.items()}
    get, nan = code_of.get, math.nan
    codes = [nan if m else get(cell)
             for cell, m in zip(col.values.tolist(), col.mask.tolist())]
    values = np.array(codes, dtype=float)  # an unseen None reads as NaN
    unseen = codes.count(None)
    if unseen:
        warnings.warn(
            f"column {col.name!r}: {unseen} unseen categories treated as "
            "missing",
            ImputeQWarning,
            stacklevel=3,  # the caller of apply_pipeline
        )
    return Column(col.name, values, np.isnan(values), schema.kind,
                  schema.labels)


def apply_pipeline(plan: PipelinePlan, t: Table) -> Table:
    """Encode, impute kept features in plan order, and drop the drop list.

    The input must carry exactly the plan's columns.  Output columns are
    encoded; kept features come back with no missing cells.

    Each column is encoded once; each imputer whose target has a missing
    cell then runs `transform` on the working table, so later imputers read
    earlier fills, and a target with none is skipped.  The input is not
    changed, but an output column that needed neither encoding nor filling
    may share its arrays with the input column.
    """
    given = {c.name: c for c in t.columns}
    want = {s.name for s in plan.schema}
    if given.keys() != want:
        missing = sorted(want - given.keys())
        extra = sorted(given.keys() - want)
        raise SchemaMismatch(
            f"column set differs from plan (missing: {missing}, extra: {extra})"
        )
    cols = []
    for s in plan.schema:  # a loop, not a comprehension: see stacklevel
        cols.append(_encode_column(given[s.name], s))
    work = Table(tuple(cols), t.n_rows)
    incomplete = {c.name for c in cols if np.count_nonzero(c.mask)}
    for f in plan.fitted:
        if f.target_column in incomplete:
            work = transform(f, work)
    if plan.drop_list:
        drop = set(plan.drop_list)
        work = work.select_columns([c.name for c in cols if c.name not in drop])
    return work


def plan_to_jsonable(plan: PipelinePlan) -> dict:
    doc = {
        "format": PIPELINE_FORMAT,
        "schema_version": PIPELINE_SCHEMA_VERSION,
        "schema": [s.to_jsonable() for s in plan.schema],
        "fitted": [fitted_to_jsonable(f) for f in plan.fitted],
        "drop_list": list(plan.drop_list),
        "dependencies": plan.dependencies,
        "seed": plan.seed,
        "config_hash": plan.config_hash,
        "notes": list(plan.notes),
    }
    # written only when set, so plans with the default sentinels keep the
    # bytes they had before the key existed
    if plan.missing_sentinels != DEFAULT_MISSING_SENTINELS:
        doc["missing_sentinels"] = list(plan.missing_sentinels)
    return doc


def serialize_pipeline(plan: PipelinePlan) -> bytes:
    """The plan as compact canonical JSON: sorted keys, no whitespace.

    Without `indent` the standard library keeps its C encoder.  Plans
    written with indentation hold the same document and still load.
    """
    blob = json.dumps(
        plan_to_jsonable(plan), sort_keys=True, separators=(",", ":"),
        allow_nan=False,
    )
    return blob.encode("utf-8")


def deserialize_pipeline(data: bytes) -> PipelinePlan:
    """Parse pipeline JSON back into a plan.

    A format or version mismatch is a `VersionMismatch`; any other damage,
    to a top-level field or to the learned state, is `CorruptModel`.
    """
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise CorruptModel(f"unreadable pipeline data: {exc}") from exc
    if not isinstance(doc, dict):
        raise CorruptModel("pipeline document is not an object")
    if doc.get("format") != PIPELINE_FORMAT:
        raise VersionMismatch(
            f"not a pipeline file (format={doc.get('format')!r})"
        )
    if doc.get("schema_version") != PIPELINE_SCHEMA_VERSION:
        raise VersionMismatch(
            f"unsupported schema_version {doc.get('schema_version')!r}"
        )
    sentinels = doc.get("missing_sentinels", list(DEFAULT_MISSING_SENTINELS))
    if not _is_strings(sentinels):
        raise CorruptModel("pipeline missing_sentinels is not a list of strings")
    try:
        schema = tuple(ColumnSchema.from_jsonable(s) for s in doc["schema"])
        deps, notes = doc["dependencies"], doc.get("notes", [])
        if not (_is_int(doc["seed"], 0)
                and isinstance(doc["config_hash"], str)
                and _is_strings(notes)
                and (deps is None or isinstance(deps, dict)
                     and all(map(_is_strings, deps.values())))):
            raise CorruptModel(
                "pipeline seed, config_hash, notes or dependencies is "
                "malformed")
        if deps is not None:
            validate_dependency_dict(deps, [s.name for s in schema])
        plan = PipelinePlan(
            schema=schema,
            fitted=tuple(fitted_from_jsonable(f) for f in doc["fitted"]),
            drop_list=tuple(doc["drop_list"]),
            dependencies=deps,
            seed=doc["seed"],
            config_hash=doc["config_hash"],
            notes=tuple(notes),
            missing_sentinels=tuple(sentinels),
        )
        _check_plan(plan)
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError,
            InvalidArgument) as exc:
        # OverflowError: an integer too large for a stored int64 array
        raise CorruptModel(f"pipeline data missing or malformed: {exc}") from exc
    return plan


def _is_strings(v) -> bool:
    return isinstance(v, list) and all(isinstance(x, str) for x in v)


def _check_plan(plan: PipelinePlan) -> None:
    """Refuse a loaded plan that cannot serve: each kept column has one
    imputer, whose columns are in the schema; stored numbers are finite
    (a NaN kNN reference cell marks a missing predictor) and stored arrays
    non-empty, in the shapes their columns imply; and a target that is not
    continuous has observed values, each with a string label if labelled."""
    schema = {s.name: s for s in plan.schema}
    if sorted(f.target_column for f in plan.fitted) != sorted(
        set(schema) - set(plan.drop_list)
    ):
        raise CorruptModel("fitted imputers do not target the kept columns")
    for f in plan.fitted:
        state, cols = f.state, f.state.get("columns", ())
        values, target = f.observed_value_set, schema[f.target_column]
        numbers = [values] + [state[k] for k in (
            "fill", "observed", "ref_y", "init_values") if k in state]
        ok = ({*f.predictor_columns, *cols} <= set(schema)
              and all(np.size(x) for x in numbers[1:])
              and (values.size or target.kind is ColumnKind.CONTINUOUS))
        if "ref_X" in state:
            ref_X = state["ref_X"]
            numbers.append(ref_X[~np.isnan(ref_X)])
            ok = ok and ref_X.shape == (*state["ref_y"].shape,
                                        len(f.predictor_columns))
        if "columns" in state:
            p, models = len(cols), state["models"]
            ok = ok and (f.target_column in cols
                         and state["init_values"].shape == (p,)
                         and {*state["visit"], *models} <= set(range(p))
                         and all(_chain_model_reads(m, p - 1, numbers)
                                 for m in models.values()))
        if target.labels is not None:
            ok = ok and target.labels and set(values.tolist()) <= set(
                target.labels
            ) and all(isinstance(v, str) for v in target.labels.values())
        if not (ok and all(np.isfinite(x).all() for x in numbers)):
            raise CorruptModel(
                f"{f.spec.id}: the stored state of {f.target_column!r} is "
                "damaged or names a column the plan lacks"
            )


def _chain_model_reads(m, p: int, numbers: list) -> bool:
    """Whether chain model `m` reads `p` inputs and its trees are sound (a
    forest, which averages them, has at least one, and a GBT has the squared
    loss that chains fit); appends its numbers."""
    if isinstance(m, RidgeModel):
        numbers += [m.weights, m.intercept, m.reg_strength]
        return m.weights.shape == (p,)
    if isinstance(m, GbtModel):
        numbers += [m.base_score, m.learning_rate]
        if m.loss != "squared":
            return False
    elif not m.trees:
        return False
    numbers += [a for t in m.trees for a in (t.threshold, t.value)]
    return all(_tree_reads(t, p) for t in m.trees)


def _tree_reads(t, p: int) -> bool:
    """Whether tree `t` reads at most `p` inputs and prediction ends: its
    five arrays have one non-zero length n, and each split node i has both
    children in (i, n), so every path descends to a leaf."""
    n = t.value.size
    arrays = (t.feature, t.threshold, t.left, t.right, t.value)
    if not (n and all(a.shape == (n,) for a in arrays)):
        return False
    split = np.flatnonzero(t.feature >= 0)
    return bool((t.feature < p).all()) and all(
        ((c[split] > split) & (c[split] < n)).all() for c in (t.left, t.right)
    )


# ---------------------------------------------------------------------------
# report payload


def _test_result_jsonable(r: TestResult | None):
    if r is None:
        return None
    return {
        "statistic": r.statistic,
        "p_value": r.p_value,
        "test": r.test.value,
        "rejected": r.rejected,
        "notes": list(r.notes),
    }


def records_to_jsonable(records: list[QualityRecord]) -> list[dict]:
    out = []
    for r in records:
        out.append(
            {
                "feature": r.feature,
                "completeness": r.completeness,
                "delta": r.delta,
                "omega": r.omega,
                "chosen_imputer": r.chosen_imputer,
                "kept": r.kept,
                "fallback_used": r.fallback_used,
                "notes": list(r.notes),
                "imputers": [
                    {
                        "id": e.imputer_id,
                        "delta_mean": e.delta_mean,
                        "delta_std": e.delta_std,
                        "n_predictors": e.n_predictors,
                        "skipped": e.skipped,
                        "bias": _test_result_jsonable(e.bias),
                        "notes": list(e.notes),
                    }
                    for e in r.evaluations
                ],
            }
        )
    return out
