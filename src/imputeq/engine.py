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

import bisect
import hashlib
import json
import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .depgraph import validate_dependency_dict
from .estimators import _is_int, _is_number
from .errors import (
    ConstantTargetWarning,
    CorruptModel,
    DegenerateInput,
    ImputeQWarning,
    ImputerTrainingError,
    InvalidArgument,
    SchemaError,
    SchemaMismatch,
    UntrainableImputer,
    VersionMismatch,
    _require,
)
from .imputers import (
    FittedImputer,
    ImputerSpec,
    _predictor_matrix,
    fit as fit_imputer,
    fitted_from_jsonable,
    fitted_to_jsonable,
    knn_view_fills,
    retarget,
    task_seed,
    transform,
    warn_unmatched,
    with_fills,
)
from .metrics import balanced_accuracy, macro_balanced_accuracy, nrmse_score
from .report import (
    Jsonable,
    field_types,
    from_jsonable,
    loads_document,
    to_jsonable,
)
from .stattests import TestResult, distribution_compatible
from .table import (
    DEFAULT_MISSING_SENTINELS,
    Column,
    ColumnKind,
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
class AssessConfig(Jsonable):
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
        """Check every field: a bad one raises SchemaError at its name
        ("seed", "imputers[1].id", "scorers.binary", "dependencies.a").
        `alpha` and `threshold` are kept as floats."""
        specs = self.imputers
        _require(isinstance(specs, (list, tuple)) and len(specs) > 0,
                 "imputers", "expected a non-empty sequence of ImputerSpecs")
        ids = set()
        for i, s in enumerate(specs):
            _require(isinstance(s, ImputerSpec), f"imputers[{i}]",
                     "expected an ImputerSpec")
            _require(s.id not in ids, f"imputers[{i}].id",
                     "duplicate imputer id")
            ids.add(s.id)
        _require(_is_int(self.seed, 0), "seed", "expected an integer >= 0")
        if not any(s.family == "apprandom" for s in specs):
            _require("apprandom" not in ids, "imputers",
                     "'apprandom' is the id of the appended fallback")
            fallback = ImputerSpec("apprandom", "apprandom", {}, self.seed)
            object.__setattr__(self, "imputers", (*specs, fallback))
        _require(_is_int(self.n_folds, 2), "n_folds",
                 "expected an integer >= 2")
        _require(self.split_seed is None or _is_int(self.split_seed, 0),
                 "split_seed", "expected None or an integer >= 0")
        _require(_is_number(self.alpha, 0.0) and 0.0 < self.alpha < 1.0,
                 "alpha", "expected a number in (0, 1)")
        object.__setattr__(self, "alpha", float(self.alpha))
        if self.threshold is not None:
            _require(_is_number(self.threshold, 0.0, 1.0), "threshold",
                     "expected a number in [0, 1]")
            object.__setattr__(self, "threshold", float(self.threshold))
        if self.scorers is not None:
            _require(isinstance(self.scorers, dict), "scorers",
                     "expected a dict of column kind -> scorer name")
            kinds = sorted(k.value for k in ColumnKind)
            for kind_name, name in self.scorers.items():
                path = f"scorers.{kind_name}"
                _require(kind_name in kinds, path,
                         f"unknown column kind (expected one of {kinds})")
                _require(isinstance(name, str) and name in SCORER_REGISTRY,
                         path, "unknown scorer (expected one of "
                         f"{sorted(SCORER_REGISTRY)})")
        if self.dependencies is not None:
            from_jsonable(dict[str, list[str]], self.dependencies,
                          "dependencies")

    def scorer_for(self, kind: ColumnKind):
        if self.scorers and kind.value in self.scorers:
            return SCORER_REGISTRY[self.scorers[kind.value]]
        return default_scorer_for(kind)

    @cached_property
    def config_hash(self) -> str:
        """The hash of the config's document, derived on first use."""
        blob = json.dumps(self.to_jsonable(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(frozen=True)
class ImputerEvaluation:
    imputer_id: str
    delta_mean: float
    delta_std: float
    n_predictors: int
    bias: TestResult | None
    skipped: bool
    notes: tuple[str, ...] = ()
    json_keys = {"imputer_id": "id"}

    def __post_init__(self):
        """Scores in range, and a bias test exactly when the candidate was
        scored, or SchemaError at the field."""
        _require(_is_number(self.delta_mean, 0.0, 1.0), "delta_mean",
                 "expected a number in [0, 1]")
        _require(_is_number(self.delta_std, 0.0), "delta_std",
                 "expected a number in [0, inf)")
        _require((self.bias is None) == self.skipped, "bias",
                 "expected a test result exactly when not skipped")


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
    json_keys = {"evaluations": "imputers"}

    def __post_init__(self):
        """Scores in [0, 1] and a chosen imputer that one of the evaluations
        names, or SchemaError at the field."""
        for name in ("completeness", "delta", "omega"):
            _require(_is_number(getattr(self, name), 0.0, 1.0), name,
                     "expected a number in [0, 1]")
        _require(any(e.imputer_id == self.chosen_imputer
                     for e in self.evaluations), "chosen_imputer",
                 "expected the id of one of the record's imputers")


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

    - Per fold: the table's train and test rows, cut when it is made and
      kept for the whole assessment.  Every fit, transform and fill reads
      its columns by name, so one pair of slices serves every view.
    - An iterative candidate is fit once per (fold, candidate, view column
      set), with the chain seed of `fit`; every other feature of that
      column set gets its imputer through `retarget`.
    - Per fold: the kNN fills of every view and roster k, from one pass of
      distance blocks at the fold's first kNN request (see `knn_fills`),
      kept for the whole assessment.

    The table and the config are fixed at construction, so nothing kept can
    outlive them.  `fit_pipeline` uses one with no splits: its one fold is
    the whole table, under `_FINAL_FIT_TAG`.
    """

    def __init__(self, t: Table, splits: tuple | None,
                 config: AssessConfig):
        self.t = t
        self.splits = splits
        self.config = config
        self._roster_pos = {s.id: i for i, s in enumerate(config.imputers)}
        self._ks = sorted({s.params["n_neighbors"] for s in config.imputers
                           if s.family == "knn"})
        # fold -> (train, test) rows of the table
        self._rows = None if splits is None else [
            (t.select_rows(train), t.select_rows(test))
            for train, test in splits]
        self._chains = {}  # (fold, imputer id, view columns) -> fitted chain
        self._knn = {}  # fold -> {target: [fills by k, warn]}

    def rows(self, fold_idx) -> tuple[Table, Table | None]:
        """The (train, test) rows of fold `fold_idx` of the table; with no
        splits, (the whole table, None) for any fold."""
        if self._rows is None:
            return self.t, None
        return self._rows[fold_idx]

    def predictors(self, feature: str) -> tuple[str, ...]:
        """The columns that impute `feature`: its dependencies, or else
        every other column of the table."""
        if self.config.dependencies is None:
            return tuple(n for n in self.t.column_names if n != feature)
        return tuple(self.config.dependencies.get(feature, []))

    def n_predictors(self, feature: str, spec: ImputerSpec) -> int:
        """The predictor count that `spec`'s evaluation records."""
        return len(self.predictors(feature)) if spec.is_multivariate else 0

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
            self.config.seed, self._roster_pos[spec.id], fold_idx))
        key = (fold_idx, spec.id, frozenset((*predictors, target)))
        if key not in self._chains:  # the chain, fit for `target`
            self._chains[key] = fit_imputer(spec, train, target, predictors)
            return self._chains[key]
        return retarget(self._chains[key], train, target, predictors)

    def knn_fills(self, fold_idx, fitted) -> np.ndarray:
        """`fitted`'s fills for every test row of fold `fold_idx`, where
        `fitted` is a kNN candidate of the roster from `fit`.

        The fold's first request fills every view of the table at once, for
        every roster k, bit for bit as `transform` serves each view's own
        fit; so one feature scored alone pays the kNN work of them all.
        The one `warn_unmatched` warning of a view and fold comes with its
        first read.
        """
        k = fitted.spec.params["n_neighbors"]
        if k not in self._ks:
            raise InvalidArgument(
                f"{fitted.spec.id}: not in the assessed roster")
        if fold_idx not in self._knn:
            self._knn[fold_idx] = self._knn_pass(fold_idx)
        entry = self._knn[fold_idx][fitted.target_column]
        if entry[1]:
            entry[1] = False
            warn_unmatched(stacklevel=2)
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
            _predictor_matrix(train, names),
            _predictor_matrix(test, names),
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
    seed: int = 0,
) -> ImputerEvaluation:
    """Mask-and-reimpute evaluation of one imputer on one feature of the
    table of `folds`: the candidate's scored `ImputerEvaluation`.

    Per fold: fit on the training rows from the feature's predictors, mask
    every originally observed target cell in the test rows, transform, and
    score re-imputations against the originals with the config's scorer
    for the feature's kind.  Cells that were missing to
    begin with are filled too but never scored.  The evaluation holds the
    fold mean (clamped to [0, 1]), the fold std, and the bias veto of the
    pooled re-imputations at the config's alpha.

    Fold rows, chains and kNN fills are shared through `folds` with the
    other features and candidates scored on it (see `Folds`); every share is
    bit-identical to the feature's own fit.  `seed` seeds the non-iterative
    candidates of each fold; a chain takes the seed `Folds.fit` gives it.
    With the seed `assess` gives it, this is the record `assess` stores.
    """
    col = folds.t.column(feature)
    scorer = folds.config.scorer_for(col.kind)
    n_preds = folds.n_predictors(feature, spec)
    if spec.is_multivariate and not n_preds:
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
            # a non-finite score is refused below; only a constant target,
            # which `nrmse_score` warns of, enters `catch_warnings`, as
            # entering it resets the registry of warnings shown once
            with np.errstate(all="ignore"):
                if want.min() != want.max():
                    fold_scores.append(float(scorer(want, got)))
                else:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", ConstantTargetWarning)
                        fold_scores.append(float(scorer(want, got)))
        except DegenerateInput:
            notes.add("unscorable_fold")

    if not fold_scores:
        raise UntrainableImputer(
            f"{spec.id}: no scorable fold for {feature!r}"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        raw_mean = float(np.mean(fold_scores))
        std = float(np.std(fold_scores))
    if not (math.isfinite(raw_mean) and math.isfinite(std)):
        raise DegenerateInput(f"{spec.id}: score for {feature!r} is not "
                              f"finite (mean {raw_mean}, std {std})")
    mean = min(max(raw_mean, 0.0), 1.0)
    if mean != raw_mean:
        notes.add("clamped")
    bias = distribution_compatible(col, col.observed_values(),
                                   np.concatenate(pooled), folds.config.alpha)
    return ImputerEvaluation(spec.id, mean, std, n_preds, bias, False,
                             tuple(sorted(notes)))


def select_imputer(
    evaluations: list[ImputerEvaluation], roster: tuple[ImputerSpec, ...]
) -> tuple[str, bool]:
    """Veto-then-argmax choice of a feature's imputer, where evaluation i
    scores roster entry i: the chosen id and whether it is the fallback.

    A skipped evaluation, or one whose pooled re-imputations failed the
    distribution test, is out.  The best remaining mean score wins; ties
    prefer fewer predictors, then roster order.  When nothing but empirical
    sampling remains (or nothing at all), the roster's first `apprandom`
    candidate is the fallback.
    """
    if [e.imputer_id for e in evaluations] != [s.id for s in roster]:
        raise InvalidArgument("expected one evaluation per roster entry, "
                              "in roster order")
    survivors = [(-e.delta_mean, e.n_predictors, i)
                 for i, e in enumerate(evaluations)
                 if not (e.skipped or e.bias.rejected)]
    if all(roster[i].family == "apprandom" for *_, i in survivors):
        fallback = next((s for s in roster if s.family == "apprandom"), None)
        if fallback is None:
            raise InvalidArgument("no empirical-sampling fallback in roster")
        return fallback.id, True
    return roster[min(survivors)[2]].id, False


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
        mu = completeness(t.column(feature))
        evaluations = []
        for ii, spec in enumerate(config.imputers):
            try:
                evaluations.append(imputation_score(
                    feature, spec, folds,
                    seed=task_seed(config.seed, fi, ii)))
            except (UntrainableImputer, ImputerTrainingError) as exc:
                evaluations.append(ImputerEvaluation(
                    spec.id, 0.0, 0.0, folds.n_predictors(feature, spec),
                    None, True, (str(exc),)))

        chosen, fallback_used = select_imputer(evaluations, config.imputers)
        delta = next(e.delta_mean for e in evaluations
                     if e.imputer_id == chosen)
        # nothing scorable; 100%-missing features land here
        unscorable = all(e.skipped for e in evaluations)
        omega = quality_score(mu, delta)
        kept = True if config.threshold is None else omega >= config.threshold
        records.append(
            QualityRecord(
                feature=feature,
                completeness=mu,
                evaluations=tuple(evaluations),
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

    The inverse m = gamma * eps / (1 - eps), rounded up, is only near the
    answer in floats: it bounds a bisection that judges m by `efficiency`.
    """
    if not 0.0 <= gamma <= 1.0:
        raise InvalidArgument(f"gamma must be in [0, 1], got {gamma}")
    if not 0.0 < target_efficiency < 1.0:
        raise InvalidArgument(
            f"target efficiency must be in (0, 1), got {target_efficiency}"
        )
    hi = max(1, math.ceil(gamma * target_efficiency
                          / (1.0 - target_efficiency)))
    while efficiency(gamma, hi) < target_efficiency:
        hi *= 2
    return 1 + bisect.bisect_left(
        range(1, hi + 1), True,
        key=lambda m: efficiency(gamma, m) >= target_efficiency)


# ---------------------------------------------------------------------------
# pipeline fitting / application / serialization


@dataclass(frozen=True)
class ColumnSchema(Jsonable):
    name: str
    kind: ColumnKind
    labels: dict[int, str] | None = None

    # the code of each input cell of a labelled column, derived on first
    # use and never serialized: by label for a column of strings, by code
    # for an encoded one
    @cached_property
    def code_of_label(self) -> dict[str, float]:
        return {v: float(k) for k, v in self.labels.items()}

    @cached_property
    def code_of_code(self) -> dict[int, float]:
        return {k: float(k) for k in self.labels}


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

    def __post_init__(self):
        """Check the rules that span the plan, in this order, with
        SchemaError at the field of the first one broken: a seed >= 0;
        imputers of schema columns, whose targets and the drop list cover
        the schema once each; observed values (label codes, if labelled)
        for a target that is not continuous; valid dependencies.  A path is
        built only for a fault."""
        if not _is_int(self.seed, 0):
            raise SchemaError("seed", "expected an integer >= 0")
        schema = {s.name: s for s in self.schema}
        names = set(schema)
        for i, f in enumerate(self.fitted):
            target = schema.get(f.target_column)
            if target is None:
                raise SchemaError(f"fitted[{i}].target_column",
                                  "expected a schema column")
            if not names.issuperset(f.predictor_columns):
                raise SchemaError(f"fitted[{i}].predictor_columns",
                                  "expected schema columns")
            labels = target.labels
            if not (f.observed_value_set.size
                    or target.kind is ColumnKind.CONTINUOUS):
                raise SchemaError(f"fitted[{i}].observed_value_set",
                                  "expected the target's observed values")
            if labels is not None and not (
                    labels and labels.keys() >= set(f.rounding_set)):
                raise SchemaError(f"fitted[{i}].observed_value_set",
                                  "expected codes of the target's labels")
        covered = [*(f.target_column for f in self.fitted), *self.drop_list]
        if not (len(covered) == len(names) and names == set(covered)):
            raise SchemaError("drop_list", "the fitted imputers and the drop "
                              "list do not cover the schema columns once each")
        if self.dependencies is not None:
            try:
                validate_dependency_dict(self.dependencies, list(schema))
            except InvalidArgument as exc:
                raise SchemaError("dependencies", str(exc)) from exc


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
        config_hash=config.config_hash,
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
    get = (schema.code_of_code if col.is_encoded
           else schema.code_of_label).get
    nan = math.nan
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


# the plan document's fields, as `deserialize_pipeline` first reads them
_PLAN_FIELDS = {**field_types(PipelinePlan), "fitted": tuple[dict, ...]}


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


def document_body(doc, fmt: str, version: int, defaults: dict) -> dict:
    """The fields of document `doc`, with `defaults` for those it lacks:
    CorruptModel if it is no object, VersionMismatch unless its format is
    `fmt` and its schema_version the integer `version`."""
    if not isinstance(doc, dict):
        raise CorruptModel(f"the {fmt} document is not an object")
    found = doc.get("format"), doc.get("schema_version")
    if found != (fmt, version) or type(found[1]) is not int:
        raise VersionMismatch(f"expected format {fmt!r} schema_version "
                              f"{version}, found {found[0]!r} {found[1]!r}")
    body = {**defaults, **doc}
    del body["format"], body["schema_version"]
    return body


def deserialize_pipeline(data: bytes) -> PipelinePlan:
    """Parse pipeline JSON back into a plan.

    A format or version mismatch is a `VersionMismatch`; any other damage is
    `CorruptModel` at its document path, found by the decoder (types and
    finite numbers), `fitted_from_jsonable` (each imputer's state) or
    `PipelinePlan` (the rules that span the plan).
    """
    try:
        doc = loads_document(data)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise CorruptModel(f"unreadable pipeline data: {exc}") from exc
    # `missing_sentinels` is written only when it is not the default
    body = document_body(doc, PIPELINE_FORMAT, PIPELINE_SCHEMA_VERSION, {
        "missing_sentinels": list(DEFAULT_MISSING_SENTINELS)})
    try:
        values = from_jsonable(_PLAN_FIELDS, body, "")
        values["fitted"] = tuple(fitted_from_jsonable(f, f"fitted[{i}]")
                                 for i, f in enumerate(values["fitted"]))
        return PipelinePlan(**values)
    except SchemaError as exc:
        raise CorruptModel(str(exc)) from exc


# ---------------------------------------------------------------------------
# report payload


def records_to_jsonable(records: list[QualityRecord]) -> list[dict]:
    """The records' documents, each under its class's `json_keys`."""
    return to_jsonable(records)
