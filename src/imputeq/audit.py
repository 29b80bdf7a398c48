"""Detectability audit: can a classifier tell imputed cells from observed?

After a strategy fills a dataset, each feature's original missingness mask
becomes a binary target and a boosted classifier tries to predict it from
the completed table.  High AUROC means the imputations are easy to spot,
which is bad: the filled values carry a detectable signature (the classic
example is a mean imputer stamping one constant everywhere).  Lower is
better; chance level 0.5 means the imputed cells blend in.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace

import numpy as np

from .engine import AssessConfig, apply_pipeline, assess, fit_pipeline
from .errors import (
    DegenerateInput,
    ImputeQError,
    ImputerTrainingError,
    InvalidArgument,
    InvalidFoldCount,
)
from .estimators import _is_int, gbt_fit, gbt_predict_proba
from .imputers import (ImputerSpec, _predictor_matrix, fit as fit_imputer,
                       task_seed, transform)
from .metrics import auroc, mean_ci
from .report import Jsonable
from .table import Column, Table, inject_mcar, kfold_split

DEFAULT_AUDIT_FOLDS = 5


@dataclass(frozen=True)
class FeatureAudit:
    feature: str
    skipped: bool
    mean_auroc: float | None = None
    ci_half_width: float | None = None
    reason: str = ""


@dataclass(frozen=True)
class AuditReport(Jsonable):
    strategy: str
    missingness_level: float
    per_feature: tuple[FeatureAudit, ...]
    strategy_average: float | None
    notes: tuple[str, ...] = ()
    json_tags = {"lower_is_better": True}


def single_imputer_strategy(family: str, params: dict | None = None):
    """Strategy factory: fit one imputer family for every incomplete column.

    The returned callable matches the build_completed_dataset contract:
    factory(train, seed) -> transform function over a test table.
    """
    params = dict(params or {})

    def factory(train: Table, seed: int):
        fitted = []
        for idx, col in enumerate(train.columns):
            spec = ImputerSpec(
                f"audit_{family}_{col.name}", family, dict(params),
                seed=task_seed(seed, idx),
            )
            predictors = tuple(
                n for n in train.column_names if n != col.name
            )
            if not spec.is_multivariate:
                predictors = ()
            fitted.append(fit_imputer(spec, train, col.name, predictors))

        def apply(test: Table) -> Table:
            out = test
            for f in fitted:
                out = transform(f, out)
            return out

        return apply

    return factory


def pipeline_strategy(config: AssessConfig):
    """Strategy factory that runs the full assessment pipeline per fold.

    Each training fold gets its own assessment pass (threshold disabled so
    no column is dropped), a pipeline fitted from the winning imputers, and
    the fitted pipeline applied to the held-out rows.
    """

    def factory(train: Table, seed: int):
        fold_config = replace(config, seed=seed, threshold=None)
        records = assess(train, fold_config)
        plan = fit_pipeline(train, records, fold_config)

        def apply(test: Table) -> Table:
            return apply_pipeline(plan, test)

        return apply

    return factory


def build_completed_dataset(
    t: Table, pipeline_factory, k: int = DEFAULT_AUDIT_FOLDS, seed: int = 0
) -> tuple[Table, dict[str, np.ndarray]]:
    """Cross-fit completion: fill each test fold with imputers trained on the
    complementary rows, then reassemble the slices in original row order.

    Returns the completed table plus the original missingness mask per
    column, which later becomes the audit target.
    """
    splits = kfold_split(t.n_rows, k, seed)
    values = {c.name: c.values.astype(float).copy() for c in t.columns}
    original_mask = {c.name: c.mask.copy() for c in t.columns}

    for fold_idx, (train_idx, test_idx) in enumerate(splits):
        apply_fn = pipeline_factory(
            t.select_rows(train_idx), task_seed(seed, fold_idx)
        )
        filled = apply_fn(t.select_rows(test_idx))
        for c in t.columns:
            got = filled.column(c.name)
            if got.mask.any():
                raise ImputerTrainingError(
                    f"strategy left missing cells in {c.name!r}"
                )
            values[c.name][test_idx] = got.values

    cols = tuple(
        Column(
            c.name,
            values[c.name],
            np.zeros(t.n_rows, dtype=bool),
            kind=c.kind,
            labels=c.labels,
        )
        for c in t.columns
    )
    return Table(cols, t.n_rows), original_mask


def _stratified_folds(y: np.ndarray, k: int, seed: int):
    """The sorted (train, test) rows of `k` folds of the 0/1 labels `y`:
    each class's shuffled rows are dealt round the folds, so both are in
    every fold."""
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    fold = np.empty(y.size, dtype=int)
    for cls in (0, 1):
        idx = np.flatnonzero(y == cls)
        fold[idx[rng.permutation(idx.size)]] = np.arange(idx.size) % k
    return [(np.flatnonzero(fold != i), np.flatnonzero(fold == i))
            for i in range(k)]


def audit_feature(
    dprime: Table,
    mask_x: np.ndarray,
    k: int = DEFAULT_AUDIT_FOLDS,
    seed: int = 0,
    feature: str = "",
) -> FeatureAudit:
    """Mean cross-validated AUROC for predicting one feature's mask with a
    logistic `gbt_fit` at its default capacity.

    Needs at least 2k cells of each class so every fold sees both; thin
    masks are reported as skipped, mirroring blank rows in a results table.
    """
    y = np.asarray(mask_x).astype(int)
    n_pos = int(y.sum())
    n_neg = int(y.size - n_pos)
    if n_pos < 2 * k or n_neg < 2 * k:
        return FeatureAudit(
            feature, skipped=True, reason="insufficient_missing"
        )
    X = _predictor_matrix(dprime, dprime.column_names)
    scores = []
    for fold_idx, (train, test) in enumerate(_stratified_folds(y, k, seed)):
        model = gbt_fit(
            X[train],
            y[train].astype(float),
            loss="logistic",
            seed=task_seed(seed, fold_idx),
        )
        try:
            scores.append(auroc(y[test], gbt_predict_proba(model, X[test])))
        except DegenerateInput:
            continue
    if len(scores) < 2:
        return FeatureAudit(feature, skipped=True, reason="degenerate_target")
    m, half = mean_ci(np.asarray(scores))
    return FeatureAudit(feature, skipped=False, mean_auroc=m,
                        ci_half_width=half)


def inject_to_level(t: Table, level: float, seed: int) -> Table:
    """Raise the table's overall missing-cell fraction to the target level.

    Existing holes stay; observed cells flip with the probability that moves
    the expected overall fraction from its current value to the target.  A
    level at or below the current fraction changes nothing.
    """
    current = t.missing_cell_fraction()
    if level <= current:
        return t
    return inject_mcar(t, (level - current) / (1.0 - current), seed)


def audit_all(
    t: Table,
    strategies: dict,
    levels: list[float],
    seed: int = 0,
    k: int = DEFAULT_AUDIT_FOLDS,
) -> list[AuditReport]:
    """Audit every strategy at every missingness level.

    Reports come back grouped by level in input order, strategies in input
    order within each level.  A strategy that fails outright at some level
    yields a report with every feature skipped instead of aborting the run;
    a bad level or fold count `k` raises before any strategy runs.
    """
    for level in levels:
        if not 0.0 <= level < 1.0:
            raise InvalidArgument(f"level must be in [0, 1), got {level}")
    if not (_is_int(k, 2) and k <= t.n_rows):
        raise InvalidFoldCount(f"k={k!r} outside [2, {t.n_rows}]")
    reports = []
    for li, level in enumerate(levels):
        injected = inject_to_level(t, level, task_seed(seed, li))
        for si, (name, factory) in enumerate(strategies.items()):
            reports.append(
                _audit_one(injected, name, factory, level, k,
                           task_seed(seed, li, si))
            )
    return reports


def _audit_one(
    t: Table, name: str, factory, level: float, k: int, seed: int
) -> AuditReport:
    try:
        dprime, masks = build_completed_dataset(t, factory, k, seed)
    except ImputeQError as exc:
        per_feature = tuple(
            FeatureAudit(c.name, skipped=True, reason=f"strategy_error: {exc}")
            for c in t.columns
        )
        return AuditReport(name, level, per_feature, None,
                           notes=("strategy_error",))

    per_feature = tuple(
        audit_feature(dprime, masks[feature], k, task_seed(seed, idx),
                      feature)
        for idx, feature in enumerate(dprime.column_names)
    )
    scored = [f.mean_auroc for f in per_feature if not f.skipped]
    average = float(np.mean(scored)) if scored else None
    return AuditReport(name, level, per_feature, average)


def audit_matrix_csv(reports: list[AuditReport]) -> str:
    """Feature-by-strategy table per level: mean+-ci cells, average row."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    by_level: dict[float, list[AuditReport]] = {}
    for r in reports:
        by_level.setdefault(r.missingness_level, []).append(r)
    for level, group in by_level.items():
        writer.writerow([f"missingness={level:g}"])
        writer.writerow(["feature", *[r.strategy for r in group]])
        features = [f.feature for f in group[0].per_feature]
        for fi, feat in enumerate(features):
            row = [feat]
            for r in group:
                cell = r.per_feature[fi]
                if cell.skipped:
                    row.append("")
                else:
                    row.append(
                        f"{cell.mean_auroc:.3f}+-{cell.ci_half_width:.3f}"
                    )
            writer.writerow(row)
        writer.writerow(
            ["average"]
            + [
                "" if r.strategy_average is None
                else f"{r.strategy_average:.3f}"
                for r in group
            ]
        )
        writer.writerow([])
    return buf.getvalue()
