import json
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imputeq import engine, stattests
from imputeq.engine import (
    AssessConfig,
    ColumnSchema,
    Folds,
    ImputerEvaluation,
    PipelinePlan,
    QualityRecord,
    apply_pipeline,
    assess,
    deserialize_pipeline,
    efficiency,
    fit_pipeline,
    imputation_score,
    plan_to_jsonable,
    quality_score,
    recommend_imputations,
    records_to_jsonable,
    select_imputer,
    serialize_pipeline,
)
from imputeq.errors import (
    CorruptModel,
    DegenerateInput,
    ImputeQError,
    ImputeQWarning,
    InvalidArgument,
    SchemaError,
    SchemaMismatch,
    UntrainableImputer,
    VersionMismatch,
)
from imputeq.imputers import (
    ImputerSpec,
    fit as fit_imputer,
    fitted_to_jsonable,
    task_seed,
    transform,
)
from imputeq.table import Column, ColumnKind, Table, inject_mcar, kfold_split

from conftest import picked


def make_table(columns):
    cols = []
    for name, values, kind in columns:
        values = np.asarray(values, dtype=float)
        mask = np.isnan(values)
        cols.append(Column(name, values, mask, kind=kind))
    return Table(tuple(cols), len(columns[0][1]))


def folds_of(t, splits, *roster, seed=0, deps=None):
    """The `Folds` of `t` and `splits` for an assessment of `roster` under
    `seed` and the dependencies `deps`."""
    return Folds(t, splits, AssessConfig(roster, seed=seed, dependencies=deps))


def linear_pair(n=300, noise=0.05, miss=0.3, seed=0):
    """x, complete, and y = 2x + noise with MCAR gaps at rate `miss`."""
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 1, n)
    y = 2.0 * x + rng.normal(0, noise * x.std(), n)
    t = make_table([
        ("x", x, ColumnKind.CONTINUOUS),
        ("y", y, ColumnKind.CONTINUOUS),
    ])
    gapped = inject_mcar(t.select_columns(["y"]), miss, seed=seed + 1)
    return t.with_column(gapped.column("y"))


def score_traced(feature, spec, folds, scorer=None, **kwargs):
    """`imputation_score`'s evaluation, the fold scores of its scorer (the
    config's, or `scorer` in its place) and the pooled re-imputations that
    its bias test read."""
    kind = folds.t.column(feature).kind
    scorer = scorer or folds.config.scorer_for(kind)
    fold_scores, pooled = [], []

    def scorer_spy(want, got):
        fold_scores.append(scorer(want, got))
        return fold_scores[-1]

    def bias_spy(col, observed, got, alpha):
        pooled.append(got)
        return stattests.distribution_compatible(col, observed, got, alpha)

    with mock.patch.object(engine, "distribution_compatible", bias_spy), \
            mock.patch.object(AssessConfig, "scorer_for",
                              lambda config, k: scorer_spy):
        e = imputation_score(feature, spec, folds, **kwargs)
    return e, fold_scores, *pooled


BASIC_ROSTER = (
    ImputerSpec("mean", "simple", {"statistic": "mean"}),
    ImputerSpec("iter_ridge", "iterative", {"estimator": "ridge"}),
    ImputerSpec("apprandom", "apprandom", {}),
)

RIDGE = ImputerSpec("iter_ridge", "iterative", {"estimator": "ridge"})
FOREST = ImputerSpec("iter_forest", "iterative", {
    "estimator": "forest", "n_estimators": 3, "max_depth": 3, "max_iter": 2})
GBT = ImputerSpec("iter_gbt", "iterative", {
    "estimator": "gbt", "n_estimators": 3, "max_depth": 2, "max_iter": 2})
KNN3 = ImputerSpec("knn3", "knn", {"n_neighbors": 3})
KNN5 = ImputerSpec("knn5", "knn", {"n_neighbors": 5})
FALLBACK4 = ImputerSpec("apprandom", "apprandom", {}, 4)  # seed-4 fallback


class TestQualityScore:
    def test_complete_feature_is_perfect(self):
        assert quality_score(1.0, 0.0) == 1.0

    def test_perfectly_imputable_is_perfect(self):
        assert quality_score(0.0, 1.0) == 1.0

    def test_worked_value(self):
        assert quality_score(0.8, 0.5) == pytest.approx(0.9)

    def test_monotone_in_both_arguments(self):
        grid = np.linspace(0, 1, 11)
        for d in grid:
            vals = [quality_score(m, d) for m in grid]
            assert all(b >= a for a, b in zip(vals, vals[1:]))
        for m in grid:
            vals = [quality_score(m, d) for d in grid]
            assert all(b >= a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("mu,delta", [(-0.1, 0.5), (1.1, 0.5),
                                          (0.5, -0.1), (0.5, 1.1)])
    def test_rejects_out_of_range(self, mu, delta):
        with pytest.raises(InvalidArgument):
            quality_score(mu, delta)

    @pytest.mark.parametrize("mu,delta", [(np.nan, 0.5), (0.5, np.nan)])
    def test_rejects_nan(self, mu, delta):
        with pytest.raises(InvalidArgument):
            quality_score(mu, delta)

    def test_missingness_weighted_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            mis = float(rng.uniform(0, 1))
            delta = float(rng.uniform(0, 1))
            direct = quality_score(1.0 - mis, delta)
            assert direct == (1.0 - mis) * 1.0 + mis * delta


class TestEfficiency:
    def test_worked_values(self):
        assert efficiency(0.5, 10) == pytest.approx(0.9524, abs=5e-5)
        assert efficiency(0.5, 20) == pytest.approx(0.9756, abs=5e-5)

    def test_no_missing_information_is_free(self):
        assert efficiency(0.0, 1) == 1.0

    def test_more_imputations_help(self):
        vals = [efficiency(0.7, m) for m in range(1, 30)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("gamma,m", [(-0.1, 5), (1.5, 5), (0.5, 0)])
    def test_rejects_bad_arguments(self, gamma, m):
        with pytest.raises(InvalidArgument):
            efficiency(gamma, m)


class TestRecommendImputations:
    def test_worked_values(self):
        assert recommend_imputations(0.5, 0.95) == 10
        assert recommend_imputations(0.99, 0.95) == 19

    def test_zero_missing_information(self):
        assert recommend_imputations(0.0, 0.99) == 1

    def test_inverse_pair(self):
        for gamma in (0.05, 0.3, 0.5, 0.77, 1.0):
            for m in range(1, 40):
                eps = efficiency(gamma, m)
                assert recommend_imputations(gamma, eps) == m

    def test_result_actually_meets_target(self):
        for gamma in (0.1, 0.5, 0.9):
            for eps in (0.8, 0.9, 0.95, 0.99):
                m = recommend_imputations(gamma, eps)
                assert efficiency(gamma, m) >= eps
                if m > 1:
                    assert efficiency(gamma, m - 1) < eps

    @settings(max_examples=500, deadline=None)
    @given(gamma=st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.9, 1.0]),
                           st.floats(0.0, 1.0)),
           eps=st.one_of(
               st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
               st.tuples(st.integers(1, 40), st.integers(1, 9)).map(
                   lambda km: 1.0 / (1.0 + 0.5 / km[0]) + km[1] * 1e-10),
               st.integers(1, 60).map(lambda k: 1.0 - k * 2.0**-53)))
    def test_smallest_m_meeting_the_target(self, gamma, eps):
        # no tolerance: the answer meets the target and one less does not,
        # just above an exact inverse and within an ulp or so of 1 too
        m = recommend_imputations(gamma, eps)
        assert efficiency(gamma, m) >= eps
        assert m == 1 or efficiency(gamma, m - 1) < eps

    def test_just_above_an_exact_inverse(self):
        # the 1e-9 slack of the inverse answered 1, whose efficiency is
        # 0.6667, below the target
        assert recommend_imputations(0.5, 0.6666666667111111) == 2

    @pytest.mark.parametrize("gamma,eps", [(0.5, 1.0), (0.5, 0.0),
                                           (0.5, 1.2), (-0.1, 0.9)])
    def test_rejects_bad_arguments(self, gamma, eps):
        with pytest.raises(InvalidArgument):
            recommend_imputations(gamma, eps)


class TestImputationScore:
    def test_strong_signal_scores_high(self):
        t = linear_pair(seed=5)
        splits = kfold_split(t.n_rows, 5, 0)
        spec = ImputerSpec("iter_ridge", "iterative", {"estimator": "ridge"})
        out, fold_scores, pooled = score_traced(
            "y", spec, folds_of(t, splits, spec), seed=1)
        assert out.delta_mean > 0.95
        assert len(fold_scores) == 5
        assert pooled.size > 0

    def test_random_sampling_scores_lower(self):
        t = linear_pair(seed=5)
        splits = kfold_split(t.n_rows, 5, 0)
        ridge = ImputerSpec("ir", "iterative", {"estimator": "ridge"})
        sampler = ImputerSpec("ar", "apprandom", {})
        folds = folds_of(t, splits, ridge, sampler)
        good = imputation_score("y", ridge, folds, seed=1)
        rough = imputation_score("y", sampler, folds, seed=1)
        assert good.delta_mean - rough.delta_mean >= 0.2

    def test_negative_fold_means_clamp_to_zero(self):
        t = linear_pair(seed=2)
        splits = kfold_split(t.n_rows, 5, 0)
        spec = ImputerSpec("m", "simple", {"statistic": "mean"})
        out, *_ = score_traced("y", spec, folds_of(t, splits, spec), seed=1,
                               scorer=lambda a, b: -0.25)
        assert out.delta_mean == 0.0
        assert "clamped" in out.notes

    def test_nan_fold_mean_is_rejected(self):
        t = linear_pair(seed=2)
        splits = kfold_split(t.n_rows, 5, 0)
        spec = ImputerSpec("m", "simple", {"statistic": "mean"})
        with pytest.raises(DegenerateInput):
            score_traced("y", spec, folds_of(t, splits, spec), seed=1,
                         scorer=lambda a, b: float("nan"))

    def test_infinite_fold_mean_is_rejected(self):
        # finite cells near 1e160 overflow the squared errors of a mean
        # fill, so every fold scores -inf: a named error, never a record
        # with a NaN spread
        rng = np.random.default_rng(0)
        a = rng.normal(size=60) * 1e160
        a[::5] = np.nan
        t = make_table([("a", a, ColumnKind.CONTINUOUS),
                        ("b", rng.normal(size=60), ColumnKind.CONTINUOUS)])
        splits = kfold_split(t.n_rows, 3, 0)
        spec = ImputerSpec("m", "simple", {"statistic": "mean"})
        with pytest.raises(DegenerateInput, match="not finite"):
            imputation_score("a", spec, folds_of(t, splits, spec), seed=1)

    def test_infinite_fold_spread_is_rejected(self):
        # cells near 0 with two near 1e100: the fold scores have a finite
        # mean, but their std overflows; a named error, never a record with
        # an inf spread
        a = np.concatenate([np.linspace(0.0, 1e-100, 18), [1e100, 2e100]])
        t = make_table([("a", a, ColumnKind.CONTINUOUS),
                        ("b", np.arange(20.0), ColumnKind.CONTINUOUS)])
        splits = kfold_split(t.n_rows, 2, 2)
        spec = ImputerSpec("m", "simple", {"statistic": "mean"})
        with pytest.raises(DegenerateInput, match=r"not finite .*std inf"):
            imputation_score("a", spec, folds_of(t, splits, spec), seed=1)

    def test_pooled_only_covers_observed_cells(self):
        t = linear_pair(seed=9, miss=0.4)
        splits = kfold_split(t.n_rows, 5, 0)
        spec = ImputerSpec("m", "simple", {"statistic": "mean"})
        *_, pooled = score_traced("y", spec, folds_of(t, splits, spec), seed=1)
        n_observed = t.column("y").observed_values().size
        assert pooled.size == n_observed

    def test_multivariate_without_predictors_is_untrainable(self):
        t = linear_pair(seed=3)
        splits = kfold_split(t.n_rows, 5, 0)
        spec = ImputerSpec("knn", "knn", {"n_neighbors": 3})
        with pytest.raises(UntrainableImputer):
            imputation_score("y", spec,
                             folds_of(t, splits, spec, deps={"y": []}),
                             seed=1)

    def test_dependency_view_is_predecessors_then_target(self):
        rng = np.random.default_rng(2)
        t = inject_mcar(make_table([
            (name, rng.normal(0, 1, 40), ColumnKind.CONTINUOUS)
            for name in "ABCD"
        ]), 0.2, seed=3)
        seen = []

        def spy(spec, train, target, predictors):
            seen.append((train.n_rows, predictors, target))
            return fit_imputer(spec, train, target, predictors)

        spec = ImputerSpec("ridge", "iterative", {"estimator": "ridge"})
        splits = kfold_split(t.n_rows, 3, 0)
        with mock.patch.object(engine, "fit_imputer", spy):
            imputation_score("A", spec, folds_of(t, splits, spec,
                                                 deps={"A": ["D", "B"]}),
                             seed=1)
        assert seen == [(len(train), ("D", "B"), "A")
                        for train, _ in splits]

    def test_deterministic_for_fixed_seed(self):
        t = linear_pair(seed=4)
        splits = kfold_split(t.n_rows, 5, 0)
        spec = ImputerSpec("ar", "apprandom", {})
        a, a_scores, a_pooled = score_traced(
            "y", spec, folds_of(t, splits, spec), seed=11)
        b, b_scores, b_pooled = score_traced(
            "y", spec, folds_of(t, splits, spec), seed=11)
        assert a == b
        assert a_scores == b_scores
        assert np.array_equal(a_pooled, b_pooled)


KS = stattests.TestKind.KS
PASSED = stattests.TestResult(0.1, 0.9, KS, rejected=False)
REJECTED = stattests.TestResult(0.9, 0.001, KS, rejected=True)


def evaluation(spec, delta, n_predictors=0, bias=PASSED, skipped=False):
    """The evaluation of `spec` that selection reads; a skipped one has no
    score and no bias test."""
    if skipped:
        return ImputerEvaluation(spec.id, 0.0, 0.0, n_predictors, None, True)
    return ImputerEvaluation(spec.id, delta, 0.0, n_predictors, bias, False)


@dataclass(frozen=True)
class Candidate:
    """A candidate as `reference_select` reads it: its spec, roster
    position, predictor count and score delta (None when skipped)."""

    spec: ImputerSpec
    roster_pos: int
    n_predictors: int
    delta: float | None


def reference_select(candidates, verdicts):
    """The selection rule over `Candidate`s, each scored candidate's bias
    test given by id in `verdicts`: the oracle for `select_imputer`."""
    survivors = [c for c in candidates
                 if c.delta is not None and not verdicts[c.spec.id].rejected]
    fallback = next(
        (c for c in candidates if c.spec.family == "apprandom"), None
    )
    real_survivors = [s for s in survivors if s.spec.family != "apprandom"]
    if not real_survivors:
        if fallback is None:
            raise InvalidArgument("no empirical-sampling fallback in roster")
        return fallback.spec.id, True
    best = min(
        survivors,
        key=lambda c: (-c.delta, c.n_predictors, c.roster_pos),
    )
    return best.spec.id, False


FAMILY_PARAMS = {
    "simple": {"statistic": "mean"},
    "knn": {"n_neighbors": 3},
    "iterative": {"estimator": "ridge"},
    "apprandom": {},
}


@st.composite
def scored_rosters(draw):
    """A roster with zero to two `apprandom` entries anywhere, and one
    evaluation per entry: tied scores and predictor counts, some skipped
    and some rejected."""
    entries = draw(st.lists(st.tuples(
        st.sampled_from(["simple", "knn", "iterative"]),
        st.sampled_from([0.0, 0.25, 0.5, 1.0]),
        st.integers(0, 2),
        st.sampled_from(["passed", "rejected", "skipped"]),
    ), max_size=5))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(entries)))
        entries.insert(at, ("apprandom", *draw(st.tuples(
            st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.just(0),
            st.sampled_from(["passed", "rejected", "skipped"])))))
    roster = tuple(ImputerSpec(f"c{i}", family, FAMILY_PARAMS[family])
                   for i, (family, *_) in enumerate(entries))
    evaluations = [
        evaluation(spec, delta, n_preds, bias=REJECTED if state == "rejected"
                   else PASSED, skipped=state == "skipped")
        for spec, (_, delta, n_preds, state) in zip(roster, entries)
    ]
    return roster, evaluations


def outcome_of(pick, *args):
    try:
        return pick(*args)
    except InvalidArgument:
        return "InvalidArgument"


class TestSelectImputer:
    A = ImputerSpec("a", "simple", {"statistic": "mean"})
    B = ImputerSpec("b", "knn", {"n_neighbors": 3})
    AR = ImputerSpec("ar", "apprandom", {})

    def test_highest_mean_wins(self):
        roster = (self.A, self.B, self.AR)
        evaluations = [evaluation(self.A, 0.4), evaluation(self.B, 0.8, 4),
                       evaluation(self.AR, 0.3)]
        assert select_imputer(evaluations, roster) == ("b", False)

    def test_tie_prefers_fewer_predictors(self):
        wide = ImputerSpec("wide", "knn", {"n_neighbors": 3})
        narrow = ImputerSpec("narrow", "simple", {"statistic": "mean"})
        roster = (wide, narrow, self.AR)
        evaluations = [evaluation(wide, 0.7, 6), evaluation(narrow, 0.7),
                       evaluation(self.AR, 0.1)]
        assert select_imputer(evaluations, roster) == ("narrow", False)

    def test_full_tie_falls_back_to_roster_order(self):
        first = ImputerSpec("first", "simple", {"statistic": "mean"})
        second = ImputerSpec("second", "simple", {"statistic": "median"})
        roster = (first, second, self.AR)
        evaluations = [evaluation(first, 0.7), evaluation(second, 0.7),
                       evaluation(self.AR, 0.1)]
        assert select_imputer(evaluations, roster) == ("first", False)

    def test_biased_candidate_is_vetoed(self):
        # a rejected test stands in for a constant pooled sample
        spiky = ImputerSpec("spiky", "simple", {"statistic": "mean"})
        ok = ImputerSpec("ok", "simple", {"statistic": "median"})
        roster = (spiky, ok, self.AR)
        evaluations = [evaluation(spiky, 0.9, bias=REJECTED),
                       evaluation(ok, 0.5), evaluation(self.AR, 0.2)]
        assert select_imputer(evaluations, roster) == ("ok", False)

    def test_everything_vetoed_forces_fallback(self):
        spiky = ImputerSpec("spiky", "simple", {"statistic": "mean"})
        roster = (spiky, self.AR)
        evaluations = [evaluation(spiky, 0.9, bias=REJECTED),
                       evaluation(self.AR, 0.2)]
        assert select_imputer(evaluations, roster) == ("ar", True)

    @pytest.mark.parametrize("ids", [("a", "b"), ("b", "a", "ar"),
                                     ("a", "b", "ar", "ar")],
                             ids=["short", "reordered", "long"])
    def test_roster_and_evaluations_must_pair_up(self, ids):
        by_id = {s.id: s for s in (self.A, self.B, self.AR)}
        evaluations = [evaluation(by_id[i], 0.5) for i in ids]
        with pytest.raises(InvalidArgument, match="one evaluation per"):
            select_imputer(evaluations, (self.A, self.B, self.AR))

    def test_scored_evaluation_without_a_bias_test_is_refused(self):
        # `select_imputer` read `bias.rejected` of such an evaluation and
        # raised a bare AttributeError; it is now refused where it is built
        with pytest.raises(SchemaError) as info:
            select_imputer([ImputerEvaluation(self.A.id, 0.5, 0.0, 0, None,
                                              False),
                            evaluation(self.AR, 0.2, skipped=True)],
                           (self.A, self.AR))
        assert info.value.path == "bias"

    @settings(max_examples=300, deadline=None)
    @given(scored_rosters())
    def test_matches_the_candidate_rule(self, case):
        roster, evaluations = case
        candidates = [
            Candidate(spec, i, e.n_predictors,
                      None if e.skipped else e.delta_mean)
            for i, (spec, e) in enumerate(zip(roster, evaluations))
        ]
        verdicts = {e.imputer_id: e.bias for e in evaluations
                    if not e.skipped}
        assert outcome_of(select_imputer, evaluations, roster) == outcome_of(
            reference_select, candidates, verdicts)


SCORED = ImputerEvaluation("m", 0.5, 0.1, 2, PASSED, False)
RECORD = QualityRecord("a", 0.8, (SCORED,), "m", 0.5, 0.9, True, False)
NAN, INF = float("nan"), float("inf")


def out_of_range(valid, field, *values):
    return [pytest.param(valid, field, v,
                         id=f"{type(valid).__name__}.{field}={v!r}")
            for v in values]


class TestRecordRules:
    @pytest.mark.parametrize("valid, field, value", [
        *out_of_range(PASSED, "statistic", -0.5, NAN, INF, "0.1"),
        *out_of_range(PASSED, "p_value", -0.1, 1.5, NAN, INF),
        *out_of_range(SCORED, "delta_mean", -0.1, 1.5, NAN, INF),
        *out_of_range(SCORED, "delta_std", -0.1, NAN, INF),
        *[p for name in ("completeness", "delta", "omega")
          for p in out_of_range(RECORD, name, -0.1, 1.5, NAN, INF, True)],
    ])
    def test_value_out_of_range_is_refused_at_its_field(self, valid, field,
                                                        value):
        with pytest.raises(SchemaError) as info:
            replace(valid, **{field: value})
        assert info.value.path == field

    def test_bounds_are_in_range(self):
        replace(PASSED, statistic=0.0, p_value=0.0)
        replace(PASSED, p_value=1.0)
        replace(SCORED, delta_mean=1.0, delta_std=0.0)
        replace(RECORD, completeness=0.0, delta=1.0, omega=1.0)

    def test_bias_test_exactly_when_scored(self):
        skipped = ImputerEvaluation("m", 0.0, 0.0, 0, None, True)
        with pytest.raises(SchemaError, match="^bias: "):
            replace(skipped, bias=PASSED)
        with pytest.raises(SchemaError, match="^bias: "):
            replace(SCORED, bias=None)

    def test_unknown_chosen_imputer_is_refused(self):
        # `emit_quality_svg` refused such a record when it drew it
        with pytest.raises(SchemaError, match="^chosen_imputer: "):
            replace(RECORD, chosen_imputer="nobody")
        with pytest.raises(SchemaError, match="^chosen_imputer: "):
            replace(RECORD, evaluations=())


class TestAssess:
    def test_knn_fallback_warning_shows_once_under_the_default_filter(self):
        # every sixth row has only A: as A's query row it shares no
        # coordinate with any reference, in each fold and for each k;
        # scoring a fold must not reset the registry that shows it once
        base = factor_table(n=60, rates=(0.0,) * 4)
        t = make_table([
            (c.name, np.where(np.arange(60) % 6 == 0, np.nan, c.values)
             if c.name != "A" else c.values, ColumnKind.CONTINUOUS)
            for c in base.columns])
        cfg = AssessConfig((KNN3, KNN5), n_folds=3, seed=4)
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("default")
            records = assess(t, cfg)
        assert [str(w.message) for w in seen] == [
            "no reference row shares an observed coordinate; falling back "
            "to the global mean"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert assess(t, cfg) == records

    def test_records_satisfy_quality_identity(self):
        t = linear_pair(seed=6)
        cfg = AssessConfig(imputers=BASIC_ROSTER, seed=2)
        for r in assess(t, cfg):
            assert r.omega == quality_score(r.completeness, r.delta)
            assert 0.0 <= r.delta <= 1.0
            assert 0.0 <= r.omega <= 1.0

    def test_complete_feature_gets_perfect_quality(self):
        t = linear_pair(seed=6)
        cfg = AssessConfig(imputers=BASIC_ROSTER, seed=2)
        by_name = {r.feature: r for r in assess(t, cfg)}
        assert by_name["x"].completeness == 1.0
        assert by_name["x"].omega == 1.0

    def test_best_scoring_biased_candidate_is_not_chosen(self):
        # the mean fill lands closest to the truth, but its constant
        # re-imputations fail the KS test, so the fallback is picked
        t = linear_pair(seed=6)
        cfg = AssessConfig(imputers=BASIC_ROSTER[::2], seed=2)
        (y,) = [r for r in assess(t, cfg) if r.feature == "y"]
        mean, apprandom = y.evaluations
        assert mean.delta_mean > apprandom.delta_mean
        assert mean.bias.test is KS and mean.bias.rejected
        assert (y.chosen_imputer, y.fallback_used) == ("apprandom", True)
        assert y.delta == apprandom.delta_mean

    def test_deterministic_across_runs(self):
        t = linear_pair(seed=8)
        cfg = AssessConfig(imputers=BASIC_ROSTER, seed=5)
        a = assess(t, cfg)
        b = assess(t, cfg)
        assert records_to_jsonable(a) == records_to_jsonable(b)

    def test_dependency_dict_sets_predictor_count(self):
        rng = np.random.default_rng(11)
        t = inject_mcar(make_table([
            (name, rng.normal(0, 1, 60), ColumnKind.CONTINUOUS)
            for name in "ABCD"
        ]), 0.2, seed=12)
        deps = {"A": ["C"], "B": ["A", "D"], "C": ["A", "B", "D"], "D": ["B"]}
        cfg = AssessConfig(imputers=BASIC_ROSTER, seed=3, dependencies=deps)
        for r in assess(t, cfg):
            for e in r.evaluations:
                multivariate = e.imputer_id == "iter_ridge"
                assert not e.skipped
                assert e.n_predictors == (
                    len(deps[r.feature]) if multivariate else 0
                )

    @pytest.mark.parametrize(
        "deps", [{"x": [], "y": ["x"]}, {"y": ["x"]}], ids=["empty", "absent"]
    )
    def test_absent_or_empty_predecessors_skip_multivariate(self, deps):
        t = linear_pair(seed=8)
        cfg = AssessConfig(imputers=BASIC_ROSTER, seed=5, dependencies=deps)
        by_name = {r.feature: r for r in assess(t, cfg)}
        x = {e.imputer_id: e for e in by_name["x"].evaluations}
        assert x["iter_ridge"].skipped
        assert not x["mean"].skipped and not x["apprandom"].skipped
        y = {e.imputer_id: e for e in by_name["y"].evaluations}
        assert not y["iter_ridge"].skipped
        assert y["iter_ridge"].n_predictors == 1

    def test_fully_missing_feature_scores_zero(self):
        n = 80
        rng = np.random.default_rng(0)
        t = Table((
            Column("a", rng.normal(0, 1, n), np.zeros(n, dtype=bool),
                   kind=ColumnKind.CONTINUOUS),
            Column("void", np.full(n, np.nan), np.ones(n, dtype=bool),
                   kind=ColumnKind.CONTINUOUS),
        ), n)
        # no apprandom in the roster: the config's own fallback is picked
        cfg = AssessConfig(imputers=BASIC_ROSTER[:2], seed=1)
        by_name = {r.feature: r for r in assess(t, cfg)}
        void = by_name["void"]
        assert void.completeness == 0.0
        assert void.delta == 0.0
        assert void.omega == 0.0
        assert void.fallback_used
        assert void.chosen_imputer == "apprandom"
        assert void.notes == ("unscorable_feature",)
        assert all(e.skipped and e.bias is None for e in void.evaluations)
        assert by_name["a"].notes == ()

    @staticmethod
    def pair_and_blank(n=60):
        """Columns a and b = 2a + noise, a fifth of each blank, and the
        same table with an all-blank column z."""
        rng = np.random.default_rng(0)
        a = rng.normal(0, 1, n)
        t = inject_mcar(make_table([
            ("a", a, ColumnKind.CONTINUOUS),
            ("b", 2 * a + rng.normal(0, 0.3, n), ColumnKind.CONTINUOUS),
        ]), 0.2, seed=1)
        blank = Column("z", np.full(n, np.nan), np.ones(n, dtype=bool),
                       kind=ColumnKind.CONTINUOUS)
        return t, Table((*t.columns, blank), n)

    def test_all_blank_column_leaves_other_chains_alone(self):
        # the blank column keeps its initial fill and gets no model, so
        # the chain still trains, and a and b score as without it
        t, with_blank = self.pair_and_blank()
        cfg = AssessConfig(BASIC_ROSTER, n_folds=3, seed=2)
        alone = {r.feature: r for r in assess(t, cfg)}
        both = {r.feature: r for r in assess(with_blank, cfg)}
        for name in "ab":
            assert alone[name].chosen_imputer == "iter_ridge"
            assert both[name].chosen_imputer == "iter_ridge"
            assert both[name].delta == pytest.approx(alone[name].delta,
                                                     rel=1e-12)
        assert both["z"].chosen_imputer == "apprandom"

    def test_dependency_naming_a_blank_predictor_still_trains(self):
        t, with_blank = self.pair_and_blank()
        cfg = AssessConfig(BASIC_ROSTER, n_folds=3, seed=2)
        alone = {r.feature: r for r in assess(
            t, replace(cfg, dependencies={"a": ["b"], "b": ["a"]}))}
        cfg = replace(cfg, dependencies={"a": ["b", "z"], "b": ["a"]})
        named = {r.feature: r for r in assess(with_blank, cfg)}
        ridge = {e.imputer_id: e for e in named["a"].evaluations}["iter_ridge"]
        assert not ridge.skipped and ridge.n_predictors == 2
        assert named["a"].chosen_imputer == "iter_ridge"
        assert named["a"].delta == pytest.approx(alone["a"].delta, rel=1e-12)
        plan = fit_pipeline(with_blank, list(named.values()), cfg)
        chain = next(f for f in plan.fitted if f.target_column == "a")
        z = chain.state["columns"].index("z")
        assert z not in chain.state["visit"] and z not in chain.state["models"]
        filled = apply_pipeline(plan, with_blank)
        assert not filled.column("a").mask.any()

    @pytest.mark.filterwarnings("ignore::imputeq.errors.ImputeQWarning")
    @pytest.mark.parametrize("spec", [RIDGE, FOREST, KNN3], ids=lambda s: s.id)
    @pytest.mark.parametrize("scales", [(1e300, 1.0), (1e154, 1e154)],
                             ids=["one-1e300", "two-1e154"])
    def test_finite_cells_past_the_squares_range_raise_no_warning(
            self, spec, scales):
        # normal draws times 1e300, or two columns times 1e154: squares,
        # their sums and the kNN distances overflow, yet under the strict
        # warning filter `assess` gives records or a named error
        rng = np.random.default_rng(0)
        t = inject_mcar(make_table([
            (name, rng.normal(size=40) * scale, ColumnKind.CONTINUOUS)
            for name, scale in zip("abc", (*scales, 1.0))
        ]), 0.2, seed=1)
        try:
            records = assess(t, AssessConfig((spec,), n_folds=3))
        except ImputeQError as exc:
            assert "not finite" in str(exc)
        else:
            assert [r.feature for r in records] == list("abc")

    @pytest.mark.parametrize("column, message", [
        (Column("s", np.array(["u", "v"] * 5, dtype=object),
                np.zeros(10, dtype=bool), kind=ColumnKind.CATEGORICAL),
         "is not encoded; run label_encode first"),
        (Column("s", np.arange(10.0), np.zeros(10, dtype=bool)),
         "has no kind; run infer_column_kinds first"),
    ], ids=["unencoded", "no-kind"])
    def test_column_not_ready_for_assessment_is_refused(self, column,
                                                        message):
        x = Column("x", np.arange(10.0), np.zeros(10, dtype=bool),
                   kind=ColumnKind.CONTINUOUS)
        with pytest.raises(InvalidArgument, match=f"^column 's' {message}$"):
            assess(Table((x, column), 10), AssessConfig(BASIC_ROSTER))

    @pytest.mark.parametrize("deps", [{"y": ["zz"]}, {"zz": []}, {"y": ["y"]}])
    def test_bad_dependency_dict_rejected(self, deps):
        t = linear_pair(seed=8)
        cfg = AssessConfig(imputers=BASIC_ROSTER, seed=5, dependencies=deps)
        with pytest.raises(InvalidArgument):
            assess(t, cfg)

    def test_threshold_marks_kept(self):
        t = linear_pair(seed=6)
        cfg = AssessConfig(imputers=BASIC_ROSTER, seed=2, threshold=0.99)
        recs = assess(t, cfg)
        for r in recs:
            assert r.kept == (r.omega >= 0.99)

    def test_fallback_roster_entry_added_when_missing(self):
        mean = ImputerSpec("mean", "simple", {"statistic": "mean"})
        cfg = AssessConfig(imputers=(mean,), seed=7)
        fallback = ImputerSpec("apprandom", "apprandom", {}, 7)
        assert cfg.imputers == (mean, fallback)
        # replace keeps the fallback already there, with its seed
        assert replace(cfg, seed=8).imputers == (mean, fallback)
        # a roster with an apprandom candidate is left as given
        assert AssessConfig(imputers=BASIC_ROSTER).imputers == BASIC_ROSTER

    def test_duplicate_imputer_ids_rejected(self):
        with pytest.raises(InvalidArgument):
            AssessConfig(imputers=(
                ImputerSpec("m", "simple", {"statistic": "mean"}),
                ImputerSpec("m", "simple", {"statistic": "median"}),
            ))


def factor_table(n=90, seed=0, rates=(0.1, 0.0, 0.25, 0.4)):
    """Four correlated columns A-D; column i loses a share rates[i] of its
    cells, so no two columns tie on missing counts in a training fold."""
    rng = np.random.default_rng(seed)
    z = rng.normal(0, 1, n)
    cols = []
    for i, (name, rate) in enumerate(zip("ABCD", rates)):
        values = z * (i + 1) + rng.normal(0, 0.5, n)
        values[rng.permutation(n)[:round(rate * n)]] = np.nan
        cols.append((name, values, ColumnKind.CONTINUOUS))
    return make_table(cols)


class TestSharedWork:
    @pytest.mark.parametrize("deps,views", [
        (None, 1),
        ({"A": ["B", "C"], "B": ["C", "A"], "C": ["A", "B"], "D": ["A"]}, 2),
    ])
    def test_chain_fit_once_per_fold_and_view(self, deps, views):
        # a chain depends on its rows, spec and column set, so every
        # estimator's chain is shared by the features of a view
        t = factor_table()
        cfg = AssessConfig((RIDGE, GBT, FOREST), n_folds=3, seed=4,
                           dependencies=deps)
        fits = {"iter_ridge": 0, "iter_gbt": 0, "iter_forest": 0}

        def spy(spec, train, target, predictors):
            if spec.family == "iterative":
                fits[spec.id] += 1
            return fit_imputer(spec, train, target, predictors)

        with mock.patch.object(engine, "fit_imputer", spy):
            records = assess(t, cfg)
        assert fits == {"iter_ridge": 3 * views, "iter_gbt": 3 * views,
                        "iter_forest": 3 * views}
        assert not any(e.skipped for r in records for e in r.evaluations)

    @pytest.mark.filterwarnings("ignore::imputeq.errors.ImputeQWarning")
    @pytest.mark.parametrize("spec", [RIDGE, FOREST, KNN3, KNN5, FALLBACK4],
                             ids=lambda s: s.id)
    def test_outcome_equals_scoring_the_feature_alone(self, spec):
        # alone: fresh folds of the same config, so a chain takes the same
        # seed, task_seed(4, roster position, fold); the whole record,
        # bias test included, is the one `assess` stores
        cfg = AssessConfig((RIDGE, FOREST, KNN3, KNN5), n_folds=3, seed=4)
        assert cfg.imputers[-1] == FALLBACK4
        t = factor_table()
        records = assess(t, cfg)
        splits = kfold_split(t.n_rows, 3, 4)
        ii = cfg.imputers.index(spec)
        for fi, r in enumerate(records):
            alone = imputation_score(r.feature, spec, Folds(t, splits, cfg),
                                     seed=task_seed(4, fi, ii))
            assert not alone.skipped
            assert alone == r.evaluations[ii]

    def test_config_scorer_scores_alone_as_in_assess(self):
        # a binary column under the nrmse override: scored alone, with no
        # scorer given, it gets the record `assess` stores, and the
        # override changes its score
        t = mixed_table(seed=0)
        cfg = AssessConfig(BASIC_ROSTER, n_folds=3, seed=4,
                           scorers={"binary": "nrmse"})
        fi = t.column_names.index("flag")
        splits = kfold_split(t.n_rows, 3, 4)
        by_default = assess(t, replace(cfg, scorers=None))[fi]
        for ii, (spec, e) in enumerate(zip(cfg.imputers,
                                           assess(t, cfg)[fi].evaluations)):
            alone = imputation_score("flag", spec, Folds(t, splits, cfg),
                                     seed=task_seed(4, fi, ii))
            assert alone == e
            assert e.delta_mean != by_default.evaluations[ii].delta_mean

    @pytest.mark.filterwarnings("ignore::imputeq.errors.ImputeQWarning")
    def test_folds_cut_rows_when_made_and_never_while_scoring(self):
        t = factor_table()
        cfg = AssessConfig((RIDGE, KNN3), n_folds=3, seed=4)
        slices = []
        select_rows = Table.select_rows

        def rows_spy(self, rows):
            slices.append(len(rows))
            return select_rows(self, rows)

        splits = kfold_split(t.n_rows, 3, 4)
        with mock.patch.object(Table, "select_rows", rows_spy):
            folds = Folds(t, splits, cfg)
            assert slices == [len(rows) for fold in splits for rows in fold]
            for feature in t.column_names:
                for spec in cfg.imputers:
                    imputation_score(feature, spec, folds)
        assert len(slices) == 2 * 3

    @pytest.mark.filterwarnings("ignore::imputeq.errors.ImputeQWarning")
    def test_rows_cut_once_per_fold_for_every_candidate(self):
        # every candidate of every feature reads the table's one train/test
        # pair per fold; each kNN candidate fits its own reference
        t = factor_table()
        knn10 = ImputerSpec("knn10", "knn", {"n_neighbors": 10})
        mean = ImputerSpec("mean", "simple", {"statistic": "mean"})
        cfg = AssessConfig((KNN3, KNN5, knn10, mean), n_folds=3, seed=4)
        assert cfg.imputers[-1].family == "apprandom"
        knn_fits, slices = [], []
        select_rows = Table.select_rows

        def fit_spy(spec, train, target, predictors):
            if spec.family == "knn":
                knn_fits.append(target)
            return fit_imputer(spec, train, target, predictors)

        def rows_spy(self, rows):
            slices.append(tuple(self.column_names))
            return select_rows(self, rows)

        with mock.patch.object(engine, "fit_imputer", fit_spy), \
                mock.patch.object(Table, "select_rows", rows_spy):
            records = assess(t, cfg)
        assert knn_fits == [f for f in "ABCD" for _ in range(3 * 3)]
        assert slices == [tuple("ABCD")] * (2 * 3)
        assert not any(e.skipped for r in records for e in r.evaluations)

    @pytest.mark.filterwarnings("ignore::imputeq.errors.ImputeQWarning")
    def test_knn_memo_follows_the_predictors(self):
        # the same target under other predictors is another view: each
        # dict's Folds gives A the fills of its own predictors, whether
        # another feature's request filled the fold first or not
        t = factor_table(n=120, rates=(0.1, 0.0, 0.25))
        splits = kfold_split(t.n_rows, 3, 0)
        pooled = []
        for deps in ({"A": ["B"], "C": ["A"]}, {"A": ["C"], "C": ["B"]}):
            folds = folds_of(t, splits, KNN3, deps=deps)
            imputation_score("C", KNN3, folds)
            shared, _, shared_pooled = score_traced("A", KNN3, folds)
            alone, _, alone_pooled = score_traced(
                "A", KNN3, folds_of(t, splits, KNN3, deps=deps))
            assert shared == alone
            np.testing.assert_array_equal(shared_pooled, alone_pooled)
            pooled.append(shared_pooled)
        assert not np.array_equal(*pooled)

    def test_complete_feature_gets_its_target_model(self):
        t = factor_table()
        assert not t.column("B").mask.any()
        splits = kfold_split(t.n_rows, 3, 0)
        folds = folds_of(t, splits, RIDGE)
        imputation_score("A", RIDGE, folds, seed=1)  # fits the chains
        seen = []

        def spy(f, table):
            seen.append(f)
            return transform(f, table)

        with mock.patch.object(engine, "transform", spy):
            shared, _, shared_pooled = score_traced("B", RIDGE, folds, seed=1)
        assert len(seen) == 3
        for f in seen:
            b = f.state["columns"].index("B")
            assert b not in f.state["visit"]
            assert b in f.state["models"]
            assert set(f.state["models"]) == {*f.state["visit"], b}
        # bit for bit the feature's own chain
        alone, _, alone_pooled = score_traced(
            "B", RIDGE, folds_of(t, splits, RIDGE), seed=1)
        assert shared == alone
        np.testing.assert_array_equal(shared_pooled, alone_pooled)

    @settings(max_examples=60, deadline=None)
    @given(spec=st.sampled_from([RIDGE, GBT, FOREST]),
           rates=st.lists(st.sampled_from([0.0, 0.2, 0.3]), min_size=4,
                          max_size=4),
           seed=st.integers(0, 2**31 - 1), fold=st.integers(0, 4),
           data=st.data())
    def test_own_chain_is_the_shared_chain(self, spec, rates, seed, fold,
                                           data):
        # rates with repeats tie missing counts, and a zero rate leaves a
        # column the chain never visits; the dict gives every target its
        # own order of the others
        t = factor_table(n=40, rates=rates)
        names = list(t.column_names)
        deps = {n: data.draw(st.permutations([m for m in names if m != n]),
                             label=f"predictors of {n}") for n in names}
        first = data.draw(st.sampled_from(names), label="first target")
        target = data.draw(st.sampled_from(names), label="target")
        folds = Folds(t, None, AssessConfig((spec,), seed=seed,
                                            dependencies=deps))
        folds.fit(fold, spec, first)
        shared = folds.fit(fold, spec, target)
        own = fit_imputer(replace(spec, seed=task_seed(seed, 0, fold)),
                          t, target, tuple(deps[target]))
        assert json.dumps(fitted_to_jsonable(own), sort_keys=True) == (
            json.dumps(fitted_to_jsonable(shared), sort_keys=True))
        for a, b in zip(transform(own, t).columns,
                        transform(shared, t).columns):
            np.testing.assert_array_equal(a.values, b.values)
            np.testing.assert_array_equal(a.mask, b.mask)

    def test_chain_outside_the_roster_is_invalid(self):
        t = factor_table()
        with pytest.raises(InvalidArgument):
            imputation_score("A", RIDGE,
                             folds_of(t, kfold_split(t.n_rows, 3, 0), GBT))

    def test_pipeline_fits_one_chain_per_candidate_and_column_set(self):
        t = factor_table()
        cfg = AssessConfig((RIDGE, FOREST), seed=4)
        chosen = {"A": "iter_forest", "B": "iter_ridge", "C": "iter_forest",
                  "D": "iter_ridge"}
        records = [picked(f, c) for f, c in chosen.items()]
        fits = []

        def spy(spec, train, target, predictors):
            fits.append(spec.id)
            return fit_imputer(spec, train, target, predictors)

        with mock.patch.object(engine, "fit_imputer", spy):
            plan = fit_pipeline(t, records, cfg)
        assert sorted(fits) == ["iter_forest", "iter_ridge"]
        for f in plan.fitted:
            ii = [s.id for s in cfg.imputers].index(f.spec.id)
            spec = cfg.imputers[ii]
            own = fit_imputer(
                replace(spec, seed=task_seed(4, ii, engine._FINAL_FIT_TAG)),
                t, f.target_column, f.predictor_columns)
            assert fitted_to_jsonable(own) == fitted_to_jsonable(f)


def mixed_table(n=160, seed=0):
    rng = np.random.default_rng(seed)
    age = rng.normal(50, 10, n)
    weight = age * 1.5 + rng.normal(0, 5, n)
    color_labels = {0: "red", 1: "green", 2: "blue"}
    color = rng.integers(0, 3, n).astype(float)
    flag = (age > 50).astype(float)
    t = Table((
        Column("age", age, np.zeros(n, dtype=bool), kind=ColumnKind.CONTINUOUS),
        Column("weight", weight, np.zeros(n, dtype=bool),
               kind=ColumnKind.CONTINUOUS),
        Column("color", color, np.zeros(n, dtype=bool),
               kind=ColumnKind.CATEGORICAL, labels=color_labels),
        Column("flag", flag, np.zeros(n, dtype=bool), kind=ColumnKind.BINARY),
    ), n)
    return inject_mcar(t, 0.25, seed=seed + 1)


class TestPipeline:
    def fit_plan(self, seed=0, threshold=None):
        t = mixed_table(seed=seed)
        cfg = AssessConfig(imputers=BASIC_ROSTER, seed=3, threshold=threshold)
        records = assess(t, cfg)
        return t, cfg, records, fit_pipeline(t, assess(t, cfg), cfg)

    def test_training_table_comes_back_complete(self):
        t, cfg, records, plan = self.fit_plan()
        out = apply_pipeline(plan, t)
        assert out.total_missing() == 0
        assert set(out.column_names) == set(t.column_names)

    def test_dropped_features_removed_but_used(self):
        t = mixed_table(seed=1)
        cfg = AssessConfig(imputers=BASIC_ROSTER, seed=3, threshold=0.999)
        records = assess(t, cfg)
        plan = fit_pipeline(t, records, cfg)
        dropped = {r.feature for r in records if not r.kept}
        assert set(plan.drop_list) >= dropped
        out = apply_pipeline(plan, t)
        assert set(out.column_names) == set(t.column_names) - set(plan.drop_list)

    def test_fully_missing_kept_feature_moves_to_drop_list(self):
        n = 80
        rng = np.random.default_rng(0)
        t = Table((
            Column("a", rng.normal(0, 1, n), np.zeros(n, dtype=bool),
                   kind=ColumnKind.CONTINUOUS),
            Column("void", np.full(n, np.nan), np.ones(n, dtype=bool),
                   kind=ColumnKind.CONTINUOUS),
        ), n)
        cfg = AssessConfig(imputers=BASIC_ROSTER, seed=1)  # no threshold
        records = assess(t, cfg)
        assert all(r.kept for r in records)
        plan = fit_pipeline(t, records, cfg)
        assert "void" in plan.drop_list
        assert any(n_.startswith("dropped_unfittable") for n_ in plan.notes)

    def test_multivariate_pick_without_predictors_is_untrainable(self):
        # records from one config, fit under another that leaves no predictors
        t = mixed_table(seed=0)
        cfg = AssessConfig(imputers=BASIC_ROSTER, seed=3)
        records = [replace(r, chosen_imputer="iter_ridge")
                   for r in assess(t, cfg)]
        bare = replace(cfg, dependencies={n: [] for n in t.column_names})
        with pytest.raises(UntrainableImputer):
            fit_pipeline(t, records, bare)

    def test_round_trip_preserves_behaviour(self):
        t, cfg, records, plan = self.fit_plan(seed=2)
        blob = serialize_pipeline(plan)
        plan2 = deserialize_pipeline(blob)
        a = apply_pipeline(plan, t)
        b = apply_pipeline(plan2, t)
        for name in a.column_names:
            assert np.array_equal(a.column(name).values, b.column(name).values)

    def test_serialization_is_stable(self):
        t, cfg, records, plan = self.fit_plan(seed=2)
        assert serialize_pipeline(plan) == serialize_pipeline(
            deserialize_pipeline(serialize_pipeline(plan))
        )

    def test_missing_sentinels_written_only_when_not_default(self):
        t, cfg, records, plan = self.fit_plan(seed=2)
        assert "missing_sentinels" not in json.loads(serialize_pipeline(plan))
        back = deserialize_pipeline(serialize_pipeline(plan))
        assert back.missing_sentinels == plan.missing_sentinels
        custom = replace(plan, missing_sentinels=("", "-999"))
        doc = json.loads(serialize_pipeline(custom))
        assert doc["missing_sentinels"] == ["", "-999"]
        back = deserialize_pipeline(serialize_pipeline(custom))
        assert back.missing_sentinels == ("", "-999")
        doc["missing_sentinels"] = "-999"
        with pytest.raises(CorruptModel):
            deserialize_pipeline(json.dumps(doc).encode())

    def test_truncated_data_is_corrupt(self):
        t, cfg, records, plan = self.fit_plan(seed=2)
        blob = serialize_pipeline(plan)
        with pytest.raises(CorruptModel):
            deserialize_pipeline(blob[: len(blob) // 2])

    def test_missing_field_is_corrupt(self):
        t, cfg, records, plan = self.fit_plan(seed=2)
        doc = json.loads(serialize_pipeline(plan))
        del doc["fitted"]
        with pytest.raises(CorruptModel):
            deserialize_pipeline(json.dumps(doc).encode())

    def test_plan_stores_no_derivable_fact(self, mixed_plan):
        path, _ = mixed_plan
        with open(path, "rb") as fh:
            blob = fh.read()
        doc = json.loads(blob)
        kinds = {s["name"]: s["kind"] for s in doc["schema"]}
        for f in doc["fitted"]:
            assert set(f) == {"spec", "target_column", "predictor_columns",
                              "state", "observed_value_set"}
            if kinds[f["target_column"]] == "continuous":
                assert f["observed_value_set"] == []
        knn_doc = next(f for f in doc["fitted"] if f["spec"]["family"] == "knn")
        assert set(knn_doc["state"]) == {"ref_X", "ref_y"}
        plan = deserialize_pipeline(blob)
        assert serialize_pipeline(plan) == blob
        knn = next(f for f in plan.fitted if f.spec.family == "knn")
        assert knn.state["k"] == knn.spec.params["n_neighbors"]
        assert knn.state["global_mean"] == knn.state["ref_y"].mean()

    def test_indented_plan_reserializes_to_its_canonical_dump(self):
        # a plan written with indent=2 by the earlier writer loads, and is
        # written back as the compact canonical dump of its own document
        blob = (Path(__file__).parent / "data" / "tree_plan_v2.json"
                ).read_bytes()
        compact = serialize_pipeline(deserialize_pipeline(blob))
        assert compact == json.dumps(
            json.loads(blob), sort_keys=True, separators=(",", ":"),
            allow_nan=False,
        ).encode()
        assert (len(blob), len(compact)) == (65_895, 14_939)

    @pytest.mark.parametrize("damage", [
        "left0-to-root", "right-past-end", "left-child-before-parent",
        "left-one-short", "value-one-short", "feature-scalar",
        "all-arrays-empty", "feature-below-int64",
    ])
    def test_tree_that_cannot_end_or_is_ragged_is_corrupt(self, tree_plan,
                                                          damage):
        # the loader never predicts, so a tree that loops fails here
        # instead of hanging the test
        path, _ = tree_plan
        with open(path, "rb") as fh:
            blob = fh.read()
        deserialize_pipeline(blob)  # the intact plan loads
        doc = json.loads(blob)
        forest = next(f for f in doc["fitted"]
                      if f["spec"]["id"] == "iter_forest")
        tree = next(iter(forest["state"]["models"].values()))["trees"][0]
        splits = [i for i, f in enumerate(tree["feature"]) if f >= 0]
        assert splits and splits[0] == 0
        last = splits[-1]
        if damage == "left0-to-root":
            tree["left"][0] = 0
        elif damage == "right-past-end":
            tree["right"][last] = len(tree["value"])
        elif damage == "left-child-before-parent":
            tree["left"][last] = last - 1
        elif damage == "left-one-short":
            tree["left"].pop()
        elif damage == "value-one-short":
            tree["value"].pop()
        elif damage == "feature-scalar":
            tree["feature"] = -1
        elif damage == "feature-below-int64":
            tree["feature"][0] = -2**63 - 1
        else:
            for key in ("feature", "threshold", "left", "right", "value"):
                tree[key] = []
        with pytest.raises(CorruptModel):
            deserialize_pipeline(json.dumps(doc).encode())

    @pytest.mark.parametrize("loss", ["logistic", "hinge"])
    def test_gbt_chain_model_with_other_loss_is_corrupt(self, tree_plan,
                                                        loss):
        # chains fit squared loss; a logistic model would serve 0/1 labels
        # into a continuous column
        path, _ = tree_plan
        with open(path, "rb") as fh:
            doc = json.loads(fh.read())
        gbt = next(f for f in doc["fitted"] if f["spec"]["id"] == "iter_gbt")
        model = next(iter(gbt["state"]["models"].values()))
        assert model["loss"] == "squared"
        model["loss"] = loss
        with pytest.raises(CorruptModel):
            deserialize_pipeline(json.dumps(doc).encode())

    @pytest.mark.parametrize("imputer,params,match", [
        # the models stay those of the committed plan, and the first of
        # them is refused at its path
        ("iter_gbt", {"estimator": "ridge", "max_iter": 2},
         r"^fitted\[1\]\.state\.models\.0: "),
        ("iter_gbt", {"estimator": "forest", "max_depth": 3, "max_iter": 2,
                      "n_estimators": 2}, r"^fitted\[1\]\.state\.models\.0: "),
        ("iter_forest", {"estimator": "gbt", "max_depth": 3, "max_iter": 2,
                         "n_estimators": 2},
         r"^fitted\[0\]\.state\.models\.0: "),
        ("iter_forest", {"estimator": "forest", "max_iter": 2,
                         "learning_rate": 0.1}, "learning_rate"),
    ])
    def test_chain_spec_that_does_not_fit_its_models_is_corrupt(
            self, imputer, params, match):
        doc = json.loads((Path(__file__).parent / "data" / "tree_plan_v2.json"
                          ).read_bytes())
        fitted = next(f for f in doc["fitted"] if f["spec"]["id"] == imputer)
        fitted["spec"]["params"] = params
        with pytest.raises(CorruptModel, match=match):
            deserialize_pipeline(json.dumps(doc).encode())

    def test_plan_built_by_hand_must_cover_its_schema(self):
        # PipelinePlan judges its own rules, so a plan that no loader reads
        # is refused where it is built, at the same path
        t, cfg, records, plan = self.fit_plan(seed=2)
        with pytest.raises(SchemaError) as info:
            replace(plan, fitted=plan.fitted[1:])
        assert info.value.path == "drop_list"

    def test_wrong_format_or_version_rejected(self):
        t, cfg, records, plan = self.fit_plan(seed=2)
        doc = json.loads(serialize_pipeline(plan))
        other = dict(doc, format="something-else")
        with pytest.raises(VersionMismatch):
            deserialize_pipeline(json.dumps(other).encode())
        for version in (1, 99):
            other = dict(doc, schema_version=version)
            with pytest.raises(VersionMismatch):
                deserialize_pipeline(json.dumps(other).encode())

    def test_schema_mismatch_on_column_set(self):
        t, cfg, records, plan = self.fit_plan(seed=2)
        with pytest.raises(SchemaMismatch):
            apply_pipeline(plan, t.select_columns(t.column_names[:-1]))

    def test_unseen_category_imputed_from_known_codes(self):
        t, cfg, records, plan = self.fit_plan(seed=2)
        color = t.column("color")
        values = color.values.copy()
        mask = color.mask.copy()
        pos = int(np.flatnonzero(~mask)[0])
        values[pos] = 99.0  # code never seen at fit time
        bad = t.with_column(
            Column("color", values, mask, kind=color.kind, labels=color.labels)
        )
        with pytest.warns(ImputeQWarning):
            out = apply_pipeline(plan, bad)
        got = out.column("color").values
        assert set(np.unique(got)) <= {0.0, 1.0, 2.0}

    def test_plan_fits_only_kept_features(self):
        t = mixed_table(seed=1)
        cfg = AssessConfig(imputers=BASIC_ROSTER, seed=3, threshold=0.5)
        records = assess(t, cfg)
        plan = fit_pipeline(t, records, cfg)
        fitted_targets = {f.target_column for f in plan.fitted}
        assert fitted_targets == {r.feature for r in records if r.kept}
        assert fitted_targets.isdisjoint(set(plan.drop_list))
        assert len(fitted_targets) > 0


class TestReportPayload:
    def test_byte_identical_reports(self):
        t = linear_pair(seed=12)
        cfg = AssessConfig(imputers=BASIC_ROSTER, seed=9)
        blob_a = json.dumps(records_to_jsonable(assess(t, cfg)), sort_keys=True)
        blob_b = json.dumps(records_to_jsonable(assess(t, cfg)), sort_keys=True)
        assert blob_a.encode() == blob_b.encode()

    def test_payload_is_json_clean(self):
        t = mixed_table(seed=4)
        cfg = AssessConfig(imputers=BASIC_ROSTER, seed=9)
        payload = records_to_jsonable(assess(t, cfg))
        json.dumps(payload, allow_nan=False)
