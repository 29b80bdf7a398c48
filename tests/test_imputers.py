import json
import math
import sys
from typing import Annotated

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from imputeq.errors import (
    ImputeQWarning,
    ImputerTrainingError,
    InvalidArgument,
    SchemaError,
    UntrainableImputer,
)
from imputeq.imputers import (
    FittedImputer,
    ImputerSpec,
    NanMatrix,
    adaptive_round_binary,
    apprandom_sample,
    censor_to_observed,
    default_imputer_roster,
    fit,
    fitted_from_jsonable,
    fitted_to_jsonable,
    retarget,
    transform,
    with_fills,
)
from imputeq.metrics import nrmse_score
from imputeq.report import from_jsonable, loads_document, to_jsonable
from imputeq.stattests import chi2_independence
from imputeq.table import Column, ColumnKind, Table


def col(name, values, kind, labels=None):
    values = np.asarray(values, dtype=float)
    return Column(name, values, np.isnan(values), kind=kind, labels=labels)


def simple(stat, seed=0):
    return ImputerSpec(stat, "simple", {"statistic": stat}, seed)


class TestFit:
    def test_mean_fill_value(self):
        t = Table((col("x", [1.0, 2.0, 3.0, np.nan], ColumnKind.CONTINUOUS),))
        f = fit(simple("mean"), t, "x")
        assert f.state["fill"] == pytest.approx(2.0, abs=1e-12)

    def test_mode_fill_value(self):
        t = Table((col("x", [0.0, 0.0, 1.0], ColumnKind.BINARY),))
        f = fit(simple("mode"), t, "x")
        assert f.state["fill"] == 0.0

    def test_mode_tie_takes_smaller(self):
        t = Table((col("x", [2.0, 1.0, 2.0, 1.0], ColumnKind.DISCRETE),))
        assert fit(simple("mode"), t, "x").state["fill"] == 1.0

    def test_fully_missing_target_untrainable(self):
        t = Table((col("x", [np.nan, np.nan], ColumnKind.CONTINUOUS),))
        for spec in (simple("mean"), ImputerSpec("r", "apprandom")):
            with pytest.raises(UntrainableImputer):
                fit(spec, t, "x")

    def test_multivariate_needs_predictors(self):
        t = Table((col("x", [1.0, 2.0], ColumnKind.CONTINUOUS),))
        with pytest.raises(UntrainableImputer):
            fit(ImputerSpec("k", "knn", {"n_neighbors": 1}), t, "x")

    def test_target_not_its_own_predictor(self):
        t = Table((col("x", [1.0, 2.0], ColumnKind.CONTINUOUS),))
        with pytest.raises(InvalidArgument):
            fit(simple("mean"), t, "x", predictors=("x",))

    def test_rounding_rule_tracks_kind(self):
        # the fills of a mean imputer, rounded by the column's kind; with
        # marginal 0.75 the binary cutoff is 0.458, below the 0.75 fill
        cases = [
            (ColumnKind.CONTINUOUS, [1.0, 2.0, 3.0, 4.0], 2.5),
            (ColumnKind.DISCRETE, [1.0, 2.0, 3.0, 4.0], 2.0),
            (ColumnKind.CATEGORICAL, [1.0, 2.0, 3.0, 4.0], 2.0),
            (ColumnKind.BINARY, [0.0, 1.0, 1.0, 1.0], 1.0),
        ]
        for kind, vals, want in cases:
            t = Table((col("x", vals + [np.nan], kind),))
            f = fit(simple("mean"), t, "x")
            assert transform(f, t).column("x").values[-1] == want
            want_set = [] if kind is ColumnKind.CONTINUOUS else np.unique(vals)
            np.testing.assert_array_equal(f.observed_value_set, want_set)

    def test_spec_validation(self):
        with pytest.raises(InvalidArgument):
            ImputerSpec("bad", "simple", {"statistic": "max"})
        with pytest.raises(InvalidArgument):
            ImputerSpec("bad", "knn", {"n_neighbors": 0})
        with pytest.raises(InvalidArgument):
            ImputerSpec("bad", "nope")
        # a seed is an int >= 0, in a spec as in a loaded plan
        for seed in (-1, 1.5, True, "7", None):
            with pytest.raises(InvalidArgument, match="seed"):
                ImputerSpec("bad", "apprandom", seed=seed)
            with pytest.raises(SchemaError, match=r"^spec\.seed: "):
                from_jsonable(ImputerSpec, {"id": "bad", "family": "apprandom",
                                            "params": {}, "seed": seed},
                              "spec")

    @pytest.mark.parametrize("params", [
        {"n_neighbors": True}, {"n_neighbors": 2.0}, {},
    ])
    def test_knn_spec_needs_an_integer_k(self, params):
        with pytest.raises(InvalidArgument):
            ImputerSpec("bad", "knn", params)

    @pytest.mark.parametrize("name,bad,good", [
        ("estimator", "lasso", "gbt"),
        ("init_strategy", "median", "mean"),
        ("max_iter", "x", 0),
        ("max_iter", True, 20),
        ("max_iter", -1, 1),
        ("reg", False, 0),
        ("reg", -0.5, 1e-9),
        ("reg", float("inf"), 2.5),
        ("n_estimators", 0, 1),
        ("n_estimators", 3.0, 3),
        ("max_depth", 0, None),
        ("max_depth", True, 6),
        ("learning_rate", float("nan"), 0.0),
        ("learning_rate", "0.1", 0.1),
        ("estimator", ["ridge"], "ridge"),
        ("estimator", {"forest": 1}, "forest"),
    ])
    def test_iterative_spec_checks_each_parameter(self, name, bad, good):
        # each key with an estimator that reads it
        reader = {"n_estimators": "forest", "max_depth": "gbt",
                  "learning_rate": "gbt"}
        params = {"estimator": reader.get(name, "ridge")}
        with pytest.raises(SchemaError, match=name) as exc:
            ImputerSpec("bad", "iterative", dict(params, **{name: bad}))
        assert exc.value.path == "params"
        ImputerSpec("ok", "iterative", dict(params, **{name: good}))

    @pytest.mark.parametrize("family,params,key", [
        ("iterative", {"estimator": "forest", "n_trees": 5}, "n_trees"),
        ("iterative", {"estimator": "forest", "learning_rate": 0.3},
         "learning_rate"),
        ("iterative", {"estimator": "ridge", "max_depth": 3}, "max_depth"),
        ("iterative", {"estimator": "gbt", "reg": 1.0}, "reg"),
        ("simple", {"statistic": "mean", "stat": "median"}, "stat"),
        ("knn", {"n_neighbors": 3, "statistic": "mean"}, "statistic"),
        ("apprandom", {"seed": 3}, "seed"),
    ])
    def test_spec_refuses_a_key_that_nothing_reads(self, family, params, key):
        with pytest.raises(SchemaError, match=repr(key)) as exc:
            ImputerSpec("bad", family, params)
        assert exc.value.path == "params"


class TestTransform:
    def test_no_missing_is_identity(self):
        t = Table((col("x", [1.0, 2.0], ColumnKind.CONTINUOUS),))
        f = fit(simple("mean"), t, "x")
        assert transform(f, t) is t

    def test_only_masked_cells_change(self):
        t = Table((col("x", [1.0, np.nan, 3.0, np.nan], ColumnKind.CONTINUOUS),))
        f = fit(simple("mean"), t, "x")
        out = transform(f, t).column("x")
        assert out.values[0] == 1.0 and out.values[2] == 3.0
        assert out.values[1] == pytest.approx(2.0)
        assert not out.mask.any()

    def test_apprandom_fills_from_observed(self):
        rng = np.random.default_rng(0)
        vals = rng.choice([1.0, 5.0, 9.0], size=50)
        vals[rng.random(50) < 0.4] = np.nan
        t = Table((col("x", vals, ColumnKind.CONTINUOUS),))
        f = fit(ImputerSpec("r", "apprandom", seed=3), t, "x")
        out = transform(f, t).column("x")
        filled = out.values[np.isnan(vals)]
        assert set(filled) <= set(vals[~np.isnan(vals)])

    def test_transform_deterministic(self):
        vals = np.array([1.0, np.nan, 2.0, np.nan, 5.0])
        t = Table((col("x", vals, ColumnKind.CONTINUOUS),))
        f = fit(ImputerSpec("r", "apprandom", seed=7), t, "x")
        a = transform(f, t).column("x").values
        b = transform(f, t).column("x").values
        np.testing.assert_array_equal(a, b)

    def test_knn_exact_match_row(self):
        t = Table((
            col("p", [0.0, 10.0, 20.0], ColumnKind.CONTINUOUS),
            col("y", [1.0, 2.0, 3.0], ColumnKind.CONTINUOUS),
        ))
        f = fit(ImputerSpec("k1", "knn", {"n_neighbors": 1}), t, "y", ("p",))
        query = Table((
            col("p", [10.0], ColumnKind.CONTINUOUS),
            col("y", [np.nan], ColumnKind.CONTINUOUS),
        ))
        out = transform(f, query).column("y")
        assert out.values[0] == 2.0

    def test_binary_rounding_in_transform(self):
        # binary levels {1, 2}: a mean fill of ~1.5 must round to a level
        vals = np.array([1.0] * 6 + [2.0] * 6 + [np.nan] * 4)
        t = Table((col("x", vals, ColumnKind.BINARY),))
        f = fit(simple("mean"), t, "x")
        filled = transform(f, t).column("x").values[12:]
        assert set(filled) <= {1.0, 2.0}

    def test_one_row_binary_fill_beyond_levels_rounds(self):
        # the row's own ridge fill is its batch's marginal; far outside the
        # training range that fill leaves [0, 1] and must still round
        x = np.arange(20.0)
        b = (x >= 10).astype(float)
        t = Table((col("x", x, ColumnKind.CONTINUOUS),
                   col("b", b, ColumnKind.BINARY)))
        spec = ImputerSpec("it", "iterative", {"estimator": "ridge"})
        f = fit(spec, t, "b", ("x",))
        for xv, want in ((100.0, 1.0), (-100.0, 0.0)):
            one = Table((col("x", [xv], ColumnKind.CONTINUOUS),
                         col("b", [np.nan], ColumnKind.BINARY)))
            assert transform(f, one).column("b").values[0] == want

    def test_discrete_censoring_in_transform(self):
        vals = np.array([10.0] * 5 + [20.0] * 5 + [30.0] * 5 + [np.nan] * 3)
        t = Table((col("x", vals, ColumnKind.DISCRETE),))
        f = fit(simple("mean"), t, "x")  # raw fill 20.0 after censoring
        filled = transform(f, t).column("x").values[15:]
        assert set(filled) <= {10.0, 20.0, 30.0}


@st.composite
def rounding_cases(draw):
    """A non-continuous kind, its sorted observed set (one or more members,
    two at most for a binary column) and a fill: a member, a midpoint of
    two neighbours, a signed zero, or any float, NaN and the infinities
    included."""
    kind = draw(st.sampled_from([ColumnKind.DISCRETE, ColumnKind.CATEGORICAL,
                                 ColumnKind.BINARY]))
    member = st.one_of(st.integers(-4, 4).map(float),
                       st.floats(allow_nan=False, allow_infinity=False))
    size = 2 if kind is ColumnKind.BINARY else 6
    s = np.unique(draw(st.lists(member, min_size=1, max_size=size)))
    near = [*s, *(a / 2 + b / 2 for a, b in zip(s, s[1:])), 0.0, -0.0,
            math.nan, math.inf, -math.inf]
    return kind, s, draw(st.one_of(st.sampled_from(near), st.floats()))


# any finite float, the float maximum of either sign drawn often
LEVELS = st.one_of(st.sampled_from([-sys.float_info.max, sys.float_info.max]),
                   st.floats(allow_nan=False, allow_infinity=False))


def _row0(f, kind, n_rows):
    """Row 0 of `n_rows` blank rows that `f` served, as bytes, or the
    InvalidArgument that serving them raised."""
    t = Table((col("x", [np.nan] * n_rows, kind),))
    try:
        return transform(f, t).column("x").values[:1].tobytes()
    except InvalidArgument as exc:
        return str(exc)


# neither rounding path may warn, on any finite or non-finite fill
@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestOneCellRounding:
    @settings(max_examples=600, deadline=None)
    @given(case=rounding_cases())
    # a fill near the negative float maximum, which overflows the distance
    # to the one observed level
    @example(case=(ColumnKind.DISCRETE, np.array([2.99376046e+292]),
                   -1.7976931348623155e+308))
    def test_one_cell_equals_the_array_rule(self, case):
        # a one-row batch rounds its fill in plain floats; two blank rows
        # with the same fill take the array path with the same marginal
        kind, observed, fill = case
        f = FittedImputer(simple("mean"), "x", (), {"fill": fill}, observed)
        assert _row0(f, kind, 1) == _row0(f, kind, 2)

    @settings(max_examples=600, deadline=None)
    @given(a=LEVELS, b=LEVELS,
           fill=st.one_of(LEVELS, st.floats(allow_nan=False)))
    # levels more than the float maximum apart, filled with the high one
    @example(a=-1e308, b=1e308, fill=1e308)
    # adjacent subnormal levels, whose halves are equal
    @example(a=-5e-324, b=5e-324, fill=0.0)
    def test_binary_fill_is_a_level(self, a, b, fill):
        assume(a != b)
        lo, hi = sorted((a, b))
        f = FittedImputer(simple("mean"), "x", (), {"fill": fill},
                          np.array([lo, hi]))
        one = _row0(f, ColumnKind.BINARY, 1)
        assert one == _row0(f, ColumnKind.BINARY, 2)
        assert one in (np.array([lo]).tobytes(), np.array([hi]).tobytes())

    def test_nan_binary_fill_raises(self):
        f = FittedImputer(simple("mean"), "x", (), {"fill": math.nan},
                          np.array([0.0, 1.0]))
        assert _row0(f, ColumnKind.BINARY, 1).startswith(
            "marginal must be in [0, 1]")

    @pytest.mark.parametrize("fills", [[1e300, -1e300], [1e300, 0.0]],
                             ids=["inf-and-minus-inf", "inf-and-low-level"])
    def test_fill_far_beyond_a_tiny_span_counts_as_its_level(self, fills):
        # over levels 0 and 1e-300 the unit positions of these fills are
        # +inf and -inf (or 0): in the marginal each counts as its level
        f = FittedImputer(simple("mean"), "x", (), {"fill": 0.0},
                          np.array([0.0, 1e-300]))
        t = Table((col("x", [np.nan, np.nan], ColumnKind.BINARY),))
        got = with_fills(f, t, np.array(fills)).column("x").values
        assert got.tobytes() == np.array([1e-300, 0.0]).tobytes()

    def test_midpoint_takes_the_smaller_neighbour(self):
        f = FittedImputer(simple("mean"), "x", (), {"fill": 1.5},
                          np.array([1.0, 2.0]))
        assert _row0(f, ColumnKind.DISCRETE, 1) == np.array([1.0]).tobytes()


class TestAppRandomSample:
    def test_preserves_frequencies(self):
        observed = np.array([0.0] * 50 + [1.0] * 30 + [2.0] * 20)
        draws = apprandom_sample(observed, 10_000, seed=1)
        for value, prob in [(0.0, 0.5), (1.0, 0.3), (2.0, 0.2)]:
            assert abs((draws == value).mean() - prob) < 0.02

    def test_n_zero(self):
        assert apprandom_sample(np.array([1.0]), 0, seed=0).size == 0

    def test_empty_state_raises(self):
        with pytest.raises(UntrainableImputer):
            apprandom_sample(np.array([]), 3, seed=0)

    def test_constant_column_perfectly_imputed(self):
        draws = apprandom_sample(np.full(20, 4.0), 100, seed=5)
        assert (draws == 4.0).all()

    def test_passes_chi2_veto_under_null(self):
        rng = np.random.default_rng(17)
        passes = 0
        runs = 100
        for _ in range(runs):
            observed = rng.integers(0, 3, size=200).astype(float)
            draws = apprandom_sample(observed, 200, seed=int(rng.integers(1 << 30)))
            if not chi2_independence(observed, draws).rejected:
                passes += 1
        assert passes >= 90

    @settings(deadline=None)
    @given(seed=st.integers(0, 2**63 - 1), size=st.integers(1, 5000),
           m=st.one_of(st.just(1), st.integers(0, 64)))
    def test_fills_are_the_first_draws_of_the_seed_stream(self, seed, size,
                                                          m):
        observed = np.arange(size, dtype=float)
        t = Table((col("x", np.r_[observed, np.full(m, np.nan)],
                       ColumnKind.CONTINUOUS),))
        f = fit(ImputerSpec("r", "apprandom", {}, seed), t, "x")
        loaded = fitted_from_jsonable(
            json.loads(json.dumps(fitted_to_jsonable(f))))
        want = observed[np.random.default_rng(seed).integers(0, size, m)]
        # f twice: the second call reuses the seed words of the first
        for g in (f, f, loaded):
            got = transform(g, t).column("x").values[size:]
            np.testing.assert_array_equal(got, want)


def knn_fill(ref_X, ref_y, query, k):
    """The fill that `transform` writes for the one row `query` by a kNN
    imputer of `k` fit on reference rows `ref_X` with targets `ref_y`."""
    X = np.vstack([ref_X, query])
    names = tuple(f"p{j}" for j in range(X.shape[1]))
    t = Table(tuple(col(n, X[:, j], ColumnKind.CONTINUOUS)
                    for j, n in enumerate(names))
              + (col("y", [*ref_y, np.nan], ColumnKind.CONTINUOUS),))
    f = fit(ImputerSpec("knn", "knn", {"n_neighbors": k}), t, "y", names)
    return transform(f, t).column("y").values[-1]


class TestKnnImpute:
    def test_mean_of_equidistant(self):
        # query at 2.0 is distance 1 from every reference
        assert knn_fill([[1.0], [3.0], [1.0]], [1.0, 2.0, 3.0], [2.0],
                        k=3) == pytest.approx(2.0)

    def test_distance_scaling_tie_prefers_earlier(self):
        # ref A shares 1 of 2 coords (diff 1): d = sqrt(2/1 * 1) = sqrt(2)
        # ref B shares both coords (diffs 1,1): d = sqrt(2/2 * 2) = sqrt(2)
        assert knn_fill([[1.0, np.nan], [1.0, 1.0]], [7.0, 9.0], [0.0, 0.0],
                        k=1) == 7.0

    def test_no_overlap_falls_back_to_global_mean(self):
        # neither reference observes the query's one coordinate
        with pytest.warns(ImputeQWarning, match="global mean"):
            assert knn_fill([[np.nan, 5.0], [np.nan, 6.0]], [1.0, 2.0],
                            [1.0, np.nan], k=1) == 1.5

    def test_k_capped_at_references(self):
        assert knn_fill([[0.0], [1.0]], [2.0, 4.0], [0.5],
                        k=10) == pytest.approx(3.0)


def linear_pair_table(seed=0, n=200, miss=0.3):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 10, n)
    y = 2.0 * x
    ym = y.copy()
    ym[rng.random(n) < miss] = np.nan
    return Table((
        col("x", x, ColumnKind.CONTINUOUS),
        col("y", ym, ColumnKind.CONTINUOUS),
    )), y


class TestIterative:
    def iter_spec(self, **over):
        params = {"estimator": "ridge", "init_strategy": "mode",
                  "max_iter": 20, "reg": 1e-6}
        params.update(over)
        return ImputerSpec("it", "iterative", params)

    def test_recovers_linear_signal(self):
        t, truth = linear_pair_table(seed=1)
        f = fit(self.iter_spec(), t, "y", ("x",))
        out = transform(f, t).column("y").values
        missing = t.column("y").mask
        assert nrmse_score(truth[missing], out[missing]) > 0.95

    def test_max_iter_zero_is_mode_init(self):
        t, _ = linear_pair_table(seed=2)
        f = fit(self.iter_spec(max_iter=0), t, "y", ("x",))
        # with no refinement rounds the transform falls back to the stored
        # model fit on mode-initialized data; the fill for a fresh table with
        # zero refinement is the training-time mode when no model ran
        assert f.state["visit"] == () or f.state["deltas"] == []

    def test_max_iter_zero_chain_serves_as_its_own_fit(self):
        # with no round no column is visited, so the chain holds the
        # target's model alone: its plan loads, and the chain fit for the
        # other column serves this target as its own fit does
        rng = np.random.default_rng(7)
        x = rng.normal(0, 1, 60)
        y = 2.0 * x
        x[rng.random(60) < 0.3] = np.nan
        y[rng.random(60) < 0.3] = np.nan
        t = Table((col("x", x, ColumnKind.CONTINUOUS),
                   col("y", y, ColumnKind.CONTINUOUS)))
        spec = self.iter_spec(max_iter=0)
        f = fit(spec, t, "y", ("x",))
        assert f.state["visit"] == () and list(f.state["models"]) == [1]
        loaded = fitted_from_jsonable(
            json.loads(json.dumps(fitted_to_jsonable(f))))
        shared = retarget(fit(spec, t, "x", ("y",)), t, "y", ("x",))
        want = transform(f, t).column("y").values.tobytes()
        assert transform(loaded, t).column("y").values.tobytes() == want
        assert transform(shared, t).column("y").values.tobytes() == want

    def test_delta_trend_non_increasing_late(self):
        t, _ = linear_pair_table(seed=3)
        f = fit(self.iter_spec(reg=1.0), t, "y", ("x",))
        deltas = f.state["deltas"]
        for a, b in zip(deltas[2:], deltas[3:]):
            assert b <= a + 1e-9

    def test_early_stop_under_max_iter(self):
        t, _ = linear_pair_table(seed=4)
        f = fit(self.iter_spec(), t, "y", ("x",))
        assert len(f.state["deltas"]) < 20

    def test_column_past_the_range_of_its_squares_counts_toward_stopping(self):
        # np.std of y * 1e300 overflows in its squares; the chain takes that
        # column's delta scale from y / max|y|, so its deltas are those of y
        # (an inf scale made them all 0: the column never held a chain up)
        t, _ = linear_pair_table(seed=1)
        y = t.column("y")
        big = t.with_column(Column("y", y.values * 1e300, y.mask,
                                   kind=ColumnKind.CONTINUOUS))
        plain = fit(self.iter_spec(), t, "y", ("x",)).state["deltas"]
        scaled = fit(self.iter_spec(), big, "y", ("x",)).state["deltas"]
        assert plain[0] > 0
        np.testing.assert_allclose(scaled, plain, rtol=1e-9)

    def test_transform_fills_predictor_gaps(self):
        t, _ = linear_pair_table(seed=5)
        f = fit(self.iter_spec(), t, "y", ("x",))
        query = Table((
            col("x", [np.nan, 4.0], ColumnKind.CONTINUOUS),
            col("y", [np.nan, np.nan], ColumnKind.CONTINUOUS),
        ))
        out = transform(f, query).column("y")
        assert not out.mask.any()
        assert np.isfinite(out.values).all()
        assert out.values[1] == pytest.approx(8.0, abs=1.0)

    def test_a_column_model_that_overflows_is_a_training_error(self):
        # targets near the float maximum overflow a leaf mean: the fit
        # refuses the model, and the chain reports a training error, which
        # the assessment records as a skipped candidate
        t, _ = linear_pair_table(seed=6)
        y = t.column("y")
        # finite observed values in [1e307, 2e307]
        big = Column("y", y.values / 20.0 * 1e307 + 1e307, y.mask,
                     kind=ColumnKind.CONTINUOUS)
        spec = ImputerSpec("it", "iterative",
                           {"estimator": "forest", "n_estimators": 3})
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ImputerTrainingError, match="non-finite"):
                fit(spec, t.with_column(big), "y", ("x",))


class TestAdaptiveRounding:
    def test_symmetric_cutoff(self):
        out = adaptive_round_binary(np.array([0.6, 0.4, 0.5]), 0.5)
        np.testing.assert_array_equal(out, [1.0, 0.0, 1.0])

    def test_idempotent_on_valid_values(self):
        vals = np.array([0.0, 1.0, 1.0, 0.0])
        np.testing.assert_array_equal(adaptive_round_binary(vals, 0.5), vals)

    def test_output_in_01(self):
        rng = np.random.default_rng(6)
        vals = rng.normal(0.5, 1.0, size=100)
        for marg in (0.1, 0.3, 0.7, 0.9):
            assert set(adaptive_round_binary(vals, marg)) <= {0.0, 1.0}

    def test_degenerate_marginals(self):
        vals = np.array([0.2, 0.8])
        np.testing.assert_array_equal(adaptive_round_binary(vals, 0.0), [0, 0])
        np.testing.assert_array_equal(adaptive_round_binary(vals, 1.0), [1, 1])

    def test_skewed_marginal_moves_cutoff(self):
        # at marginal 0.8 the cutoff is 0.8 - ndtri(0.8)*0.4 ~ 0.4634, below
        # the plain-rounding 0.5, so 0.47 rounds up while 0.45 stays down
        assert adaptive_round_binary(np.array([0.47]), 0.8)[0] == 1.0
        assert adaptive_round_binary(np.array([0.45]), 0.8)[0] == 0.0


class TestCensoring:
    def test_nearest(self):
        s = np.array([1.0, 2.0, 3.0])
        assert censor_to_observed(np.array([2.4]), s)[0] == 2.0

    def test_in_set_unchanged(self):
        s = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(
            censor_to_observed(np.array([1.0, 3.0]), s), [1.0, 3.0]
        )

    def test_midpoint_takes_smaller(self):
        assert censor_to_observed(np.array([1.5]), np.array([1.0, 2.0]))[0] == 1.0

    def test_out_of_range_clamps(self):
        s = np.array([1.0, 2.0])
        np.testing.assert_array_equal(
            censor_to_observed(np.array([-5.0, 9.0]), s), [1.0, 2.0]
        )


class TestRosterAndSerialization:
    def test_default_roster_ids_unique(self):
        roster = default_imputer_roster()
        ids = [s.id for s in roster]
        assert len(set(ids)) == len(ids)
        assert len(roster) == 10

    def test_array_codec_roundtrip(self):
        a = np.array([[1.0, np.nan, 3.5]])
        back = from_jsonable(NanMatrix, to_jsonable(a), "ref_X")
        np.testing.assert_array_equal(np.isnan(a), np.isnan(back))
        np.testing.assert_allclose(a[~np.isnan(a)], back[~np.isnan(back)])

    @pytest.mark.parametrize("tp, doc", [
        (NanMatrix, [[1.0], [2.0, 3.0]]),  # ragged
        (NanMatrix, [1.0, 2.0]),  # one level short
        (NanMatrix, []),
        (NanMatrix, [[1.0, "2"]]),
        (NanMatrix, [[1.0, 2]]),
        (NanMatrix, [[True]]),
        (Annotated[np.ndarray, list[float]], [1.0, None]),  # no nulls
        (Annotated[np.ndarray, list[float]], [[1.0]]),
        (Annotated[np.ndarray, list[int]], [1, 2.0]),
        (Annotated[np.ndarray, list[int]], [1, False]),
        (Annotated[np.ndarray, list[int]], [2**63]),
        (Annotated[np.ndarray, list[int]], {"0": 1}),
    ])
    def test_array_cells_are_read_as_written(self, tp, doc):
        with pytest.raises(SchemaError, match=r"^a: expected a rectangular"):
            from_jsonable(tp, doc, "a")

    # a null is a kNN matrix's missing cell; any other non-finite float,
    # in a field or an array cell, is refused at its index.  Where a null
    # may stand, a NaN reads as one: the plan reader reads a NaN token as
    # inf, which is refused
    @pytest.mark.parametrize("tp, doc, where", [
        (NanMatrix, [[1.0, None], [math.inf, 2.0]], "a[1][0]"),
        (NanMatrix, loads_document(b"[[null, NaN]]"), "a[0][1]"),
        (NanMatrix, [[None], [-math.inf]], "a[1][0]"),
        (Annotated[np.ndarray, list[float]], [0.5, 2.0, math.nan], "a[2]"),
        (Annotated[np.ndarray, list[float]], [-math.inf], "a[0]"),
        (float, math.inf, "a"),
        (float | None, math.nan, "a"),
    ])
    def test_non_finite_cells_are_refused_at_their_index(self, tp, doc,
                                                         where):
        with pytest.raises(SchemaError) as info:
            from_jsonable(tp, doc, "a")
        assert (info.value.path, info.value.message) == (
            where, "expected a finite float")

    @given(arrays(np.float64, array_shapes(min_dims=1, max_dims=2,
                                           min_side=0, max_side=6),
                  elements=st.one_of(
                      st.floats(),
                      st.sampled_from([math.nan, -0.0, 5e-324, -2.2e-308,
                                       1.7976931348623157e308, -1e300]))))
    def test_array_codec_equals_per_value_encoder(self, a):
        # the encoder it replaced: one isnan test per value, one call per row
        def per_value(x):
            if x.ndim == 1:
                return [None if math.isnan(v) else v for v in x.tolist()]
            return [per_value(row) for row in x]

        # repr tells -0.0 from 0.0, and a float from None or an int
        assert repr(to_jsonable(a)) == repr(per_value(a))

    # each family's stored state; "q" has missing cells, so a kNN fit that
    # reads it holds NaN reference cells
    @pytest.mark.parametrize("spec, preds", [
        pytest.param(ImputerSpec("m", "simple", {"statistic": "median"}), (),
                     id="spec0"),
        pytest.param(ImputerSpec("r", "apprandom", seed=9), (), id="spec1"),
        pytest.param(ImputerSpec("k", "knn", {"n_neighbors": 2}), ("p",),
                     id="spec2"),
        pytest.param(ImputerSpec(
            "it", "iterative",
            {"estimator": "ridge", "init_strategy": "mode", "max_iter": 3,
             "reg": 1.0}), ("p",), id="spec3"),
        pytest.param(ImputerSpec("k", "knn", {"n_neighbors": 2}), ("p", "q"),
                     id="knn-nan-reference-cells"),
        pytest.param(ImputerSpec(
            "it", "iterative",
            {"estimator": "forest", "max_iter": 2, "n_estimators": 3,
             "max_depth": 3}, seed=4), ("p", "q"), id="forest-chain"),
        pytest.param(ImputerSpec(
            "it", "iterative",
            {"estimator": "gbt", "max_iter": 2, "n_estimators": 3,
             "max_depth": 2, "learning_rate": 0.3}), ("p", "q"),
            id="gbt-chain"),
    ])
    def test_fitted_roundtrip(self, spec, preds):
        rng = np.random.default_rng(8)
        p = rng.normal(size=30)
        y = p * 3 + rng.normal(scale=0.1, size=30)
        y[rng.random(30) < 0.3] = np.nan
        q = p - rng.normal(size=30)
        q[rng.random(30) < 0.3] = np.nan
        t = Table((
            col("p", p, ColumnKind.CONTINUOUS),
            col("q", q, ColumnKind.CONTINUOUS),
            col("y", y, ColumnKind.CONTINUOUS),
        ))
        f = fit(spec, t, "y", preds)
        doc = json.loads(json.dumps(fitted_to_jsonable(f)))
        f2 = fitted_from_jsonable(doc)
        assert json.dumps(fitted_to_jsonable(f2)) == json.dumps(doc)
        out1 = transform(f, t).column("y").values
        out2 = transform(f2, t).column("y").values
        np.testing.assert_allclose(out1, out2, atol=1e-12)
