import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imputeq.audit import (
    AuditReport,
    _stratified_folds,
    audit_all,
    audit_feature,
    audit_matrix_csv,
    build_completed_dataset,
    inject_to_level,
    single_imputer_strategy,
)
from imputeq.errors import (
    InvalidArgument,
    InvalidFoldCount,
    UntrainableImputer,
)
from imputeq.table import Column, ColumnKind, Table, inject_mcar


def continuous_table(n=300, seed=0, p=3):
    rng = np.random.default_rng(seed)
    cols = []
    base = rng.normal(0, 1, n)
    for j in range(p):
        vals = base * (j + 1) + rng.normal(0, 0.5, n) if j else base.copy()
        cols.append(
            Column(f"f{j}", vals, np.zeros(n, dtype=bool),
                   kind=ColumnKind.CONTINUOUS)
        )
    return Table(tuple(cols), n)


class TestBuildCompletedDataset:
    def test_complete_input_passes_through(self):
        t = continuous_table(n=100)
        strat = single_imputer_strategy("simple", {"statistic": "mean"})
        dprime, masks = build_completed_dataset(t, strat, k=5, seed=0)
        for name in t.column_names:
            assert np.allclose(dprime.column(name).values,
                               t.column(name).values)
            assert not masks[name].any()

    def test_all_holes_filled_in_row_order(self):
        t = inject_mcar(continuous_table(n=200, seed=1), 0.3, seed=2)
        strat = single_imputer_strategy("simple", {"statistic": "mean"})
        dprime, masks = build_completed_dataset(t, strat, k=5, seed=0)
        assert dprime.total_missing() == 0
        for name in t.column_names:
            col = t.column(name)
            assert np.array_equal(masks[name], col.mask)
            keep = ~col.mask
            # observed cells come through untouched, in place
            assert np.allclose(dprime.column(name).values[keep],
                               col.values[keep])

    def test_strategy_errors_propagate(self):
        t = inject_mcar(continuous_table(n=60, seed=1), 0.3, seed=2)

        def broken(train, seed):
            raise UntrainableImputer("nothing to fit")

        with pytest.raises(UntrainableImputer):
            build_completed_dataset(t, broken, k=5, seed=0)


class TestAuditFeature:
    def test_no_missing_is_skipped(self):
        t = continuous_table(n=120)
        res = audit_feature(t, np.zeros(120, dtype=bool), feature="f0")
        assert res.skipped
        assert res.reason == "insufficient_missing"

    def test_thin_mask_is_skipped(self):
        t = continuous_table(n=120)
        mask = np.zeros(120, dtype=bool)
        mask[:9] = True  # below 2k positives at k=5
        assert audit_feature(t, mask).skipped

    def test_mean_imputation_is_detectable(self):
        t = inject_mcar(continuous_table(n=300, seed=3), 0.5, seed=4)
        strat = single_imputer_strategy("simple", {"statistic": "mean"})
        dprime, masks = build_completed_dataset(t, strat, k=5, seed=0)
        res = audit_feature(dprime, masks["f1"], seed=1, feature="f1")
        assert not res.skipped
        assert res.mean_auroc > 0.95

    def test_empirical_sampling_is_near_chance_on_noise(self):
        rng = np.random.default_rng(5)
        n = 300
        t = Table(tuple(
            Column(f"n{j}", rng.normal(0, 1, n), np.zeros(n, dtype=bool),
                   kind=ColumnKind.CONTINUOUS)
            for j in range(3)
        ), n)
        t = inject_mcar(t, 0.5, seed=6)
        dprime, masks = build_completed_dataset(
            t, single_imputer_strategy("apprandom"), k=5, seed=0
        )
        res = audit_feature(dprime, masks["n0"], seed=1)
        assert not res.skipped
        assert 0.4 <= res.mean_auroc <= 0.65

    def test_oracle_fill_is_indistinguishable(self):
        # cells "filled" with the true original values carry no signature
        t = continuous_table(n=300, seed=7)
        rng = np.random.default_rng(8)
        mask = rng.random(300) < 0.5
        res = audit_feature(t, mask, seed=2)
        assert not res.skipped
        assert 0.35 <= res.mean_auroc <= 0.65

    def test_auroc_within_unit_interval(self):
        t = inject_mcar(continuous_table(n=200, seed=9), 0.4, seed=10)
        strat = single_imputer_strategy("simple", {"statistic": "median"})
        dprime, masks = build_completed_dataset(t, strat, k=5, seed=0)
        res = audit_feature(dprime, masks["f0"], seed=3)
        assert not res.skipped
        assert 0.0 <= res.mean_auroc <= 1.0
        assert res.ci_half_width >= 0.0


def stratified_folds_by_row(y, k, seed):
    """`_stratified_folds` as it dealt rows one at a time, kept as its
    oracle."""
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    folds = [[] for _ in range(k)]
    for cls in (0, 1):
        idx = np.flatnonzero(y == cls)
        idx = idx[rng.permutation(idx.size)]
        for i, row in enumerate(idx):
            folds[i % k].append(int(row))
    out = []
    all_rows = set(range(y.size))
    for f in folds:
        test = np.array(sorted(f), dtype=int)
        train = np.array(sorted(all_rows - set(f)), dtype=int)
        out.append((train, test))
    return out


class TestStratifiedFolds:
    @settings(max_examples=300, deadline=None)
    @given(y=st.lists(st.integers(0, 1), min_size=0, max_size=60),
           k=st.integers(2, 10), seed=st.integers(0, 2**32 - 1))
    def test_folds_equal_the_row_by_row_deal(self, y, k, seed):
        y = np.array(y, dtype=int)
        got = _stratified_folds(y, k, seed)
        want = stratified_folds_by_row(y, k, seed)
        assert len(got) == len(want) == k
        for (train, test), (train0, test0) in zip(got, want):
            assert train.dtype == train0.dtype and test.dtype == test0.dtype
            np.testing.assert_array_equal(train, train0)
            np.testing.assert_array_equal(test, test0)


class TestInjectToLevel:
    def test_reaches_target_level(self):
        t = continuous_table(n=2000, seed=11)
        out = inject_to_level(t, 0.5, seed=12)
        assert out.missing_cell_fraction() == pytest.approx(0.5, abs=0.03)

    def test_existing_holes_survive(self):
        t = inject_mcar(continuous_table(n=400, seed=13), 0.2, seed=14)
        out = inject_to_level(t, 0.6, seed=15)
        for name in t.column_names:
            before = t.column(name).mask
            after = out.column(name).mask
            assert (after | ~before).all()  # before ⊆ after

    def test_level_below_current_is_noop(self):
        t = inject_mcar(continuous_table(n=200, seed=16), 0.4, seed=17)
        out = inject_to_level(t, 0.1, seed=18)
        assert out is t


class TestAuditAll:
    def test_complete_data_level_zero_all_skipped(self):
        t = continuous_table(n=150, seed=19)
        strategies = {
            "mean": single_imputer_strategy("simple", {"statistic": "mean"}),
        }
        reports = audit_all(t, strategies, [0.0], seed=20)
        assert len(reports) == 1
        assert all(f.skipped for f in reports[0].per_feature)
        assert reports[0].strategy_average is None

    def test_report_order_matches_input_order(self):
        t = inject_mcar(continuous_table(n=200, seed=21), 0.3, seed=22)
        strategies = {
            "zeta": single_imputer_strategy("simple", {"statistic": "mean"}),
            "alpha": single_imputer_strategy("apprandom"),
        }
        reports = audit_all(t, strategies, [0.3, 0.5], seed=23)
        assert [(r.missingness_level, r.strategy) for r in reports] == [
            (0.3, "zeta"), (0.3, "alpha"), (0.5, "zeta"), (0.5, "alpha"),
        ]

    def test_average_is_mean_of_scored_features(self):
        t = inject_mcar(continuous_table(n=250, seed=24), 0.4, seed=25)
        strategies = {"m": single_imputer_strategy("simple",
                                                   {"statistic": "mean"})}
        (report,) = audit_all(t, strategies, [0.4], seed=26)
        scored = [f.mean_auroc for f in report.per_feature if not f.skipped]
        assert report.strategy_average == pytest.approx(np.mean(scored))

    def test_deterministic_per_seed(self):
        t = inject_mcar(continuous_table(n=200, seed=27), 0.4, seed=28)
        strategies = {"r": single_imputer_strategy("apprandom")}
        a = audit_all(t, strategies, [0.4], seed=29)
        b = audit_all(t, strategies, [0.4], seed=29)
        assert [r.to_jsonable() for r in a] == [r.to_jsonable() for r in b]

    def test_invalid_level_rejected(self):
        t = continuous_table(n=100, seed=30)
        with pytest.raises(InvalidArgument):
            audit_all(t, {}, [1.0], seed=0)

    @pytest.mark.parametrize("k", [1, 0, 61, 2.5, True, "5", None,
                                   np.int64(5)])
    def test_invalid_fold_count_rejected(self, k):
        # a fold count that is not a Python int in [2, 60] fails up front,
        # not as a report of skipped features
        t = inject_mcar(continuous_table(n=60, seed=39), 0.3, seed=40)
        strategies = {"m": single_imputer_strategy("simple",
                                                   {"statistic": "mean"})}
        with pytest.raises(InvalidFoldCount):
            audit_all(t, strategies, [0.3], seed=0, k=k)

    def test_failing_strategy_recorded_not_raised(self):
        t = inject_mcar(continuous_table(n=150, seed=31), 0.3, seed=32)

        def broken(train, seed):
            raise UntrainableImputer("nope")

        (report,) = audit_all(t, {"bad": broken}, [0.3], seed=33)
        assert all(f.skipped for f in report.per_feature)
        assert "strategy_error" in report.notes
        assert report.strategy_average is None


class TestMatrixCsv:
    def test_layout(self):
        t = inject_mcar(continuous_table(n=200, seed=34), 0.4, seed=35)
        strategies = {
            "mean": single_imputer_strategy("simple", {"statistic": "mean"}),
            "rand": single_imputer_strategy("apprandom"),
        }
        reports = audit_all(t, strategies, [0.4], seed=36)
        text = audit_matrix_csv(reports)
        lines = [l for l in text.strip().splitlines() if l]
        assert lines[0] == "missingness=0.4"
        assert lines[1] == "feature,mean,rand"
        assert lines[-1].startswith("average,")

    def test_skipped_cells_blank(self):
        t = continuous_table(n=150, seed=37)
        strategies = {"m": single_imputer_strategy("simple",
                                                   {"statistic": "mean"})}
        reports = audit_all(t, strategies, [0.0], seed=38)
        text = audit_matrix_csv(reports)
        assert "f0,\n" in text or "f0,\r\n" in text
