import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import imputeq
from imputeq.errors import ConstantTargetWarning, DegenerateInput
from imputeq.metrics import (
    auroc,
    balanced_accuracy,
    macro_balanced_accuracy,
    mean_ci,
    nrmse_score,
    r2,
    rmse,
)


class TestRmseAndScore:
    def test_rmse_known(self):
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(np.sqrt(12.5))

    def test_rmse_crossed_pair(self):
        assert rmse([0.0, 2.0], [2.0, 0.0]) == pytest.approx(2.0)

    def test_rmse_single_cell(self):
        assert rmse([1.0], [4.5]) == pytest.approx(3.5)

    def test_perfect_score(self):
        y = np.array([1.0, 2.0, 5.0])
        assert nrmse_score(y, y) == 1.0

    def test_crossed_pair_scores_zero(self):
        assert nrmse_score([0.0, 2.0], [2.0, 0.0]) == pytest.approx(0.0)

    def test_range_normalization(self):
        # rmse 1 on a range-4 target -> 0.75
        y = np.array([0.0, 4.0])
        p = np.array([1.0, 3.0])
        assert nrmse_score(y, p) == pytest.approx(0.75)

    def test_can_go_negative(self):
        y = np.array([0.0, 1.0])
        p = np.array([100.0, -100.0])
        assert nrmse_score(y, p) < 0.0

    def test_affine_rescaling_invariance(self):
        rng = np.random.default_rng(5)
        y = rng.normal(size=30)
        p = y + rng.normal(scale=0.3, size=30)
        a, b = 2.5, -7.0
        assert nrmse_score(a * y + b, a * p + b) == pytest.approx(
            nrmse_score(y, p)
        )

    def test_constant_target_convention(self):
        y = np.array([2.0, 2.0])
        with pytest.warns(ConstantTargetWarning):
            assert nrmse_score(y, y) == 1.0
        with pytest.warns(ConstantTargetWarning):
            assert nrmse_score(y, np.array([2.0, 3.0])) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(DegenerateInput):
            rmse([], [])


class TestR2:
    def test_matches_definition(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=50)
        p = y + rng.normal(scale=0.1, size=50)
        expected = 1 - np.sum((y - p) ** 2) / np.sum((y - y.mean()) ** 2)
        assert r2(y, p) == pytest.approx(expected, abs=1e-12)

    def test_mean_prediction_scores_zero(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r2(y, np.full(3, 2.0)) == pytest.approx(0.0)

    def test_constant_target_rejected(self):
        with pytest.raises(DegenerateInput):
            r2([1.0, 1.0], [1.0, 1.0])

    def test_too_few_cells_rejected(self):
        with pytest.raises(DegenerateInput):
            r2([1.0], [1.0])


class TestBalancedAccuracy:
    def test_equal_weight_per_class(self):
        # class 0: 2/2 right, class 1: 1/4 right -> (1 + 0.25) / 2
        y = np.array([0, 0, 1, 1, 1, 1])
        p = np.array([0, 0, 1, 0, 0, 0])
        assert balanced_accuracy(y, p) == pytest.approx(0.625)

    def test_majority_vote_on_imbalance(self):
        y = np.concatenate([np.zeros(90), np.ones(10)])
        p = np.zeros(100)
        assert balanced_accuracy(y, p) == pytest.approx(0.5)

    def test_inverted_is_zero(self):
        y = np.array([0, 0, 1, 1])
        assert balanced_accuracy(y, 1 - y) == 0.0

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(3)
        y = rng.integers(0, 2, 40)
        p = rng.integers(0, 2, 40)
        assert balanced_accuracy(y, p) == pytest.approx(
            balanced_accuracy(1 - y, 1 - p)
        )

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateInput):
            balanced_accuracy(np.zeros(5), np.zeros(5))

    def test_macro_variant_multiclass(self):
        y = np.array([0, 0, 1, 1, 2, 2])
        assert macro_balanced_accuracy(y, y) == 1.0
        # binary case coincides with the plain version
        yb = np.array([0, 1, 0, 1])
        pb = np.array([0, 1, 1, 1])
        assert macro_balanced_accuracy(yb, pb) == pytest.approx(
            balanced_accuracy(yb, pb)
        )


class TestAuroc:
    def test_perfect_and_inverted(self):
        y = np.array([0, 0, 1, 1])
        assert auroc(y, np.array([0.1, 0.2, 0.8, 0.9])) == 1.0
        assert auroc(y, np.array([0.9, 0.8, 0.2, 0.1])) == 0.0

    def test_all_tied_is_half(self):
        y = np.array([0, 1, 0, 1])
        assert auroc(y, np.zeros(4)) == 0.5

    def test_matches_pair_counting(self):
        rng = np.random.default_rng(3)
        y = rng.integers(0, 2, size=60)
        s = np.round(rng.normal(size=60), 1)  # force some ties
        pos = s[y == 1]
        neg = s[y == 0]
        wins = 0.0
        for a in pos:
            for b in neg:
                wins += 1.0 if a > b else (0.5 if a == b else 0.0)
        assert auroc(y, s) == pytest.approx(wins / (len(pos) * len(neg)))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_equals_tie_half_pair_count_on_tie_heavy_scores(self, data):
        n = data.draw(st.integers(2, 40))
        y = np.array(data.draw(st.lists(st.booleans(), min_size=n,
                                        max_size=n)))
        y[0], y[1] = True, False  # both classes present
        # few distinct values, so most scores tie with others
        s = np.array(data.draw(st.lists(
            st.sampled_from([-1.5, 0.0, 0.25, 2.0, 1e9]),
            min_size=n, max_size=n)))
        pos, neg = s[y], s[~y]
        wins = sum(1.0 if a > b else 0.5 if a == b else 0.0
                   for a in pos for b in neg)
        assert auroc(y, s) == pytest.approx(wins / (pos.size * neg.size),
                                            rel=1e-12, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_equals_rank_sum_formula_bit_for_bit(self, data):
        from scipy import stats

        n = data.draw(st.integers(2, 60))
        y = np.array(data.draw(st.lists(st.booleans(), min_size=n,
                                        max_size=n)))
        y[0], y[1] = True, False  # both classes present
        # a small pool of values, so most scores tie with others
        pool = data.draw(st.lists(
            st.sampled_from([-np.inf, -1.5, -0.0, 0.0, 0.25, 1e9, np.inf])
            | st.floats(allow_nan=False), min_size=1, max_size=6))
        s = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=n,
                                        max_size=n)))
        n_pos, n_neg = int(y.sum()), int((~y).sum())
        rank_sum = float(stats.rankdata(s)[y].sum())
        want = (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
        got = auroc(y, s)
        assert type(got) is float and got == want

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateInput):
            auroc(np.array([1, 1]), np.array([0.1, 0.2]))

    def test_nan_score_rejected(self):
        with pytest.raises(DegenerateInput):
            auroc(np.array([1, 0, 1, 0]), np.array([np.nan, 0.2, 0.5, 0.1]))

    def test_complement_property(self):
        rng = np.random.default_rng(4)
        y = rng.integers(0, 2, 50)
        s = rng.normal(size=50)  # continuous, tie-free
        assert auroc(y, s) + auroc(y, -s) == pytest.approx(1.0)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(5)
        y = rng.integers(0, 2, 50)
        s = rng.normal(size=50)
        assert auroc(y, np.exp(s)) == pytest.approx(auroc(y, s))


class TestMeanCi:
    def test_against_scipy(self):
        from scipy import stats

        rng = np.random.default_rng(7)
        x = rng.normal(size=20)
        m, hw = mean_ci(x)
        lo, hi = stats.t.interval(
            0.95, df=len(x) - 1, loc=x.mean(), scale=stats.sem(x)
        )
        assert m == pytest.approx(x.mean())
        assert m - hw == pytest.approx(lo)
        assert m + hw == pytest.approx(hi)

    def test_equals_student_t_ppf_bit_for_bit(self):
        from scipy import stats

        rng = np.random.default_rng(11)
        for df in range(1, 201):
            x = rng.normal(size=df + 1) * 10.0 ** rng.uniform(-3, 3)
            sem = float(x.std(ddof=1)) / np.sqrt(x.size)
            want = float(stats.t.ppf(0.975, df=df)) * sem
            assert mean_ci(x) == (float(x.mean()), want)

    def test_identical_samples_zero_width(self):
        m, hw = mean_ci(np.full(5, 3.0))
        assert m == 3.0 and hw == 0.0

    def test_two_point_reference_value(self):
        # t critical value at df=1, 97.5% is 12.706
        m, hw = mean_ci(np.array([0.0, 1.0]))
        assert m == 0.5
        assert hw == pytest.approx(12.7062 * np.std([0, 1], ddof=1) / np.sqrt(2),
                                   rel=1e-4)

    def test_mirror_symmetry(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=12)
        m1, h1 = mean_ci(x)
        m2, h2 = mean_ci(-x)
        assert m1 == pytest.approx(-m2)
        assert h1 == pytest.approx(h2)

    def test_single_value_rejected(self):
        with pytest.raises(DegenerateInput):
            mean_ci(np.array([4.2]))


def test_package_import_leaves_scipy_stats_out():
    # scipy.stats costs about half a second and 40 MB at import; the
    # metrics need only scipy.special
    src = os.path.dirname(os.path.dirname(imputeq.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import imputeq, imputeq.cli, sys; "
            "print('scipy.stats' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
