import numpy as np
import pytest
from scipy import stats as sps

from imputeq.errors import DegenerateInput
from imputeq.stattests import TestKind as StatTestKind
from imputeq.stattests import (
    chi2_independence,
    distribution_compatible,
    ks_two_sample,
)
from imputeq.table import Column, ColumnKind


def continuous_col(name="x"):
    v = np.array([0.0, 1.0, 2.0])
    return Column(name, v, np.zeros(3, dtype=bool), kind=ColumnKind.CONTINUOUS)


def binary_col(name="x"):
    v = np.array([0.0, 1.0, 0.0])
    return Column(name, v, np.zeros(3, dtype=bool), kind=ColumnKind.BINARY)


class TestKsTwoSample:
    def test_identical_samples(self):
        a = np.array([1.0, 2.0, 3.0])
        r = ks_two_sample(a, a)
        assert r.statistic == 0.0
        assert r.p_value == 1.0
        assert not r.rejected
        assert r.test is StatTestKind.KS

    def test_disjoint_supports(self):
        r = ks_two_sample([0.0, 1.0, 2.0], [10.0, 11.0, 12.0])
        assert r.statistic == 1.0

    def test_statistic_equals_brute_force(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=37)
        b = rng.normal(0.3, 1.2, size=53)
        grid = np.concatenate([a, b])
        brute = max(
            abs((a <= x).mean() - (b <= x).mean()) for x in grid
        )
        assert ks_two_sample(a, b).statistic == pytest.approx(brute, abs=1e-12)

    def test_pvalue_matches_kolmogorov_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a = rng.normal(size=rng.integers(30, 80))
            b = rng.normal(rng.normal(0, 0.5), 1.0, size=rng.integers(30, 80))
            mine = ks_two_sample(a, b)
            ref_stat = sps.ks_2samp(a, b).statistic
            en = len(a) * len(b) / (len(a) + len(b))
            ref_p = sps.kstwobign.sf(np.sqrt(en) * mine.statistic)
            assert mine.statistic == pytest.approx(ref_stat, abs=1e-12)
            assert mine.p_value == pytest.approx(ref_p, abs=1e-6)

    def test_symmetric(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=40), rng.normal(size=33)
        assert ks_two_sample(a, b).statistic == ks_two_sample(b, a).statistic

    def test_empty_rejected(self):
        with pytest.raises(DegenerateInput):
            ks_two_sample([], [1.0])


class TestChi2Independence:
    def test_identical_proportions(self):
        a = np.array([0.0] * 10 + [1.0] * 20)
        b = np.array([0.0] * 5 + [1.0] * 10)
        r = chi2_independence(a, b)
        assert r.statistic == pytest.approx(0.0, abs=1e-12)
        assert r.p_value == pytest.approx(1.0)
        assert r.test is StatTestKind.CHI_SQUARE

    def test_two_by_two_value(self):
        a = np.array([0.0] * 10)
        b = np.array([1.0] * 10)
        r = chi2_independence(a, b)
        assert r.statistic == pytest.approx(20.0)
        assert r.p_value == pytest.approx(sps.chi2.sf(20.0, 1), rel=1e-9)
        assert r.rejected

    def test_matches_scipy_contingency(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.integers(0, 4, size=120).astype(float)
            b = rng.integers(0, 4, size=90).astype(float)
            mine = chi2_independence(a, b)
            cats = np.unique(np.concatenate([a, b]))
            table = np.array(
                [[(g == c).sum() for c in cats] for g in (a, b)]
            )
            ref_stat, ref_p, _, _ = sps.chi2_contingency(table, correction=False)
            # sizes 120/90 with 4 near-uniform categories never trigger merging
            assert mine.statistic == pytest.approx(ref_stat, rel=1e-10)
            assert mine.p_value == pytest.approx(ref_p, rel=1e-8, abs=1e-12)

    def test_relabeling_invariant(self):
        rng = np.random.default_rng(8)
        a = rng.integers(0, 5, size=60).astype(float)
        b = rng.integers(0, 5, size=45).astype(float)
        relabel = {0: 4.0, 1: 3.0, 2: 0.0, 3: 1.0, 4: 2.0}
        a2 = np.array([relabel[int(v)] for v in a])
        b2 = np.array([relabel[int(v)] for v in b])
        r1, r2 = chi2_independence(a, b), chi2_independence(a2, b2)
        assert r1.statistic == pytest.approx(r2.statistic, abs=1e-12)

    def test_rare_category_merging(self):
        # category 2 expected count in the smaller group is far below 5, so
        # it must fold into a bucket rather than blow up the statistic
        a = np.array([0.0] * 30 + [1.0] * 30 + [2.0])
        b = np.array([0.0] * 15 + [1.0] * 15)
        r = chi2_independence(a, b)
        assert np.isfinite(r.statistic)
        assert r.statistic >= 0.0

    def test_single_category_raises(self):
        with pytest.raises(DegenerateInput):
            chi2_independence(np.zeros(10), np.zeros(6))


class TestDispatch:
    def test_continuous_uses_ks(self):
        r = distribution_compatible(
            continuous_col(), np.arange(40.0), np.arange(40.0)
        )
        assert r.test is StatTestKind.KS

    def test_binary_uses_chi2(self):
        obs = np.array([0.0] * 20 + [1.0] * 20)
        r = distribution_compatible(binary_col(), obs, obs.copy())
        assert r.test is StatTestKind.CHI_SQUARE

    def test_single_category_flagged_not_rejected(self):
        r = distribution_compatible(binary_col(), np.zeros(12), np.zeros(9))
        assert not r.rejected
        assert "single_category" in r.notes

    def test_constant_spike_rejected(self):
        # mean-imputing half of a skewed column makes a point mass the KS
        # test should catch
        rng = np.random.default_rng(12)
        observed = rng.exponential(size=300)
        imputed = np.concatenate(
            [observed[:150], np.full(150, observed.mean())]
        )
        r = distribution_compatible(continuous_col(), observed, imputed)
        assert r.rejected

    def test_small_sample_flagged(self):
        rng = np.random.default_rng(1)
        r = ks_two_sample(rng.normal(size=10), rng.normal(size=50))
        assert "small_sample" in r.notes


class TestNullCalibration:
    def test_ks_rejection_rate_under_null(self):
        rng = np.random.default_rng(100)
        rejections = 0
        trials = 400
        for _ in range(trials):
            a = rng.normal(size=60)
            b = rng.normal(size=60)
            if ks_two_sample(a, b).rejected:
                rejections += 1
        assert 0.02 <= rejections / trials <= 0.09

    def test_chi2_rejection_rate_under_null(self):
        rng = np.random.default_rng(200)
        rejections = 0
        trials = 400
        probs = np.array([0.4, 0.3, 0.2, 0.1])
        for _ in range(trials):
            a = rng.choice(4, size=100, p=probs).astype(float)
            b = rng.choice(4, size=100, p=probs).astype(float)
            if chi2_independence(a, b).rejected:
                rejections += 1
        assert 0.02 <= rejections / trials <= 0.09
