"""Distribution-compatibility tests used to veto biased imputers.

An imputer that fills gaps with values drawn from a visibly different
distribution than the observed data would tilt any downstream analysis, even
if its pointwise accuracy looks fine.  Before an imputer can be selected for
a feature we compare its re-imputed values against the originally observed
ones: two-sample Kolmogorov-Smirnov for continuous columns, a chi-square
independence test on the 2 x V category table for everything else.

The statistics are computed here; their p-values come from scipy's
asymptotic Kolmogorov distribution and chi-square upper tail.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc, kolmogorov

from .errors import DegenerateInput, InvalidArgument, _require
from .estimators import _is_number
from .table import Column, ColumnKind

SMALL_SAMPLE_N = 30  # below this the asymptotic p-values get rough


class TestKind(enum.Enum):
    KS = "ks"
    CHI_SQUARE = "chi_square"


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float
    test: TestKind
    rejected: bool
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        """A statistic in [0, inf) and a p-value in [0, 1], or SchemaError
        at the field."""
        _require(_is_number(self.statistic, 0.0), "statistic",
                 "expected a number in [0, inf)")
        _require(_is_number(self.p_value, 0.0, 1.0), "p_value",
                 "expected a number in [0, 1]")


def ks_two_sample(a, b, alpha: float = 0.05) -> TestResult:
    """Two-sample Kolmogorov-Smirnov test.

    D is the exact supremum distance between the two empirical CDFs; the
    p-value uses the asymptotic Kolmogorov distribution at effective sample
    size n_a*n_b/(n_a+n_b).
    """
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise DegenerateInput("ks_two_sample needs non-empty samples")
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    d = float(np.abs(cdf_a - cdf_b).max())
    en = a.size * b.size / (a.size + b.size)
    p = float(kolmogorov(math.sqrt(en) * d))
    notes = ()
    if min(a.size, b.size) < SMALL_SAMPLE_N:
        notes = ("small_sample",)
    return TestResult(d, p, TestKind.KS, rejected=p < alpha, notes=notes)


def chi2_independence(
    observed_vals, imputed_vals, alpha: float = 0.05
) -> TestResult:
    """Chi-square independence test on the group x category table.

    Categories whose expected count in the smaller group falls below 5 are
    folded, rarest first, into a shared bucket before computing the Pearson
    statistic; df is the final category count minus one.
    """
    a = np.asarray(observed_vals, dtype=float)
    b = np.asarray(imputed_vals, dtype=float)
    if a.size == 0 or b.size == 0:
        raise DegenerateInput("chi2_independence needs non-empty groups")
    cats = np.unique(np.concatenate([a, b]))
    count_a = np.array([(a == c).sum() for c in cats], dtype=float)
    count_b = np.array([(b == c).sum() for c in cats], dtype=float)
    pairs = _merge_rare(list(zip(count_a, count_b)), a.size, b.size)
    if len(pairs) < 2:
        raise DegenerateInput("single category after merging")

    table = np.array(pairs, dtype=float).T  # 2 x V
    n = table.sum()
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / n
    stat = float(((table - expected) ** 2 / expected).sum())
    df = table.shape[1] - 1
    p = float(chdtrc(df, stat))
    notes = ()
    if min(a.size, b.size) < SMALL_SAMPLE_N:
        notes = ("small_sample",)
    return TestResult(stat, p, TestKind.CHI_SQUARE, rejected=p < alpha, notes=notes)


def _merge_rare(pairs, n_a, n_b):
    """Fold categories with expected count < 5 in the smaller group into one
    bucket, rarest first.  Ties break on the count pair itself so the result
    never depends on how categories happen to be labeled."""
    total = float(n_a + n_b)
    floor = min(n_a, n_b)
    regular = list(pairs)
    bucket = None

    def pooled(p):
        return p[0] + p[1]

    while True:
        current = regular + ([bucket] if bucket is not None else [])
        if len(current) <= 1 or not regular:
            break
        if min(floor * pooled(p) / total for p in current) >= 5.0:
            break
        idx = min(
            range(len(regular)),
            key=lambda i: (pooled(regular[i]), regular[i][0], regular[i][1]),
        )
        rare = regular.pop(idx)
        if bucket is None:
            bucket = rare
        else:
            bucket = (bucket[0] + rare[0], bucket[1] + rare[1])
    return regular + ([bucket] if bucket is not None else [])


def distribution_compatible(
    col: Column, observed_cells, imputed_cells, alpha: float = 0.05
) -> TestResult:
    """Run the kind-appropriate test; continuous columns get KS, all other
    kinds the chi-square test.

    A chi-square collapse to a single category means the data cannot express
    a distribution mismatch; that comes back flagged and not rejected rather
    than as an error, since the caller treats it as "no veto".
    """
    if col.kind is None:
        raise InvalidArgument(f"column {col.name!r} has no kind assigned")
    if col.kind is ColumnKind.CONTINUOUS:
        return ks_two_sample(observed_cells, imputed_cells, alpha)
    try:
        return chi2_independence(observed_cells, imputed_cells, alpha)
    except DegenerateInput:
        return TestResult(
            0.0, 1.0, TestKind.CHI_SQUARE, rejected=False,
            notes=("single_category",),
        )
