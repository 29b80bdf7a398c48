"""Scoring metrics shared by imputer evaluation and the detectability audit.

Every scorer here returns "higher is better" on a [0, 1]-ish scale so that
different column kinds can be compared with the same machinery.  Continuous
targets use a range-normalized RMSE turned into a similarity; class-valued
targets use balanced accuracy; the audit uses AUROC.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.special import stdtrit

from .errors import ConstantTargetWarning, DegenerateInput, InvalidArgument


def rmse(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    if y_true.shape != y_pred.shape:
        raise InvalidArgument("shape mismatch")
    if y_true.size == 0:
        raise DegenerateInput("empty input")
    return float(np.sqrt(np.mean((y_true - y_pred) ** 2)))


def nrmse_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """1 - RMSE / range(y_true); perfect prediction scores 1.

    The result can go below 0 for predictions worse than the value range;
    callers that need [0, 1] clamp it themselves.  A constant target has no
    range, so the score degenerates to 1 for exact reconstruction and 0
    otherwise, with a warning.
    """
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    err = rmse(y_true, y_pred)
    span = float(y_true.max() - y_true.min())
    if span == 0.0:
        warnings.warn(
            "constant target in nrmse_score; result is degenerate",
            ConstantTargetWarning,
            stacklevel=2,
        )
        return 1.0 if err == 0.0 else 0.0
    return 1.0 - err / span


def r2(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Coefficient of determination, 1 - SS_res / SS_tot."""
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    if y_true.size < 2:
        raise DegenerateInput("r2 needs at least 2 cells")
    ss_tot = float(np.sum((y_true - y_true.mean()) ** 2))
    if ss_tot == 0.0:
        raise DegenerateInput("r2 undefined for a constant target")
    ss_res = float(np.sum((y_true - y_pred) ** 2))
    return 1.0 - ss_res / ss_tot


def balanced_accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Mean per-class recall; for binary labels this is (TPR + TNR) / 2."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise InvalidArgument("shape mismatch")
    classes = np.unique(y_true)
    if len(classes) < 2:
        raise DegenerateInput("balanced accuracy needs >= 2 classes present")
    recalls = []
    for cls in classes:
        sel = y_true == cls
        recalls.append(float(np.mean(y_pred[sel] == cls)))
    return float(np.mean(recalls))


def macro_balanced_accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """One-vs-rest balanced accuracy averaged over the classes in y_true.

    Each class is binarized against the rest and scored as (TPR + TNR) / 2;
    the macro average weights all classes equally regardless of frequency.
    """
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise InvalidArgument("shape mismatch")
    classes = np.unique(y_true)
    if len(classes) < 2:
        raise DegenerateInput("balanced accuracy needs >= 2 classes present")
    scores = []
    for cls in classes:
        pos = y_true == cls
        tpr = float(np.mean(y_pred[pos] == cls))
        tnr = float(np.mean(y_pred[~pos] != cls))
        scores.append(0.5 * (tpr + tnr))
    return float(np.mean(scores))


def auroc(y_true: np.ndarray, scores: np.ndarray) -> float:
    """Area under the ROC curve as the Mann-Whitney U over n_pos * n_neg.

    U counts, over every (positive, negative) pair, 1 when the positive
    scores higher and 1/2 on a tie, so the result is exactly the
    probability that a random positive outranks a random negative with
    ties counted as half.  The negative scores are sorted once; for each
    positive, two binary searches give the negatives below it and those
    tied with it.  U is a sum of integers and halves, so it equals the
    rank-sum value (tied scores given averaged ranks) to the last bit.
    """
    y_true = np.asarray(y_true).astype(bool)
    scores = np.asarray(scores, dtype=float)
    if y_true.shape != scores.shape:
        raise InvalidArgument("shape mismatch")
    n_pos = int(y_true.sum())
    n_neg = int(y_true.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise DegenerateInput("auroc needs both classes")
    if np.isnan(scores).any():
        raise DegenerateInput("auroc scores must not be NaN")
    neg = np.sort(scores[~y_true])
    pos = scores[y_true]
    below = int(np.searchsorted(neg, pos, side="left").sum())
    below_or_tied = int(np.searchsorted(neg, pos, side="right").sum())
    return (below + below_or_tied) / 2.0 / (n_pos * n_neg)


def mean_ci(values: np.ndarray) -> tuple[float, float]:
    """Sample mean and Student-t half-width of the 95% confidence interval.

    The critical value is the t quantile `scipy.special.stdtrit(n - 1,
    0.975)`, the function behind `scipy.stats.t.ppf`.
    """
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        raise DegenerateInput("mean_ci needs at least 2 samples")
    m = float(values.mean())
    sem = float(values.std(ddof=1)) / np.sqrt(values.size)
    tcrit = float(stdtrit(values.size - 1, 0.975))
    return m, tcrit * sem
