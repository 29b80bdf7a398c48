"""End-to-end acceptance suite.

One test per release gate, in a fixed order, each asserting both its
numeric tolerance and a wall-clock budget.  The unit suites cover the same
ground in finer grain; this file is the go/no-go checklist.
"""

from __future__ import annotations

import time
import xml.dom.minidom
from dataclasses import replace

import numpy as np

from imputeq import (
    AssessConfig,
    Column,
    ColumnKind,
    DependencyGraph,
    ImputerEvaluation,
    ImputerSpec,
    QualityRecord,
    Table,
    apply_pipeline,
    assess,
    audit_all,
    auroc,
    chi2_independence,
    deserialize_pipeline,
    dumps_canonical,
    efficiency,
    emit_quality_svg,
    fit_pipeline,
    inject_mcar,
    ks_two_sample,
    load_csv,
    pipeline_strategy,
    quality_score,
    recommend_imputations,
    records_to_jsonable,
    serialize_pipeline,
    single_imputer_strategy,
    transitive_dependencies,
)
from imputeq import stattests
from imputeq.imputers import adaptive_round_binary, fit, transform
from imputeq.stattests import distribution_compatible


def test_quality_score_identities_and_monotonicity():
    started = time.perf_counter()

    assert quality_score(1.0, 0.0) == 1.0
    assert quality_score(1.0, 0.3) == 1.0
    assert quality_score(1.0, 1.0) == 1.0
    assert quality_score(0.0, 1.0) == 1.0

    grid = np.linspace(0.0, 1.0, 101)
    omega = np.array([[quality_score(mu, d) for d in grid] for mu in grid])
    assert omega.min() >= 0.0 and omega.max() <= 1.0
    assert np.diff(omega, axis=0).min() >= 0.0
    assert np.diff(omega, axis=1).min() >= 0.0

    assert time.perf_counter() - started < 1.0


def test_efficiency_worked_values():
    started = time.perf_counter()

    assert abs(efficiency(0.5, 10) - 0.9524) < 1e-4
    assert abs(efficiency(0.5, 20) - 0.9756) < 1e-4
    assert recommend_imputations(0.5, 0.95) == 10

    assert time.perf_counter() - started < 1.0


EXPECTED_MISSING_PCT = {
    "age": 0.0,
    "sex": 0.0,
    "cp": 0.0,
    "trestbps": 6.4,
    "chol": 3.3,
    "fbs": 9.8,
    "restecg": 0.2,
    "thalch": 6.0,
    "exang": 6.0,
    "oldpeak": 6.7,
    "slope": 33.6,
    "ca": 66.4,
    "thal": 52.8,
}


def test_benchmark_ingestion_missingness(heart_csv):
    started = time.perf_counter()

    t = load_csv(heart_csv)
    assert t.column_names == list(EXPECTED_MISSING_PCT)
    for name, expected in EXPECTED_MISSING_PCT.items():
        col = t.column(name)
        pct = 100.0 * col.n_missing() / col.n_rows
        assert abs(pct - expected) <= 0.1, f"{name}: {pct:.2f}% vs {expected}%"
    overall = 100.0 * t.missing_cell_fraction()
    assert 14.0 <= overall <= 16.0

    assert time.perf_counter() - started < 5.0


def test_rank_and_distribution_statistic_oracles():
    started = time.perf_counter()

    rng = np.random.default_rng(4)
    checked = 0
    while checked < 200:
        n = int(rng.integers(4, 51))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            continue
        if checked % 2 == 0:
            scores = rng.integers(0, 6, size=n).astype(float)
        else:
            scores = rng.normal(size=n)
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        wins = 0.0
        for p in pos:
            for q in neg:
                if p > q:
                    wins += 1.0
                elif p == q:
                    wins += 0.5
        expected = wins / (pos.size * neg.size)
        assert auroc(labels, scores) == expected
        checked += 1

    for trial in range(50):
        r2 = np.random.default_rng((44, trial))
        a = r2.normal(size=int(r2.integers(5, 80)))
        b = r2.normal(size=int(r2.integers(5, 80)))
        pool = np.sort(np.concatenate([a, b]))
        ecdf_a = np.searchsorted(np.sort(a), pool, side="right") / a.size
        ecdf_b = np.searchsorted(np.sort(b), pool, side="right") / b.size
        brute = float(np.max(np.abs(ecdf_a - ecdf_b)))
        assert abs(ks_two_sample(a, b).statistic - brute) <= 1e-12

    assert chi2_independence(np.zeros(10), np.ones(10)).statistic == 20.0

    assert time.perf_counter() - started < 10.0


def _calibration_column(rng, kind, rows, rate):
    if kind is ColumnKind.CONTINUOUS:
        data = rng.normal(size=rows)
        labels = None
    else:
        data = rng.integers(0, 4, size=rows).astype(float)
        labels = {0: "a", 1: "b", 2: "c", 3: "d"}
    mask = rng.random(rows) < rate if rate else np.zeros(rows, dtype=bool)
    return Column(
        "v", np.where(mask, np.nan, data), mask, kind=kind, labels=labels
    )


def test_distribution_veto_null_calibration():
    started = time.perf_counter()

    n_train, n, rate, trials = 4000, 200, 0.3, 1000
    for kind in (ColumnKind.CONTINUOUS, ColumnKind.CATEGORICAL):
        rejected = 0
        for trial in range(trials):
            rng = np.random.default_rng((911, trial))
            train = Table(
                (_calibration_column(rng, kind, n_train, rate=0.0),)
            )
            target = _calibration_column(rng, kind, n, rate)
            spec = ImputerSpec("apprandom", "apprandom", {}, seed=trial)
            fitted = fit(spec, train, "v", ())
            filled = transform(fitted, Table((target,))).column("v")
            imputed = filled.values[target.mask]
            verdict = distribution_compatible(
                target, target.observed_values(), imputed
            )
            rejected += bool(verdict.rejected)
        rejection_rate = rejected / trials
        assert 0.02 <= rejection_rate <= 0.09, f"{kind}: {rejection_rate}"

    assert time.perf_counter() - started < 120.0


def test_audit_detectability_trend():
    started = time.perf_counter()

    rng = np.random.default_rng(60)
    n = 400
    z = rng.normal(size=n)
    cols = [
        Column(
            f"lin{j}",
            (0.8 + 0.1 * j) * z + rng.normal(scale=0.35, size=n),
            np.zeros(n, dtype=bool),
            kind=ColumnKind.CONTINUOUS,
        )
        for j in range(5)
    ]
    cols += [
        Column(
            f"noise{j}",
            rng.normal(size=n),
            np.zeros(n, dtype=bool),
            kind=ColumnKind.CONTINUOUS,
        )
        for j in range(3)
    ]
    t = inject_mcar(Table(tuple(cols)), 0.5, seed=61)

    acfg = AssessConfig(
        imputers=(
            ImputerSpec("mean", "simple", {"statistic": "mean"}),
            ImputerSpec("iter_ridge", "iterative", {"estimator": "ridge"}),
            ImputerSpec("apprandom", "apprandom", {}),
        ),
        n_folds=5,
        seed=0,
    )
    strategies = {
        "mean": single_imputer_strategy("simple", {"statistic": "mean"}),
        "apprandom": single_imputer_strategy("apprandom", {}),
        "iqa": pipeline_strategy(acfg),
        "iterative": single_imputer_strategy(
            "iterative", {"estimator": "ridge"}
        ),
    }
    reports = {
        r.strategy: r for r in audit_all(t, strategies, [0.0], seed=5)
    }

    assert reports["mean"].strategy_average > 0.9
    assert reports["apprandom"].strategy_average < 0.7
    assert (
        reports["iqa"].strategy_average
        <= reports["iterative"].strategy_average
    )

    assert time.perf_counter() - started < 300.0


def test_imputer_superiority_on_recoverable_signal():
    started = time.perf_counter()

    rng = np.random.default_rng(7)
    n = 400
    x = rng.normal(size=n)
    y = 2.0 * x + rng.normal(scale=0.05 * x.std(), size=n)
    t = Table(
        (
            Column("x", x, np.zeros(n, dtype=bool), kind=ColumnKind.CONTINUOUS),
            Column("y", y, np.zeros(n, dtype=bool), kind=ColumnKind.CONTINUOUS),
        )
    )
    t = t.with_column(inject_mcar(t.select_columns(["y"]), 0.3, seed=1)
                      .column("y"))

    cfg = AssessConfig(
        imputers=(
            ImputerSpec("iter_ridge", "iterative", {"estimator": "ridge"}),
            ImputerSpec("apprandom", "apprandom", {}),
        ),
        n_folds=5,
        seed=3,
    )
    (record,) = [r for r in assess(t, cfg) if r.feature == "y"]
    by_id = {e.imputer_id: e for e in record.evaluations}

    assert by_id["iter_ridge"].delta_mean - by_id["apprandom"].delta_mean >= 0.2
    assert not by_id["iter_ridge"].bias.rejected

    assert time.perf_counter() - started < 60.0


def test_dependency_dictionary_fidelity():
    started = time.perf_counter()

    g = DependencyGraph(
        nodes=("A", "B", "C", "D"),
        edges=(
            ("B", "A", 0.9),
            ("A", "B", 0.8),
            ("D", "B", 0.6),
            ("B", "C", 0.7),
            ("A", "C", 0.5),
        ),
        top_n=3,
        min_importance=0.0,
    )
    deps = transitive_dependencies(g)
    assert deps == {
        "A": ["B", "D"],
        "B": ["A", "D"],
        "C": ["B", "A", "D"],
        "D": [],
    }

    assert time.perf_counter() - started < 1.0


def test_rounding_invariants_and_binary_cutoff():
    started = time.perf_counter()

    roster = (
        ImputerSpec("mode", "simple", {"statistic": "mode"}),
        ImputerSpec("apprandom", "apprandom", {}),
        ImputerSpec("knn5", "knn", {"n_neighbors": 5}),
        ImputerSpec("iter_ridge", "iterative", {"estimator": "ridge"}),
    )
    for dataset in range(100):
        rng = np.random.default_rng((99, dataset))
        n = 80
        base = rng.normal(size=n)
        cols = (
            Column(
                "c",
                base + rng.normal(scale=0.5, size=n),
                np.zeros(n, dtype=bool),
                kind=ColumnKind.CONTINUOUS,
            ),
            Column(
                "b",
                (base > 0).astype(float),
                np.zeros(n, dtype=bool),
                kind=ColumnKind.BINARY,
            ),
            Column(
                "d",
                np.round(rng.normal(size=n) * 2.0),
                np.zeros(n, dtype=bool),
                kind=ColumnKind.DISCRETE,
            ),
            Column(
                "g",
                rng.integers(0, 4, size=n).astype(float),
                np.zeros(n, dtype=bool),
                kind=ColumnKind.CATEGORICAL,
                labels={0: "r", 1: "g", 2: "b", 3: "k"},
            ),
        )
        t = inject_mcar(Table(cols), 0.25, seed=dataset)
        for target in ("b", "d", "g"):
            observed = set(t.column(target).observed_values().tolist())
            for spec in roster:
                spec = replace(spec, seed=dataset)
                predictors = ()
                if spec.is_multivariate:
                    predictors = tuple(
                        name for name in t.column_names if name != target
                    )
                filled = transform(
                    fit(spec, t, target, predictors), t
                ).column(target)
                assert not filled.mask.any()
                values = set(filled.values.tolist())
                if target == "b":
                    assert values <= {0.0, 1.0}
                else:
                    assert values <= observed

    assert adaptive_round_binary(np.array([0.5]), 0.5)[0] == 1.0
    at_half_minus_ulp = np.array([np.nextafter(0.5, 0.0)])
    assert adaptive_round_binary(at_half_minus_ulp, 0.5)[0] == 0.0

    assert time.perf_counter() - started < 60.0


def _pipeline_fixture_table():
    rng = np.random.default_rng(10)
    n = 200
    base = rng.normal(size=n)
    cols = (
        Column(
            "a",
            base + rng.normal(scale=0.4, size=n),
            np.zeros(n, dtype=bool),
            kind=ColumnKind.CONTINUOUS,
        ),
        Column(
            "b",
            2.0 * base + rng.normal(scale=0.4, size=n),
            np.zeros(n, dtype=bool),
            kind=ColumnKind.CONTINUOUS,
        ),
        Column(
            "flag",
            (base > 0).astype(float),
            np.zeros(n, dtype=bool),
            kind=ColumnKind.BINARY,
        ),
    )
    return inject_mcar(Table(cols), 0.3, seed=11)


def test_pipeline_round_trip_and_deterministic_reports():
    started = time.perf_counter()

    t = _pipeline_fixture_table()
    train = t.select_rows(np.arange(150))
    held = t.select_rows(np.arange(150, 200))
    cfg = AssessConfig(
        imputers=(
            ImputerSpec("mean", "simple", {"statistic": "mean"}),
            ImputerSpec("iter_ridge", "iterative", {"estimator": "ridge"}),
            ImputerSpec("apprandom", "apprandom", {}),
        ),
        n_folds=5,
        seed=2,
        threshold=0.5,
    )
    records = assess(train, cfg)
    plan = fit_pipeline(train, records, cfg)
    direct = apply_pipeline(plan, held)
    restored = deserialize_pipeline(serialize_pipeline(plan))
    round_tripped = apply_pipeline(restored, held)

    assert direct.column_names == round_tripped.column_names
    for name in direct.column_names:
        lhs, rhs = direct.column(name), round_tripped.column(name)
        assert not lhs.mask.any() and not rhs.mask.any()
        assert np.array_equal(lhs.values, rhs.values)

    first = dumps_canonical(records_to_jsonable(assess(t, cfg)))
    second = dumps_canonical(records_to_jsonable(assess(t, cfg)))
    assert first == second

    assert time.perf_counter() - started < 60.0


def _svg_record(feature, mu, delta, fallback=False):
    bias = stattests.TestResult(0.0, 1.0, stattests.TestKind.KS,
                                rejected=False)
    scored = ImputerEvaluation("mean", delta, 0.05, 0, bias, False)
    return QualityRecord(feature, mu, (scored,), "mean", delta,
                         quality_score(mu, delta), True, fallback)


def test_svg_report_contract():
    started = time.perf_counter()

    axis_len = 480.0
    records = [
        _svg_record("alpha", 0.6, 0.5),
        _svg_record("beta", 1.0, 0.0),
        _svg_record("gamma", 0.3, 0.2, fallback=True),
    ]
    svg = emit_quality_svg(records, threshold=0.5)
    dom = xml.dom.minidom.parseString(svg)

    names = [
        node.firstChild.nodeValue
        for node in dom.getElementsByTagName("text")
        if node.getAttribute("class") == "feature-name"
    ]
    by_omega = sorted(records, key=lambda r: (-r.omega, r.feature))
    assert names == [r.feature for r in by_omega]

    mu_widths = {}
    delta_widths = {}
    rows = [
        g
        for g in dom.getElementsByTagName("g")
        if g.getAttribute("class") == "feature-row"
    ]
    for row, rec in zip(rows, by_omega):
        for rect in row.getElementsByTagName("rect"):
            width = float(rect.getAttribute("width"))
            if rect.getAttribute("class") == "mu-bar":
                mu_widths[rec.feature] = width
            elif rect.getAttribute("class") == "delta-bar":
                delta_widths[rec.feature] = width
    for rec in records:
        expected_mu = rec.completeness * axis_len
        expected_delta = (1.0 - rec.completeness) * rec.delta * axis_len
        if expected_mu > 0:
            assert abs(mu_widths[rec.feature] - expected_mu) <= 0.5
        if expected_delta > 0:
            assert abs(delta_widths[rec.feature] - expected_delta) <= 0.5

    fills = {
        node.firstChild.nodeValue: node.getAttribute("fill")
        for node in dom.getElementsByTagName("text")
        if node.getAttribute("class") == "feature-name"
    }
    assert fills["gamma"] == "#d62728"
    assert fills["alpha"] != "#d62728"

    assert time.perf_counter() - started < 1.0
