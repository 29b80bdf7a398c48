"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests

The smoke runs start real sessions and take a few minutes in all.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, SpanRecorder, self_times  # noqa: E402


def _conftest():
    spec = importlib.util.spec_from_file_location(
        "heart_conftest", ROOT / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_heart_generator_reproduces_the_fixture():
    fixture = _conftest()
    assert workloads.HEART_MISSING_COUNTS == fixture.HEART_MISSING_COUNTS
    # the fixture's own recipe, seed and hole draws
    rng = np.random.default_rng(workloads.HEART_CONFTEST_SEED)
    want = fixture._heart_rows(rng)
    for name, count in fixture.HEART_MISSING_COUNTS.items():
        if count:
            for i in rng.choice(fixture.N_ROWS, size=count, replace=False):
                want[name][i] = ""
    assert workloads.heart_columns(workloads.HEART_CONFTEST_SEED) == want


@pytest.mark.parametrize("seed", [0, 7, 12345])
def test_generators_keep_their_missing_counts(seed):
    heart = workloads.heart_columns(seed)
    assert workloads.missing_counts(heart) == workloads.HEART_MISSING_COUNTS
    latent = workloads.latent_columns(seed, 300)
    assert workloads.missing_counts(latent) == workloads._latent_missing(300)
    assert workloads.latent_columns(seed, 300) == latent


def test_self_time_on_a_span_nest():
    spans = [
        Span("engine.a", 0.0, 10.0),
        Span("imputers.b", 1.0, 4.0, parent=0),
        Span("estimators.d", 2.0, 3.0, parent=1),
        Span("imputers.c", 5.0, 7.0, parent=0),
        Span("table.e", 11.0, 12.0),
        Span("harness.check", 12.0, 14.0),
        Span("table.f", 14.0, 15.0),
    ]
    assert self_times(spans) == [5.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0]
    m = layers.layer_metrics(spans)
    assert m["engine.self_s"] == 5.0
    assert m["imputers.self_s"] == 4.0
    assert m["estimators.self_s"] == 1.0
    assert m["table.self_s"] == 2.0
    # the harness span is neither covered time nor part of the window
    assert layers.coverage(spans) == 12.0 / 13.0


def test_speed_factor_uses_the_probes_around_a_call():
    from session import PROBE_REF_MS, Client, Speed

    speed = Speed(Client(None))
    speed.marks = [(0.0, 2 * PROBE_REF_MS), (10.0, 4 * PROBE_REF_MS)]
    assert speed.factor(1.0, 2.0) == pytest.approx(1 / 3)
    assert speed.factor(11.0, 12.0) == pytest.approx(1 / 4)
    assert speed.factor(-2.0, -1.0) == pytest.approx(1 / 2)


def _get(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def test_recorder_nests_and_restores():
    import imputeq as iq
    from imputeq import audit, engine, imputers
    from imputeq.table import Table

    rec = SpanRecorder()
    layers.install(rec)
    try:
        originals = []
        for owner, attr in rec.patched:
            current = _get(owner, attr)
            assert current.__wrapped_by_spans__
            originals.append((owner, attr, current.__wrapped__))
        cols = workloads.latent_columns(3, 40)
        t = iq.Table(tuple(
            iq.Column(n, np.array([np.nan if v == "" else float(len(v))
                                   for v in cells]),
                      np.array([v == "" for v in cells]))
            for n, cells in cols.items()))
        t = iq.infer_column_kinds(t)
        roster = (iq.ImputerSpec("mean", "simple", {"statistic": "mean"}),)
        iq.assess(t, iq.AssessConfig(roster, n_folds=2))
    finally:
        rec.restore()
    names = {s.name for s in rec.spans}
    assert {"engine.imputation_score", "imputers.fit", "imputers.transform",
            "table.select_rows", "metrics.scorer"} <= names
    fit = next(s for s in rec.spans if s.name == "imputers.fit")
    assert rec.spans[fit.parent].name == "engine.imputation_score"
    assert rec.patched == []
    for owner, attr, original in originals:
        assert _get(owner, attr) is original
    assert engine.fit_imputer is imputers.fit
    assert audit.assess is engine.assess
    assert not hasattr(Table.select_rows, "__wrapped_by_spans__")


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == (
        layers.PER_LAYER_UNITS)


def test_digests_must_agree_with_earlier_runs(tmp_path):
    store = tmp_path / "digests.json"
    first = {"records": "r", "pipeline": "p", "rows": "a"}
    assert run.agrees_with_earlier_runs(store, "w", 1, first)
    assert run.agrees_with_earlier_runs(store, "w", 1, dict(first))
    # another seed serves rows in another order; the rest is the same
    assert run.agrees_with_earlier_runs(store, "w", 2, dict(first, rows="b"))
    assert not run.agrees_with_earlier_runs(store, "w", 2,
                                            dict(first, rows="c"))
    assert not run.agrees_with_earlier_runs(store, "w", 3,
                                            dict(first, records="x"))
    # other code is compared only with itself
    assert run.agrees_with_earlier_runs(store, "v", 1,
                                        dict(first, records="x"))


def test_refuses_to_run_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "audit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["details"], json.loads(lines[-1])


# every layer a workload should exercise, read off its traced run
EXERCISED = {
    "heart-knn": ["imputers.transform.knn.calls", "estimators.ridge_fit.calls",
                  "engine.imputation_score.calls", "cli.apply.s"],
    "signal-trees": ["estimators.forest_fit.calls", "estimators.gbt_fit.calls",
                     "estimators.tree_nodes", "depgraph.edges"],
    "audit": ["audit.audit_all.s", "audit.build_completed_dataset.s",
              "audit.strategy_fit.s", "audit.audit_feature.calls",
              "estimators.gbt_fit.calls", "estimators.gbt_fit.s",
              "estimators.tree_nodes", "metrics.auroc.calls"],
}


@pytest.mark.parametrize("workload,trace", [
    ("heart-knn", 1), ("signal-trees", 1), ("audit", 1), ("audit", 0)])
def test_smoke_run(workload, trace):
    """Every workload traced, and one untraced; a traced run also compares
    the digests of its untraced and traced sessions, so the trace never
    changes outputs."""
    details, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], details["problems"]
    assert details["same_outputs"] and details["earlier_runs_agree"]
    units = layers.PER_LAYER_UNITS if trace else run.E2E_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    if trace:
        metrics = result["metrics"]
        assert metrics["trace.coverage"]["value"] >= 0.95
        for name in EXERCISED[workload]:
            assert metrics[name]["value"] > 0, name
    # only the one-row rounding defect may fail calls
    for key in details["errors"]:
        assert "marginal must be in [0, 1]" in key
