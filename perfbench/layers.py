"""Which imputeq functions the traced run wraps, and the per-layer metrics.

Layers are named after the imputeq modules.  A span's name is
`<layer>.<function>`, the layer being the module that defines the function,
whichever module calls it.
"""

from __future__ import annotations

from collections import defaultdict

from spans import SpanRecorder, self_times

LAYERS = ("estimators", "imputers", "engine", "table", "stattests",
          "metrics", "depgraph", "audit", "cli")
FAMILIES = ("simple", "apprandom", "knn", "iterative")
DEFAULT_MAX_ITER = 20  # imputers' default for the iterative family


def _per_layer_units() -> dict[str, str]:
    m = {}
    for est in ("ridge_fit", "forest_fit", "gbt_fit", "predict"):
        m[f"estimators.{est}.calls"] = "count"
        m[f"estimators.{est}.s"] = "s"
    m["estimators.permutation_importance.s"] = "s"
    m["estimators.trees"] = "count"
    m["estimators.tree_nodes"] = "count"
    for fam in FAMILIES:
        m[f"imputers.fit.{fam}.calls"] = "count"
        m[f"imputers.fit.{fam}.s"] = "s"
    for fam in FAMILIES:
        m[f"imputers.transform.{fam}.calls"] = "count"
        m[f"imputers.transform.{fam}.s"] = "s"
        m[f"imputers.transform.{fam}.cells"] = "count"
    m["imputers.iterative.rounds"] = "count"
    m["imputers.iterative.converged_ratio"] = "ratio"
    m.update({
        "engine.assess.s": "s",
        "engine.imputation_score.calls": "count",
        "engine.imputation_score.self_s": "s",
        "engine.select_imputer.s": "s",
        "engine.apply_pipeline.s": "s",
        "engine.serialize_pipeline.s": "s",
        "engine.deserialize_pipeline.s": "s",
        "engine.pipeline_bytes": "bytes",
        "engine.candidates_skipped": "count",
        "engine.fallback_features": "count",
        "table.load_csv.s": "s",
        "table.select_rows.calls": "count",
        "table.select_rows.s": "s",
        "table.select_columns.calls": "count",
        "table.with_column.calls": "count",
        "stattests.distribution_compatible.calls": "count",
        "stattests.distribution_compatible.s": "s",
        "stattests.rejected": "count",
        "stattests.reject_ratio": "ratio",
        "metrics.scorer.calls": "count",
        "metrics.scorer.s": "s",
        "metrics.auroc.calls": "count",
        "metrics.auroc.s": "s",
        "depgraph.build_dependency_graph.s": "s",
        "depgraph.edges": "count",
        "audit.audit_all.s": "s",
        "audit.build_completed_dataset.s": "s",
        "audit.strategy_fit.s": "s",
        "audit.audit_feature.calls": "count",
        "audit.audit_feature.s": "s",
        "audit.audit_feature.skipped": "count",
        "cli.apply.s": "s",
    })
    for layer in LAYERS:
        m[f"{layer}.self_s"] = "s"
    m.update({
        "trace.spans": "count",
        "trace.coverage": "ratio",
        "trace.overhead_s": "s",
        "trace.overhead_frac": "ratio",
        "session.fail_frac": "ratio",
    })
    return m


PER_LAYER_UNITS = _per_layer_units()


# ---------------------------------------------------------------------------
# attribute extractors: run inside the wrapped call's span


def _fit_attrs(args, kwargs, fitted):
    spec = fitted.spec
    attrs = {"family": spec.family}
    if spec.family == "iterative":
        rounds = len(fitted.state["deltas"])
        max_iter = int(spec.params.get("max_iter", DEFAULT_MAX_ITER))
        attrs["rounds"] = rounds
        attrs["converged"] = rounds < max_iter
    return attrs


def _transform_attrs(args, kwargs, out):
    fitted, table = args[0], args[1]
    cells = int(table.column(fitted.target_column).mask.sum())
    return {"family": fitted.spec.family, "cells": cells}


def _model_attrs(args, kwargs, model):
    return {"trees": len(model.trees),
            "nodes": sum(int(t.feature.size) for t in model.trees)}


def assess_attrs(args, kwargs, records):
    return {
        "skipped": sum(e.skipped for r in records for e in r.evaluations),
        "fallback": sum(bool(r.fallback_used) for r in records),
    }


def _verdict_attrs(args, kwargs, result):
    return {"rejected": bool(result.rejected)}


def _audit_feature_attrs(args, kwargs, result):
    return {"skipped": bool(result.skipped)}


def graph_attrs(args, kwargs, graph):
    return {"edges": len(graph.edges)}


def install(rec: SpanRecorder) -> None:
    """Wrap every call site the per-layer metrics read."""
    from imputeq import audit, cli, depgraph, engine, imputers
    from imputeq.table import Table

    fit, transform = "imputers.fit", "imputers.transform"
    predict = "estimators.predict"
    for mod in (engine, audit):
        rec.patch(mod, "fit_imputer", fit, _fit_attrs)
        rec.patch(mod, "transform", transform, _transform_attrs)
    rec.patch(engine, "distribution_compatible",
              "stattests.distribution_compatible", _verdict_attrs)
    rec.patch(engine, "imputation_score", "engine.imputation_score")
    rec.patch(engine, "select_imputer", "engine.select_imputer")
    for name in ("nrmse_score", "balanced_accuracy",
                 "macro_balanced_accuracy"):
        rec.patch(engine, name, "metrics.scorer")
    for key in list(engine.SCORER_REGISTRY):
        rec.patch(engine.SCORER_REGISTRY, key, "metrics.scorer")

    for mod in (imputers, depgraph):
        rec.patch(mod, "ridge_fit", "estimators.ridge_fit")
        rec.patch(mod, "forest_fit", "estimators.forest_fit", _model_attrs)
        rec.patch(mod, "gbt_fit", "estimators.gbt_fit", _model_attrs)
    rec.patch(imputers, "model_predict", predict)
    for name in ("forest_predict", "ridge_predict", "gbt_predict"):
        rec.patch(depgraph, name, predict)
    rec.patch(depgraph, "permutation_importance",
              "estimators.permutation_importance")
    rec.patch(depgraph, "r2", "metrics.r2")

    rec.patch(audit, "assess", "engine.assess", assess_attrs)
    rec.patch(audit, "fit_pipeline", "engine.fit_pipeline")
    rec.patch(audit, "apply_pipeline", "engine.apply_pipeline")
    rec.patch(audit, "gbt_fit", "estimators.gbt_fit", _model_attrs)
    rec.patch(audit, "gbt_predict_proba", predict)
    rec.patch(audit, "auroc", "metrics.auroc")
    rec.patch(audit, "audit_feature", "audit.audit_feature",
              _audit_feature_attrs)
    rec.patch(audit, "build_completed_dataset",
              "audit.build_completed_dataset")

    rec.patch(cli, "load_csv", "table.load_csv")
    rec.patch(cli, "deserialize_pipeline", "engine.deserialize_pipeline")
    rec.patch(cli, "apply_pipeline", "engine.apply_pipeline")
    rec.patch(cli, "write_csv", "table.write_csv")

    for name in ("select_rows", "select_columns", "with_column"):
        rec.patch(Table, name, f"table.{name}")


def traced_strategy(rec: SpanRecorder, factory):
    """An audit strategy whose factory call and returned transform are
    spans; the factory is where `iqa` runs its nested assess and fit."""
    fit = rec.wrap(factory, "audit.strategy_fit")

    def traced(train, seed):
        return rec.wrap(fit(train, seed), "audit.strategy_apply")

    return traced


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(spans) -> dict[str, float]:
    """Every per-layer metric except the trace.* and session.* ones and
    engine.pipeline_bytes, which the session measures."""
    selfs = self_times(spans)
    calls = defaultdict(int)
    secs = defaultdict(float)
    own = defaultdict(float)
    attr_sum = defaultdict(float)
    for span, self_s in zip(spans, selfs):
        name = span.name
        key = name
        family = span.attrs.get("family")
        if family is not None:
            key = f"{name}.{family}"
        calls[key] += 1
        secs[key] += span.duration
        own[name] += self_s
        own[name.split(".", 1)[0]] += self_s
        for attr, value in span.attrs.items():
            if attr != "family":
                attr_sum[f"{key}:{attr}"] += float(value)
        if name in ("estimators.forest_fit", "estimators.gbt_fit"):
            attr_sum["trees"] += span.attrs.get("trees", 0)
            attr_sum["nodes"] += span.attrs.get("nodes", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for est in ("ridge_fit", "forest_fit", "gbt_fit", "predict"):
        m[f"estimators.{est}.calls"] = calls[f"estimators.{est}"]
        m[f"estimators.{est}.s"] = secs[f"estimators.{est}"]
    m["estimators.permutation_importance.s"] = secs[
        "estimators.permutation_importance"]
    m["estimators.trees"] = int(attr_sum["trees"])
    m["estimators.tree_nodes"] = int(attr_sum["nodes"])
    iter_fits = calls["imputers.fit.iterative"]
    for fam in FAMILIES:
        m[f"imputers.fit.{fam}.calls"] = calls[f"imputers.fit.{fam}"]
        m[f"imputers.fit.{fam}.s"] = secs[f"imputers.fit.{fam}"]
        key = f"imputers.transform.{fam}"
        m[f"{key}.calls"] = calls[key]
        m[f"{key}.s"] = secs[key]
        m[f"{key}.cells"] = int(attr_sum[f"{key}:cells"])
    m["imputers.iterative.rounds"] = int(
        attr_sum["imputers.fit.iterative:rounds"])
    m["imputers.iterative.converged_ratio"] = ratio(
        attr_sum["imputers.fit.iterative:converged"], iter_fits)
    m["engine.assess.s"] = secs["engine.assess"]
    m["engine.imputation_score.calls"] = calls["engine.imputation_score"]
    m["engine.imputation_score.self_s"] = own["engine.imputation_score"]
    for name in ("select_imputer", "apply_pipeline", "serialize_pipeline",
                 "deserialize_pipeline"):
        m[f"engine.{name}.s"] = secs[f"engine.{name}"]
    m["engine.candidates_skipped"] = int(attr_sum["engine.assess:skipped"])
    m["engine.fallback_features"] = int(attr_sum["engine.assess:fallback"])
    m["table.load_csv.s"] = secs["table.load_csv"]
    m["table.select_rows.calls"] = calls["table.select_rows"]
    m["table.select_rows.s"] = secs["table.select_rows"]
    m["table.select_columns.calls"] = calls["table.select_columns"]
    m["table.with_column.calls"] = calls["table.with_column"]
    dc = "stattests.distribution_compatible"
    m[f"{dc}.calls"] = calls[dc]
    m[f"{dc}.s"] = secs[dc]
    m["stattests.rejected"] = int(attr_sum[f"{dc}:rejected"])
    m["stattests.reject_ratio"] = ratio(attr_sum[f"{dc}:rejected"], calls[dc])
    for name in ("scorer", "auroc"):
        m[f"metrics.{name}.calls"] = calls[f"metrics.{name}"]
        m[f"metrics.{name}.s"] = secs[f"metrics.{name}"]
    m["depgraph.build_dependency_graph.s"] = secs[
        "depgraph.build_dependency_graph"]
    m["depgraph.edges"] = int(attr_sum["depgraph.build_dependency_graph:edges"])
    m["audit.audit_all.s"] = secs["audit.audit_all"]
    m["audit.build_completed_dataset.s"] = secs["audit.build_completed_dataset"]
    m["audit.strategy_fit.s"] = secs["audit.strategy_fit"]
    m["audit.audit_feature.calls"] = calls["audit.audit_feature"]
    m["audit.audit_feature.s"] = secs["audit.audit_feature"]
    m["audit.audit_feature.skipped"] = int(
        attr_sum["audit.audit_feature:skipped"])
    m["cli.apply.s"] = secs["cli.apply"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = own[layer]
    return m


def coverage(spans) -> float:
    """Share of the timed window that the top-level imputeq spans cover.

    The window runs from the first top-level span's start to the last one's
    end, less the `harness.*` spans in it: the benchmark's own probes,
    inputs and checks are neither program time nor a gap in the trace.
    """
    top = [s for s in spans if s.parent < 0]
    if not top:
        return 0.0
    window = max(s.end for s in top) - min(s.start for s in top)
    covered = harness = 0.0
    for s in top:
        if s.name.startswith("harness."):
            harness += s.duration
        else:
            covered += s.duration
    window -= harness
    return covered / window if window > 0 else 0.0
