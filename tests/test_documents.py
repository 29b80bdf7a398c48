"""Every plan, record and audit document is its dataclass's fields: the
`to_jsonable` of a hand-built instance of each class, pinned against a
literal document, byte for byte as `json.dumps` writes it."""

import json

import numpy as np
import pytest

from imputeq import stattests
from imputeq.audit import AuditReport, FeatureAudit
from imputeq.depgraph import DependencyGraph
from imputeq.engine import (
    AssessConfig,
    ColumnSchema,
    ImputerEvaluation,
    QualityRecord,
    records_to_jsonable,
)
from imputeq.estimators import ForestModel, GbtModel, RidgeModel, TreeModel
from imputeq.imputers import ImputerSpec, default_imputer_roster
from imputeq.report import from_jsonable, to_jsonable
from imputeq.table import ColumnKind

TREE = TreeModel(np.array([0, -1, -1]), np.array([0.5, 0.0, 0.0]),
                 np.array([1, -1, -1]), np.array([2, -1, -1]),
                 np.array([0.0, -1.5, 2.25]))
TREE_DOC = {"type": "tree", "feature": [0, -1, -1],
            "threshold": [0.5, 0.0, 0.0], "left": [1, -1, -1],
            "right": [2, -1, -1], "value": [0.0, -1.5, 2.25]}
KNN = ImputerSpec("knn5", "knn", {"n_neighbors": 5}, 3)
KNN_DOC = {"id": "knn5", "family": "knn", "params": {"n_neighbors": 5},
           "seed": 3}

# imported through the module: pytest would collect a Test* name
BIAS = stattests.TestResult(0.3, 0.04, stattests.TestKind.KS, True,
                            ("small_sample",))
# a record writes its evaluations under "imputers", each one's imputer_id
# under "id"
RECORD = QualityRecord(
    "a", 0.8, (
        ImputerEvaluation("mean", 0.5, 0.125, 2, BIAS, False, ("n",)),
        ImputerEvaluation("apprandom", 0.25, 0.0, 0, None, True),
    ), "apprandom", 0.25, 0.85, True, True, ("fallback",))
RECORD_DOC = {
    "feature": "a", "completeness": 0.8, "delta": 0.25, "omega": 0.85,
    "chosen_imputer": "apprandom", "kept": True, "fallback_used": True,
    "notes": ["fallback"],
    "imputers": [
        {"id": "mean", "delta_mean": 0.5, "delta_std": 0.125,
         "n_predictors": 2, "skipped": False, "notes": ["n"],
         "bias": {"statistic": 0.3, "p_value": 0.04, "test": "ks",
                  "rejected": True, "notes": ["small_sample"]}},
        {"id": "apprandom", "delta_mean": 0.25, "delta_std": 0.0,
         "n_predictors": 0, "skipped": True, "notes": [], "bias": None},
    ],
}

CASES = {
    "ridge": (
        RidgeModel(np.array([0.25, -1.0]), 3.5, 1.0),
        {"type": "ridge", "weights": [0.25, -1.0], "intercept": 3.5,
         "reg_strength": 1.0},
    ),
    "tree": (TREE, TREE_DOC),
    "forest": (
        ForestModel((TREE, TREE), None, 7),
        {"type": "forest", "trees": [TREE_DOC, TREE_DOC], "max_depth": None,
         "seed": 7},
    ),
    "gbt": (
        GbtModel((TREE,), -0.5, 0.1, "logistic", 6, 0),
        {"type": "gbt", "trees": [TREE_DOC], "base_score": -0.5,
         "learning_rate": 0.1, "loss": "logistic", "max_depth": 6,
         "seed": 0},
    ),
    "spec": (KNN, KNN_DOC),
    "schema": (
        ColumnSchema("sex", ColumnKind.BINARY, {0: "f", 1: "m"}),
        {"name": "sex", "kind": "binary", "labels": {"0": "f", "1": "m"}},
    ),
    "schema-unlabelled": (
        ColumnSchema("age", ColumnKind.CONTINUOUS),
        {"name": "age", "kind": "continuous", "labels": None},
    ),
    "config": (
        AssessConfig((KNN,), n_folds=3, seed=2, alpha=0.1, threshold=1,
                     dependencies={"a": ["b", "c"], "b": []},
                     scorers={"binary": "balanced_accuracy"}, split_seed=4),
        {"imputers": [KNN_DOC, {"id": "apprandom", "family": "apprandom",
                                "params": {}, "seed": 2}],
         "n_folds": 3, "seed": 2, "alpha": 0.1, "threshold": 1.0,
         "dependencies": {"a": ["b", "c"], "b": []},
         "scorers": {"binary": "balanced_accuracy"}, "split_seed": 4},
    ),
    "graph": (
        DependencyGraph(("a", "b", "c"), (("a", "b", 0.25), ("c", "b", 0.5)),
                        2, 0.01),
        {"nodes": ["a", "b", "c"], "edges": [["a", "b", 0.25],
                                             ["c", "b", 0.5]],
         "top_n": 2, "min_importance": 0.01},
    ),
    "record": (RECORD, RECORD_DOC),
    "audit": (
        AuditReport("mean", 0.2, (
            FeatureAudit("a", False, 0.75, 0.05),
            FeatureAudit("b", True, reason="no missing cells"),
        ), 0.75, ("level_note",)),
        {"strategy": "mean", "missingness_level": 0.2,
         "lower_is_better": True,
         "per_feature": [
             {"feature": "a", "skipped": False, "mean_auroc": 0.75,
              "ci_half_width": 0.05, "reason": ""},
             {"feature": "b", "skipped": True, "mean_auroc": None,
              "ci_half_width": None, "reason": "no missing cells"},
         ],
         "strategy_average": 0.75, "notes": ["level_note"]},
    ),
}


def dumped(doc) -> str:
    return json.dumps(doc, sort_keys=True, allow_nan=False)


@pytest.mark.parametrize("name", sorted(CASES))
def test_each_document_is_its_fields(name):
    obj, doc = CASES[name]
    # equal as objects (a key 0 is not "0") and as text (a 1 is not 1.0)
    assert to_jsonable(obj) == doc
    assert dumped(to_jsonable(obj)) == dumped(doc)


# the classes that a plan, graph or records document is read back into
READ = ["ridge", "tree", "forest", "gbt", "spec", "schema",
        "schema-unlabelled", "graph", "record"]


@pytest.mark.parametrize("name", READ)
def test_each_read_document_decodes_to_its_own_document(name):
    obj, doc = CASES[name]
    back = from_jsonable(type(obj), json.loads(dumped(doc)), name)
    assert dumped(to_jsonable(back)) == dumped(doc)


def test_a_record_document_renames_evaluations_and_their_ids():
    assert dumped(records_to_jsonable([RECORD])) == dumped([RECORD_DOC])


def test_the_default_roster_config_hash_is_pinned():
    config = AssessConfig(tuple(default_imputer_roster()))
    assert config.config_hash == (
        "8a0e8b912a3c2e8380e9f1854cfe106723b7385716546101ae7ba121601e81d7")
