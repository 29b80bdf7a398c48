import argparse
import json

import numpy as np
import pytest

from imputeq.cli import _graph_spec, _load_table, _with_dependencies
from imputeq.config import apply_overrides, parse_config, parse_config_dict
from imputeq.engine import AssessConfig
from imputeq.errors import DataIoError, InvalidArgument, SchemaError
from imputeq.imputers import ImputerSpec
from imputeq.table import Column, Table


def two_columns():
    values = np.array([1.0, 2.0, 3.0])
    mask = np.zeros(3, dtype=bool)
    return Table((Column("a", values, mask), Column("b", values, mask)), 3)


def minimal_doc(**extra):
    doc = {
        "imputers": [
            {"id": "mean", "family": "simple",
             "params": {"statistic": "mean"}},
        ],
    }
    doc.update(extra)
    return doc


TABLE_ROSTER = [
    {"id": "mean", "family": "simple", "params": {"statistic": "mean"}},
    {"id": "median", "family": "simple", "params": {"statistic": "median"}},
    {"id": "mode", "family": "simple", "params": {"statistic": "mode"}},
    {"id": "random", "family": "apprandom"},
    {"id": "knn3", "family": "knn", "params": {"n_neighbors": 3}},
    {"id": "knn5", "family": "knn", "params": {"n_neighbors": 5}},
    {"id": "knn10", "family": "knn", "params": {"n_neighbors": 10}},
    {"id": "iter_br", "family": "iterative", "params": {"estimator": "ridge"}},
    {"id": "iter_rf", "family": "iterative",
     "params": {"estimator": "forest"}},
    {"id": "iter_xgb", "family": "iterative", "params": {"estimator": "gbt"}},
]


class TestDefaults:
    def test_minimal_config_fills_defaults(self):
        cfg = parse_config_dict(minimal_doc())
        assert cfg.n_folds == 5
        assert cfg.alpha == 0.05
        assert cfg.seed == 0
        assert cfg.threshold is None
        assert cfg.split_seed is None

    def test_fallback_imputer_auto_appended(self):
        cfg = parse_config_dict(minimal_doc())
        assert [s.id for s in cfg.imputers] == ["mean", "apprandom"]

    def test_no_append_when_already_present(self):
        cfg = parse_config_dict({"imputers": TABLE_ROSTER})
        assert len(cfg.imputers) == 10

    def test_full_roster_parses_to_ten_specs(self):
        cfg = parse_config_dict({"imputers": TABLE_ROSTER})
        assert [s.id for s in cfg.imputers] == [
            "mean", "median", "mode", "random", "knn3", "knn5", "knn10",
            "iter_br", "iter_rf", "iter_xgb",
        ]


class TestValidation:
    def err_path(self, doc):
        with pytest.raises(SchemaError) as info:
            parse_config_dict(doc)
        return info.value.path

    def test_unknown_top_level_key(self):
        assert self.err_path(minimal_doc(typo=1)) == "typo"

    def test_unknown_nested_key(self):
        doc = minimal_doc(
            splitter={"type": "kfold", "params": {"folds": 5}}
        )
        assert self.err_path(doc) == "splitter.params.folds"

    def test_threshold_out_of_range(self):
        assert self.err_path(minimal_doc(threshold=1.5)) == "threshold"

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, "small"])
    def test_alpha_out_of_range(self, alpha):
        assert self.err_path(minimal_doc(alpha=alpha)) == "alpha"

    def test_imputers_required(self):
        assert self.err_path({}) == "imputers"

    def test_imputers_must_be_non_empty(self):
        assert self.err_path({"imputers": []}) == "imputers"

    def test_duplicate_imputer_id(self):
        doc = {"imputers": [
            {"id": "m", "family": "simple", "params": {"statistic": "mean"}},
            {"id": "m", "family": "simple", "params": {"statistic": "mode"}},
        ]}
        assert self.err_path(doc) == "imputers[1].id"

    def test_bad_family(self):
        doc = {"imputers": [{"id": "m", "family": "magic"}]}
        assert self.err_path(doc) == "imputers[0].family"

    def test_bad_family_params(self):
        doc = {"imputers": [
            {"id": "m", "family": "simple", "params": {"statistic": "sum"}},
        ]}
        assert self.err_path(doc) == "imputers[0].params"

    def test_splitter_type_restricted(self):
        doc = minimal_doc(splitter={"type": "holdout"})
        assert self.err_path(doc) == "splitter.type"

    def test_splitter_k_too_small(self):
        doc = minimal_doc(splitter={"type": "kfold", "params": {"k": 1}})
        assert self.err_path(doc) == "splitter.params.k"

    def test_encoder_type_restricted(self):
        assert self.err_path(
            minimal_doc(encoder={"type": "onehot"})
        ) == "encoder.type"

    def test_seed_must_be_integer(self):
        assert self.err_path(minimal_doc(seed=1.5)) == "seed"
        assert self.err_path(minimal_doc(seed=True)) == "seed"
        assert self.err_path(minimal_doc(seed=-1)) == "seed"

    @pytest.mark.parametrize("field, value", [
        ("seed", -1), ("seed", 1.5), ("seed", True),
        ("split_seed", -1), ("split_seed", 1.5), ("split_seed", False),
        ("n_folds", 1), ("n_folds", 2.5), ("n_folds", True),
        ("threshold", True), ("threshold", False), ("threshold", "0.5"),
        ("alpha", True), ("alpha", False), ("alpha", "0.05"),
    ])
    def test_engine_config_checks_its_own_fields(self, field, value):
        mean = ImputerSpec("mean", "simple", {"statistic": "mean"})
        with pytest.raises(InvalidArgument):
            AssessConfig(imputers=(mean,), **{field: value})

    @pytest.mark.parametrize("threshold", [True, False])
    def test_threshold_is_not_a_boolean(self, threshold):
        assert self.err_path(minimal_doc(threshold=threshold)) == "threshold"

    @pytest.mark.parametrize("params", [
        {"estimator": "ridge", "max_iter": "x"},
        {"estimator": "ridge", "init_strategy": "median"},
    ])
    def test_bad_iterative_parameter(self, params):
        doc = {"imputers": [
            {"id": "it", "family": "iterative", "params": params},
        ]}
        assert self.err_path(doc) == "imputers[0].params"

    def test_boolean_neighbour_count(self):
        doc = {"imputers": [
            {"id": "k", "family": "knn", "params": {"n_neighbors": True}},
        ]}
        assert self.err_path(doc) == "imputers[0].params"


class TestScorers:
    def test_string_form(self):
        cfg = parse_config_dict(minimal_doc(scorers={"continuous": "nrmse"}))
        assert cfg.scorers == {"continuous": "nrmse"}

    def test_object_form(self):
        cfg = parse_config_dict(
            minimal_doc(scorers={"binary": {"name": "balanced_accuracy"}})
        )
        assert cfg.scorers == {"binary": "balanced_accuracy"}

    def test_unknown_kind_rejected(self):
        with pytest.raises(SchemaError) as info:
            parse_config_dict(minimal_doc(scorers={"ordinal": "nrmse"}))
        assert info.value.path == "scorers.ordinal"

    def test_unknown_scorer_rejected(self):
        with pytest.raises(SchemaError):
            parse_config_dict(minimal_doc(scorers={"continuous": "mape"}))

    def test_scorer_params_rejected(self):
        with pytest.raises(SchemaError) as info:
            parse_config_dict(minimal_doc(
                scorers={"continuous": {"name": "nrmse",
                                        "params": {"power": 2}}}
            ))
        assert info.value.path == "scorers.continuous.params"


def graph_spec(doc):
    """The CLI's reading of the document's dependency_graph."""
    return _graph_spec(doc, parse_config_dict(doc))


class TestDependencyGraph:
    def test_auto_string(self):
        assert graph_spec(minimal_doc(dependency_graph="auto")) == (
            "auto", {"seed": 0})

    def test_auto_with_params(self):
        doc = minimal_doc(seed=3, dependency_graph={
            "type": "auto", "top_n": 3, "min_importance": 0.05})
        assert graph_spec(doc) == (
            "auto", {"seed": 3, "top_n": 3, "min_importance": 0.05})

    def test_top_n_is_not_a_boolean(self):
        with pytest.raises(SchemaError) as info:
            parse_config_dict(minimal_doc(
                dependency_graph={"type": "auto", "top_n": True}))
        assert info.value.path == "dependency_graph.top_n"

    def test_min_importance_is_not_a_boolean(self):
        with pytest.raises(SchemaError) as info:
            parse_config_dict(minimal_doc(
                dependency_graph={"type": "auto", "min_importance": True}))
        assert info.value.path == "dependency_graph.min_importance"

    def test_inline_dictionary(self):
        deps = {"a": ["b"], "b": []}
        assert graph_spec(minimal_doc(dependency_graph=deps)) == (
            deps, {"seed": 0})

    def test_path_string(self):
        assert graph_spec(minimal_doc(dependency_graph="deps.json"))[0] == (
            "deps.json")

    def test_bad_inline_value(self):
        with pytest.raises(SchemaError) as info:
            parse_config_dict(minimal_doc(dependency_graph={"a": "b"}))
        assert info.value.path == "dependency_graph.a"

    def test_inline_dict_becomes_engine_dependencies(self):
        deps = {"a": ["b"], "b": []}
        doc = minimal_doc(dependency_graph=deps)
        cfg = parse_config_dict(doc)
        assert cfg.dependencies is None  # resolved against the data
        assert _with_dependencies(
            doc, cfg, two_columns()).dependencies == deps

    def test_explicit_dependencies_win(self, tmp_path):
        resolved = {"a": [], "b": ["a"]}
        p = tmp_path / "deps.json"
        p.write_text(json.dumps(resolved))
        doc = minimal_doc(dependency_graph=str(p))
        cfg = parse_config_dict(doc)
        assert _with_dependencies(
            doc, cfg, two_columns()).dependencies == resolved


class TestFileHandling:
    def test_parse_from_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(minimal_doc(seed=7)))
        cfg = parse_config(str(p))
        assert cfg.seed == 7

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataIoError):
            parse_config(str(tmp_path / "nope.json"))

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{not json")
        with pytest.raises(SchemaError) as info:
            parse_config(str(p))
        assert info.value.path == "$"


class TestOverrides:
    def test_flags_win(self, tmp_path):
        cfg = parse_config_dict(minimal_doc(seed=1, threshold=0.5))
        out = apply_overrides(cfg, seed=9, threshold=0.8)
        assert out.seed == 9
        assert out.threshold == 0.8
        # the appended fallback keeps the file's seed
        assert out.imputers == cfg.imputers
        # --data replaces the document's data path
        data = tmp_path / "data.csv"
        data.write_text("a\n1\n")
        doc = minimal_doc(data={"path": str(tmp_path / "nope.csv")})
        args = argparse.Namespace(data=str(data))
        assert _load_table(doc, args).column_names == ["a"]

    def test_none_means_keep(self):
        cfg = parse_config_dict(minimal_doc(seed=1, threshold=0.5))
        out = apply_overrides(cfg)
        assert out == cfg

    def test_bad_threshold_override(self):
        cfg = parse_config_dict(minimal_doc())
        with pytest.raises(SchemaError):
            apply_overrides(cfg, threshold=-0.1)

    def test_negative_seed_override(self):
        cfg = parse_config_dict(minimal_doc())
        with pytest.raises(SchemaError) as info:
            apply_overrides(cfg, seed=-1)
        assert info.value.path == "seed"

    def test_splitter_seed_reaches_engine(self):
        cfg = parse_config_dict(minimal_doc(
            splitter={"type": "kfold", "params": {"k": 4, "seed": 99}}
        ))
        assert cfg.n_folds == 4
        assert cfg.split_seed == 99
