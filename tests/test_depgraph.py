import json

import numpy as np
import pytest

from imputeq.depgraph import (
    DependencyGraph,
    build_dependency_graph,
    transitive_dependencies,
    validate_dependency_dict,
)
from imputeq.errors import InvalidArgument, SchemaError, SmallSampleWarning
from imputeq.report import from_jsonable
from imputeq.table import Column, ColumnKind, Table


def col(name, values, kind=ColumnKind.CONTINUOUS):
    values = np.asarray(values, dtype=float)
    return Column(name, values, np.isnan(values), kind=kind)


def four_node_graph():
    # A depends on B; B depends on A and D; C depends on B and A; D on nothing
    return DependencyGraph(
        nodes=("A", "B", "C", "D"),
        edges=(
            ("B", "A", 0.9),
            ("A", "B", 0.8),
            ("D", "B", 0.6),
            ("B", "C", 0.7),
            ("A", "C", 0.5),
        ),
        top_n=8,
        min_importance=0.01,
    )


class TestGraphType:
    def test_rejects_self_edge(self):
        with pytest.raises(InvalidArgument):
            DependencyGraph(("A",), (("A", "A", 0.5),), 8, 0.01)

    def test_rejects_unknown_node(self):
        with pytest.raises(InvalidArgument):
            DependencyGraph(("A",), (("A", "Z", 0.5),), 8, 0.01)

    def test_rejects_weight_below_threshold(self):
        with pytest.raises(InvalidArgument):
            DependencyGraph(("A", "B"), (("A", "B", 0.001),), 8, 0.01)

    def test_rejects_indegree_over_top_n(self):
        with pytest.raises(InvalidArgument):
            DependencyGraph(
                ("A", "B", "C"),
                (("A", "C", 0.5), ("B", "C", 0.4)),
                1,
                0.01,
            )

    def test_json_roundtrip(self):
        g = four_node_graph()
        g2 = from_jsonable(DependencyGraph,
                           json.loads(json.dumps(g.to_jsonable())), "graph")
        assert g2 == g


class TestTransitiveDependencies:
    def test_worked_four_node_dictionary(self):
        deps = transitive_dependencies(four_node_graph())
        assert deps == {
            "A": ["B", "D"],
            "B": ["A", "D"],
            "C": ["B", "A", "D"],
            "D": [],
        }

    def test_empty_graph(self):
        g = DependencyGraph(("x", "y"), (), 8, 0.01)
        assert transitive_dependencies(g) == {"x": [], "y": []}

    def test_no_outgoing_edges_never_listed(self):
        deps = transitive_dependencies(four_node_graph())
        # C has no outgoing edges, so no feature may list it
        for key, preds in deps.items():
            assert "C" not in preds or key == "C"
        assert all("C" not in preds for preds in deps.values())

    def test_key_never_in_own_list(self):
        deps = transitive_dependencies(four_node_graph())
        for key, preds in deps.items():
            assert key not in preds
            assert len(set(preds)) == len(preds)

    def test_direct_preds_ordered_by_weight(self):
        g = DependencyGraph(
            ("a", "b", "t"),
            (("a", "t", 0.2), ("b", "t", 0.9)),
            8,
            0.01,
        )
        assert transitive_dependencies(g)["t"] == ["b", "a"]

    def test_cycles_terminate(self):
        g = DependencyGraph(
            ("a", "b"),
            (("a", "b", 0.5), ("b", "a", 0.5)),
            8,
            0.01,
        )
        deps = transitive_dependencies(g)
        assert deps == {"a": ["b"], "b": ["a"]}


class TestBuildGraph:
    def test_linear_pair_connects_and_noise_stays_isolated(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=300)
        b = 2.0 * a
        c = rng.normal(size=300)
        t = Table((col("A", a), col("B", b), col("C", c)))
        g = build_dependency_graph(
            t, seed=1, regressor="forest",
            regressor_params={"n_estimators": 20},
        )
        pairs = {(e[0], e[1]) for e in g.edges}
        assert ("A", "B") in pairs and ("B", "A") in pairs
        assert not any("C" in p for p in pairs)

    def test_independent_noise_gives_empty_graph(self):
        rng = np.random.default_rng(2)
        t = Table(
            tuple(col(f"f{i}", rng.normal(size=200)) for i in range(3))
        )
        g = build_dependency_graph(
            t, seed=3, regressor="ridge",
        )
        assert g.edges == ()

    def test_no_self_edges_property(self):
        rng = np.random.default_rng(4)
        base = rng.normal(size=150)
        t = Table((
            col("u", base),
            col("v", base + rng.normal(scale=0.01, size=150)),
            col("w", rng.normal(size=150)),
        ))
        g = build_dependency_graph(
            t, seed=5, regressor="ridge",
        )
        assert all(a != b for a, b, _ in g.edges)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=120)
        t = Table((col("a", a), col("b", a * 3 + rng.normal(size=120))))
        g1 = build_dependency_graph(
            t, seed=7, regressor="forest", regressor_params={"n_estimators": 10}
        )
        g2 = build_dependency_graph(
            t, seed=7, regressor="forest", regressor_params={"n_estimators": 10}
        )
        assert g1 == g2

    def test_sparse_feature_flagged_and_isolated(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=60)
        sparse = np.full(60, np.nan)
        sparse[:5] = a[:5]
        t = Table((col("a", a), col("sparse", sparse)))
        with pytest.warns(SmallSampleWarning):
            g = build_dependency_graph(t, seed=9, regressor="ridge")
        assert not any(b == "sparse" for _, b, _ in g.edges)

    @pytest.mark.parametrize("name, value", [
        ("top_n", 0), ("top_n", True), ("top_n", 2.5),
        ("min_importance", -1.0), ("min_importance", True),
    ])
    def test_limits_are_checked(self, name, value):
        rng = np.random.default_rng(10)
        a = rng.normal(size=60)
        t = Table((col("a", a), col("b", a + rng.normal(size=60)),
                   col("c", rng.normal(size=60))))
        with pytest.raises(InvalidArgument) as info:
            build_dependency_graph(t, seed=11, regressor="ridge",
                                   **{name: value})
        assert info.value.path == name


    @pytest.mark.parametrize("kwargs, path", [
        ({"regressor_params": ["max_depth"]}, "regressor_params"),
        ({"regressor_params": {"max_depth": -1}}, "regressor_params.max_depth"),
        ({"regressor_params": {"max_depth": "6"}}, "regressor_params.max_depth"),
        ({"regressor_params": {"n_estimators": 2.7}},
         "regressor_params.n_estimators"),
        ({"regressor_params": {"n_trees": 5}}, "regressor_params.n_trees"),
        ({"regressor_params": {"learning_rate": 0.1}},
         "regressor_params.learning_rate"),
        ({"regressor": "ridge", "regressor_params": {"n_estimators": 5}},
         "regressor_params.n_estimators"),
        ({"regressor": "ridge", "regressor_params": {"reg": -1.0}},
         "regressor_params.reg"),
        ({"regressor": "gbt", "regressor_params": {"learning_rate": np.nan}},
         "regressor_params.learning_rate"),
        ({"seed": True}, "seed"),
        ({"seed": np.int64(1)}, "seed"),
        ({"seed": -1}, "seed"),
        ({"seed": 1.0}, "seed"),
        ({"regressor_params": []}, "regressor_params"),
        ({"regressor": "lasso"}, "regressor"),
        ({"regressor": ["forest"]}, "regressor"),
        ({"regressor": None}, "regressor"),
        # 10**400 is an int that no float holds: refused at its name, not
        # an OverflowError from inside a fit
        ({"regressor": "ridge", "regressor_params": {"reg": 10**400}},
         "regressor_params.reg"),
        ({"regressor": "gbt", "regressor_params": {"learning_rate": 10**400}},
         "regressor_params.learning_rate"),
        ({"min_importance": 10**400}, "min_importance"),
        ({"min_importance": np.inf}, "min_importance"),
    ])
    def test_arguments_are_checked(self, kwargs, path):
        rng = np.random.default_rng(12)
        a = rng.normal(size=60)
        t = Table((col("a", a), col("b", 2 * a + rng.normal(size=60)),
                   col("c", rng.normal(size=60))))
        with pytest.raises(SchemaError) as info:
            build_dependency_graph(t, **kwargs)
        assert info.value.path == path


class TestValidateDict:
    def test_accepts_valid(self):
        validate_dependency_dict({"a": ["b"], "b": []}, ["a", "b"])

    def test_rejects_self_reference(self):
        with pytest.raises(InvalidArgument):
            validate_dependency_dict({"a": ["a"]}, ["a"])

    def test_rejects_unknown_names(self):
        with pytest.raises(InvalidArgument):
            validate_dependency_dict({"a": ["zz"]}, ["a"])
        with pytest.raises(InvalidArgument):
            validate_dependency_dict({"zz": []}, ["a"])

    def test_rejects_duplicates(self):
        with pytest.raises(InvalidArgument):
            validate_dependency_dict({"a": ["b", "b"]}, ["a", "b"])
