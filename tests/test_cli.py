import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import warnings
import xml.dom.minidom
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import imputeq
from imputeq import cli
from imputeq.cli import main
from imputeq.engine import QualityRecord, records_to_jsonable
from imputeq.report import column_summary, from_jsonable, quality_document
from imputeq.table import Column

DATA = Path(__file__).parent / "data"


@pytest.fixture
def workspace(tmp_path):
    rng = np.random.default_rng(0)
    n = 120
    a = rng.normal(50, 10, n)
    b = a * 1.5 + rng.normal(0, 4, n)
    color = np.array(["red", "green", "blue"])[rng.integers(0, 3, n)]
    rows = []
    for i in range(n):
        av = "" if rng.random() < 0.2 else f"{a[i]:.4f}"
        bv = "" if rng.random() < 0.3 else f"{b[i]:.4f}"
        rows.append(f"{av},{bv},{color[i]}")
    data = tmp_path / "data.csv"
    data.write_text("a,b,color\n" + "\n".join(rows) + "\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "data": {"path": str(data)},
        "imputers": [
            {"id": "mean", "family": "simple",
             "params": {"statistic": "mean"}},
            {"id": "iter_ridge", "family": "iterative",
             "params": {"estimator": "ridge"}},
        ],
        "threshold": 0.5,
        "seed": 11,
    }))
    return tmp_path, str(config), str(data)


class TestAssess:
    def test_writes_versioned_records(self, workspace):
        tmp, config, data = workspace
        out = str(tmp / "q.json")
        assert main(["assess", "--config", config, "--out", out]) == 0
        doc = json.loads((tmp / "q.json").read_text())
        assert doc["format"] == "imputeq-quality-records"
        assert doc["schema_version"] == 1
        assert {r["feature"] for r in doc["records"]} == {"a", "b", "color"}
        for r in doc["records"]:
            assert 0.0 <= r["omega"] <= 1.0

    def test_repeat_runs_byte_identical(self, workspace):
        tmp, config, data = workspace
        out1, out2 = str(tmp / "q1.json"), str(tmp / "q2.json")
        assert main(["assess", "--config", config, "--out", out1]) == 0
        assert main(["assess", "--config", config, "--out", out2]) == 0
        assert (tmp / "q1.json").read_bytes() == (tmp / "q2.json").read_bytes()

    def test_seed_flag_changes_output(self, workspace):
        tmp, config, data = workspace
        out1, out2 = str(tmp / "q1.json"), str(tmp / "q2.json")
        main(["assess", "--config", config, "--out", out1])
        main(["assess", "--config", config, "--out", out2, "--seed", "99"])
        assert (tmp / "q1.json").read_bytes() != (tmp / "q2.json").read_bytes()

    def test_non_finite_cells_count_as_missing(self, workspace):
        tmp, config, data = workspace
        lines = (tmp / "data.csv").read_text().splitlines()
        lines[1] = "inf," + lines[1].split(",", 1)[1]
        lines[2] = "nan," + lines[2].split(",", 1)[1]
        (tmp / "data.csv").write_text("\n".join(lines) + "\n")
        out = str(tmp / "q.json")
        assert main(["assess", "--config", config, "--out", out]) == 0
        doc = json.loads((tmp / "q.json").read_text())
        for r in doc["records"]:
            assert 0.0 <= r["delta"] <= 1.0
            assert 0.0 <= r["omega"] <= 1.0


class TestFitApply:
    def test_apply_after_fit_fills_everything(self, workspace):
        tmp, config, data = workspace
        pipe = str(tmp / "pipe.json")
        out = str(tmp / "imputed.csv")
        assert main(["fit", "--config", config, "--out", pipe]) == 0
        assert main(["apply", "--pipeline", pipe, "--data", data,
                     "--out", out]) == 0
        lines = (tmp / "imputed.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        assert set(header) <= {"a", "b", "color"}
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == len(header)
            assert all(c != "" for c in cells)

    @pytest.mark.parametrize("rows", [",61.5,red", ",61.5,red\n,80.2,blue"],
                             ids=["one_row", "two_rows"])
    def test_apply_with_all_blank_numeric_column(self, workspace, rows):
        tmp, config, data = workspace
        pipe = str(tmp / "pipe.json")
        assert main(["fit", "--config", config, "--out", pipe]) == 0
        batch = tmp / "batch.csv"
        batch.write_text("a,b,color\n" + rows + "\n")
        out = tmp / "o.csv"
        assert main(["apply", "--pipeline", pipe, "--data", str(batch),
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert "a" in header
        for line, raw in zip(lines[1:], rows.splitlines()):
            cells = dict(zip(header, line.split(",")))
            assert all(c != "" for c in cells.values())
            assert float(cells["b"]) == float(raw.split(",")[1])

    def test_apply_reads_the_sentinels_of_the_fit_config(self, tmp_path):
        rng = np.random.default_rng(5)
        n = 80
        a = rng.normal(50, 10, n)
        b = a * 1.5 + rng.normal(0, 4, n)
        cells = ["-999" if i % 5 == 0 else f"{a[i]:.4f}" for i in range(n)]
        data = tmp_path / "data.csv"
        data.write_text("a,b\n" + "\n".join(
            f"{c},{b[i]:.4f}" for i, c in enumerate(cells)) + "\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "data": {"path": str(data), "missing_sentinels": ["", "-999"]},
            "imputers": [{"id": "mean", "family": "simple",
                          "params": {"statistic": "mean"}}],
            "threshold": 0.0,
            "seed": 3,
        }))
        pipe, out = str(tmp_path / "pipe.json"), tmp_path / "o.csv"
        assert main(["fit", "--config", str(config), "--out", pipe]) == 0
        assert main(["apply", "--pipeline", pipe, "--data", str(data),
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].split(",")[0] == "a"
        got = np.array([float(line.split(",")[0]) for line in lines[1:]])
        held = np.arange(n) % 5 != 0
        observed = np.array([float(c) for c in cells if c != "-999"])
        np.testing.assert_array_equal(got[held], observed)
        assert (got[~held] >= observed.min()).all()
        assert (got[~held] <= observed.max()).all()

    def test_apply_with_wrong_columns_is_data_error(self, workspace, capsys):
        tmp, config, data = workspace
        pipe = str(tmp / "pipe.json")
        main(["fit", "--config", config, "--out", pipe])
        bad = tmp / "bad.csv"
        bad.write_text("x,y\n1,2\n3,4\n")
        rc = main(["apply", "--pipeline", pipe, "--data", str(bad),
                   "--out", str(tmp / "o.csv")])
        assert rc == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "SchemaMismatch"

    def test_apply_with_repeated_header_is_data_error(self, workspace,
                                                      capsys):
        tmp, config, data = workspace
        pipe = str(tmp / "pipe.json")
        main(["fit", "--config", config, "--out", pipe])
        bad = tmp / "bad.csv"
        bad.write_text("a,a,b\n1,2,3\n")
        capsys.readouterr()
        rc = main(["apply", "--pipeline", pipe, "--data", str(bad),
                   "--out", str(tmp / "o.csv")])
        assert rc == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "DataIoError" and "'a'" in err["message"]

    def test_apply_writing_an_unmasked_nan_is_data_error(
            self, workspace, monkeypatch, capsys):
        tmp, config, data = workspace
        pipe = str(tmp / "pipe.json")
        assert main(["fit", "--config", config, "--out", pipe]) == 0

        def unmask_nan(plan, t):
            a = t.column("a")
            return t.with_column(Column("a", np.full(t.n_rows, np.nan),
                                        np.zeros(t.n_rows, dtype=bool),
                                        kind=a.kind))

        monkeypatch.setattr(cli, "apply_pipeline", unmask_nan)
        capsys.readouterr()
        rc = main(["apply", "--pipeline", pipe, "--data", data,
                   "--out", str(tmp / "o.csv")])
        assert rc == 3
        [line] = capsys.readouterr().err.splitlines()
        err = json.loads(line)
        assert err["error"] == "DegenerateInput"
        assert "'a': row 1 holds nan" in err["message"]

    def test_apply_with_corrupt_pipeline_is_data_error(self, workspace,
                                                       capsys):
        tmp, config, data = workspace
        bad = tmp / "pipe.json"
        bad.write_text("{\"format\": \"imputeq-pipeline\"}")
        rc = main(["apply", "--pipeline", str(bad), "--data", data,
                   "--out", str(tmp / "o.csv")])
        assert rc == 3

    @pytest.mark.parametrize("field", ["dependencies", "labels"])
    def test_apply_with_list_where_object_expected_is_data_error(
        self, workspace, capsys, field
    ):
        tmp, config, data = workspace
        pipe = tmp / "pipe.json"
        assert main(["fit", "--config", config, "--out", str(pipe)]) == 0
        doc = json.loads(pipe.read_text())
        if field == "dependencies":
            doc["dependencies"] = ["a", "b"]
        else:
            color = next(s for s in doc["schema"] if s["name"] == "color")
            color["labels"] = ["red", "green", "blue"]
        pipe.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(["apply", "--pipeline", str(pipe), "--data", data,
                   "--out", str(tmp / "o.csv")])
        assert rc == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "CorruptModel"

    # `where`: the path that the refusal names, within the imputer
    @pytest.mark.parametrize("target,path,value,where", [
        ("n", "target_column", "zz", "target_column"),
        ("n", "predictor_columns", ["zz"], "predictor_columns"),
        ("n", "spec.family", "magic", "spec.family"),
        ("n", "spec.params", {}, "spec.params"),
        ("n", "spec.params", lambda params: list(params.items()),
         "spec.params"),
        ("n", "state.fill", float("nan"), "state.fill"),
        ("n", "observed_value_set", [], "observed_value_set"),
        ("c", "state.observed.0", None, "state.observed"),
        ("x", "state.ref_X", lambda ref_X: [row[:-1] for row in ref_X],
         "state.ref_X"),
        ("x", "state.ref_y", lambda ref_y: ref_y[:-1], "state.ref_y"),
        ("x", "state.ref_y", [], "state.ref_y"),
        ("y", "state.models.0.weights", lambda w: w[:-1],
         "state.models.0.weights"),
        ("y", "spec.params.max_iter", "x", "spec.params"),
        ("x", "spec.params.n_neighbors", True, "spec.params"),
        ("c", "spec.seed", -1, "spec.seed"),
        ("c", "spec.seed", 1.5, "spec.seed"),
        ("c", "spec.seed", True, "spec.seed"),
        ("c", "spec.seed", "7", "spec.seed"),
    ], ids=[
        "target_column-zz", "predictor_columns-value1", "spec_family-magic",
        "simple_spec_without_statistic", "spec_params-pairs", "fill-NaN",
        "discrete_observed_value_set-empty", "apprandom_observed-null",
        "knn_ref_X-one_predictor_short", "knn_ref_y-one_row_short",
        "knn_ref_y-empty", "ridge_weights-one_short",
        "chain_max_iter-string", "knn_n_neighbors-true",
        "apprandom_seed-negative", "apprandom_seed-float",
        "apprandom_seed-true", "apprandom_seed-string",
    ])
    def test_apply_with_damaged_fitted_imputer_is_data_error(
        self, mixed_plan, tmp_path, capsys, target, path, value, where
    ):
        plan, data = mixed_plan
        with open(plan) as fh:
            doc = json.load(fh)
        i, node = next((i, f) for i, f in enumerate(doc["fitted"])
                       if f["target_column"] == target)
        *parents, key = path.split(".")
        for k in parents:
            node = node[int(k) if isinstance(node, list) else k]
        key = int(key) if isinstance(node, list) else key
        node[key] = value(node[key]) if callable(value) else value
        pipe = tmp_path / "pipe.json"
        pipe.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(["apply", "--pipeline", str(pipe), "--data", data,
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "CorruptModel"
        assert err["message"].startswith(f"fitted[{i}].{where}: "), err

    @pytest.mark.parametrize("field, value", [
        ("seed", "7"), ("seed", 1.5), ("seed", True), ("seed", -1),
        ("config_hash", 5), ("config_hash", None),
        ("notes", "abc"), ("notes", [1, 2]),
        ("dependencies", {"x": "xy"}), ("dependencies", {"zzz": ["qq"]}),
    ])
    def test_apply_with_damaged_top_level_field_is_data_error(
        self, tmp_path, capsys, field, value
    ):
        doc = json.loads((DATA / "tree_plan_v2.json").read_text())
        doc[field] = value
        pipe = tmp_path / "pipe.json"
        pipe.write_text(json.dumps(doc))
        rc = main(["apply", "--pipeline", str(pipe),
                   "--data", str(DATA / "mixed.csv"),
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 3
        [line] = capsys.readouterr().err.strip().splitlines()
        error = json.loads(line)
        assert error["error"] == "CorruptModel"
        # the field, or a key or entry of it ("notes[0]", "dependencies.x")
        message = error["message"]
        assert message.startswith(field), error
        assert message[len(field)] in ":.[", error

    # a number too large for a float reads as inf: the decoder refuses it
    # at its cell, in a field or in an array
    @pytest.mark.parametrize("path, where", [
        (("fitted", 3, "state", "observed", 1), "fitted[3].state.observed[1]"),
        (("fitted", 2, "state", "fill"), "fitted[2].state.fill"),
        (("fitted", 0, "state", "models", "0", "trees", 1, "threshold", 0),
         "fitted[0].state.models.0.trees[1].threshold[0]"),
    ], ids=["apprandom-observed", "simple-fill", "tree-threshold"])
    def test_apply_with_overflowing_number_is_refused_at_its_path(
        self, tmp_path, capsys, path, where
    ):
        doc = json.loads((DATA / "tree_plan_v2.json").read_text())
        node = doc
        for k in path[:-1]:
            node = node[k]
        node[path[-1]] = "OVERFLOW"
        pipe = tmp_path / "pipe.json"
        pipe.write_text(json.dumps(doc).replace('"OVERFLOW"', "1e400"))
        rc = main(["apply", "--pipeline", str(pipe),
                   "--data", str(DATA / "mixed.csv"),
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 3
        [line] = capsys.readouterr().err.strip().splitlines()
        error = json.loads(line)
        assert error["error"] == "CorruptModel"
        assert error["message"] == f"{where}: expected a finite float"

    def test_plan_with_predictor_first_chains_serves_the_same_rows(
        self, mixed_csv, tmp_path
    ):
        # a schema v2 plan of the `tree_plan` fixture's imputers, written
        # when a chain's columns were its predictors, then its target
        doc = json.loads((DATA / "tree_plan_v2.json").read_text())
        chains = {f["target_column"]: f["state"]["columns"]
                  for f in doc["fitted"] if f["spec"]["family"] == "iterative"}
        assert chains["x"] == ["y", "n", "c", "b", "x"]
        out = tmp_path / "o.csv"
        assert main(["apply", "--pipeline", str(DATA / "tree_plan_v2.json"),
                     "--data", mixed_csv, "--out", str(out)]) == 0
        assert out.read_bytes() == (
            DATA / "tree_plan_v2_applied.csv").read_bytes()

    def test_committed_mixed_csv_is_the_fixture(self, mixed_csv):
        # the CI smoke step serves the v2 plan to this file with the
        # console script
        assert (DATA / "mixed.csv").read_bytes() == Path(
            mixed_csv).read_bytes()

    def test_plan_bytes_do_not_depend_on_the_hash_seed(self, workspace):
        tmp, config, data = workspace
        doc = json.loads(Path(config).read_text())
        trees = {"n_estimators": 3, "max_depth": 3, "max_iter": 2}
        doc["imputers"] += [
            {"id": "iter_forest", "family": "iterative",
             "params": dict(trees, estimator="forest")},
            {"id": "iter_gbt", "family": "iterative",
             "params": dict(trees, estimator="gbt")},
        ]
        doc["dependency_graph"] = {"a": ["b", "color"], "b": ["color", "a"],
                                   "color": ["b"]}
        Path(config).write_text(json.dumps(doc))
        src = os.path.dirname(os.path.dirname(imputeq.__file__))
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
            for command in ("assess", "fit"):
                out = tmp / f"{command}{hash_seed}.json"
                subprocess.run([sys.executable, "-m", "imputeq.cli", command,
                                "--config", config, "--out", str(out)],
                               env=env, capture_output=True, check=True)
                outputs.append(out.read_bytes())
        assert outputs[:2] == outputs[2:]
        plan = json.loads(outputs[1])
        assert any(f["spec"]["family"] == "iterative" for f in plan["fitted"])

    def test_label_deleted_from_a_rare_level_column_is_data_error(
        self, tmp_path, capsys
    ):
        # 12 labels of 2-3 rows each: too rare for a numeric column to be
        # non-continuous, but a labelled column is categorical
        counts = [3] * 8 + [2] * 4
        cells = [f"k{i}" for i, n in enumerate(counts) for _ in range(n)]
        cells += [""] * (40 - len(cells))
        rows = [f"{i % 7}.5,{c}" for i, c in enumerate(cells)]
        data = tmp_path / "data.csv"
        data.write_text("x,c\n" + "\n".join(rows) + "\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "data": {"path": str(data)},
            "imputers": [{"id": "mode", "family": "simple",
                          "params": {"statistic": "mode"}}],
        }))
        pipe = tmp_path / "pipe.json"
        assert main(["fit", "--config", str(config), "--out", str(pipe)]) == 0
        doc = json.loads(pipe.read_text())
        schema = next(s for s in doc["schema"] if s["name"] == "c")
        assert schema["kind"] == "categorical"
        del schema["labels"]["3"]
        pipe.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(["apply", "--pipeline", str(pipe), "--data", str(data),
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "CorruptModel"


class TestGraph:
    def test_emits_predecessor_dictionary(self, workspace):
        tmp, config, data = workspace
        out = str(tmp / "deps.json")
        assert main(["graph", "--config", config, "--out", out]) == 0
        deps = json.loads((tmp / "deps.json").read_text())
        assert set(deps) == {"a", "b", "color"}
        for preds in deps.values():
            assert isinstance(preds, list)


# sha256 of what assess, fit and graph write for tests/data/mixed_config.json
# on tests/data/mixed.csv: one case per dependency_graph form (the "file"
# form names a file holding PINNED_INLINE_DEPS) and one with --seed 13 and
# --threshold 0.6 (graph takes no --threshold)
PINNED_INLINE_DEPS = {"x": ["y"], "y": ["x", "n"], "n": ["c"], "c": ["b"],
                      "b": []}
PINNED_CLI_DIGESTS = {
    "absent": (
        "537e76892d0ba6e70e8588d3f541e6ec5fd79bbd5b9f44bd526a8cd32d99c1f9",
        "d848e48ba4a372a9409bc1700020dabba2051996c14a31c6d01c8e14f6977ab9",
        "50f34d33b45b773871aef4b420a1b051d6c1345cbcd7a8097e82520383963a54"),
    "auto": (
        "537e76892d0ba6e70e8588d3f541e6ec5fd79bbd5b9f44bd526a8cd32d99c1f9",
        "8200f87fb9f16bd003a842c0aad43f653b6be6227e74082a7e8685048dae3b51",
        "50f34d33b45b773871aef4b420a1b051d6c1345cbcd7a8097e82520383963a54"),
    "auto_object": (
        "62dc41ad302be741dfcca0f23abed904ed3dfc44d23eee9a15f1518ab889739e",
        "6863711766d728305be8c982f985f9dd9fa94c680265500c522adf5be839e4a9",
        "d3b00c984c669f707750f71fd6e86fdf16b473f3025cda71bced3a77af98c76f"),
    "inline": (
        "e1f4eb717db05cc1932be4ff81dcd136cb3114b954b46c6f0fb3ea32980ba24a",
        "678d6de904ef6b8cd5e04b02ff5aa150c00ca617c2d7b56c1f6f9bc48ff77a05",
        "50f34d33b45b773871aef4b420a1b051d6c1345cbcd7a8097e82520383963a54"),
    "file": (
        "e1f4eb717db05cc1932be4ff81dcd136cb3114b954b46c6f0fb3ea32980ba24a",
        "678d6de904ef6b8cd5e04b02ff5aa150c00ca617c2d7b56c1f6f9bc48ff77a05",
        "50f34d33b45b773871aef4b420a1b051d6c1345cbcd7a8097e82520383963a54"),
    "flags": (
        "98536a7e38cc909d40b3d0fbbe7572f9bf4d47f93001763d804483fb07ed6885",
        "43fdb43a363c13c539a1c5ff42e17d5ed8688383f2a3db29e736ddd35da7a2b0",
        "4ea2a376358f87d1d7a181b41064bf1376e73a161c6a9e87434907ba74f51550"),
}


class TestPinnedOutputs:
    # kNN warns where a row observes none of its predecessors
    @pytest.mark.filterwarnings("ignore::imputeq.ImputeQWarning")
    @pytest.mark.parametrize("form", list(PINNED_CLI_DIGESTS))
    def test_config_driven_outputs_are_pinned(self, tmp_path, capsys, form):
        doc = json.loads((DATA / "mixed_config.json").read_text())
        deps = tmp_path / "deps.json"
        deps.write_text(json.dumps(PINNED_INLINE_DEPS))
        graph = {
            "auto": "auto",
            "auto_object": {"type": "auto", "top_n": 2,
                            "min_importance": 0.0},
            "inline": PINNED_INLINE_DEPS,
            "file": str(deps),
        }.get(form)
        if graph is not None:
            doc["dependency_graph"] = graph
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        digests = []
        for command in ("assess", "fit", "graph"):
            out = tmp_path / f"{command}.out"
            argv = [command, "--config", str(config),
                    "--data", str(DATA / "mixed.csv"), "--out", str(out)]
            if form == "flags":
                argv += ["--seed", "13"]
                if command != "graph":
                    argv += ["--threshold", "0.6"]
            assert main(argv) == 0, capsys.readouterr().err
            digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
        assert tuple(digests) == PINNED_CLI_DIGESTS[form]


class TestRecommendM:
    def test_prints_worked_example(self, capsys):
        assert main(["recommend-m", "--gamma", "0.5",
                     "--efficiency", "0.95"]) == 0
        assert capsys.readouterr().out.strip() == "10"

    def test_underscore_alias(self, capsys):
        assert main(["recommend_m", "--gamma", "0.99",
                     "--efficiency", "0.95"]) == 0
        assert capsys.readouterr().out.strip() == "19"

    def test_bad_efficiency_is_config_error(self, capsys):
        rc = main(["recommend-m", "--gamma", "0.5", "--efficiency", "1.2"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "InvalidArgument"


def _get(doc, path):
    for k in path:
        doc = doc[k]
    return doc


def _scalar_paths(node, path=()):
    """Paths of the bools and numbers in `node`."""
    if type(node) in (bool, int, float):
        yield path
    elif isinstance(node, (dict, list)):
        for k, v in (node.items() if isinstance(node, dict)
                     else enumerate(node)):
            yield from _scalar_paths(v, (*path, k))


@pytest.fixture(scope="module")
def quality_doc():
    """The records document of a seeded assessment of three columns, with
    a threshold."""
    rng = np.random.default_rng(2)
    n = 60
    a = rng.normal(0, 1, n)
    values = np.column_stack([a, a + rng.normal(0, 0.3, n),
                              rng.integers(0, 2, n)]).astype(float)
    values[rng.random((n, 3)) < 0.2] = np.nan
    t = imputeq.infer_column_kinds(imputeq.Table(tuple(
        imputeq.Column(name, values[:, j], np.isnan(values[:, j]))
        for j, name in enumerate("abc"))))
    roster = (
        imputeq.ImputerSpec("mean", "simple", {"statistic": "mean"}),
        imputeq.ImputerSpec("knn3", "knn", {"n_neighbors": 3}),
    )
    with warnings.catch_warnings():  # rows that share no coordinate
        warnings.simplefilter("ignore", imputeq.ImputeQWarning)
        records = imputeq.assess(t, imputeq.AssessConfig(
            roster, n_folds=3, threshold=0.5))
    return quality_document(records_to_jsonable(records), 0.5,
                            column_summary(t))


class TestReport:
    def test_renders_svg_and_summary(self, workspace, capsys):
        tmp, config, data = workspace
        records = str(tmp / "q.json")
        main(["assess", "--config", config, "--out", records])
        capsys.readouterr()
        out = str(tmp / "chart.svg")
        assert main(["report", "--records", records, "--out", out]) == 0
        dom = xml.dom.minidom.parse(out)
        assert dom.documentElement.tagName == "svg"
        printed = capsys.readouterr().out
        assert "features kept" in printed

    def test_missing_records_file_is_data_error(self, tmp_path, capsys):
        rc = main(["report", "--records", str(tmp_path / "none.json"),
                   "--out", str(tmp_path / "c.svg")])
        assert rc == 3

    def test_wrong_document_format_rejected(self, tmp_path, capsys):
        bad = tmp_path / "q.json"
        bad.write_text(json.dumps({"format": "other", "schema_version": 1}))
        rc = main(["report", "--records", str(bad),
                   "--out", str(tmp_path / "c.svg")])
        assert rc == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "VersionMismatch"

    @pytest.mark.parametrize("threshold", ["nan", "7", "-0.1"])
    def test_bad_threshold_flag_is_config_error(self, quality_doc, tmp_path,
                                                capsys, threshold):
        records = tmp_path / "q.json"
        records.write_text(json.dumps(quality_doc))
        out = tmp_path / "c.svg"
        rc = main(["report", "--records", str(records), "--out", str(out),
                   "--threshold", threshold])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert (err["error"], err["path"]) == ("SchemaError", "threshold")
        assert not out.exists()

    def test_library_document_with_int_threshold_draws(self, quality_doc,
                                                       tmp_path, capsys):
        # a library caller may pass the threshold as an int
        doc = quality_document(quality_doc["records"], 1,
                               quality_doc["columns"])
        records, out = tmp_path / "q.json", tmp_path / "c.svg"
        records.write_text(json.dumps(doc))
        rc = main(["report", "--records", str(records), "--out", str(out)])
        assert rc == 0, capsys.readouterr().err
        assert out.read_bytes().startswith(b"<?xml")

    # each damage is refused at its document path; from "kept-string" on,
    # each is a value that an earlier records reader drew
    @pytest.mark.parametrize("damage, error, where", [
        (lambda d: d["records"][0].pop("omega"),
         "CorruptModel", "records[0].omega: "),
        (lambda d: d.update(threshold="0.5"), "CorruptModel", "threshold: "),
        (lambda d: d.update(records=7), "CorruptModel", "records: "),
        (lambda d: d["records"][1].update(delta=float("nan")),
         "CorruptModel", "records[1].delta: "),
        (lambda d: d["records"][0]["imputers"][0].update(delta_std="x"),
         "CorruptModel", "records[0].imputers[0].delta_std: "),
        (lambda d: d["records"][0].update(kept="no"),
         "CorruptModel", "records[0].kept: "),
        (lambda d: d["records"][0].update(fallback_used="no"),
         "CorruptModel", "records[0].fallback_used: "),
        (lambda d: d["records"][0]["imputers"][0].update(skipped="x"),
         "CorruptModel", "records[0].imputers[0].skipped: "),
        (lambda d: d["records"][0]["imputers"][0].update(n_predictors="many"),
         "CorruptModel", "records[0].imputers[0].n_predictors: "),
        (lambda d: d["records"][0].update(completeness=1),
         "CorruptModel", "records[0].completeness: "),
        (lambda d: d.update(extra=1), "CorruptModel", "extra: "),
        (lambda d: d["records"][0].update(extra=1),
         "CorruptModel", "records[0].extra: "),
        (lambda d: d.update(schema_version=True), "VersionMismatch", ""),
        (lambda d: d.update(schema_version=1.0), "VersionMismatch", ""),
        (lambda d: d["records"][1].update(chosen_imputer="nobody"),
         "CorruptModel", "records[1].chosen_imputer: "),
        (lambda d: d["records"][0]["imputers"][1]["bias"].update(
            statistic=float("nan")),
         "CorruptModel", "records[0].imputers[1].bias.statistic: "),
        (lambda d: d["records"][2]["imputers"][0]["bias"].update(
            statistic=-0.5),
         "CorruptModel", "records[2].imputers[0].bias.statistic: "),
        (lambda d: d["records"][0]["imputers"][2]["bias"].update(
            statistic=float("inf")),
         "CorruptModel", "records[0].imputers[2].bias.statistic: "),
        (lambda d: d["records"][1]["imputers"][0]["bias"].update(
            p_value=7.0),
         "CorruptModel", "records[1].imputers[0].bias.p_value: "),
        (lambda d: d["records"][2]["imputers"][1]["bias"].update(
            p_value=float("nan")),
         "CorruptModel", "records[2].imputers[1].bias.p_value: "),
    ], ids=["record_without_omega", "threshold-string", "records-number",
            "delta-NaN", "delta_std-string", "kept-string",
            "fallback_used-string", "skipped-string", "n_predictors-string",
            "completeness-int", "top-level-key", "record-key",
            "schema_version-bool", "schema_version-float",
            "chosen_imputer-unknown", "bias-statistic-NaN",
            "bias-statistic-negative", "bias-statistic-inf",
            "bias-p_value-7", "bias-p_value-NaN"])
    def test_malformed_records_are_data_error(self, quality_doc, tmp_path,
                                              capsys, damage, error, where):
        doc = json.loads(json.dumps(quality_doc))
        damage(doc)
        records, out = tmp_path / "q.json", tmp_path / "c.svg"
        records.write_text(json.dumps(doc))
        rc = main(["report", "--records", str(records), "--out", str(out)])
        assert rc == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == error
        assert err["message"].startswith(where), err
        assert not out.exists()

    def test_overflowing_delta_is_refused_at_its_path(self, quality_doc,
                                                      tmp_path, capsys):
        doc = json.loads(json.dumps(quality_doc))
        doc["records"][1]["delta"] = "OVERFLOW"
        records, out = tmp_path / "q.json", tmp_path / "c.svg"
        records.write_text(json.dumps(doc).replace('"OVERFLOW"', "1e400"))
        rc = main(["report", "--records", str(records), "--out", str(out)])
        assert rc == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "CorruptModel",
                       "message": "records[1].delta: expected a finite float"}
        assert not out.exists()

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_damaged_records_are_refused_or_drawn(self, quality_doc,
                                                  tmp_path, data):
        # one mutation: delete a key or list entry, retype a value, or
        # write a bool or number as another type (a bool as "no", 0 or 1,
        # a number as its numeric string, an int as the equal float)
        doc = json.loads(json.dumps(quality_doc))
        op = data.draw(st.sampled_from(["delete", "retype", "type"]))
        if op == "type":
            path = data.draw(st.sampled_from(list(_scalar_paths(doc))))
            node = _get(doc, path)
        else:
            path, node = (), doc
            while isinstance(node, (dict, list)) and node and (
                    not path or data.draw(st.booleans())):
                keys = (list(node) if isinstance(node, dict)
                        else range(len(node)))
                key = data.draw(st.sampled_from(keys))
                path, node = (*path, key), node[key]
        *parents, key = path
        parent = _get(doc, parents)
        if op == "delete":
            del parent[key]
        elif op == "retype":
            parent[key] = data.draw(st.sampled_from(
                [v for v in ("x", 7, 0.5, True, [], {}, None)
                 if type(v) is not type(node)]), label="new value")
        elif type(node) is bool:
            parent[key] = data.draw(st.sampled_from(["no", 0, 1]))
        else:
            parent[key] = data.draw(st.sampled_from(
                [repr(node)] + [float(node)] * (type(node) is int)))
        records, out = tmp_path / "q.json", tmp_path / "c.svg"
        records.write_text(json.dumps(doc))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            rc = main(["report", "--records", str(records),
                       "--out", str(out)])
        err = stderr.getvalue().splitlines()
        assert rc in (0, 3), err
        if rc:
            [line] = err
            assert set(json.loads(line)) == {"error", "message"}
        else:
            assert err == []
            xml.dom.minidom.parse(str(out))
            # nothing was coerced: the records read back as written
            back = from_jsonable(list[QualityRecord], doc["records"],
                                 "records")
            assert json.dumps(records_to_jsonable(back), sort_keys=True) == (
                json.dumps(doc["records"], sort_keys=True))

    def test_records_document_not_an_object_is_data_error(
        self, tmp_path, capsys
    ):
        bad = tmp_path / "q.json"
        bad.write_text(json.dumps([{"format": "imputeq-quality-records"}]))
        rc = main(["report", "--records", str(bad),
                   "--out", str(tmp_path / "c.svg")])
        assert rc == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "CorruptModel"


class TestAudit:
    def test_complete_data_fast_path(self, tmp_path):
        rng = np.random.default_rng(1)
        n = 60
        data = tmp_path / "d.csv"
        rows = [f"{v:.4f},{w:.4f}" for v, w in
                zip(rng.normal(0, 1, n), rng.normal(5, 2, n))]
        data.write_text("p,q\n" + "\n".join(rows) + "\n")
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "data": {"path": str(data)},
            "imputers": [{"id": "mean", "family": "simple",
                          "params": {"statistic": "mean"}}],
        }))
        out = str(tmp_path / "audit.json")
        assert main(["audit", "--config", str(config), "--out", out,
                     "--levels", "0"]) == 0
        doc = json.loads((tmp_path / "audit.json").read_text())
        assert doc["format"] == "imputeq-audit"
        assert doc["lower_is_better"] is True
        # nothing missing at level 0: every feature is skipped
        for report in doc["reports"]:
            assert all(f["skipped"] for f in report["per_feature"])
        assert {r["strategy"] for r in doc["reports"]} == {
            "mean", "apprandom", "iqa",
        }

    def test_bad_levels_string_is_config_error(self, workspace, capsys):
        tmp, config, data = workspace
        rc = main(["audit", "--config", config,
                   "--out", str(tmp / "a.json"), "--levels", "lots"])
        assert rc == 2

    def test_user_imputer_named_iqa_is_config_error(self, workspace,
                                                      capsys):
        tmp, _, data = workspace
        config = tmp / "c.json"
        config.write_text(json.dumps({
            "data": {"path": data},
            "imputers": [
                {"id": "mean", "family": "simple",
                 "params": {"statistic": "mean"}},
                {"id": "iqa", "family": "simple",
                 "params": {"statistic": "median"}},
            ],
        }))
        rc = main(["audit", "--config", str(config),
                   "--out", str(tmp / "a.json"), "--levels", "0"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "SchemaError"
        assert err["path"] == "imputers[1].id"
        assert not (tmp / "a.json").exists()

    def test_csv_format(self, tmp_path):
        rng = np.random.default_rng(2)
        n = 80
        data = tmp_path / "d.csv"
        rows = [f"{v:.4f}" for v in rng.normal(0, 1, n)]
        data.write_text("p\n" + "\n".join(rows) + "\n")
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "data": {"path": str(data)},
            "imputers": [{"id": "mean", "family": "simple",
                          "params": {"statistic": "mean"}}],
        }))
        out = str(tmp_path / "audit.csv")
        assert main(["audit", "--config", str(config), "--out", out,
                     "--levels", "0", "--format", "csv"]) == 0
        text = (tmp_path / "audit.csv").read_text()
        assert text.startswith("missingness=0")


class TestErrorChannels:
    def test_missing_config_is_data_error(self, tmp_path, capsys):
        rc = main(["assess", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "q.json")])
        assert rc == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "DataIoError"

    def test_schema_error_carries_path(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "imputers": [{"id": "m", "family": "simple",
                          "params": {"statistic": "mean"}}],
            "threshold": 7,
        }))
        rc = main(["assess", "--config", str(config),
                   "--out", str(tmp_path / "q.json")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "SchemaError"
        assert err["path"] == "threshold"

    @pytest.mark.parametrize("imputer", [
        {"id": "it", "family": "iterative",
         "params": {"estimator": "ridge", "max_iter": "x"}},
        {"id": "k", "family": "knn", "params": {"n_neighbors": True}},
        {"id": "f", "family": "iterative",
         "params": {"estimator": "forest", "n_trees": 5}},
    ], ids=["max_iter-string", "n_neighbors-true", "unread-key"])
    def test_bad_imputer_parameter_is_config_error(self, workspace, capsys,
                                                   imputer):
        tmp, config, data = workspace
        doc = json.loads(open(config).read())
        doc["imputers"].append(imputer)
        open(config, "w").write(json.dumps(doc))
        rc = main(["assess", "--config", config,
                   "--out", str(tmp / "q.json")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "SchemaError"
        assert err["path"] == "imputers[2].params"

    @pytest.mark.parametrize("edit, flags, path", [
        ({"seed": -1}, [], "seed"),
        ({"splitter": {"type": "kfold", "params": {"seed": -3}}}, [],
         "splitter.params.seed"),
        ({"imputers": [{"id": "mean", "family": "simple", "seed": -2,
                        "params": {"statistic": "mean"}}]}, [],
         "imputers[0].seed"),
        ({}, ["--seed", "-1"], "seed"),
    ], ids=["top-level", "splitter", "imputer", "flag"])
    def test_negative_seed_is_config_error(self, workspace, capsys, edit,
                                           flags, path):
        tmp, config, data = workspace
        doc = json.loads(open(config).read())
        open(config, "w").write(json.dumps(dict(doc, **edit)))
        rc = main(["assess", "--config", config,
                   "--out", str(tmp / "q.json"), *flags])
        assert rc == 2
        [line] = capsys.readouterr().err.strip().splitlines()
        err = json.loads(line)
        assert (err["error"], err["path"]) == ("SchemaError", path)

    def test_an_imputer_seed_is_config_error(self, workspace, capsys):
        # every task seed derives from the run seed, so an imputer takes none
        tmp, config, data = workspace
        doc = json.loads(open(config).read())
        doc["imputers"][0]["seed"] = 7
        open(config, "w").write(json.dumps(doc))
        rc = main(["assess", "--config", config,
                   "--out", str(tmp / "q.json")])
        assert rc == 2
        [line] = capsys.readouterr().err.strip().splitlines()
        err = json.loads(line)
        assert (err["error"], err["path"]) == ("SchemaError",
                                               "imputers[0].seed")

    @pytest.mark.parametrize("graph", [
        {"a": ["zz"]}, {"zz": ["a"]}, {"a": ["a"]},
    ])
    def test_bad_inline_dependency_dict_is_config_error(self, workspace,
                                                          capsys, graph):
        tmp, config, data = workspace
        doc = json.loads(open(config).read())
        doc["dependency_graph"] = graph
        open(config, "w").write(json.dumps(doc))
        rc = main(["assess", "--config", config,
                   "--out", str(tmp / "q.json")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "InvalidArgument"

    def test_bad_dependency_file_is_config_error(self, workspace, capsys):
        tmp, config, data = workspace
        deps = tmp / "deps.json"
        deps.write_text(json.dumps({"b": ["a", "nope"]}))
        doc = json.loads(open(config).read())
        doc["dependency_graph"] = str(deps)
        open(config, "w").write(json.dumps(doc))
        rc = main(["fit", "--config", config, "--out", str(tmp / "p.json")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "InvalidArgument"

    @pytest.mark.parametrize("deps", [
        {"b": [1]}, {"b": [None]}, {"b": "a"}, ["b"],
    ], ids=["number", "null", "string", "list"])
    def test_malformed_dependency_file_is_schema_error(self, workspace,
                                                       capsys, deps):
        # predecessors are names as written: none is coerced to a string
        tmp, config, data = workspace
        file = tmp / "deps.json"
        file.write_text(json.dumps(deps))
        doc = json.loads(open(config).read())
        doc["dependency_graph"] = str(file)
        open(config, "w").write(json.dumps(doc))
        rc = main(["assess", "--config", config,
                   "--out", str(tmp / "q.json")])
        assert rc == 2
        [line] = capsys.readouterr().err.strip().splitlines()
        err = json.loads(line)
        assert (err["error"], err["path"]) == ("SchemaError",
                                               "dependency_graph")

    # one case per input reader and failure: bytes that are not UTF-8, and
    # a JSON document nested deeper than the parser's recursion limit
    NOT_UTF8 = b"a,b\n\xff\xfe,1\n"
    TOO_DEEP = b"[" * 100_000

    @pytest.mark.parametrize("reader, bad, code, error, path", [
        ("assess-data", NOT_UTF8, 3, "DataIoError", None),
        ("apply-data", NOT_UTF8, 3, "DataIoError", None),
        ("config", NOT_UTF8, 2, "SchemaError", "$"),
        ("config", TOO_DEEP, 2, "SchemaError", "$"),
        ("dependency-file", NOT_UTF8, 2, "SchemaError", "dependency_graph"),
        ("dependency-file", TOO_DEEP, 2, "SchemaError", "dependency_graph"),
        ("records", NOT_UTF8, 3, "CorruptModel", None),
        ("records", TOO_DEEP, 3, "CorruptModel", None),
        ("pipeline", TOO_DEEP, 3, "CorruptModel", None),
    ], ids=["assess-data-utf8", "apply-data-utf8", "config-utf8",
            "config-deep", "dependency-file-utf8", "dependency-file-deep",
            "records-utf8", "records-deep", "pipeline-deep"])
    def test_undecodable_or_too_deep_input_is_input_error(
        self, workspace, capsys, reader, bad, code, error, path
    ):
        tmp, config, data = workspace
        target = tmp / "bad.input"
        target.write_bytes(bad)
        out = str(tmp / "out")
        if reader == "assess-data":
            argv = ["assess", "--config", config, "--data", str(target),
                    "--out", out]
        elif reader == "apply-data":
            pipe = str(tmp / "pipe.json")
            assert main(["fit", "--config", config, "--out", pipe]) == 0
            argv = ["apply", "--pipeline", pipe, "--data", str(target),
                    "--out", out]
        elif reader == "config":
            argv = ["assess", "--config", str(target), "--out", out]
        elif reader == "dependency-file":
            doc = json.loads(open(config).read())
            doc["dependency_graph"] = str(target)
            open(config, "w").write(json.dumps(doc))
            argv = ["fit", "--config", config, "--out", out]
        elif reader == "records":
            argv = ["report", "--records", str(target), "--out", out]
        else:
            argv = ["apply", "--pipeline", str(target), "--data", data,
                    "--out", out]
        capsys.readouterr()
        assert main(argv) == code
        [line] = capsys.readouterr().err.strip().splitlines()
        err = json.loads(line)
        assert err["error"] == error
        assert err.get("path") == path

    def test_unexpected_exception_is_internal_error(self, workspace,
                                                    monkeypatch, capsys):
        tmp, config, data = workspace

        def broken(*args, **kwargs):
            raise KeyError("boom")

        monkeypatch.setattr(cli, "assess", broken)
        rc = main(["assess", "--config", config,
                   "--out", str(tmp / "q.json")])
        assert rc == 4
        captured = capsys.readouterr()
        err = json.loads(captured.err.strip())
        assert err["error"] == "KeyError"
        assert "Traceback" not in captured.err

    def test_no_data_given(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "imputers": [{"id": "m", "family": "simple",
                          "params": {"statistic": "mean"}}],
        }))
        rc = main(["assess", "--config", str(config),
                   "--out", str(tmp_path / "q.json")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["path"] == "data.path"
