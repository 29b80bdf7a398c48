"""`imputeq apply` on damaged pipeline files.

Each example makes one mutation of a valid plan: one that uses kNN, a
ridge chain, the mean and empirical sampling (the `mixed_plan` fixture),
or one with forest and GBT chains (`tree_plan`).  The mutation deletes a
key or a list entry, retypes a value, writes NaN or a negative integer,
renames a column reference, or writes a number as another type (a numeric
string, a bool, or an int as the equal float).  The command must then
either refuse the plan as a data error (exit 3, one JSON error object as
the last stderr line, no traceback) or serve it (exit 0) with every kept
column complete and every observed input cell unchanged.  A plan with a
number written as another type that loads must also write back its own
canonical bytes: nothing was coerced.
"""

import contextlib
import csv
import io
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from imputeq.cli import main
from imputeq.engine import deserialize_pipeline, serialize_pipeline

# a value of every JSON type; a retyped value takes one of another type
OTHER_TYPES = ["x", 7, [], {}, None]
DELETE = object()  # the new value of a mutation that removes the value
DATA = Path(__file__).parent / "data"


def _json_type(v):
    return float if type(v) is int else type(v)


def _column_references(node, columns, path=()):
    """Paths of the strings in `node` that name one of `columns`."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        if isinstance(node, str) and node in columns:
            yield path
        return
    for k, v in items:
        yield from _column_references(v, columns, (*path, k))


def _chain_roots(doc):
    """Paths of every chain model in `doc` and of each of its trees."""
    for i, f in enumerate(doc["fitted"]):
        for j, m in f["state"].get("models", {}).items():
            path = ("fitted", i, "state", "models", j)
            yield path
            for k in range(len(m.get("trees", []))):
                yield (*path, "trees", k)


def _get(doc, path):
    for k in path:
        doc = doc[k]
    return doc


def _number_paths(node, path=()):
    """Paths of the numbers (not bools) in `node`."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        if type(node) in (int, float):
            yield path
        return
    for k, v in items:
        yield from _number_paths(v, (*path, k))


@st.composite
def mutations(draw, doc, roots=((),)):
    """One mutation of `doc`, as (op, path, new value); all but a rename
    are at or below a path drawn from `roots`."""
    op = draw(st.sampled_from(
        ["delete", "retype", "nan", "negative", "rename", "type"]))
    if op == "rename":
        columns = [s["name"] for s in doc["schema"]]
        path = draw(st.sampled_from(list(_column_references(doc, columns))))
        return op, path, draw(st.sampled_from(columns + ["zz"]))
    root = path = draw(st.sampled_from(roots))
    node = doc
    for k in root:
        node = node[k]
    if op == "type":
        path = draw(st.sampled_from(list(_number_paths(node, root))))
        v = _get(doc, path)
        return op, path, draw(st.sampled_from(
            [repr(v), True, False] + [float(v)] * (type(v) is int)))
    # descend at least one level, then stop or go on at random
    while isinstance(node, (dict, list)) and node and (
        path == root or draw(st.booleans())
    ):
        keys = list(node) if isinstance(node, dict) else range(len(node))
        key = draw(st.sampled_from(keys))
        path, node = (*path, key), node[key]
    if op == "delete":
        return op, path, DELETE
    if op == "nan":
        return op, path, math.nan
    if op == "negative":
        # a retyped value is never a negative int: seeds, counts and
        # indices take none
        return op, path, draw(st.integers(max_value=-1))
    others = [v for v in OTHER_TYPES if _json_type(v) is not _json_type(node)]
    return op, path, draw(st.sampled_from(others))


def _mutate(doc, path, value):
    *parents, key = path
    node = _get(doc, parents)
    if value is DELETE:
        del node[key]
    else:
        node[key] = value


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _same_cell(got: str, want: str) -> bool:
    try:
        return float(got) == float(want)
    except ValueError:
        return got == want


def _check_damaged_plan(plan_and_csv, tmp_path_factory, data, roots=((),)):
    plan, csv_path = plan_and_csv
    with open(plan) as fh:
        doc = json.load(fh)
    op, path, value = data.draw(mutations(doc, roots))
    _mutate(doc, path, value)
    work = tmp_path_factory.mktemp("mutated")
    pipe, out = work / "pipe.json", work / "out.csv"
    pipe.write_text(json.dumps(doc))

    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(stderr):
        rc = main(["apply", "--pipeline", str(pipe), "--data", csv_path,
                   "--out", str(out)])
    err = stderr.getvalue()
    assert rc in (0, 3), err
    assert "Traceback" not in err
    if rc:
        assert "error" in json.loads(err.strip().splitlines()[-1])
        return
    if op == "type":
        blob = pipe.read_bytes()
        assert serialize_pipeline(deserialize_pipeline(blob)) == json.dumps(
            doc, sort_keys=True, separators=(",", ":"),
            allow_nan=False).encode()
    header, rows = _read_csv(out)
    in_header, in_rows = _read_csv(csv_path)
    for j, name in enumerate(header):
        i = in_header.index(name)
        for got, row in zip((r[j] for r in rows), in_rows):
            assert got != "", name
            if row[i] != "":
                assert _same_cell(got, row[i]), name


# an imputer's spec (its seed, say) is read only at serving time, and a
# descent from the top rarely reaches it, so each spec is a root too
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_damaged_plan_is_refused_or_served_completely(
    mixed_plan, tmp_path_factory, data
):
    with open(mixed_plan[0]) as fh:
        n_fitted = len(json.load(fh)["fitted"])
    roots = ((), *(("fitted", i, "spec") for i in range(n_fitted)))
    _check_damaged_plan(mixed_plan, tmp_path_factory, data, roots)


# most mutations land in a chain model or one of its trees: a child index
# that points back up a tree would loop forever at serving time, so the
# loader must refuse it
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_damaged_tree_plan_is_refused_or_served_completely(
    tree_plan, tmp_path_factory, data
):
    with open(tree_plan[0]) as fh:
        roots = ((), *_chain_roots(json.load(fh)))
    _check_damaged_plan(tree_plan, tmp_path_factory, data, roots)


def _apply_plan_doc(doc, tmp_path):
    """`imputeq apply` of plan document `doc` on the mixed table: its exit
    code and stderr."""
    pipe = tmp_path / "pipe.json"
    pipe.write_text(json.dumps(doc))
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(stderr):
        rc = main(["apply", "--pipeline", str(pipe),
                   "--data", str(DATA / "mixed.csv"),
                   "--out", str(tmp_path / "out.csv")])
    return rc, stderr.getvalue()


# the committed tree plan keeps every column; "b" is the last one fitted
@pytest.mark.parametrize("drop_list, exit_code", [
    (["b"], 0),
    (["nope"], 3),
    ([5], 3),
    (["b", "b"], 3),
    ("b", 3),
])
def test_drop_list_names_schema_columns_once(drop_list, exit_code, tmp_path):
    with open(DATA / "tree_plan_v2.json") as fh:
        doc = json.load(fh)
    doc["fitted"] = [f for f in doc["fitted"] if f["target_column"] != "b"]
    doc["drop_list"] = drop_list
    rc, err = _apply_plan_doc(doc, tmp_path)
    assert rc == exit_code, err
    if rc:
        error = json.loads(err.strip().splitlines()[-1])
        assert error["error"] == "CorruptModel"
        assert "drop_list" in error["message"]


# a schema that names a column twice: the later entry is refused, wherever
# the earlier one stands
@pytest.mark.parametrize("copy_of, at, where", [
    (0, 5, "schema[5].name"),
    (4, 1, "schema[5].name"),
    (2, 3, "schema[3].name"),
])
def test_schema_names_each_column_once(copy_of, at, where, tmp_path):
    with open(DATA / "tree_plan_v2.json") as fh:
        doc = json.load(fh)
    doc["schema"].insert(at, dict(doc["schema"][copy_of]))
    rc, err = _apply_plan_doc(doc, tmp_path)
    assert rc == 3, err
    error = json.loads(err.strip().splitlines()[-1])
    assert error["error"] == "CorruptModel"
    assert error["message"].startswith(where + ":"), error


# a value of another type that the readers once coerced or passed through:
# each must be refused at its document path
@pytest.mark.parametrize("path, value, where", [
    (("fitted", 2, "state", "fill"), "2.5", "fitted[2].state.fill"),
    (("fitted", 2, "state", "fill"), True, "fitted[2].state.fill"),
    (("fitted", 3, "state", "observed"), ["1.5", True, 2.0],
     "fitted[3].state.observed"),
    (("fitted", 3, "observed_value_set"), ["0.0", "1.0", "2.0"],
     "fitted[3].observed_value_set"),
    (("fitted", 0, "state", "models", "0", "seed"), "7",
     "fitted[0].state.models.0.seed"),
    (("fitted", 1, "state", "models", "0", "learning_rate"), "0.1",
     "fitted[1].state.models.0.learning_rate"),
    (("fitted", 0, "state", "models", "0", "trees", 0, "feature", 0), 3.0,
     "fitted[0].state.models.0.trees[0].feature"),
    (("fitted", 0, "state", "visit"), lambda v: [j + 0.5 for j in v],
     "fitted[0].state.visit[0]"),
    (("schema", 3, "labels"), {"0": "blue", "1": "green", "0_2": "red"},
     "schema[3].labels.0_2"),
    (("schema", 3, "labels"), {"0": "blue", " 1": "green", "2": "red"},
     "schema[3].labels. 1"),
    (("fitted", 0, "state", "models", "0", "max_depth"), "x",
     "fitted[0].state.models.0.max_depth"),
    (("fitted", 0, "state", "models", "0"), lambda m: m["trees"][0],
     "fitted[0].state.models.0"),
], ids=[
    "fill-numeric-string", "fill-true", "observed-strings-and-bool",
    "observed_value_set-strings", "model_seed-string",
    "learning_rate-string", "tree_feature-float", "visit-halves",
    "label_key-underscore", "label_key-space", "max_depth-string",
    "bare-tree-model",
])
def test_value_of_another_type_is_refused_at_its_path(path, value, where,
                                                      tmp_path):
    with open(DATA / "tree_plan_v2.json") as fh:
        doc = json.load(fh)
    _mutate(doc, path, value(_get(doc, path)) if callable(value) else value)
    rc, err = _apply_plan_doc(doc, tmp_path)
    assert rc == 3, err
    error = json.loads(err.strip().splitlines()[-1])
    assert error["error"] == "CorruptModel"
    assert error["message"].startswith(f"{where}: "), error["message"]


# a chain model that decodes but does not fit its chain is refused at the
# key that fails, not at the model
@pytest.mark.parametrize("path, value, where", [
    (("fitted", 0, "state", "models", "0", "trees", 0, "left", 0), 0,
     "fitted[0].state.models.0.trees[0].left"),
    (("fitted", 0, "state", "models", "0", "trees", 1, "right", 0), 99,
     "fitted[0].state.models.0.trees[1].right"),
    (("fitted", 0, "state", "models", "0", "trees", 0, "feature", 0), 4,
     "fitted[0].state.models.0.trees[0].feature"),
    (("fitted", 0, "state", "models", "0", "trees", 0, "threshold"),
     lambda v: v[:-1], "fitted[0].state.models.0.trees[0].threshold"),
    (("fitted", 0, "state", "models", "0", "trees"), [],
     "fitted[0].state.models.0.trees"),
    (("fitted", 1, "state", "models", "0", "loss"), "logistic",
     "fitted[1].state.models.0.loss"),
    (("fitted", 1, "state", "models", "0", "trees", 0, "value"), [],
     "fitted[1].state.models.0.trees[0].value"),
], ids=[
    "left-points-back", "right-past-the-end", "feature-not-a-predictor",
    "threshold-one-short", "forest-without-trees", "gbt-logistic",
    "value-empty",
])
def test_chain_model_fault_is_refused_at_its_key(path, value, where,
                                                 tmp_path):
    with open(DATA / "tree_plan_v2.json") as fh:
        doc = json.load(fh)
    _mutate(doc, path, value(_get(doc, path)) if callable(value) else value)
    rc, err = _apply_plan_doc(doc, tmp_path)
    assert rc == 3, err
    error = json.loads(err.strip().splitlines()[-1])
    assert error["error"] == "CorruptModel"
    assert error["message"].startswith(f"{where}: "), error["message"]
