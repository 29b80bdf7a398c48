"""`imputeq apply` on damaged pipeline files.

Each example makes one mutation of a valid plan: one that uses kNN, a
ridge chain, the mean and empirical sampling (the `mixed_plan` fixture),
or one with forest and GBT chains (`tree_plan`).  The mutation deletes a
key or a list entry, retypes a value, writes NaN or a negative integer, or
renames a column reference.  The command must then either refuse the plan
as a data error (exit 3, one JSON error object as the last stderr line, no
traceback) or serve it (exit 0) with every kept column complete and every
observed input cell unchanged.
"""

import contextlib
import csv
import io
import json
import math

from hypothesis import given, settings, strategies as st

from imputeq.cli import main

# a value of every JSON type; a retyped value takes one of another type
OTHER_TYPES = ["x", 7, [], {}, None]
DELETE = object()  # the new value of a mutation that removes the value


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


@st.composite
def mutations(draw, doc, roots=((),)):
    """One mutation of `doc`, as (path, new value); all but a rename are
    at or below a path drawn from `roots`."""
    op = draw(st.sampled_from(
        ["delete", "retype", "nan", "negative", "rename"]))
    if op == "rename":
        columns = [s["name"] for s in doc["schema"]]
        path = draw(st.sampled_from(list(_column_references(doc, columns))))
        return path, draw(st.sampled_from(columns + ["zz"]))
    root = path = draw(st.sampled_from(roots))
    node = doc
    for k in root:
        node = node[k]
    # descend at least one level, then stop or go on at random
    while isinstance(node, (dict, list)) and node and (
        path == root or draw(st.booleans())
    ):
        keys = list(node) if isinstance(node, dict) else range(len(node))
        key = draw(st.sampled_from(keys))
        path, node = (*path, key), node[key]
    if op == "delete":
        return path, DELETE
    if op == "nan":
        return path, math.nan
    if op == "negative":
        # a retyped value is never a negative int: seeds, counts and
        # indices take none
        return path, draw(st.integers(max_value=-1))
    others = [v for v in OTHER_TYPES if _json_type(v) is not _json_type(node)]
    return path, draw(st.sampled_from(others))


def _mutate(doc, path, value):
    *parents, key = path
    node = doc
    for k in parents:
        node = node[k]
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
    path, value = data.draw(mutations(doc, roots))
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
