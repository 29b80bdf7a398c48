"""`apply_pipeline` against the per-step serving path it replaced.

The oracle encodes every column on its own, cell by cell, into a `Column`,
then folds `transform` over the plan's imputers, one table per step, and
keeps the columns off the drop list.  `apply_pipeline` must give the same
output bit for bit, the same warnings and errors, and leave its input
unchanged.  Two more tests pin the served bytes and the plan bytes of the
heart fixture.
"""

import hashlib
import json
import math
import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

from imputeq.engine import (
    AssessConfig,
    apply_pipeline,
    fit_pipeline,
    serialize_pipeline,
)
from imputeq.errors import ImputeQError, ImputeQWarning, SchemaMismatch
from imputeq.imputers import ImputerSpec, transform
from imputeq.table import (
    Column,
    ColumnKind,
    Table,
    infer_column_kinds,
    label_encode,
    load_csv,
)

from conftest import picked

ROSTER = (
    ImputerSpec("mean", "simple", {"statistic": "mean"}),
    ImputerSpec("median", "simple", {"statistic": "median"}),
    ImputerSpec("mode", "simple", {"statistic": "mode"}),
    ImputerSpec("random", "apprandom", {}),
    ImputerSpec("knn3", "knn", {"n_neighbors": 3}),
    ImputerSpec("iter_ridge", "iterative", {"estimator": "ridge"}),
    ImputerSpec("iter_gbt", "iterative", {
        "estimator": "gbt", "n_estimators": 2, "max_depth": 2,
        "max_iter": 2}),
)
KINDS = [ColumnKind.CONTINUOUS, ColumnKind.DISCRETE, ColumnKind.BINARY,
         ColumnKind.CATEGORICAL]


def oracle_encode(col: Column, schema) -> Column:
    """One input column encoded against its schema, one cell at a time: an
    unknown label, or in an encoded column a code that is not a finite
    integer of the schema, becomes a missing cell and counts in one
    warning for the column."""
    if schema.labels is None:
        if col.is_encoded:
            return Column(col.name, col.values, col.mask, kind=schema.kind,
                          labels=col.labels)
        if not col.mask.all():
            raise SchemaMismatch(
                f"column {col.name!r}: expected numeric values"
            )
        return Column(col.name, np.full(col.n_rows, np.nan), col.mask,
                      kind=schema.kind, labels=col.labels)
    code_of = {v: k for k, v in schema.labels.items()}
    values = np.full(col.n_rows, np.nan)
    mask = col.mask.copy()
    unseen = 0
    for i in range(col.n_rows):
        if mask[i]:
            continue
        cell = col.values[i]
        if not col.is_encoded:
            code = code_of.get(cell)
        elif (math.isfinite(cell) and cell == int(cell)
              and int(cell) in schema.labels):
            code = int(cell)
        else:
            code = None
        if code is None:
            unseen += 1
            mask[i] = True
        else:
            values[i] = code
    if unseen:
        warnings.warn(
            f"column {col.name!r}: {unseen} unseen categories treated as "
            "missing",
            ImputeQWarning,
        )
    return Column(col.name, values, mask, kind=schema.kind,
                  labels=schema.labels)


def oracle_apply(plan, t: Table) -> Table:
    names = [s.name for s in plan.schema]
    if set(t.column_names) != set(names):
        missing = sorted(set(names) - set(t.column_names))
        extra = sorted(set(t.column_names) - set(names))
        raise SchemaMismatch(
            f"column set differs from plan (missing: {missing}, extra: {extra})"
        )
    work = Table(tuple(oracle_encode(t.column(s.name), s)
                       for s in plan.schema), t.n_rows)
    for f in plan.fitted:
        work = transform(f, work)
    return work.select_columns(
        [n for n in names if n not in plan.drop_list])


def served(apply, plan, t):
    """What `apply` gives (the table, or the error's type and message) and
    the number of imputeq warnings it raised."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        try:
            out = apply(plan, t)
        except ImputeQError as exc:
            out = (type(exc), str(exc))
    return out, sum(issubclass(w.category, ImputeQWarning) for w in seen)


def cells(table: Table) -> list:
    """Every column of `table` as comparable values: floats by their bits."""
    def values(c):
        if c.values.dtype == object:
            return ("object", c.values.tolist())
        return (c.values.dtype.str,
                c.values.astype(float).view(np.int64).tolist())
    return [(c.name, c.kind, c.labels, values(c), c.mask.tolist())
            for c in table.columns]


@st.composite
def plans_and_inputs(draw):
    """A plan fit on a random encoded table, and an input for it: rows of
    that table, labelled columns as label strings or as codes, with
    unseen categories, blank cells and all-blank columns."""
    n = draw(st.integers(6, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = []
    for j in range(draw(st.integers(2, 4))):
        kind = draw(st.sampled_from(KINDS))
        labels = None
        if kind is ColumnKind.CONTINUOUS:
            values = np.round(rng.normal(10.0, 3.0, n), 3)
        elif kind is ColumnKind.DISCRETE:
            values = rng.integers(0, 5, n).astype(float)
        elif kind is ColumnKind.BINARY:
            values = rng.integers(0, 2, n).astype(float)
        else:
            k = draw(st.integers(2, 4))
            values = rng.integers(0, k, n).astype(float)
            labels = {c: f"c{c}" for c in range(k)}
        if (kind is not ColumnKind.CONTINUOUS and labels is None
                and draw(st.booleans())):
            labels = {int(v): f"v{int(v)}" for v in np.unique(values)}
        mask = rng.random(n) < draw(st.sampled_from([0.0, 0.2, 0.2, 0.5, 1.0]))
        values[mask] = np.nan
        cols.append(Column(f"f{j}", values, mask, kind=kind, labels=labels))
    train = Table(tuple(cols), n)
    records = [
        picked(c.name, ROSTER[rng.integers(len(ROSTER))].id,
               rng.random() < 0.8)
        for c in cols
    ]
    config = AssessConfig(imputers=ROSTER, seed=draw(st.integers(0, 99)))
    try:
        plan = fit_pipeline(train, records, config)
    except ImputeQError:
        plan = None

    rows = rng.integers(0, n, draw(st.sampled_from([1, 1, 2, n])))
    given = []
    for c in cols:
        values, mask = c.values[rows].copy(), c.mask[rows].copy()
        blank = rng.random(len(rows)) < draw(st.sampled_from([0.0, 0.3]))
        mask |= blank
        values[mask] = np.nan
        form = draw(st.sampled_from(["codes", "codes", "strings",
                                     "all_blank"]))
        if c.labels is None and form == "strings" and draw(st.integers(0, 3)):
            form = "codes"  # numbers as strings: mostly a schema mismatch
        if form == "all_blank":
            values = np.full(len(rows), None, dtype=object)
            mask = np.ones(len(rows), dtype=bool)
        elif form == "strings" and c.labels is None:
            values = np.array([None if m else str(v)
                               for v, m in zip(values, mask)], dtype=object)
        elif form == "strings":
            values = np.array([None if m else c.labels[int(v)]
                               for v, m in zip(values, mask)], dtype=object)
            unseen = ~mask & (rng.random(len(rows)) < 0.3)
            values[unseen] = "never seen"
        elif c.labels is not None:
            unseen = ~mask & (rng.random(len(rows)) < 0.3)
            values[unseen] = rng.choice([99.0, 1.5, -0.7, np.inf, np.nan,
                                         -0.0], int(unseen.sum()))
        given.append(Column(c.name, values, mask))
    order = draw(st.permutations(range(len(given))))
    return plan, Table(tuple(given[i] for i in order), len(rows))


@settings(max_examples=150, deadline=None)
@given(case=plans_and_inputs())
def test_apply_matches_the_transform_fold(case):
    plan, t = case
    if plan is None:
        return
    before = cells(t)
    got, got_warnings = served(apply_pipeline, plan, t)
    want, want_warnings = served(oracle_apply, plan, t)
    assert cells(t) == before  # the input is not changed
    assert got_warnings == want_warnings
    if isinstance(want, tuple):
        assert got == want
    else:
        assert cells(got) == cells(want)
        assert got.n_rows == want.n_rows
        for c in got.columns:  # an encoded column owns its mask
            if c.labels is not None:
                assert not np.shares_memory(c.mask, t.column(c.name).mask)


def test_non_integer_codes_are_unseen():
    train = Table((Column("c", np.array([0.0, 1.0, 2.0, 0.0, 1.0, 2.0]),
                          np.zeros(6, dtype=bool), kind=ColumnKind.CATEGORICAL,
                          labels={0: "a", 1: "b", 2: "c"}),), 6)
    plan = fit_pipeline(train, [picked("c", "mode")],
                        AssessConfig(imputers=ROSTER))
    codes = np.array([1.5, -0.7, 2.0, np.inf, np.nan, -0.0])
    given = Table((Column("c", codes, np.zeros(6, dtype=bool)),), 6)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        out = apply_pipeline(plan, given)
    assert [str(w.message) for w in seen] == [
        "column 'c': 4 unseen categories treated as missing"]
    assert seen[0].filename == __file__  # the caller of apply_pipeline
    # the four unseen cells take the mode, 0; the others keep their codes
    assert out.column("c").values.tolist() == [0.0, 0.0, 2.0, 0.0, 0.0, 0.0]
    assert not out.column("c").mask.any()


# sha256 of the heart fixture's served output, before and after serving
# became one pass: the whole table, then its first 50 rows one at a time
HEART_BATCH_SHA256 = (
    "6792cefdc5c70cd3b13e8310fee6ff5f371583fbe05c7664d195ffc51978f316")
HEART_ROWS_SHA256 = (
    "57cd709dc15a7d3925149db786e8f4e3aac3fbf7d8d9d527046cf6e2910fc059")
HEART_PLAN = {
    "age": "knn3", "sex": "random", "cp": "mode", "trestbps": "iter_ridge",
    "chol": "mean", "fbs": "random", "restecg": "median", "thalch": "knn3",
    "exang": "iter_ridge", "oldpeak": "random", "slope": "mode",
    "ca": "knn3", "thal": "random",
}


def digest(h, table: Table) -> None:
    for c in table.columns:
        h.update(c.name.encode() + b"\0" + c.kind.value.encode() + b"\0")
        h.update(c.values.astype("float64").tobytes())
        h.update(c.mask.tobytes())


def heart_plan(heart_csv):
    """The raw heart fixture table and the plan `HEART_PLAN` fits on it."""
    raw = load_csv(heart_csv)
    t = infer_column_kinds(label_encode(raw))
    records = [picked(name, chosen, name != "ca")
               for name, chosen in HEART_PLAN.items()]
    return raw, fit_pipeline(t, records, AssessConfig(imputers=ROSTER, seed=5))


def test_heart_served_bytes_are_pinned(heart_csv):
    raw, plan = heart_plan(heart_csv)
    batch = hashlib.sha256()
    digest(batch, apply_pipeline(plan, raw))
    rows = hashlib.sha256()
    for i in range(50):
        one = Table(tuple(c.take(np.array([i])) for c in raw.columns), 1)
        digest(rows, apply_pipeline(plan, one))
    assert batch.hexdigest() == HEART_BATCH_SHA256
    assert rows.hexdigest() == HEART_ROWS_SHA256


# sha256 of the heart fixture's plan bytes: the compact canonical dump of
# the document the indented writer produced (517,352 -> 135,753 bytes)
HEART_PLAN_SHA256 = (
    "ce90ab8c896d838b4a038933bfde4f25f591a7871bfc2d1f289ed997a797731f")


def test_heart_plan_bytes_are_canonical_and_pinned(heart_csv):
    _, plan = heart_plan(heart_csv)
    blob = serialize_pipeline(plan)
    assert blob == json.dumps(
        json.loads(blob), sort_keys=True, separators=(",", ":"),
        allow_nan=False,
    ).encode()
    assert hashlib.sha256(blob).hexdigest() == HEART_PLAN_SHA256
