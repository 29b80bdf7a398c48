import csv
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imputeq.errors import (
    DataIoError,
    DegenerateInput,
    InvalidArgument,
    InvalidFoldCount,
    ParseError,
    RaggedRows,
)
from imputeq.table import (
    Column,
    ColumnKind,
    Table,
    completeness,
    infer_column_kinds,
    inject_mcar,
    kfold_split,
    label_encode,
    load_csv,
    missing_fraction,
    write_csv,
)


def make_column(name, values, kind=None, labels=None):
    values = np.asarray(values, dtype=float)
    mask = np.isnan(values)
    return Column(name, values, mask, kind=kind, labels=labels)


class TestLoadCsv:
    def test_basic_numeric_and_sentinels(self, tmp_path):
        p = tmp_path / "t.csv"
        # the second file starts with the byte-order mark that spreadsheets
        # write in front of a UTF-8 CSV
        for bom in (b"", b"\xef\xbb\xbf"):
            p.write_bytes(bom + b"a,b\n1,x\n2,y\n?,x\nNA,\n")
            t = load_csv(p)
            assert t.column_names == ["a", "b"]
            a = t.column("a")
            assert a.is_encoded
            assert list(a.mask) == [False, False, True, True]
            assert a.values[0] == 1.0 and np.isnan(a.values[2])
            b = t.column("b")
            assert not b.is_encoded
            assert list(b.mask) == [False, False, False, True]
            assert b.values[1] == "y"

    def test_non_finite_cells_are_missing(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a\n1\nnan\ninf\n-inf\n2\n")
        a = load_csv(p).column("a")
        assert list(a.mask) == [False, True, True, True, False]
        assert np.isnan(a.values[a.mask]).all()
        assert np.isfinite(a.observed_values()).all()

    def test_parse_error_position(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a\n1\n2\noops\n")
        with pytest.raises(ParseError) as exc:
            load_csv(p)
        assert exc.value.row == 2
        assert exc.value.col == "a"
        assert exc.value.cell == "oops"

    def test_ragged_rows(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n3\n")
        with pytest.raises(RaggedRows):
            load_csv(p)

    @pytest.mark.parametrize("header", ["a,a,b", "a,b, a", "b,a,a"])
    def test_repeated_header_is_a_data_error(self, tmp_path, header):
        p = tmp_path / "t.csv"
        p.write_text(header + "\n1,2,3\n")
        with pytest.raises(DataIoError, match="'a'"):
            load_csv(p)

    def test_roundtrip_through_write(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1.5,x\n,y\n2,x\n")
        t = label_encode(load_csv(p))
        out = tmp_path / "o.csv"
        write_csv(t, out)
        t2 = label_encode(load_csv(out))
        for name in t.column_names:
            c1, c2 = t.column(name), t2.column(name)
            assert list(c1.mask) == list(c2.mask)
            np.testing.assert_allclose(
                c1.values[~c1.mask], c2.values[~c2.mask]
            )


def write_csv_per_cell(table, path):
    """The cell-by-cell writer that `write_csv` replaced, kept as its
    oracle."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.column_names)
        for i in range(table.n_rows):
            row = []
            for c in table.columns:
                if c.mask[i]:
                    row.append("")
                elif c.labels is not None:
                    code = int(c.values[i])
                    row.append(c.labels.get(code, str(c.values[i])))
                elif not c.is_encoded:
                    row.append(str(c.values[i]))
                else:
                    v = float(c.values[i])
                    row.append(str(int(v)) if v == int(v) else "%.12g" % v)
            writer.writerow(row)


NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-10**6, 10**6).map(float),
    st.sampled_from([-0.0, 0.0, 0.1 + 0.2, 1 / 3, 1e-7, 1e12, 123456789012.0,
                     2.5e15, 1e20, -123456.789012345]),
)
# codes 3 and 4 have no label in LABELS and write as numbers; a column
# takes a random part of it, so code 0 (and -0.0) can be unlabelled too
LABELS = {0: "red", 1: "dark, green", 2: 'say "blue"'}
CODES = st.sampled_from([0.0, -0.0, 1.0, 1.5, 2.0, 3.0, 4.0])


def repeating(cells):
    """Cells drawn from a small pool of `cells`, so that a column repeats
    its values as real columns do."""
    return st.lists(cells, min_size=1, max_size=4).flatmap(st.sampled_from)


@st.composite
def csv_tables(draw):
    n = draw(st.integers(0, 12))
    cols = []
    for j in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["number", "labelled", "raw"]))
        mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)),
                        dtype=bool)
        labels = None
        if kind == "raw":
            strings = draw(st.sampled_from([st.text(max_size=6),
                                            repeating(st.text(max_size=6))]))
            values = np.array(draw(st.lists(strings, min_size=n, max_size=n)),
                              dtype=object)
            values[mask] = None
        else:
            if kind == "number":
                cells = draw(st.sampled_from([NUMBERS, repeating(NUMBERS)]))
            else:
                cells = CODES
                kept = draw(st.sets(st.sampled_from(sorted(LABELS))))
                labels = {k: v for k, v in LABELS.items() if k in kept}
            values = np.array(draw(st.lists(cells, min_size=n, max_size=n)),
                              dtype=float)
            values[mask] = np.nan
        cols.append(Column(f"c{j}", values, mask, labels=labels))
    return Table(tuple(cols), n)


class TestWriteCsv:
    @settings(max_examples=300, deadline=None)
    @given(csv_tables())
    def test_bytes_equal_the_per_cell_writer(self, t):
        with tempfile.TemporaryDirectory() as d:
            got, want = os.path.join(d, "got.csv"), os.path.join(d, "want.csv")
            write_csv(t, got)
            write_csv_per_cell(t, want)
            with open(got, "rb") as a, open(want, "rb") as b:
                assert a.read() == b.read()

    @pytest.mark.parametrize("labels", [None, {1: "one"}])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_unmasked_non_finite_is_degenerate(self, tmp_path, bad, labels):
        # row 2 is masked; row 3 is the first unmasked non-finite cell
        values = np.array([1.0, np.nan, bad, bad])
        mask = np.array([False, True, False, False])
        t = Table((Column("x", values, mask, labels=labels),), 4)
        out = tmp_path / "o.csv"
        with pytest.raises(DegenerateInput, match=f"'x': row 3 holds {bad}"):
            write_csv(t, out)
        assert not out.exists()


def load_csv_per_cell(path, sentinels):
    """The parse of `load_csv` before it went by column, kept as its
    oracle; the ragged-row check comes first in both."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    header = [h.strip() for h in header]
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise RaggedRows(i + 1)
    n = len(rows)
    columns = []
    for j, name in enumerate(header):
        raw = [rows[i][j].strip() for i in range(n)]
        mask = np.array([cell in sentinels for cell in raw], dtype=bool)
        parsed = np.full(n, np.nan)
        numeric = np.zeros(n, dtype=bool)
        for i, cell in enumerate(raw):
            if mask[i]:
                continue
            try:
                parsed[i] = float(cell)
                numeric[i] = True
            except ValueError:
                pass
        if not numeric.any():
            values = np.array(
                [None if mask[i] else raw[i] for i in range(n)], dtype=object
            )
            columns.append(Column(name, values, mask))
        else:
            bad = ~numeric & ~mask
            if bad.any():
                i = int(np.flatnonzero(bad)[0])
                raise ParseError(i, name, raw[i])
            nonfinite = ~np.isfinite(parsed)
            parsed[nonfinite] = np.nan
            columns.append(Column(name, parsed, mask | nonfinite))
    return Table(tuple(columns), n)


CELLS = st.sampled_from(["", " ", "NA", " NA ", "NaN", "?", "-999", "nan",
                         "inf", "-inf", "1e400", "1", " 2.5 ", "2.5", "-0",
                         "0", "1e3", "1_000", "x", "y z", "a,b", '"q"'])
HEADER = ["a", " b", "c", "d"]


@st.composite
def csv_texts(draw):
    """A header and rows whose columns draw from a few cells each, so that
    cells repeat and whole columns can be blank, text or numbers; now and
    then one row is one field short or long."""
    width = draw(st.integers(1, len(HEADER)))
    n = draw(st.integers(0, 12))
    pools = [draw(st.lists(CELLS, min_size=1, max_size=4))
             for _ in range(width)]
    rows = [[draw(st.sampled_from(pool)) for pool in pools] for _ in range(n)]
    if rows and draw(st.integers(0, 9)) == 0:
        row = rows[draw(st.integers(0, n - 1))]
        if draw(st.booleans()):
            row.append("1")
        else:
            row.pop()
    return [HEADER[:width], *rows]


class TestLoadCsvByColumn:
    @settings(max_examples=300, deadline=None)
    @given(text=csv_texts(),
           sentinels=st.sampled_from([("", "NA", "NaN", "?"), ("", "-999")]))
    def test_tables_and_errors_equal_the_per_cell_parse(self, text,
                                                        sentinels):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "t.csv")
            with open(path, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerows(text)
            outcomes = []
            for load in (load_csv, load_csv_per_cell):
                try:
                    outcomes.append(load(path, sentinels))
                except ParseError as exc:
                    outcomes.append((exc.row, exc.col, exc.cell))
                except RaggedRows:
                    outcomes.append(RaggedRows)
        got, want = outcomes
        if not isinstance(want, Table):
            assert got == want
            return
        assert got.n_rows == want.n_rows
        for a, b in zip(got.columns, want.columns, strict=True):
            assert (a.name, a.kind, a.values.dtype) == (
                b.name, b.kind, b.values.dtype)
            np.testing.assert_array_equal(a.mask, b.mask)
            np.testing.assert_array_equal(a.values, b.values)


class TestLabelEncode:
    def test_first_appearance_order(self):
        vals = np.array(["b", "a", None, "b", "c"], dtype=object)
        mask = np.array([False, False, True, False, False])
        t = label_encode(Table((Column("x", vals, mask),)))
        c = t.column("x")
        assert c.labels == {0: "b", 1: "a", 2: "c"}
        np.testing.assert_array_equal(c.values[~c.mask], [0, 1, 0, 2])

    def test_numeric_passthrough(self):
        c = make_column("y", [1.0, 2.0])
        t = label_encode(Table((c,)))
        assert t.column("y").labels is None


class TestKindInference:
    def test_rule_of_five_boundary(self):
        # every distinct value occurring >= 5 times -> non-continuous
        c = make_column("x", [0.0] * 5 + [1.0] * 5)
        t = infer_column_kinds(Table((c,)))
        assert t.column("x").kind is ColumnKind.BINARY
        # one value short -> continuous
        c2 = make_column("x", [0.0] * 5 + [1.0] * 4)
        t2 = infer_column_kinds(Table((c2,)))
        assert t2.column("x").kind is ColumnKind.CONTINUOUS

    def test_discrete_vs_categorical(self):
        plain = make_column("d", [1.0] * 5 + [2.0] * 5 + [3.0] * 5)
        labeled = make_column(
            "c", [0.0] * 5 + [1.0] * 5 + [2.0] * 5,
            labels={0: "r", 1: "g", 2: "b"},
        )
        t = infer_column_kinds(Table((plain, labeled)))
        assert t.column("d").kind is ColumnKind.DISCRETE
        assert t.column("c").kind is ColumnKind.CATEGORICAL

    def test_labelled_column_is_never_continuous(self):
        # levels rarer than the rule of five keep a labelled column's kind
        codes = [0.0] * 2 + [1.0] * 3 + [2.0] * 2
        labels = {0: "r", 1: "g", 2: "b"}
        c = make_column("c", codes, labels=labels)
        f = make_column("f", codes[:5], labels={0: "n", 1: "y"})
        assert (infer_column_kinds(Table((c,))).column("c").kind
                is ColumnKind.CATEGORICAL)
        assert (infer_column_kinds(Table((f,))).column("f").kind
                is ColumnKind.BINARY)

    def test_constant_is_discrete(self):
        c = make_column("k", [7.0] * 12)
        assert (
            infer_column_kinds(Table((c,))).column("k").kind
            is ColumnKind.DISCRETE
        )

    def test_all_missing_defaults_continuous(self):
        c = make_column("gone", [np.nan] * 6)
        assert (
            infer_column_kinds(Table((c,))).column("gone").kind
            is ColumnKind.CONTINUOUS
        )

    def test_hint_wins(self):
        c = make_column("x", [0.0] * 50 + [1.0] * 50, kind=ColumnKind.CONTINUOUS)
        assert (
            infer_column_kinds(Table((c,))).column("x").kind
            is ColumnKind.CONTINUOUS
        )

    def test_row_permutation_invariant(self):
        rng = np.random.default_rng(0)
        vals = np.concatenate([np.zeros(6), np.ones(7), np.full(5, 2.0)])
        c = make_column("x", vals)
        t = Table((c,))
        k1 = infer_column_kinds(t).column("x").kind
        perm = rng.permutation(len(vals))
        k2 = infer_column_kinds(t.select_rows(perm)).column("x").kind
        assert k1 == k2

    def test_mask_values_ignored(self):
        # masked cells carry nan and must not create a phantom level
        vals = np.array([0.0] * 5 + [1.0] * 5 + [np.nan] * 3)
        c = make_column("x", vals)
        assert (
            infer_column_kinds(Table((c,))).column("x").kind
            is ColumnKind.BINARY
        )


class TestMissingness:
    def test_missing_fraction(self):
        c = make_column("x", [1.0, np.nan, 3.0, np.nan])
        assert missing_fraction(c) == 0.5
        assert completeness(c) == 0.5

    def test_inject_mcar_rate(self):
        cols = tuple(
            make_column(f"f{i}", np.arange(4000, dtype=float)) for i in range(2)
        )
        t = inject_mcar(Table(cols), 0.3, seed=11)
        for name in ("f0", "f1"):
            frac = missing_fraction(t.column(name))
            assert abs(frac - 0.3) < 0.03
            c = t.column(name)
            assert np.isnan(c.values[c.mask]).all()

    def test_inject_mcar_preserves_existing(self):
        c = make_column("x", [np.nan, 1.0, 2.0, 3.0])
        t = inject_mcar(Table((c,)), 0.5, seed=3)
        assert t.column("x").mask[0]

    def test_inject_mcar_deterministic(self):
        t = Table((make_column("x", np.arange(100, dtype=float)),))
        a = inject_mcar(t, 0.4, seed=5).column("x").mask
        b = inject_mcar(t, 0.4, seed=5).column("x").mask
        np.testing.assert_array_equal(a, b)

    def test_bad_rate(self):
        t = Table((make_column("x", [1.0]),))
        with pytest.raises(InvalidArgument):
            inject_mcar(t, 1.0, seed=0)


class TestKfold:
    def test_partition_property(self):
        split = kfold_split(103, 5, seed=2)
        seen = np.concatenate([test for _, test in split])
        assert sorted(seen) == list(range(103))
        sizes = [len(test) for _, test in split]
        assert max(sizes) - min(sizes) <= 1
        for train, test in split:
            assert set(train) & set(test) == set()
            assert len(train) + len(test) == 103

    def test_deterministic(self):
        a = kfold_split(50, 4, seed=9)
        b = kfold_split(50, 4, seed=9)
        for (tr1, te1), (tr2, te2) in zip(a, b):
            np.testing.assert_array_equal(te1, te2)
            np.testing.assert_array_equal(tr1, tr2)

    def test_bad_k(self):
        with pytest.raises(InvalidFoldCount):
            kfold_split(10, 1, seed=0)
        with pytest.raises(InvalidFoldCount):
            kfold_split(10, 11, seed=0)


class TestTableOps:
    def test_with_column_replaces(self):
        t = Table((make_column("a", [1.0, 2.0]), make_column("b", [3.0, 4.0])))
        t2 = t.with_column(make_column("b", [9.0, 9.0]))
        assert t2.column("b").values[0] == 9.0
        assert t.column("b").values[0] == 3.0
        assert t2.n_rows == 2 and t2.column_names == ["a", "b"]

    def test_with_column_refuses_an_unknown_name_or_length(self):
        t = Table((make_column("a", [1.0, 2.0]), make_column("b", [3.0, 4.0])))
        with pytest.raises(KeyError):
            t.with_column(make_column("c", [9.0, 9.0]))
        with pytest.raises(InvalidArgument, match="'b' has 3 rows"):
            t.with_column(make_column("b", [9.0, 9.0, 9.0]))
        with pytest.raises(InvalidArgument, match="'a' has 1 rows"):
            t.with_column(make_column("a", [9.0]))

    def test_duplicate_names_rejected(self):
        with pytest.raises(InvalidArgument):
            Table((make_column("a", [1.0]), make_column("a", [2.0])))

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidArgument):
            Table((make_column("a", [1.0]), make_column("b", [1.0, 2.0])))

    def test_missing_cell_fraction(self):
        t = Table(
            (make_column("a", [1.0, np.nan]), make_column("b", [np.nan, np.nan]))
        )
        assert t.missing_cell_fraction() == 0.75
