"""Typed column-major tables with explicit missing masks.

The data model is deliberately small: a :class:`Table` is an ordered list of
:class:`Column` objects sharing one row count.  Every column carries a boolean
mask (``True`` = missing) next to its values, so missingness survives every
transformation instead of being squeezed into sentinel values.  Tables are
treated as immutable: operations that change data return new tables.

Raw CSV input may contain string columns; those keep an object-dtype value
array until :func:`label_encode` maps them to integer codes with a stored
label dictionary.  All downstream numerics (kind inference, imputation,
scoring) expect encoded tables.
"""

from __future__ import annotations

import csv
import enum
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DataIoError,
    DegenerateInput,
    InvalidArgument,
    InvalidFoldCount,
    ParseError,
    RaggedRows,
)

DEFAULT_MISSING_SENTINELS = ("", "NA", "NaN", "?")


class ColumnKind(enum.Enum):
    CONTINUOUS = "continuous"
    DISCRETE = "discrete"
    BINARY = "binary"
    CATEGORICAL = "categorical"


@dataclass(frozen=True)
class Column:
    """One feature: values, missing mask, inferred kind, optional labels.

    ``values`` is float64 for encoded columns (np.nan at masked positions) or
    an object array of strings for raw, not-yet-encoded categorical input.
    ``labels`` maps integer codes to the original strings for columns that
    went through label encoding.
    """

    name: str
    values: np.ndarray
    mask: np.ndarray
    kind: ColumnKind | None = None
    labels: dict[int, str] | None = None

    def __post_init__(self):
        if len(self.values) != len(self.mask):
            raise InvalidArgument(
                f"column {self.name!r}: values and mask lengths differ"
            )

    @property
    def n_rows(self) -> int:
        return len(self.values)

    @property
    def is_encoded(self) -> bool:
        return self.values.dtype != object

    def observed_values(self) -> np.ndarray:
        return self.values[~self.mask]

    def n_missing(self) -> int:
        return int(self.mask.sum())

    def take(self, rows: np.ndarray) -> "Column":
        return replace(self, values=self.values[rows], mask=self.mask[rows])


@dataclass(frozen=True)
class Table:
    columns: tuple[Column, ...]
    n_rows: int = field(default=-1)

    def __post_init__(self):
        n = self.n_rows
        if n < 0:
            n = self.columns[0].n_rows if self.columns else 0
            object.__setattr__(self, "n_rows", n)
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise InvalidArgument("duplicate column names")
        for c in self.columns:
            if c.n_rows != n:
                raise InvalidArgument(
                    f"column {c.name!r} has {c.n_rows} rows, table has {n}"
                )

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def column(self, name: str) -> Column:
        for c in self.columns:
            if c.name == name:
                return c
        raise KeyError(name)

    def select_columns(self, names: list[str]) -> "Table":
        return Table(tuple(self.column(n) for n in names))

    def select_rows(self, rows: np.ndarray) -> "Table":
        rows = np.asarray(rows)
        return Table(tuple(c.take(rows) for c in self.columns), len(rows))

    def with_column(self, col: Column) -> "Table":
        """Return a table where the column of the same name is replaced.
        Only the new column is checked: the others passed when `self` was
        built."""
        if col.name not in self.column_names:
            raise KeyError(col.name)
        if col.n_rows != self.n_rows:
            raise InvalidArgument(f"column {col.name!r} has {col.n_rows} "
                                  f"rows, table has {self.n_rows}")
        t = object.__new__(Table)
        object.__setattr__(t, "columns", tuple(
            col if c.name == col.name else c for c in self.columns))
        object.__setattr__(t, "n_rows", self.n_rows)
        return t

    def total_missing(self) -> int:
        return sum(c.n_missing() for c in self.columns)

    def missing_cell_fraction(self) -> float:
        cells = self.n_rows * len(self.columns)
        return self.total_missing() / cells if cells else 0.0


def load_csv(path, missing_sentinels=DEFAULT_MISSING_SENTINELS) -> Table:
    """Read an RFC-4180 style CSV (header required) into a raw Table; a
    leading UTF-8 byte-order mark, as spreadsheets write, is skipped.

    Cells matching a missing sentinel are masked, and so are numeric cells
    that parse as NaN or infinity.  A column is parsed as numeric when at
    least one non-missing cell parses as a number; a non-parseable cell in
    such a column raises :class:`ParseError`.  Columns with no numeric cells
    stay as strings for later label encoding.  No column has a kind until
    :func:`infer_column_kinds` runs.  A header that names a column twice
    raises :class:`DataIoError`.
    """
    sentinels = set(missing_sentinels)
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataIoError(f"{path}: empty file, header required") from None
            rows = list(reader)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataIoError(f"cannot read {path}: {exc}") from exc

    header = [h.strip() for h in header]
    if len(set(header)) != len(header):
        name = next(h for i, h in enumerate(header) if h in header[:i])
        raise DataIoError(f"{path}: column {name!r} is repeated in the "
                          "header")
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise RaggedRows(
                f"row {i + 1} has {len(row)} fields, header has {len(header)}"
            )

    n = len(rows)
    columns = []
    for name, cells in zip(header, zip(*rows) if rows else [()] * len(header)):
        # each distinct cell is stripped, checked and parsed once; `codes`
        # gives every row the index of its cell among the distinct ones
        index = {cell: k for k, cell in enumerate(dict.fromkeys(cells))}
        codes = np.fromiter(map(index.__getitem__, cells), np.intp, n)
        distinct = [cell.strip() for cell in index]
        missing = np.array([cell in sentinels for cell in distinct],
                           dtype=bool)
        numbers = [None if m else _number(cell)
                   for cell, m in zip(distinct, missing.tolist())]
        numeric = np.array([x is not None for x in numbers], dtype=bool)
        if not numeric.any():
            strings = np.array(distinct, dtype=object)
            strings[missing] = None
            columns.append(Column(name, strings[codes], missing[codes]))
            continue
        bad = (~numeric & ~missing)[codes]
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise ParseError(i, name, distinct[codes[i]])
        parsed = np.array([np.nan if x is None else x for x in numbers],
                          dtype=float)
        nonfinite = ~np.isfinite(parsed)
        parsed[nonfinite] = np.nan
        columns.append(
            Column(name, parsed[codes], (missing | nonfinite)[codes]))
    return Table(tuple(columns), n)


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def write_csv(table: Table, path) -> None:
    """Write a table to CSV, decoding labeled columns and leaving missing
    cells empty."""
    cols = [_csv_cells(c) for c in table.columns]
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(table.column_names)
            writer.writerows(zip(*cols) if cols else [()] * table.n_rows)
    except OSError as exc:
        raise DataIoError(f"cannot write {path}: {exc}") from exc


_NO_LABEL = object()


def _csv_cells(c: Column) -> list[str]:
    """The CSV cells of column `c`, one per row: empty when masked, else
    the label of the code, the raw string, or the number written as an
    integer when it is one and with 12 significant digits otherwise.  An
    encoded column formats each distinct value once; an unmasked NaN or
    infinity in one is a `DegenerateInput`."""
    if not c.is_encoded:
        return ["" if m else str(v) for v, m in
                zip(c.values.tolist(), c.mask.tolist())]
    observed = c.values[~c.mask]
    bad = ~np.isfinite(observed)
    if bad.any():
        row = np.flatnonzero(~c.mask)[bad.argmax()]
        raise DegenerateInput(
            f"column {c.name!r}: row {row + 1} holds {c.values[row]}, which "
            "is not marked missing and has no CSV cell")
    # distinct by bit pattern: -0.0 and 0.0 write differently as an
    # unlabelled code ("-0.0", "0.0")
    keys = observed.view(np.int64) if observed.dtype == np.float64 else observed
    _, first, codes = np.unique(keys, return_index=True, return_inverse=True)
    distinct = observed[first]
    if c.labels is not None:
        texts = [c.labels.get(int(v), _NO_LABEL) for v in distinct.tolist()]
        texts = [str(distinct[k]) if t is _NO_LABEL else t
                 for k, t in enumerate(texts)]
    else:
        texts = [str(int(v)) if v == int(v) else "%.12g" % v
                 for v in map(float, distinct.tolist())]
    # the last text, "", is every masked cell's
    at = np.full(c.n_rows, len(texts))
    at[~c.mask] = codes
    return np.array(texts + [""], dtype=object)[at].tolist()


def label_encode(table: Table) -> Table:
    """Map string columns to integer codes 0..V-1 in first-appearance order.

    Already-numeric columns pass through unchanged (no dictionary).  The
    mapping is deterministic for a fixed input; decoding is the stored
    ``labels`` dictionary on each encoded column.
    """
    out = []
    for c in table.columns:
        if c.is_encoded:
            out.append(c)
            continue
        codes: dict[str, int] = {}
        values = np.full(c.n_rows, np.nan)
        for i in range(c.n_rows):
            if c.mask[i]:
                continue
            cell = c.values[i]
            if cell not in codes:
                codes[cell] = len(codes)
            values[i] = codes[cell]
        labels = {v: k for k, v in codes.items()}
        out.append(replace(c, values=values, labels=labels))
    return Table(tuple(out), table.n_rows)


MIN_LEVEL_COUNT = 5  # count each numeric value needs for a non-continuous kind


def infer_column_kinds(table: Table) -> Table:
    """Assign a :class:`ColumnKind` to every column.

    All-missing columns are flagged Continuous by convention.  Otherwise a
    column carrying a label dictionary is Binary with two distinct values
    and Categorical with any other number.  A plain numeric column is
    non-continuous only when every distinct observed value occurs at least
    :data:`MIN_LEVEL_COUNT` times; then it is Binary with two distinct
    values and Discrete otherwise (its values have a natural order), and a
    constant one is Discrete.  A kind that a column already carries is
    kept.
    """
    out = []
    for c in table.columns:
        if not c.is_encoded:
            raise InvalidArgument(
                f"column {c.name!r} is not encoded; run label_encode first"
            )
        if c.kind is not None:
            out.append(c)
            continue
        obs = c.observed_values()
        if obs.size == 0:
            out.append(replace(c, kind=ColumnKind.CONTINUOUS))
            continue
        uniq, counts = np.unique(obs, return_counts=True)
        if (c.labels is None and counts.min() < MIN_LEVEL_COUNT
                and len(uniq) > 1):
            kind = ColumnKind.CONTINUOUS
        elif len(uniq) == 2:
            kind = ColumnKind.BINARY
        elif c.labels is not None:
            kind = ColumnKind.CATEGORICAL
        else:
            kind = ColumnKind.DISCRETE
        out.append(replace(c, kind=kind))
    return Table(tuple(out), table.n_rows)


def missing_fraction(c: Column) -> float:
    """Fraction of masked cells; completeness is 1 minus this value."""
    if c.n_rows == 0:
        raise DegenerateInput(f"column {c.name!r} has no rows")
    return c.n_missing() / c.n_rows


def completeness(c: Column) -> float:
    return 1.0 - missing_fraction(c)


def inject_mcar(
    table: Table, rate: float, seed: int, protect: set[str] | None = None
) -> Table:
    """Mask each observed cell independently with probability ``rate``.

    Existing masks are preserved; columns named in ``protect`` are left
    untouched.  Deterministic per seed.
    """
    if not 0.0 <= rate < 1.0:
        raise InvalidArgument(f"rate must be in [0, 1), got {rate}")
    protect = protect or set()
    rng = np.random.default_rng(seed)
    out = []
    for c in table.columns:
        if c.name in protect or rate == 0.0:
            out.append(c)
            continue
        hit = rng.random(c.n_rows) < rate
        new_mask = c.mask | (hit & ~c.mask)
        values = c.values.copy()
        if c.is_encoded:
            values[new_mask] = np.nan
        else:
            values[new_mask] = None
        out.append(replace(c, values=values, mask=new_mask))
    return Table(tuple(out), table.n_rows)


def kfold_split(n_rows: int, k: int, seed: int) -> tuple:
    """Shuffled partition into k folds with test sizes differing by <= 1:
    the sorted (train, test) rows of each fold."""
    if k < 2 or k > n_rows:
        raise InvalidFoldCount(f"k={k} outside [2, {n_rows}]")
    rng = np.random.default_rng(seed)
    chunks = np.array_split(rng.permutation(n_rows), k)
    return tuple((np.sort(np.concatenate(chunks[:i] + chunks[i + 1:])),
                  np.sort(test)) for i, test in enumerate(chunks))
