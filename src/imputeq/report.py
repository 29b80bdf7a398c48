"""Report emission: canonical JSON documents and an SVG quality chart.

JSON is the machine-readable record; the SVG is derived presentation.  Both
are rendered with stable formatting so a seeded run writes byte-identical
files every time.
"""

from __future__ import annotations

import enum
import functools
import json
import math
import os
import tempfile
import types
import typing
from dataclasses import fields, is_dataclass
from itertools import chain, repeat
from typing import Annotated, Union
from xml.sax.saxutils import escape

import numpy as np

from .errors import InvalidArgument, SchemaError
from .table import Table

QUALITY_FORMAT = "imputeq-quality-records"
AUDIT_FORMAT = "imputeq-audit"
DOC_SCHEMA_VERSION = 1

# chart geometry (px)
AXIS_LEN = 480.0
BAR_HEIGHT = 18
BAR_GAP = 8
MARGIN_LEFT = 150
MARGIN_RIGHT = 30
MARGIN_TOP = 34
MARGIN_BOTTOM = 42

COLOR_COMPLETENESS = "#1f77b4"  # blue: observed fraction
COLOR_IMPUTATION = "#ff7f0e"  # orange: recovered fraction
COLOR_FALLBACK_NAME = "#d62728"  # red: feature forced onto random sampling
COLOR_NAME = "#333333"
COLOR_AXIS = "#666666"


def write_bytes_atomic(path: str, data: bytes) -> None:
    """Write via a sibling temp file and rename, so readers never see a
    half-written file."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".imputeq-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def loads_document(data: bytes):
    """The JSON document in `data` (UTF-8), with each non-finite token
    (`NaN`, `Infinity`, `-Infinity`) read as inf, as a number too large for
    a float (`1e400`) is: every float reader refuses an inf, so a NaN that
    a `float | None` array reads is a null."""
    return _DECODER.decode(data.decode("utf-8"))


_DECODER = json.JSONDecoder(parse_constant=lambda token: math.inf)


def dumps_canonical(doc) -> bytes:
    text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
    return (text + "\n").encode("utf-8")


# the types whose values a JSON document holds as they are (exact types:
# a subclass such as numpy's float64 takes the longer way, to the same end)
_LEAVES = frozenset({str, int, float, bool, type(None)})


def to_jsonable(x):
    """The JSON document of `x`, the one encoder of every plan, record and
    audit document: a dataclass is an object of its fields under their
    `_document_keys`, an array its `tolist()`, a tuple a list, an enum its
    value, and a dict's keys are strings.  Anything else is left as it is,
    for `json.dumps` to write or refuse."""
    if type(x) in _LEAVES:
        return x
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (list, tuple)):
        return [v if type(v) in _LEAVES else to_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): v if type(v) in _LEAVES else to_jsonable(v)
                for k, v in x.items()}
    if isinstance(x, enum.Enum):
        return x.value
    if not is_dataclass(x):
        return x
    tags, keys = _document_keys(type(x))
    doc = dict(tags)
    for name, key in keys:
        v = getattr(x, name)
        doc[key] = v if type(v) in _LEAVES else to_jsonable(v)
    return doc


@functools.cache
def _document_keys(cls) -> tuple[dict, tuple]:
    """The fixed `json_tags` of dataclass `cls`, and each field's (name,
    document key): its name, unless the class's `json_keys` maps it."""
    keys = getattr(cls, "json_keys", {})
    return getattr(cls, "json_tags", {}), tuple(
        (f.name, keys.get(f.name, f.name)) for f in fields(cls))


class Jsonable:
    """A dataclass whose document is `to_jsonable` of it; `json_tags` holds
    the keys of fixed value that its class writes besides its fields."""

    json_tags: dict = {}

    def to_jsonable(self) -> dict:
        return to_jsonable(self)


# an array field is annotated with the type of its document:
# `Annotated[np.ndarray, list[list[float | None]]]` reads a matrix with
# null for NaN
Vector = Annotated[np.ndarray, list[float]]
_SCALARS = {bool: "a bool", float: "a finite float", int: "an integer",
            str: "a string"}


@functools.cache
def field_types(cls) -> dict:
    """Each field of dataclass `cls` and its annotated type, resolved once."""
    hints = typing.get_type_hints(cls, include_extras=True)
    return {f.name: hints[f.name] for f in fields(cls)}


def from_jsonable(tp, doc, path: str):
    """The value of type `tp` that `to_jsonable` writes as `doc`: the one
    decoder of documents.  A value not of its type as written raises
    SchemaError at its document path.  A bool, float, int or str is exactly
    that JSON type (an int is no bool or 3.0, a float no int, a bool no 1),
    and a float is finite, in an array too (`1e400` reads as inf); a
    `dict[int, V]` key is an int in canonical decimal form; an enum is its
    value; an array is the list type it is annotated with (see `Vector`); a
    union of classes is the one whose `json_tags` the object holds.  A
    dataclass, or a dict of {key: type}, is an object of exactly its keys
    and the class's tags (checked, not read); an InvalidArgument from the
    class is reported at `path`.  A bare `dict` is any object."""
    if type(tp) is dict:
        return _object_reader(tuple((k, k, t) for k, t in tp.items()), (),
                              dict)(doc, path)
    return _reader(tp)(doc, path)


@functools.cache
def _reader(tp):
    """The function (doc, path) -> value that reads type `tp`, built once
    per type, so that reading a value inspects no type."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if tp in _SCALARS:
        def read(doc, path):
            if type(doc) is not tp or tp is float and not math.isfinite(doc):
                raise SchemaError(path, f"expected {_SCALARS[tp]}")
            return doc
    elif origin is Annotated:
        ndim, cell = 0, args[1]
        while typing.get_origin(cell) is list:
            ndim, cell = ndim + 1, typing.get_args(cell)[0]
        return functools.partial(_array, args[1], ndim,
                                 set(typing.get_args(cell) or [cell]))
    elif origin in (Union, types.UnionType):
        members = [(m, _reader(m)) for m in args if m is not type(None)]

        def read(doc, path):
            if doc is None and len(members) < len(args):
                return None
            for m, r in members:
                if len(members) == 1 or type(doc) is dict and all(
                        doc.get(k) == v for k, v in m.json_tags.items()):
                    return r(doc, path)
            names = " or ".join(m.__name__ for m, _ in members)
            raise SchemaError(path, f"expected a {names}")
    elif origin in (tuple, list):
        n = None if origin is list or args[-1] is Ellipsis else len(args)
        items = [_reader(a) for a in args if a is not Ellipsis]

        def read(doc, path):
            if not isinstance(doc, list) or n is not None and len(doc) != n:
                raise SchemaError(path, "expected a list"
                                  + f" of {n}" * (n is not None))
            if n is None and args[0] in (bool, int, str) and set(
                    map(type, doc)) <= {args[0]}:
                return origin(doc)  # checked at C speed
            return origin(r(v, f"{path}[{i}]") for i, (r, v) in enumerate(
                zip(items if n else repeat(items[0]), doc)))
    elif tp is dict or origin is dict:
        value = _reader(args[1]) if args else None

        def read(doc, path):
            if not isinstance(doc, dict):
                raise SchemaError(path, "expected an object")
            return doc if value is None else {
                _int_key(k, path) if args[0] is int else k:
                value(v, f"{path}.{k}") for k, v in doc.items()}
    elif isinstance(tp, enum.EnumMeta):
        values = [m.value for m in tp]

        def read(doc, path):
            if doc not in values:
                raise SchemaError(path, f"expected one of {values}")
            return tp(doc)
    else:
        (tags, keys), hints = _document_keys(tp), field_types(tp)
        return _object_reader(tuple((n, k, hints[n]) for n, k in keys),
                              tuple(tags.items()), tp)
    return read


@functools.cache
def _object_reader(want: tuple, tags: tuple, cls):
    """The reader of an object of exactly the keys of `want` and the fixed
    `tags` ((name, key, type) triples and (key, value) pairs), which gives
    `cls` of its values by name."""
    items = [(name, k, f".{k}", _reader(t)) for name, k, t in want]
    keys = {k for _, k, _ in want} | {k for k, _ in tags}

    def read(doc, path):
        if not isinstance(doc, dict):
            raise SchemaError(path, "expected an object")
        if doc.keys() != keys:
            key = min(keys ^ doc.keys())
            raise SchemaError(_at(path, key), "required key is missing"
                              if key in keys else "unknown key")
        for k, v in tags:
            if type(doc[k]) is not type(v) or doc[k] != v:
                raise SchemaError(f"{path}.{k}", f"expected {v!r}")
        values = {name: r(doc[k], path + at if path else k)
                  for name, k, at, r in items}
        try:
            return cls(**values)
        except SchemaError as exc:
            raise SchemaError(_at(path, exc.path), exc.message) from exc
        except InvalidArgument as exc:
            raise SchemaError(path, str(exc)) from exc
    return read


def _at(path: str, key) -> str:
    return f"{path}.{key}" if path else key


def _int_key(k: str, path: str) -> int:
    try:
        if str(int(k)) == k:
            return int(k)
    except ValueError:
        pass
    raise SchemaError(f"{path}.{k}", "expected an integer key")


def _array(form, ndim, cells, doc, path: str) -> np.ndarray:
    """The array that `doc` lists in the form `form`, a list type `ndim`
    deep of `cells`; its cells' types and finiteness (a null is NaN) are
    checked at C speed, not one by one."""
    a = None
    if type(doc) is list and (set(map(type, doc)) <= cells if ndim == 1 else
                              set(map(type, doc)) <= {list} and set(map(
                                  type, chain.from_iterable(doc))) <= cells):
        try:
            a = np.array(doc, dtype=np.int64 if int in cells else float)
        except (ValueError, OverflowError):
            pass  # ragged, or an int outside int64
    if a is None or a.ndim != ndim:
        raise SchemaError(path, f"expected a rectangular {form}")
    if int not in cells:
        # a null reads as NaN, so where one may stand a NaN is a null, and
        # only an inf is refused: `loads_document` reads each non-finite
        # token as one
        ok = ~np.isinf(a) if type(None) in cells else np.isfinite(a)
        if np.count_nonzero(ok) < a.size:
            at = np.unravel_index(np.flatnonzero(~ok)[0], a.shape)
            raise SchemaError(path + "".join(f"[{j}]" for j in at),
                              "expected a finite float")
    return a


def column_summary(t: Table) -> list[dict]:
    return [
        {
            "name": c.name,
            "kind": c.kind.value if c.kind is not None else None,
            "n_missing": c.n_missing(),
            "missing_fraction": (
                c.n_missing() / c.n_rows if c.n_rows else 0.0
            ),
        }
        for c in t.columns
    ]


def quality_document(
    records_jsonable: list[dict],
    threshold: float | None = None,
    columns: list[dict] | None = None,
) -> dict:
    doc = {
        "format": QUALITY_FORMAT,
        "schema_version": DOC_SCHEMA_VERSION,
        # a float, as the reader expects, when a caller passes an int
        "threshold": None if threshold is None else float(threshold),
        "records": records_jsonable,
    }
    if columns is not None:
        doc["columns"] = columns
    return doc


def audit_document(reports_jsonable: list[dict]) -> dict:
    return {
        "format": AUDIT_FORMAT,
        "schema_version": DOC_SCHEMA_VERSION,
        "lower_is_better": True,
        "reports": reports_jsonable,
    }


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _chosen_std(record: dict) -> float:
    for e in record["imputers"]:
        if e["id"] == record["chosen_imputer"]:
            return e["delta_std"]
    raise InvalidArgument(f"feature {record['feature']!r}: chosen_imputer "
                          "names none of its imputers")


def emit_quality_svg(
    records_jsonable: list[dict], threshold: float | None = None
) -> bytes:
    """Horizontal stacked bars, one per feature, sorted by descending omega.

    Blue encodes completeness mu, orange the recovered portion (1-mu)*delta,
    so the stack length is the quality omega.  A whisker marks the fold-std
    spread, a dashed line the keep/drop threshold, and features that fell
    back to random sampling get their name drawn in red.
    """
    records = sorted(records_jsonable,
                     key=lambda r: (-r["omega"], r["feature"]))
    n = len(records)
    width = MARGIN_LEFT + AXIS_LEN + MARGIN_RIGHT
    rows_h = n * (BAR_HEIGHT + BAR_GAP)
    height = MARGIN_TOP + rows_h + MARGIN_BOTTOM
    x0 = MARGIN_LEFT
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:g}" height="{height:g}" '
        f'viewBox="0 0 {width:g} {height:g}">',
        f'<text x="{x0:g}" y="20" font-family="sans-serif" font-size="14" '
        f'fill="{COLOR_NAME}">Feature quality: completeness + recovered '
        "portion (longer is better)</text>",
    ]

    for i, rec in enumerate(records):
        mu, delta, omega = rec["completeness"], rec["delta"], rec["omega"]
        y = MARGIN_TOP + i * (BAR_HEIGHT + BAR_GAP)
        w_mu = mu * AXIS_LEN
        w_delta = (1.0 - mu) * delta * AXIS_LEN
        cy = y + BAR_HEIGHT / 2.0
        name_fill = COLOR_FALLBACK_NAME if rec["fallback_used"] else COLOR_NAME
        parts.append('<g class="feature-row">')
        parts.append(
            f'<text class="feature-name" x="{x0 - 8:g}" y="{cy + 4:.2f}" '
            f'text-anchor="end" font-family="sans-serif" font-size="12" '
            f'fill="{name_fill}">{escape(rec["feature"])}</text>'
        )
        if w_mu > 0:
            parts.append(
                f'<rect class="mu-bar" x="{_fmt(x0)}" y="{_fmt(y)}" '
                f'width="{_fmt(w_mu)}" height="{BAR_HEIGHT}" '
                f'fill="{COLOR_COMPLETENESS}"/>'
            )
        if w_delta > 0:
            parts.append(
                f'<rect class="delta-bar" x="{_fmt(x0 + w_mu)}" '
                f'y="{_fmt(y)}" width="{_fmt(w_delta)}" '
                f'height="{BAR_HEIGHT}" fill="{COLOR_IMPUTATION}"/>'
            )
        half = (1.0 - mu) * _chosen_std(rec) * AXIS_LEN
        if half > 0:
            lo = max(x0, x0 + omega * AXIS_LEN - half)
            hi = min(x0 + AXIS_LEN, x0 + omega * AXIS_LEN + half)
            parts.append(
                f'<line class="whisker" x1="{_fmt(lo)}" y1="{_fmt(cy)}" '
                f'x2="{_fmt(hi)}" y2="{_fmt(cy)}" stroke="{COLOR_NAME}" '
                f'stroke-width="1"/>'
            )
            for xw in (lo, hi):
                parts.append(
                    f'<line x1="{_fmt(xw)}" y1="{_fmt(cy - 4)}" '
                    f'x2="{_fmt(xw)}" y2="{_fmt(cy + 4)}" '
                    f'stroke="{COLOR_NAME}" stroke-width="1"/>'
                )
        parts.append("</g>")

    axis_y = MARGIN_TOP + rows_h + 8
    parts.append(
        f'<line x1="{_fmt(x0)}" y1="{_fmt(axis_y)}" '
        f'x2="{_fmt(x0 + AXIS_LEN)}" y2="{_fmt(axis_y)}" '
        f'stroke="{COLOR_AXIS}" stroke-width="1"/>'
    )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xt = x0 + frac * AXIS_LEN
        parts.append(
            f'<line x1="{_fmt(xt)}" y1="{_fmt(axis_y)}" x2="{_fmt(xt)}" '
            f'y2="{_fmt(axis_y + 5)}" stroke="{COLOR_AXIS}" '
            f'stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(xt)}" y="{_fmt(axis_y + 18)}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="11" '
            f'fill="{COLOR_AXIS}">{frac:g}</text>'
        )

    if threshold is not None:
        xt = x0 + threshold * AXIS_LEN
        parts.append(
            f'<line class="threshold" x1="{_fmt(xt)}" '
            f'y1="{_fmt(MARGIN_TOP - 6)}" x2="{_fmt(xt)}" '
            f'y2="{_fmt(axis_y)}" stroke="{COLOR_NAME}" stroke-width="1" '
            f'stroke-dasharray="5,3"/>'
        )

    parts.append("</svg>")
    return "\n".join(parts).encode("utf-8")


def quality_summary_text(records_jsonable: list[dict]) -> str:
    """Human-oriented digest printed by the report command."""
    lines = []
    ordered = sorted(records_jsonable,
                     key=lambda r: (-r["omega"], r["feature"]))
    for r in ordered:
        flags = []
        if not r["kept"]:
            flags.append("drop")
        if r["fallback_used"]:
            flags.append("fallback")
        suffix = f" [{', '.join(flags)}]" if flags else ""
        lines.append(
            f"{r['feature']}: omega={r['omega']:.3f} "
            f"mu={r['completeness']:.3f} "
            f"delta={r['delta']:.3f} "
            f"imputer={r['chosen_imputer']}{suffix}"
        )
    kept = sum(1 for r in records_jsonable if r["kept"])
    lines.append(f"{kept}/{len(records_jsonable)} features kept")
    return "\n".join(lines)
