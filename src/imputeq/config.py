"""JSON configuration: the config document's shape and its defaults.

The file is a single object; unknown keys anywhere are rejected so typos
fail loudly instead of silently running with defaults.  This module checks
only what the document alone can show: its keys, its object and list
shapes, the `splitter`, `encoder` and scorer object forms, and the `data`
and `dependency_graph` sections, which only the CLI reads.  Every value
that reaches the engine is judged once, by `AssessConfig` and
`ImputerSpec`; a `SchemaError` at one of their fields is re-raised at the
document path that the field is read from ("splitter.params.k",
"imputers[2].params").
"""

from __future__ import annotations

import json
import re
from contextlib import contextmanager
from dataclasses import replace

from .depgraph import check_graph_limits
from .engine import DEFAULT_ALPHA, DEFAULT_FOLDS, AssessConfig
from .errors import DataIoError, SchemaError, _require
from .imputers import ImputerSpec
from .report import from_jsonable

_TOP_KEYS = {
    "data", "splitter", "scorers", "imputers", "threshold", "alpha",
    "dependency_graph", "seed", "encoder",
}
_GRAPH_AUTO_KEYS = {"type", "top_n", "min_importance"}

# the document path of each engine field that the document spells otherwise;
# a dependency file's own keys are no document path
_ENGINE_PATHS = {
    "n_folds": "splitter.params.k",
    "split_seed": "splitter.params.seed",
    "dependencies": "dependency_graph",
}


@contextmanager
def document_paths(paths: dict = _ENGINE_PATHS):
    """Re-raise a SchemaError at an engine field (the name before the
    first "." or "[" of its path) at the document path `paths` gives it."""
    try:
        yield
    except SchemaError as exc:
        field = re.match(r"[^.\[]*", exc.path).group()
        raise SchemaError(paths.get(field, exc.path), exc.message) from exc


def _check_keys(d: dict, allowed: set, path: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        first = sorted(unknown)[0]
        raise SchemaError(f"{path}.{first}" if path else first, "unknown key")


def _object(d, allowed: set, path: str) -> dict:
    """`d`, which must be an object with no key outside `allowed`."""
    _require(isinstance(d, dict), path, "expected an object")
    _check_keys(d, allowed, path)
    return d


def _check_data(d) -> None:
    if d.get("path") is not None:
        _require(isinstance(d["path"], str), "data.path", "expected a string")
    from_jsonable(list[str], d.get("missing_sentinels", []),
                  "data.missing_sentinels")


def _scorer_names(d) -> dict:
    """Each kind's scorer name, from the string or the object form."""
    _require(isinstance(d, dict), "scorers", "expected an object")
    out = {}
    for kind_name, v in d.items():
        if isinstance(v, dict):
            kp = f"scorers.{kind_name}"
            _check_keys(v, {"name", "params"}, kp)
            _require(v.get("params", {}) == {}, f"{kp}.params",
                     "scorers take no parameters")
            v = v.get("name")
        out[kind_name] = v
    return out


def _spec(item, i: int, seed) -> ImputerSpec:
    """The imputers[i] entry, seeded with the document's `seed` (a bad one
    is an error at `seed`).  An entry takes no seed of its own: `assess` and
    `fit_pipeline` seed every task from the run seed."""
    ip = f"imputers[{i}]"
    _require(isinstance(item, dict), ip, "expected an object")
    _check_keys(item, {"id", "family", "params"}, ip)
    with document_paths({f: f"{ip}.{f}" for f in ("id", "family", "params")}):
        return ImputerSpec(item.get("id"), item.get("family"),
                           item.get("params", {}), seed)


def _check_graph(v) -> None:
    """`v` is "auto", a file path, {"type": "auto", ...} or an inline
    predecessor dictionary."""
    path = "dependency_graph"
    if isinstance(v, str):
        return
    _require(isinstance(v, dict), path,
             'expected "auto", a file path, or an inline dictionary')
    if v.get("type") != "auto":
        from_jsonable(dict[str, list[str]], v, path)
        return
    _check_keys(v, _GRAPH_AUTO_KEYS, path)
    given = graph_limits(v)
    with document_paths({k: f"{path}.{k}" for k in given}):
        check_graph_limits(**given)


def graph_limits(v: dict) -> dict:
    """The `build_dependency_graph` limits that a {"type": "auto", ...}
    dependency_graph sets; a null one keeps the default."""
    return {k: v[k] for k in ("top_n", "min_importance")
            if v.get(k) is not None}


def parse_config_dict(doc: dict) -> AssessConfig:
    """The engine config of a config document, which is validated whole."""
    _require(isinstance(doc, dict), "$", "expected a JSON object")
    _check_keys(doc, _TOP_KEYS, "")
    _check_data(_object(doc.get("data", {}), {"path", "missing_sentinels"},
                        "data"))
    splitter = _object(doc.get("splitter", {}), {"type", "params"},
                       "splitter")
    if "splitter" in doc:
        _require(splitter.get("type") == "kfold", "splitter.type",
                 "only 'kfold' is supported")
    params = _object(splitter.get("params", {}), {"k", "seed"},
                     "splitter.params")
    if "encoder" in doc:
        encoder = _object(doc["encoder"], {"type"}, "encoder")
        _require(encoder.get("type") == "label", "encoder.type",
                 "only 'label' is supported")
    scorers = _scorer_names(doc.get("scorers", {}))
    if "dependency_graph" in doc:
        _check_graph(doc["dependency_graph"])
    _require("imputers" in doc, "imputers", "required key is missing")
    _require(isinstance(doc["imputers"], list), "imputers", "expected a list")
    seed = doc.get("seed", 0)
    imputers = tuple(_spec(item, i, seed)
                     for i, item in enumerate(doc["imputers"]))
    with document_paths():
        return AssessConfig(
            imputers=imputers,
            n_folds=params.get("k", DEFAULT_FOLDS),
            seed=seed,
            alpha=doc.get("alpha", DEFAULT_ALPHA),
            threshold=doc.get("threshold"),
            scorers=scorers or None,
            split_seed=params.get("seed"),
        )


def load_json_file(path: str, what: str, invalid):
    """The JSON document in the file at `path`.  A file that cannot be read
    is a DataIoError; one that is not UTF-8 JSON, or nests too deep to
    parse, raises `invalid(message)`."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataIoError(f"cannot read {what} {path!r}: {exc}") from exc
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise invalid(f"invalid JSON: {exc}") from exc


def apply_overrides(config: AssessConfig, **flags) -> AssessConfig:
    """`config` with each flag that is not None (the CLI's --seed and
    --threshold) in place of the file's value."""
    return replace(config, **{k: v for k, v in flags.items() if v is not None})
