"""JSON configuration: parsing, validation, defaults.

The file is a single object; unknown keys anywhere are rejected so typos
fail loudly instead of silently running with defaults.  Error messages carry
a dotted path ("imputers[2].params") to the offending key.  The file parses
into an `AssessConfig`; its `data` and `dependency_graph` sections are
validated here but read only by the CLI.
"""

from __future__ import annotations

import json
from dataclasses import replace

from .engine import (
    DEFAULT_ALPHA,
    DEFAULT_FOLDS,
    SCORER_REGISTRY,
    AssessConfig,
    _is_strings,
)
from .errors import DataIoError, InvalidArgument, SchemaError
from .imputers import FAMILIES, ImputerSpec, _is_int
from .table import ColumnKind

_TOP_KEYS = {
    "data", "splitter", "scorers", "imputers", "threshold", "alpha",
    "dependency_graph", "seed", "encoder",
}
_GRAPH_AUTO_KEYS = {"type", "top_n", "min_importance"}


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise SchemaError(path, message)


def _require_seed(seed, path: str) -> None:
    """A seed names a numpy seed stream, which takes no negative number."""
    _require(_is_int(seed, 0), path, "expected an integer >= 0")


def _check_keys(d: dict, allowed: set, path: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        first = sorted(unknown)[0]
        raise SchemaError(f"{path}.{first}" if path else first, "unknown key")


def _check_data(d, path: str) -> None:
    _require(isinstance(d, dict), path, "expected an object")
    _check_keys(d, {"path", "missing_sentinels"}, path)
    if d.get("path") is not None:
        _require(isinstance(d["path"], str), f"{path}.path",
                 "expected a string")
    _require(_is_strings(d.get("missing_sentinels", [])),
             f"{path}.missing_sentinels", "expected a list of strings")


def _parse_splitter(d, path: str):
    _require(isinstance(d, dict), path, "expected an object")
    _check_keys(d, {"type", "params"}, path)
    _require(d.get("type") == "kfold", f"{path}.type",
             "only 'kfold' is supported")
    params = d.get("params", {})
    _require(isinstance(params, dict), f"{path}.params", "expected an object")
    _check_keys(params, {"k", "seed"}, f"{path}.params")
    k = params.get("k", DEFAULT_FOLDS)
    _require(_is_int(k, 2), f"{path}.params.k", "expected an integer >= 2")
    seed = params.get("seed")
    if seed is not None:
        _require_seed(seed, f"{path}.params.seed")
    return k, seed


def _parse_scorers(d, path: str):
    _require(isinstance(d, dict), path, "expected an object")
    kinds = {k.value for k in ColumnKind}
    out = {}
    for kind_name, v in d.items():
        kp = f"{path}.{kind_name}"
        _require(kind_name in kinds, kp,
                 f"unknown column kind (expected one of {sorted(kinds)})")
        if isinstance(v, dict):
            _check_keys(v, {"name", "params"}, kp)
            name = v.get("name")
            params = v.get("params", {})
            _require(params == {}, f"{kp}.params",
                     "scorers take no parameters")
        else:
            name = v
        _require(isinstance(name, str) and name in SCORER_REGISTRY, kp,
                 f"unknown scorer (expected one of {sorted(SCORER_REGISTRY)})")
        out[kind_name] = name
    return out or None


def _parse_imputers(items, path: str, default_seed: int):
    _require(isinstance(items, list) and items, path,
             "expected a non-empty list")
    specs = []
    seen = set()
    for i, item in enumerate(items):
        ip = f"{path}[{i}]"
        _require(isinstance(item, dict), ip, "expected an object")
        _check_keys(item, {"id", "family", "params", "seed"}, ip)
        _require(isinstance(item.get("id"), str) and item["id"], f"{ip}.id",
                 "expected a non-empty string")
        _require(item["id"] not in seen, f"{ip}.id", "duplicate imputer id")
        seen.add(item["id"])
        _require(item.get("family") in FAMILIES, f"{ip}.family",
                 f"expected one of {sorted(FAMILIES)}")
        params = item.get("params", {})
        _require(isinstance(params, dict), f"{ip}.params",
                 "expected an object")
        seed = item.get("seed", default_seed)
        _require_seed(seed, f"{ip}.seed")
        try:
            specs.append(ImputerSpec(item["id"], item["family"], params, seed))
        except InvalidArgument as exc:
            raise SchemaError(f"{ip}.params", str(exc)) from exc
    return tuple(specs)


def _check_graph(v, path: str) -> None:
    """`v` is "auto", a file path, {"type": "auto", ...} or an inline
    predecessor dictionary."""
    if isinstance(v, str):
        return
    _require(isinstance(v, dict), path,
             'expected "auto", a file path, or an inline dictionary')
    if v.get("type") == "auto":
        _check_keys(v, _GRAPH_AUTO_KEYS, path)
        top_n = v.get("top_n")
        if top_n is not None:
            _require(_is_int(top_n, 1), f"{path}.top_n",
                     "expected an integer >= 1")
        mi = v.get("min_importance")
        if mi is not None:
            _require(isinstance(mi, (int, float))
                     and not isinstance(mi, bool) and mi >= 0,
                     f"{path}.min_importance", "expected a number >= 0")
        return
    # inline predecessor dictionary: every value must be a list of names
    for feat, preds in v.items():
        _require(_is_strings(preds), f"{path}.{feat}",
                 "expected a list of feature names")


def parse_config_dict(doc: dict) -> AssessConfig:
    """The engine config of a config document, which is validated whole."""
    _require(isinstance(doc, dict), "$", "expected a JSON object")
    _check_keys(doc, _TOP_KEYS, "")

    seed = doc.get("seed", 0)
    _require_seed(seed, "seed")

    alpha = doc.get("alpha", DEFAULT_ALPHA)
    _require(
        isinstance(alpha, (int, float)) and 0.0 < alpha < 1.0, "alpha",
        "expected a number in (0, 1)",
    )

    threshold = doc.get("threshold")
    if threshold is not None:
        _require(
            isinstance(threshold, (int, float))
            and not isinstance(threshold, bool) and 0.0 <= threshold <= 1.0,
            "threshold", "expected a number in [0, 1]",
        )
        threshold = float(threshold)

    if "data" in doc:
        _check_data(doc["data"], "data")

    n_folds, split_seed = DEFAULT_FOLDS, None
    if "splitter" in doc:
        n_folds, split_seed = _parse_splitter(doc["splitter"], "splitter")

    scorers = None
    if "scorers" in doc:
        scorers = _parse_scorers(doc["scorers"], "scorers")

    if "encoder" in doc:
        enc = doc["encoder"]
        _require(isinstance(enc, dict), "encoder", "expected an object")
        _check_keys(enc, {"type"}, "encoder")
        _require(enc.get("type") == "label", "encoder.type",
                 "only 'label' is supported")

    _require("imputers" in doc, "imputers", "required key is missing")
    imputers = _parse_imputers(doc["imputers"], "imputers", seed)

    if "dependency_graph" in doc:
        _check_graph(doc["dependency_graph"], "dependency_graph")

    return AssessConfig(
        imputers=imputers,
        n_folds=n_folds,
        seed=seed,
        alpha=float(alpha),
        threshold=threshold,
        scorers=scorers,
        split_seed=split_seed,
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


def parse_config(path: str) -> AssessConfig:
    return parse_config_dict(
        load_json_file(path, "config", lambda msg: SchemaError("$", msg)))


def apply_overrides(config: AssessConfig, seed=None, threshold=None):
    """CLI flags win over file values."""
    if seed is not None:
        _require_seed(seed, "seed")
        config = replace(config, seed=seed)
    if threshold is not None:
        if not 0.0 <= threshold <= 1.0:
            raise SchemaError("threshold", "expected a number in [0, 1]")
        config = replace(config, threshold=threshold)
    return config
