"""Feature dependency graphs from permutation importance.

For every feature x we fit a regressor on the remaining features and measure,
on a held-out split, how much the score drops when each predictor column is
shuffled.  Predictors whose drop clears a threshold become incoming edges of
x.  The transitive predecessor closure of that graph is the dependency
dictionary consumed by the assessment engine: when imputing x, only the
features in its closure (plus x itself) are visible to multivariate imputers.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, SchemaError, SmallSampleWarning
from .estimators import (
    ESTIMATORS,
    GRAPH_DEFAULTS,
    _is_int,
    _is_number,
    check_estimator_params,
    forest_fit,
    forest_predict,
    gbt_fit,
    gbt_predict,
    is_estimator,
    permutation_importance,
    ridge_fit,
    ridge_predict,
)
from .imputers import _init_fill
from .metrics import r2
from .report import Jsonable
from .table import Table

DEFAULT_TOP_N = 8
DEFAULT_MIN_IMPORTANCE = 0.01
DEFAULT_HOLDOUT_FRACTION = 0.25
MIN_USABLE_ROWS = 20


@dataclass(frozen=True)
class DependencyGraph(Jsonable):
    """Directed graph; an edge (a, b, w) says a is predictive of b with
    permutation importance w."""

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str, float], ...]
    top_n: int
    min_importance: float

    def __post_init__(self):
        names = set(self.nodes)
        indeg: dict[str, int] = {}
        for a, b, w in self.edges:
            if a == b:
                raise InvalidArgument(f"self-edge on {a!r}")
            if a not in names or b not in names:
                raise InvalidArgument(f"edge ({a!r}, {b!r}) references unknown node")
            if w < self.min_importance:
                raise InvalidArgument(
                    f"edge ({a!r}, {b!r}) weight {w} below min_importance"
                )
            indeg[b] = indeg.get(b, 0) + 1
        for n, d in indeg.items():
            if d > self.top_n:
                raise InvalidArgument(f"node {n!r} in-degree {d} exceeds top_n")

    def predecessors(self, node: str) -> list[tuple[str, float]]:
        """Direct predecessors ordered by descending weight, name on ties."""
        preds = [(a, w) for a, b, w in self.edges if b == node]
        preds.sort(key=lambda p: (-p[1], p[0]))
        return preds


def check_graph_limits(top_n=DEFAULT_TOP_N,
                       min_importance=DEFAULT_MIN_IMPORTANCE) -> None:
    """Raise SchemaError at `top_n` unless it is an integer >= 1, and at
    `min_importance` unless it is a finite number >= 0."""
    if not _is_int(top_n, 1):
        raise SchemaError("top_n", "expected an integer >= 1")
    if not _is_number(min_importance, 0.0):
        raise SchemaError("min_importance", "expected a finite number >= 0")


def _fit_regressor(name: str, params: dict, X, y, seed: int):
    if name == "ridge":
        m = ridge_fit(X, y, **params)
        return lambda Z: ridge_predict(m, Z)
    if name == "gbt":
        m = gbt_fit(X, y, seed=seed, **params)
        return lambda Z: gbt_predict(m, Z)
    m = forest_fit(X, y, seed=seed, **params)
    return lambda Z: forest_predict(m, Z)


def build_dependency_graph(
    t: Table,
    top_n: int = DEFAULT_TOP_N,
    min_importance: float = DEFAULT_MIN_IMPORTANCE,
    seed: int = 0,
    regressor: str = "forest",
    regressor_params: dict | None = None,
) -> DependencyGraph:
    """Construct the graph by scoring each feature's predictability.

    Per target: rows with the target observed form the working set, leftover
    predictor gaps are mode-filled, a held-out fraction measures the score,
    and the top importance contributors (at or above the threshold) become
    incoming edges.  Targets with too few usable rows keep an empty
    in-neighborhood and a warning is emitted.

    `regressor_params` takes the keys and values that an iterative imputer
    with that estimator takes, with its fit's defaults (`GRAPH_DEFAULTS`
    apart); a bad argument raises SchemaError at its name
    (`regressor_params.<key>` for a parameter).
    """
    if not is_estimator(regressor):
        raise SchemaError("regressor", f"expected one of {tuple(ESTIMATORS)}")
    check_graph_limits(top_n, min_importance)
    min_importance = float(min_importance)  # a float field, as read back
    params = {} if regressor_params is None else regressor_params
    check_estimator_params(regressor, params, "regressor_params")
    params = {**GRAPH_DEFAULTS.get(regressor, {}), **params}
    if not _is_int(seed, 0):
        raise SchemaError("seed", "expected an integer >= 0")
    names = t.column_names
    if len(names) < 2:
        return DependencyGraph(tuple(names), (), top_n, min_importance)

    # column-wide mode fills for predictor gaps, computed once
    fills = {c.name: _init_fill(c.values, c.mask, "mode") for c in t.columns}

    edges = []
    for t_idx, target in enumerate(names):
        tcol = t.column(target)
        usable = np.flatnonzero(~tcol.mask)
        if usable.size < MIN_USABLE_ROWS:
            warnings.warn(
                f"feature {target!r}: only {usable.size} usable rows; "
                "left without incoming edges",
                SmallSampleWarning,
                stacklevel=2,
            )
            continue
        predictors = [n for n in names if n != target]
        X = np.column_stack(
            [
                np.where(
                    t.column(n).mask[usable], fills[n], t.column(n).values[usable]
                )
                for n in predictors
            ]
        )
        y = tcol.values[usable]

        rng = np.random.default_rng(np.random.SeedSequence([seed, t_idx]))
        order = rng.permutation(usable.size)
        n_test = max(2, int(round(DEFAULT_HOLDOUT_FRACTION * usable.size)))
        test, train = order[:n_test], order[n_test:]
        if train.size == 0 or np.ptp(y[test]) == 0.0:
            warnings.warn(
                f"feature {target!r}: degenerate held-out split; "
                "left without incoming edges",
                SmallSampleWarning,
                stacklevel=2,
            )
            continue
        fit_seed = int(rng.integers(2**31))
        predict = _fit_regressor(regressor, params, X[train], y[train], fit_seed)
        imp = permutation_importance(
            predict, X[test], y[test], r2, seed=int(rng.integers(2**31))
        )
        ranked = sorted(
            zip(predictors, imp), key=lambda p: (-p[1], p[0])
        )
        for pred_name, weight in ranked[:top_n]:
            if weight >= min_importance:
                edges.append((pred_name, target, float(weight)))

    return DependencyGraph(tuple(names), tuple(edges), top_n, min_importance)


def transitive_dependencies(g: DependencyGraph) -> dict[str, list[str]]:
    """Expand each node's predecessors through the graph.

    Direct predecessors come first, ordered by descending edge weight; each
    further breadth-first layer is appended in name order.  The node itself
    never appears in its own list.
    """
    direct = {n: [p for p, _ in g.predecessors(n)] for n in g.nodes}
    out: dict[str, list[str]] = {}
    for node in g.nodes:
        result = list(direct[node])
        seen = {node, *result}
        frontier = result
        while frontier:
            discovered = []
            for f in frontier:
                for p in direct[f]:
                    if p not in seen:
                        seen.add(p)
                        discovered.append(p)
            discovered.sort()
            result.extend(discovered)
            frontier = discovered
        out[node] = result
    return out


def validate_dependency_dict(
    deps: dict[str, list[str]], columns: list[str]
) -> None:
    """Check a dependency dictionary of the right form (a
    `dict[str, list[str]]`) against a column set."""
    known = set(columns)
    for key, preds in deps.items():
        if key not in known:
            raise InvalidArgument(f"dependency key {key!r} is not a column")
        if key in preds:
            raise InvalidArgument(f"feature {key!r} depends on itself")
        if len(set(preds)) != len(preds):
            raise InvalidArgument(f"duplicate predecessors for {key!r}")
        for p in preds:
            if p not in known:
                raise InvalidArgument(
                    f"predecessor {p!r} of {key!r} is not a column"
                )
