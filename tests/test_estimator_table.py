"""One estimator table: `ESTIMATORS` declares each estimator's model class,
the hyperparameters its fit reads and their rules, and every default is the
fit's own, apart from the one graph default that `GRAPH_DEFAULTS` declares."""

import inspect

import numpy as np
import pytest

from imputeq import depgraph, estimators
from imputeq.depgraph import build_dependency_graph
from imputeq.errors import SchemaError
from imputeq.estimators import ESTIMATORS, GRAPH_DEFAULTS
from imputeq import imputers
from imputeq.imputers import (
    ITERATIVE_DEFAULTS,
    ImputerSpec,
    default_imputer_roster,
    fit,
    fitted_to_jsonable,
)
from imputeq.table import Column, ColumnKind, Table

# the defaults that the README documents, spelled out
CHAIN_DEFAULTS = {
    "ridge": {"reg": 1.0},
    "forest": {"n_estimators": 100, "max_depth": None},
    "gbt": {"n_estimators": 100, "max_depth": 6, "learning_rate": 0.1},
}
GRAPH_DEFAULTS_SPELLED = {**CHAIN_DEFAULTS,
                          "forest": {"n_estimators": 50, "max_depth": None}}
FAMILY_DEFAULTS = {"init_strategy": "mode", "max_iter": 20}
# an accepted value of every model parameter, and a key nothing reads
VALID = {"reg": 0.5, "n_estimators": 3, "max_depth": 2, "learning_rate": 0.2,
         "n_trees": 5}


def table(n=60, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=n)
    b = 2.0 * a + rng.normal(scale=0.3, size=n)
    c = rng.normal(size=n)
    b[rng.random(n) < 0.2] = np.nan
    return Table(tuple(
        Column(name, v, np.isnan(v), kind=ColumnKind.CONTINUOUS)
        for name, v in (("a", a), ("b", b), ("c", c))))


def recorded_fits(monkeypatch, module, name):
    """Record the `to_jsonable()` of every model that `module.<name>_fit`
    returns."""
    real, models = getattr(module, f"{name}_fit"), []

    def spy(*args, **kwargs):
        m = real(*args, **kwargs)
        models.append(m.to_jsonable())
        return m

    monkeypatch.setattr(module, f"{name}_fit", spy)
    return models


def test_the_table_holds_the_documented_estimators_and_keys():
    assert {k: set(v) for k, v in CHAIN_DEFAULTS.items()} == {
        name: set(e.params) for name, e in ESTIMATORS.items()}
    assert GRAPH_DEFAULTS == {"forest": {"n_estimators": 50}}


def test_the_public_fits_are_the_table():
    fits = {k for k, v in vars(estimators).items()
            if k.endswith("_fit") and not k.startswith("_") and callable(v)}
    assert fits == {f"{name}_fit" for name in ESTIMATORS}


# what a fit reads besides its table keys
FIT_EXTRAS = {"ridge": set(), "forest": {"seed"}, "gbt": {"seed", "loss"}}


@pytest.mark.parametrize("name", sorted(ESTIMATORS))
def test_each_fit_takes_its_table_keys_and_nothing_else(name):
    params = inspect.signature(getattr(estimators, f"{name}_fit")).parameters
    keywords = {k for k, p in params.items() if p.default is not p.empty}
    assert keywords == set(ESTIMATORS[name].params) | FIT_EXTRAS[name]


@pytest.mark.parametrize("name", sorted(ESTIMATORS))
def test_each_chain_default_is_in_the_fit_signature(name):
    params = inspect.signature(getattr(estimators, f"{name}_fit")).parameters
    assert {k: params[k].default for k in CHAIN_DEFAULTS[name]} == (
        CHAIN_DEFAULTS[name])
    model = getattr(estimators, f"{name}_fit")(np.eye(3), np.arange(3.0))
    assert isinstance(model, ESTIMATORS[name].model)


@pytest.mark.parametrize("name", sorted(ESTIMATORS))
def test_a_chain_from_no_params_equals_one_with_the_defaults(name):
    t = table()
    bare = ImputerSpec("c", "iterative", {"estimator": name})
    spelled = ImputerSpec("c", "iterative", {
        "estimator": name, **FAMILY_DEFAULTS, **CHAIN_DEFAULTS[name]})
    a, b = (fitted_to_jsonable(fit(s, t, "b", ("a", "c")))
            for s in (bare, spelled))
    assert a["state"] == b["state"]


@pytest.mark.parametrize("name", sorted(ESTIMATORS))
def test_a_graph_from_no_params_equals_one_with_the_defaults(
        name, monkeypatch):
    t = table(seed=1)
    models = recorded_fits(monkeypatch, depgraph, name)
    bare = build_dependency_graph(t, seed=2, regressor=name)
    n_bare = len(models)
    spelled = build_dependency_graph(
        t, seed=2, regressor=name,
        regressor_params=GRAPH_DEFAULTS_SPELLED[name])
    assert bare.to_jsonable() == spelled.to_jsonable()
    assert n_bare == 3 and models[:3] == models[3:]
    if name == "forest":
        assert {len(m["trees"]) for m in models} == {50}


def test_the_roster_iterative_params_are_the_chain_defaults():
    roster = [s for s in default_imputer_roster()
              if s.family == "iterative"]
    assert sorted(s.params["estimator"] for s in roster) == sorted(ESTIMATORS)
    for s in roster:
        name = s.params["estimator"]
        defaults = {**FAMILY_DEFAULTS, **CHAIN_DEFAULTS[name]}
        assert {k: defaults[k] for k in s.params if k != "estimator"} == {
            k: v for k, v in s.params.items() if k != "estimator"}


def test_the_family_defaults_are_declared_once(monkeypatch):
    assert ITERATIVE_DEFAULTS == FAMILY_DEFAULTS
    # the roster spells them out, so its config hashes do not depend on them
    for s in default_imputer_roster():
        if s.family == "iterative":
            assert {k: s.params[k] for k in ITERATIVE_DEFAULTS} == (
                ITERATIVE_DEFAULTS)
    # and a chain reads the declared ones: with two incomplete columns, one
    # round from the means is not 20 rounds from the modes, and the model of
    # the complete target `c`, which the chain never visits, is seeded with
    # the round count
    t = table()
    a = t.column("a").values.copy()
    a[::7] = np.nan
    t = t.with_column(Column("a", a, np.isnan(a), kind=ColumnKind.CONTINUOUS))
    forest = {"estimator": "forest", "n_estimators": 3}
    spec = ImputerSpec("f", "iterative", forest)
    before = fitted_to_jsonable(fit(spec, t, "c", ("a", "b")))["state"]
    monkeypatch.setitem(imputers.ITERATIVE_DEFAULTS, "max_iter", 1)
    monkeypatch.setitem(imputers.ITERATIVE_DEFAULTS, "init_strategy", "mean")
    spelled = ImputerSpec("f", "iterative", {
        **forest, "max_iter": 1, "init_strategy": "mean"})
    after, want = (fitted_to_jsonable(fit(s, t, "c", ("a", "b")))["state"]
                   for s in (spec, spelled))
    assert after == want != before


@pytest.mark.parametrize("name", sorted(ESTIMATORS))
@pytest.mark.parametrize("key", sorted(VALID))
def test_a_spec_and_a_graph_take_exactly_the_table_keys(name, key):
    reads = key in ESTIMATORS[name].params
    params = {"estimator": name, key: VALID[key]}
    one_column = Table((Column("a", np.zeros(3), np.zeros(3, dtype=bool),
                               kind=ColumnKind.CONTINUOUS),))
    if reads:
        ImputerSpec("s", "iterative", params)
        build_dependency_graph(one_column, regressor=name,
                               regressor_params={key: VALID[key]})
        return
    with pytest.raises(SchemaError, match=repr(key)) as exc:
        ImputerSpec("s", "iterative", params)
    assert exc.value.path == "params"
    with pytest.raises(SchemaError) as exc:
        build_dependency_graph(one_column, regressor=name,
                               regressor_params={key: VALID[key]})
    assert exc.value.path == f"regressor_params.{key}"
