"""Property-based tests: the scenario front door never crashes, and it
refuses exactly what ``JobConfig`` + ``run_mlless`` refuse.

For arbitrary nested JSON-like input ``spec_from_dict`` either raises
``SpecError`` or returns a spec that survives every round trip the repo
offers: ``to_dict`` -> ``spec_from_dict``, and ``dump_spec_toml`` /
``dump_spec_json`` -> ``load_spec_text``.

Pure junk never gets past the section names, so documents are drawn
table-by-table from the spec's own field table: each key gets a value
of its declared shape (mostly in range, sometimes a step outside it or
non-finite) or, now and then, arbitrary junk.

The second property draws a *feature set* x backend instead and asks
both levels for a verdict: the spec layer (``spec_from_dict``) and the
run layer (``JobConfig`` + ``run_mlless``) must agree — both accept, or
both refuse with the same capability-table sentence, blamed on the same
feature — and nothing but ``SpecError`` / ``Refusal`` may escape.
"""

import contextlib
import dataclasses
import typing
from unittest import mock

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro import run_mlless
from repro.core.capabilities import (
    ADAPTIVE,
    AUTOTUNE,
    BACKENDS,
    CRASH_RECOVERY,
    FAULTS,
    ISP,
    PIPELINE,
    SSP,
    TABLE,
    TRACING,
    Refusal,
)
from repro.exec import local, procs
from repro.experiments import common
from repro.scenarios import (
    FaultSpec,
    SpecError,
    dump_spec_json,
    dump_spec_toml,
    load_spec_text,
    spec_from_dict,
)

from ..scenarios.test_spec_table import SINGLE_JOB, keys_of, section_classes, unwrap
from ..test_capabilities import RECIPES, spec_doc, tiny_job

NAN, INF = float("nan"), float("inf")

junk = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()  # NaN and the infinities included
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def mostly(good, otherwise=junk):
    """``good`` nineteen times in twenty, ``otherwise`` (junk) the rest."""
    return st.integers(0, 19).flatmap(lambda n: otherwise if n == 0 else good)


def numbers(kind, meta):
    """Numbers around the key's declared range, a step past each bound."""
    low = meta["ge"] if meta["ge"] is not None else 0
    high = meta["le"] if meta["le"] is not None else low + 8
    if kind is int:
        return st.integers(low - 1, high + 1)
    finite = st.floats(low - 0.5, high + 0.5) | st.integers(int(low), int(high) + 1)
    return mostly(finite, st.sampled_from([NAN, INF, -INF, 10**400]))


def shaped_values(f, hint):
    """Values of the shape key ``f`` takes, mostly inside its range."""
    inner = unwrap(hint)
    if typing.get_origin(inner) is tuple:
        kind, tail = typing.get_args(inner)
        if tail is Ellipsis:
            return st.lists(numbers(kind, f.metadata), max_size=3)
        return st.lists(numbers(kind, f.metadata), min_size=2, max_size=2).map(sorted)
    if inner is bool:
        return st.booleans()
    if inner is str:
        choices = f.metadata["choices"]
        if choices:
            return st.sampled_from(sorted(choices))
        return st.sampled_from(["t", "a-1", "", "Bad Name", 'say "hi"', "bell\x07"])
    return numbers(inner, f.metadata)


def rarely(draw):
    return draw(st.integers(0, 19)) == 0


def key_values(draw, f, hint):
    """One value for key ``f``: mostly well-shaped, often its very default."""
    values = shaped_values(f, hint)
    if f.default not in (dataclasses.MISSING, None, ()) and draw(st.booleans()):
        # written out at its default, as hand-written specs often do
        default = f.default
        values = st.just(list(default) if isinstance(default, tuple) else default)
    return draw(mostly(values))


@st.composite
def tables(draw, cls):
    """One section table: required keys plus any others, mostly well-shaped."""
    table = {}
    for f, hint in keys_of(cls):
        required = f.default is dataclasses.MISSING
        if rarely(draw) if required else draw(st.integers(0, 2)) > 0:
            continue
        table[f.name] = key_values(draw, f, hint)
    if rarely(draw):
        table["no_such_key"] = draw(junk)
    return table


@st.composite
def preset_faults(draw):
    """``[faults]`` naming a preset next to up to two inline keys."""
    profile, *inline = keys_of(FaultSpec)
    table = {"profile": draw(shaped_values(*profile))}
    for f, hint in draw(st.lists(st.sampled_from(inline), max_size=2)):
        table[f.name] = key_values(draw, f, hint)
    return table


TABLES = section_classes()
BY_KIND = {
    "single-job": ("workload", "sweep", "faults"),
    "platform": ("traffic", "jobs", "pool"),
}


@st.composite
def documents(draw):
    """A spec-shaped document: right sections for its kind, mostly."""
    if draw(st.integers(0, 9)) == 0:
        # Few drawn documents get as far as ``[faults]``; look at it closely.
        return {**SINGLE_JOB, "faults": draw(preset_faults())}
    kind = draw(st.sampled_from(sorted(BY_KIND)))
    head = draw(tables(TABLES["scenario"]))
    if not rarely(draw):
        head.update(name=draw(st.sampled_from(["t", "a-1"])), kind=kind)
    doc = {"scenario": head if not rarely(draw) else draw(junk)}
    for section, cls in TABLES.items():
        if section == "scenario":
            continue
        legal = section in BY_KIND[kind] or section not in sum(BY_KIND.values(), ())
        if section == "workload" and legal:
            present = not rarely(draw)
        else:
            present = draw(st.integers(0, 2)) == 0 if legal else rarely(draw)
        if present:
            doc[section] = draw(mostly(tables(cls)))
    if rarely(draw):
        doc["no-such-section"] = draw(junk)
    return doc


@settings(max_examples=1000, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mostly(documents()))
def test_spec_from_dict_raises_spec_error_or_round_trips(data):
    try:
        spec = spec_from_dict(data)
    except SpecError:
        return
    event(f"accepted a {spec.kind} spec")
    if spec.faults is not None and spec.faults.profile is not None:
        event("accepted a named fault profile")
    assert spec_from_dict(spec.to_dict()) == spec
    assert load_spec_text(dump_spec_json(spec), origin="x.json") == spec
    try:
        text = dump_spec_toml(spec)
    except SpecError:
        return  # a description TOML's one-line strings cannot carry
    assert load_spec_text(text, origin="x.toml") == spec


# -- one verdict, whichever door the job comes through ----------------------


@st.composite
def feature_sets(draw):
    """Rows both a spec and a ``JobConfig`` + ``run_mlless`` call can ask for."""
    asked = draw(st.sets(st.sampled_from(
        [ISP, AUTOTUNE, PIPELINE, FAULTS, CRASH_RECOVERY, TRACING]
    )))
    asked |= draw(st.sampled_from([set(), {SSP}, {ADAPTIVE}]))  # one sync mode
    if CRASH_RECOVERY in asked:
        asked.add(FAULTS)  # a spec asks for recovery by asking for crashes
    return [feature for feature in TABLE if feature in asked]  # recipe order


def spec_verdict(asked, backend):
    try:
        spec_from_dict(spec_doc(backend, *asked))
    except SpecError as error:
        refusal = error.__cause__
        assert isinstance(refusal, Refusal), error
        assert error.path == RECIPES[refusal.feature].path
        assert str(error) == f"{error.path}: {refusal}"
        return refusal.feature, str(refusal)
    return None


@contextlib.contextmanager
def nothing_trains():
    """``run_mlless`` admits the job as usual, then hands it to a stub."""
    with mock.patch.object(common, "MLLessDriver"), \
            mock.patch.object(local, "run_local_job"), \
            mock.patch.object(procs, "run_procs_job"):
        yield


def run_verdict(asked, backend):
    overrides, extra = {}, {}
    for feature in asked:
        recipe = RECIPES[feature]
        overrides.update(recipe.config or {})
        extra.update(recipe.run() if recipe.run is not None else {})
    try:
        with nothing_trains():
            run_mlless(tiny_job(**overrides), backend=backend, **extra)
    except Refusal as refusal:
        return refusal.feature, str(refusal)
    return None


@settings(max_examples=300, deadline=None)
@given(feature_sets(), st.sampled_from(BACKENDS))
def test_spec_and_run_layers_give_the_same_verdict(asked, backend):
    verdict = spec_verdict(asked, backend)
    assert run_verdict(asked, backend) == verdict
    event("accepted" if verdict is None else f"refused: {verdict[0]}")
