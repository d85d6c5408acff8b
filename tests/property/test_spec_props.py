"""Property-based test: the scenario front door never crashes.

For arbitrary nested JSON-like input ``spec_from_dict`` either raises
``SpecError`` or returns a spec that survives every round trip the repo
offers: ``to_dict`` -> ``spec_from_dict``, and ``dump_spec_toml`` /
``dump_spec_json`` -> ``load_spec_text``.

Pure junk never gets past the section names, so documents are drawn
table-by-table from the spec's own field table: each key gets a value
of its declared shape (mostly in range, sometimes a step outside it or
non-finite) or, now and then, arbitrary junk.
"""

import dataclasses
import typing

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.scenarios import (
    FaultSpec,
    SpecError,
    dump_spec_json,
    dump_spec_toml,
    load_spec_text,
    spec_from_dict,
)

from ..scenarios.test_spec_table import SINGLE_JOB, keys_of, section_classes, unwrap

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
