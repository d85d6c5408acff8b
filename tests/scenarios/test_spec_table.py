"""Walk the spec's field table: every declared key, every declared rule.

The cases are generated from ``dataclasses.fields`` of ``ScenarioSpec``
and of each section class, so a key added to the table is covered here
without a new test.  For each key: a wrong type, ``null``, NaN/inf (for
numeric keys), one below ``ge``, one above ``le`` and a value outside
``choices`` must each raise ``SpecError`` whose ``.path`` is exactly
``section.key``; a key or section declared ``only=`` one scenario kind
must be refused, at its own path, in a document of the other kind.
And no platform key is dead: moving any one of them changes the run.
"""

import copy
import dataclasses
import json
import typing

import pytest

from repro.faults import FaultProfile
from repro.platform.scenario import run_scenario
from repro.scenarios import (
    FaultSpec,
    JobMixSpec,
    PoolSpec,
    PricingSpec,
    ScenarioSpec,
    SpecError,
    TrafficSpec,
    load_spec_text,
    spec_from_dict,
)

NAN, INF = float("nan"), float("inf")

SINGLE_JOB = {
    "scenario": {"name": "t", "kind": "single-job"},
    "workload": {"name": "pmf-ml10m"},
}
PLATFORM = {"scenario": {"name": "t", "kind": "platform"}}
PLATFORM_SECTIONS = ("traffic", "jobs", "pool")


def unwrap(hint):
    """``Optional[X]`` -> ``X``."""
    if typing.get_origin(hint) is typing.Union:
        return typing.get_args(hint)[0]
    return hint


def section_classes():
    """``{table name: dataclass}`` for ``[scenario]`` and every section."""
    hints = typing.get_type_hints(ScenarioSpec)
    out = {"scenario": ScenarioSpec}
    for f in dataclasses.fields(ScenarioSpec):
        if not f.metadata:
            out[f.name] = unwrap(hints[f.name])
    return out


def keys_of(cls):
    """``(field, resolved annotation)`` for every spec key ``cls`` declares."""
    hints = typing.get_type_hints(cls)
    return [(f, hints[f.name]) for f in dataclasses.fields(cls) if f.metadata]


KEYS = [
    (section, f, hint)
    for section, cls in section_classes().items()
    for f, hint in keys_of(cls)
]
KEY_IDS = [f"{section}.{f.name}" for section, f, _ in KEYS]


def doc_with(section, key, value):
    base = PLATFORM if section in PLATFORM_SECTIONS else SINGLE_JOB
    doc = copy.deepcopy(base)
    doc.setdefault(section, {})[key] = value
    return doc


def rejected_at(section, key, value):
    with pytest.raises(SpecError) as excinfo:
        spec_from_dict(doc_with(section, key, value))
    assert excinfo.value.path == f"{section}.{key}", str(excinfo.value)
    return str(excinfo.value)


def is_pair(hint):
    return typing.get_origin(hint) is tuple and typing.get_args(hint)[-1] is not Ellipsis


def is_list(hint):
    return typing.get_origin(hint) is tuple and typing.get_args(hint)[-1] is Ellipsis


def shaped(hint, number):
    """``number`` in the shape the key takes: scalar, ``[lo, hi]`` or list."""
    if is_pair(hint):
        return [number, number]
    if is_list(hint):
        return [number]
    return number


def takes_floats(hint):
    return hint is float or (
        typing.get_origin(hint) is tuple and typing.get_args(hint)[0] is float
    )


def test_table_covers_every_section():
    assert list(section_classes()) == [
        "scenario", "workload", "sweep", "faults", "traffic", "jobs",
        "pool", "pricing", "budget", "report",
    ]
    assert {section for section, _, _ in KEYS} == set(section_classes())


@pytest.mark.parametrize("section,f,hint", KEYS, ids=KEY_IDS)
def test_wrong_type_is_rejected_at_the_key(section, f, hint):
    inner = unwrap(hint)
    wrong = 7 if inner in (str, bool) else "seven"
    rejected_at(section, f.name, wrong)
    if inner is int:
        rejected_at(section, f.name, 1.5)
        rejected_at(section, f.name, True)
    if typing.get_origin(inner) is tuple:
        rejected_at(section, f.name, [])
        rejected_at(section, f.name, ["seven", "seven"])


@pytest.mark.parametrize("section,f,hint", KEYS, ids=KEY_IDS)
def test_null_only_where_the_type_is_optional(section, f, hint):
    if typing.get_origin(hint) is typing.Union:
        spec = spec_from_dict(doc_with(section, f.name, None))
        assert getattr(getattr(spec, section), f.name) is None
    elif (section, f.name) == ("scenario", "description"):
        assert spec_from_dict(doc_with(section, f.name, None)).description == ""
    else:
        assert rejected_at(section, f.name, None).endswith("got None")


@pytest.mark.parametrize(
    "section,f,hint",
    [k for k in KEYS if takes_floats(unwrap(k[2]))],
    ids=[i for i, k in zip(KEY_IDS, KEYS) if takes_floats(unwrap(k[2]))],
)
@pytest.mark.parametrize("bad", [NAN, INF, -INF], ids=["nan", "inf", "-inf"])
def test_non_finite_numbers_are_rejected(section, f, hint, bad):
    message = rejected_at(section, f.name, shaped(unwrap(hint), bad))
    assert message == f"{section}.{f.name}: must be a finite number, got {bad}"


@pytest.mark.parametrize("section,f,hint", KEYS, ids=KEY_IDS)
def test_bounds_and_choices_are_enforced(section, f, hint):
    inner = unwrap(hint)
    ge, le, choices = (f.metadata[k] for k in ("ge", "le", "choices"))
    if ge is not None:
        assert f"must be >= {ge}" in rejected_at(
            section, f.name, shaped(inner, ge - 1)
        )
    if le is not None:
        assert f"must be <= {le}" in rejected_at(
            section, f.name, shaped(inner, le + 1)
        )
    if choices is not None:
        assert f"must be one of {sorted(choices)}" in rejected_at(
            section, f.name, "no-such-choice"
        )


@pytest.mark.parametrize(
    "section,f,hint",
    [k for k in KEYS if k[1].default is dataclasses.MISSING],
    ids=[i for i, k in zip(KEY_IDS, KEYS) if k[1].default is dataclasses.MISSING],
)
def test_required_keys(section, f, hint):
    doc = doc_with(section, f.name, None)
    del doc[section][f.name]
    with pytest.raises(SpecError) as excinfo:
        spec_from_dict(doc)
    assert str(excinfo.value) == f"{section}.{f.name}: is required"


@pytest.mark.parametrize("section", list(section_classes()))
def test_unknown_key_names_the_sorted_known_keys(section):
    known = sorted(f.name for s, f, _ in KEYS if s == section)
    message = rejected_at(section, "no_such_key", 1)
    assert message == (
        f"{section}.no_such_key: unknown key (expected one of {known})"
    )


@pytest.mark.parametrize(
    "name,value",
    [
        ("crash_window_s", [100.0, 200.0]),
        ("straggler_factor", [2.0, 3.0]),
        ("coldstart_spike_factor", [3.0, 9.0]),
        ("max_storage_retries", 9),
        ("kv_error_rate", 0.5),
    ],
)
def test_named_fault_profile_refuses_inline_keys_off_their_default(name, value):
    """A preset lowers to the registry entry and dumps as its name, so an
    inline magnitude beside it would be silently ignored and then lost."""
    default = FaultSpec.__dataclass_fields__[name].default
    # ... and so would the same key spelled out at its default, which is
    # the spec's default, not the preset's value: "crash" runs
    # crash_window_s = (0.5, 15.0) whatever is written beside it.
    for written in (value, list(default) if isinstance(default, tuple) else default):
        doc = doc_with("faults", "profile", "crash")
        doc["faults"][name] = written
        with pytest.raises(SpecError) as excinfo:
            spec_from_dict(doc)
        assert str(excinfo.value) == (
            "faults: sets both a named 'profile' and inline rates; pick one"
        )


def test_named_fault_profile_refuses_a_rate_written_at_zero():
    """``chaos`` crashes at 0.2; ``crash_rate = 0.0`` beside it was accepted,
    ran at 0.2, and the author's key vanished from the dump."""
    doc = doc_with("faults", "profile", "chaos")
    assert spec_from_dict(doc).faults.to_profile("t").crash_rate == 0.2
    doc["faults"].update(crash_rate=0.0, max_storage_retries=4)
    with pytest.raises(SpecError, match="pick one"):
        spec_from_dict(doc)


# -- only= : keys and sections that belong to one scenario kind --------------

BY_KIND = {"single-job": SINGLE_JOB, "platform": PLATFORM}
ONLY_KEYS = [k for k in KEYS if k[1].metadata["only"] is not None]
ONLY_SECTIONS = {
    name: cls._only for name, cls in section_classes().items()
    if getattr(cls, "_only", None) is not None
}
#: the least each kind-bound section accepts
SMALLEST = {"workload": {"name": "pmf-ml10m"}, "sweep": {"workers": [2]}}


def other_kind(kind):
    (other,) = set(BY_KIND) - {kind}
    return other


def test_every_kind_bound_key_and_section_is_declared():
    assert sorted(f"{s}.{f.name}" for s, f, _ in ONLY_KEYS) == [
        "budget.max_queue_wait_p95_s", "budget.require_converged",
        "report.critical_path", "report.isolated_baseline",
    ]
    assert ONLY_SECTIONS == {
        "workload": "single-job", "sweep": "single-job", "faults": "single-job",
        "traffic": "platform", "jobs": "platform", "pool": "platform",
    }


@pytest.mark.parametrize(
    "section,f,hint", ONLY_KEYS,
    ids=[i for i, k in zip(KEY_IDS, KEYS) if k in ONLY_KEYS],
)
def test_kind_only_key_is_rejected_in_the_other_kind(section, f, hint):
    only = f.metadata["only"]
    off_default = True if unwrap(hint) is bool else 10.0
    doc = copy.deepcopy(BY_KIND[other_kind(only)])
    doc[section] = {f.name: off_default}
    with pytest.raises(SpecError) as excinfo:
        spec_from_dict(doc)
    assert excinfo.value.path == f"{section}.{f.name}"
    assert str(excinfo.value) == (
        f"{section}.{f.name}: only applies to kind = {only!r}"
    )
    # written out at its default it is inert; in its own kind it is live
    doc[section] = {f.name: f.default}
    spec_from_dict(doc)
    own = copy.deepcopy(BY_KIND[only])
    own[section] = {f.name: off_default}
    assert getattr(getattr(spec_from_dict(own), section), f.name) == off_default


@pytest.mark.parametrize("section", list(ONLY_SECTIONS))
def test_kind_only_section_is_rejected_in_the_other_kind(section):
    only = ONLY_SECTIONS[section]
    doc = copy.deepcopy(BY_KIND[other_kind(only)])
    doc[section] = SMALLEST.get(section, {})
    with pytest.raises(SpecError) as excinfo:
        spec_from_dict(doc)
    assert str(excinfo.value) == (
        f"{section}: is a {only} section; not allowed for {other_kind(only)!r}"
    )


# -- no dead key: every platform key reaches the run ------------------------

#: a small *contended* platform run (about 150 jobs on 4 slots) in which
#: burst windows open and a head that does not fit seals the sweep, so
#: every key below has something to act on
LIVE_BASE = {
    "traffic": TrafficSpec(
        tenants=6, horizon_s=1500.0, mean_rate_per_h=40.0, peak_time_s=600.0,
        period_s=1500.0, bursts_per_h=3.0, burst_len_s=120.0,
    ),
    "jobs": JobMixSpec(max_workers=4, min_steps=3, max_steps=10),
    "pool": PoolSpec(
        concurrency=4, keep_alive_s=60.0, scale_to_zero_after_s=20.0, max_skips=0,
    ),
    "pricing": PricingSpec(),
}
#: each key of the four sections, moved off its LIVE_BASE value
MOVED = {
    "traffic.tenants": 7,
    "traffic.horizon_s": 1600.0,
    "traffic.mean_rate_per_h": 45.0,
    "traffic.diurnal_amplitude": 0.3,
    "traffic.peak_time_s": 900.0,
    "traffic.period_s": 1200.0,
    "traffic.bursts_per_h": 4.0,
    "traffic.burst_len_s": 200.0,
    "traffic.burst_multiplier": 3.0,
    "jobs.min_workers": 2,
    "jobs.max_workers": 3,
    "jobs.min_steps": 4,
    "jobs.max_steps": 12,
    "jobs.step_cpu_median_s": 0.5,
    "jobs.step_cpu_sigma": 0.2,
    "jobs.sync_every": 2,
    "pool.concurrency": 5,
    "pool.memory_grades_mb": (512, 2048),
    "pool.keep_alive_s": 90.0,
    "pool.scale_to_zero_after_s": 40.0,
    "pool.max_skips": 2,
    "pricing.rate_per_gb_s": 2e-5,
    "pricing.idle_rate_fraction": 0.5,
}


def observe_platform(sections):
    """What a platform run shows: (trace digest, metrics, idle cost per tenant)."""
    result = run_scenario(0, *(sections[name] for name in LIVE_BASE))
    idle = {t: inv.idle_cost for t, inv in result.report.invoices.items()}
    return result.digest, result.metrics, idle


def test_every_platform_key_changes_the_run():
    """The sections *are* the platform's configuration, so a key the run
    ignores is a dead key: moving any one of them must move the outcome."""
    declared = [
        f"{name}.{f.name}"
        for name, section in LIVE_BASE.items()
        for f in dataclasses.fields(section)
    ]
    assert declared == list(MOVED)
    base = observe_platform(LIVE_BASE)
    assert base[1]["queue_wait_p95_s"] > 0.0  # contended, or nothing to move
    for dotted, value in MOVED.items():
        name, key = dotted.split(".")
        moved = {**LIVE_BASE, name: dataclasses.replace(LIVE_BASE[name], **{key: value})}
        assert observe_platform(moved) != base, f"{dotted} does not reach the run"


def test_inline_faults_lower_every_key_but_profile():
    spec = spec_from_dict(doc_with("faults", "kv_error_rate", 0.5))
    profile = spec.faults.to_profile("t")
    assert isinstance(profile, FaultProfile)
    for f in dataclasses.fields(spec.faults):
        if f.name != "profile":
            assert getattr(profile, f.name) == getattr(spec.faults, f.name)


# -- the file-level probes that used to hang or crash a run -----------------


def test_infinite_horizon_from_toml_is_a_load_error():
    text = (
        '[scenario]\nname = "t"\nkind = "platform"\n'
        "[traffic]\nhorizon_s = inf\n"
    )
    with pytest.raises(SpecError) as excinfo:
        load_spec_text(text, origin="x.toml")
    assert str(excinfo.value) == (
        "x.toml: traffic.horizon_s: must be a finite number, got inf"
    )


def test_nan_budget_from_json_is_a_load_error():
    doc = doc_with("budget", "max_cost_usd", NAN)
    with pytest.raises(SpecError) as excinfo:
        load_spec_text(json.dumps(doc), origin="x.json")
    assert str(excinfo.value) == (
        "x.json: budget.max_cost_usd: must be a finite number, got nan"
    )


def test_null_kind_is_not_a_platform_scenario():
    assert rejected_at("scenario", "kind", None) == (
        "scenario.kind: must be a string, got None"
    )
