"""Validated scenario specifications: the declarative front door.

A :class:`ScenarioSpec` captures everything that defines one experiment
— workload, execution backend, fault profile, traffic pattern, pricing
table and run budget — as frozen dataclasses built from a plain nested
dict (itself parsed from TOML or JSON by :mod:`repro.scenarios.loader`).
Validation is strict and path-precise: unknown keys, wrong types and
out-of-range values all raise :class:`SpecError` whose message names the
exact dotted key (``faults.crash_rate must be >= 0``), so a template
author is never left grepping a traceback.

Two scenario kinds exist:

* ``single-job`` — one MLLess training job (optionally swept over
  worker counts and ISP thresholds) on any execution backend, lowered
  onto :func:`repro.experiments.common.run_mlless`;
* ``platform`` — a multi-tenant run (arrivals, fair-share scheduler,
  shared pool, per-tenant invoices) lowered onto
  :func:`repro.platform.scenario.run_scenario`.

Every key is declared once — a dataclass field whose annotation is the
type and whose :func:`key` metadata holds default, bounds, choices and
dump rule — and that table drives the one reader (:func:`_read_keys`)
and the one dumper (:func:`_dump_keys`) all sections share; ``only=``
ties a key (or a section) to one scenario kind.  Which features combine,
and on which backend, :mod:`repro.core.capabilities` decides, reported at
the key that asked.  The few other rules that relate several keys are
hand-written: per-section ``_cross_check`` hooks and :func:`_cross_validate`.

Specs are pure data with a lossless ``to_dict``/``from_dict`` round
trip; nothing here touches the filesystem or the clock.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, Field, dataclass, field, fields
from functools import lru_cache
from typing import (
    Any,
    Dict,
    List,
    Optional,
    Tuple,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

from ..core import capabilities as cap
from ..core.config import pipeline_shape_error
from ..experiments.settings import WORKLOADS
from ..faas.limits import FaaSLimits
from ..faults import FAULT_PROFILES, FaultProfile

__all__ = [
    "SpecError",
    "WorkloadSpec",
    "SweepSpec",
    "FaultSpec",
    "TrafficSpec",
    "JobMixSpec",
    "PoolSpec",
    "PricingSpec",
    "BudgetSpec",
    "ReportSpec",
    "ScenarioSpec",
    "spec_from_dict",
    "KINDS",
    "BACKENDS",
    "WORKLOAD_KINDS",
    "SYNC_MODES",
]

KINDS = ("single-job", "platform")
BACKENDS = cap.BACKENDS
WORKLOAD_KINDS = ("data-parallel", "mlp-pipeline")
SYNC_MODES = ("bsp", "ssp", "adaptive")

#: hard cap on sweep grids so a typo cannot schedule a thousand runs
MAX_SWEEP_COMBOS = 64


class SpecError(ValueError):
    """A scenario spec failed validation.

    ``path`` is the dotted key that failed (``faults.crash_rate``);
    loaders prefix the message with the file origin so the final text
    reads ``scenarios/fault_storm.toml: faults.crash_rate must be >= 0``.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


# -- the field table: declare each key once ---------------------------------

#: dump rule: emit the key only when it differs from its default.  The
#: other rules are ``None`` (always emit) and a predicate over the section
#: (emit when true).  Whatever the rule, a key holding ``None`` is never
#: emitted — TOML has no null and the reader fills it back in.
IF_SET = "if-set"


def key(default=MISSING, *, ge=None, le=None, choices=None, dump=None, only=None):
    """Declare one spec key on a section dataclass.

    The annotation gives the type (``Optional[...]`` = nullable,
    ``Tuple[float, float]`` = a ``[lo, hi]`` range, ``Tuple[x, ...]`` = a
    non-empty list); no ``default`` makes the key required; ``ge``/``le``
    are inclusive bounds (on a range's ``lo``, on every list item);
    ``choices`` the allowed strings; ``dump`` the dump rule; ``only`` the
    one scenario kind in which the key may leave its default.
    """
    return field(
        default=default,
        metadata={"ge": ge, "le": le, "choices": choices, "dump": dump, "only": only},
    )


@lru_cache(maxsize=None)
def _keys(cls) -> Tuple[Tuple[Field, Any], ...]:
    """``cls``'s key table: ``(field, resolved annotation)`` per :func:`key`."""
    hints = get_type_hints(cls)
    return tuple((f, hints[f.name]) for f in fields(cls) if f.metadata)


def _unwrap(hint):
    """``Optional[X]`` -> ``X``; anything else unchanged."""
    return get_args(hint)[0] if get_origin(hint) is Union else hint


# -- the one reader ---------------------------------------------------------

_NUMBER_WORDS = {int: ("an integer", "integers"), float: ("a number", "numbers")}


def _finite(path: str, raw) -> float:
    try:
        value = float(raw)
    except OverflowError:  # an int beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise SpecError(path, f"must be a finite number, got {raw}")
    return value


def _number(path: str, raw, kind, meta, item: bool = False):
    """One int/float scalar or list item: type, finiteness, then bounds."""
    accepted = (int, float) if kind is float else int
    if isinstance(raw, bool) or not isinstance(raw, accepted):
        one, many = _NUMBER_WORDS[kind]
        raise SpecError(
            path,
            f"must contain only {many}, got {raw!r}" if item
            else f"must be {one}, got {raw!r}",
        )
    value = _finite(path, raw) if kind is float else raw
    prefix, shown = ("items ", raw) if item else ("", value)
    if meta["ge"] is not None and value < meta["ge"]:
        raise SpecError(path, f"{prefix}must be >= {meta['ge']}, got {shown}")
    if meta["le"] is not None and value > meta["le"]:
        raise SpecError(path, f"{prefix}must be <= {meta['le']}, got {shown}")
    return value


def _pair(path: str, raw, meta) -> Tuple[float, float]:
    """A 2-element ``[lo, hi]`` numeric range with ``ge <= lo <= hi``."""
    if not isinstance(raw, (list, tuple)) or len(raw) != 2 or any(
        isinstance(x, bool) or not isinstance(x, (int, float)) for x in raw
    ):
        raise SpecError(
            path, f"must be a 2-element [lo, hi] number list, got {raw!r}"
        )
    lo, hi = _finite(path, raw[0]), _finite(path, raw[1])
    if lo > hi:
        raise SpecError(path, f"must satisfy lo <= hi, got {raw!r}")
    if lo < meta["ge"]:
        raise SpecError(path, f"must be >= {meta['ge']}, got {raw!r}")
    return (lo, hi)


def _check(path: str, raw, hint, meta):
    """Validate one raw value against its declared type; return the stored form."""
    if get_origin(hint) is Union:
        if raw is None:
            return None
        hint = _unwrap(hint)
    if get_origin(hint) is tuple:
        kind, tail = get_args(hint)
        if tail is not Ellipsis:
            return _pair(path, raw, meta)
        if not isinstance(raw, (list, tuple)) or not raw:
            raise SpecError(
                path,
                f"must be a non-empty list of {_NUMBER_WORDS[kind][1]}, got {raw!r}",
            )
        return tuple(_number(path, item, kind, meta, item=True) for item in raw)
    if hint is bool:
        if not isinstance(raw, bool):
            raise SpecError(path, f"must be true or false, got {raw!r}")
        return raw
    if hint is str:
        if not isinstance(raw, str):
            raise SpecError(path, f"must be a string, got {raw!r}")
        if meta["choices"] is not None and raw not in meta["choices"]:
            raise SpecError(
                path, f"must be one of {sorted(meta['choices'])}, got {raw!r}"
            )
        return raw
    return _number(path, raw, hint, meta)


def _read_keys(cls, data: Dict[str, Any], path: str) -> Dict[str, Any]:
    """Checked constructor kwargs for ``cls`` from one table.

    Keys the table leaves out are left out here too, so the dataclass
    default applies; a key ``cls`` does not declare is rejected, naming
    what would have been accepted.
    """
    if not isinstance(data, dict):
        raise SpecError(path, f"must be a table/object, got {type(data).__name__}")
    out: Dict[str, Any] = {}
    for f, hint in _keys(cls):
        if f.name in data:
            out[f.name] = _check(f"{path}.{f.name}", data[f.name], hint, f.metadata)
        elif f.default is MISSING:
            raise SpecError(f"{path}.{f.name}", "is required")
    known = sorted(f.name for f, _ in _keys(cls))
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise SpecError(
            f"{path}.{unknown[0]}", f"unknown key (expected one of {known})"
        )
    return out


# -- the one dumper ---------------------------------------------------------


def _dump_keys(section) -> Dict[str, Any]:
    """``section``'s keys as a JSON-ready dict, in declaration order."""
    out: Dict[str, Any] = {}
    for f, _ in _keys(type(section)):
        value, rule = getattr(section, f.name), f.metadata["dump"]
        if value is None or (rule == IF_SET and value == f.default):
            continue
        if callable(rule) and not rule(section):
            continue
        out[f.name] = list(value) if isinstance(value, tuple) else value
    return out


def lower_fields(target, *sections, **extra):
    """Build dataclass ``target`` from the sections' same-named fields."""
    wanted = {f.name for f in fields(target)}
    shared = {
        f.name: getattr(section, f.name)
        for section in sections
        for f in fields(section)
        if f.name in wanted
    }
    return target(**shared, **extra)


class _Section:
    """What every section dataclass shares: dict in, dict out, by the table."""

    #: the section's table name, which prefixes its keys in error paths
    _section = ""
    #: the one scenario kind the whole section belongs to (None = both)
    _only = None

    @classmethod
    def from_dict(cls, data: Dict[str, Any], path: str = ""):
        path = path or cls._section
        spec = cls(**_read_keys(cls, data, path))
        spec._cross_check(path, data)
        return spec

    def to_dict(self) -> Dict[str, Any]:
        return _dump_keys(self)

    def _cross_check(self, path: str, table: Dict[str, Any]) -> None:
        """Rules that relate several keys of this one section, as built
        from ``table``."""


# -- section dataclasses ----------------------------------------------------


def _is_pipeline(workload: "WorkloadSpec") -> bool:
    return workload.kind == "mlp-pipeline"


@dataclass(frozen=True)
class WorkloadSpec(_Section):
    """One MLLess training job (the ``[workload]`` section)."""

    _section = "workload"
    _only = "single-job"

    name: str = key(choices=tuple(WORKLOADS))
    workers: int = key(4, ge=1)
    backend: str = key("sim", choices=BACKENDS)
    #: "data-parallel" (the default) or "mlp-pipeline" (model-parallel
    #: stage functions; requires a stageable workload)
    kind: str = key("data-parallel", choices=WORKLOAD_KINDS)
    #: synchronization policy: "bsp", "ssp" or "adaptive" (SMLT-style
    #: mid-job switching)
    sync: str = key("bsp", choices=SYNC_MODES)
    #: ISP significance threshold v (0 = plain BSP)
    isp_threshold: float = key(0.0, ge=0.0)
    autotune: bool = key(False)
    max_steps: int = key(100, ge=1)
    #: None = the workload's published target
    target_loss: Optional[float] = key(None, ge=0.0)
    #: mlp-pipeline only: stage count (must equal ``workers``)
    stages: int = key(1, ge=1, dump=_is_pipeline)
    #: mlp-pipeline only: micro-batches kept in flight per step
    micro_batches: int = key(1, ge=1, dump=_is_pipeline)


@dataclass(frozen=True)
class SweepSpec(_Section):
    """Config grid for single-job right-sizing sweeps (``[sweep]``)."""

    _section = "sweep"
    _only = "single-job"

    #: recommendation picks the cheapest combo within this factor of the
    #: fastest combo's exec time (the ROADMAP's "1.2x of fastest" rule)
    speed_tolerance: float = key(1.2, ge=1.0)
    workers: Tuple[int, ...] = key((), ge=1, dump=IF_SET)
    isp_threshold: Tuple[float, ...] = key((), ge=0.0, dump=IF_SET)

    def _cross_check(self, path: str, table: Dict[str, Any]) -> None:
        if not self.workers and not self.isp_threshold:
            raise SpecError(
                path, "must set at least one of 'workers' / 'isp_threshold'"
            )

    def combos(self, base_workers: int, base_v: float) -> List[Tuple[int, float]]:
        """The (workers, isp_threshold) grid, base values filling gaps."""
        workers = self.workers or (base_workers,)
        thresholds = self.isp_threshold or (base_v,)
        return [(w, v) for w in workers for v in thresholds]


def _inline(default, **rules):
    """An inline ``[faults]`` key; a named preset dumps as its name alone."""
    return key(default, dump=lambda faults: faults.profile is None, **rules)


def _rate():
    return _inline(0.0, ge=0.0, le=1.0)


@dataclass(frozen=True)
class FaultSpec(_Section):
    """Fault injection (``[faults]``): a named preset or inline rates."""

    _section = "faults"
    _only = "single-job"

    profile: Optional[str] = key(None, choices=tuple(FAULT_PROFILES))
    crash_rate: float = _rate()
    crash_window_s: Tuple[float, float] = _inline((0.5, 30.0), ge=0.0)
    coldstart_spike_rate: float = _rate()
    coldstart_spike_factor: Tuple[float, float] = _inline((2.0, 8.0), ge=1.0)
    straggler_rate: float = _rate()
    straggler_factor: Tuple[float, float] = _inline((1.5, 4.0), ge=1.0)
    message_loss_rate: float = _rate()
    message_duplication_rate: float = _rate()
    kv_error_rate: float = _rate()
    cos_error_rate: float = _rate()
    max_storage_retries: int = _inline(4, ge=0)

    def _cross_check(self, path: str, table: Dict[str, Any]) -> None:
        # A preset lowers to the registry entry and dumps as its name
        # alone, so any inline key written beside it — at its default or
        # not — would be overridden and then lost.
        if self.profile is not None and len(table) > 1:
            raise SpecError(
                path, "sets both a named 'profile' and inline rates; pick one"
            )
        if self.message_loss_rate + self.message_duplication_rate > 1.0:
            raise SpecError(
                f"{path}.message_loss_rate",
                "message loss + duplication rates must sum to <= 1",
            )

    def to_profile(self, scenario_name: str) -> FaultProfile:
        """Lower to the injector's :class:`FaultProfile`."""
        if self.profile is not None:
            return FAULT_PROFILES[self.profile]
        return lower_fields(FaultProfile, self, name=f"scenario:{scenario_name}")


@dataclass(frozen=True)
class TrafficSpec(_Section):
    """Multi-tenant arrival traffic (``[traffic]``)."""

    _section = "traffic"
    _only = "platform"

    tenants: int = key(24, ge=1)
    horizon_s: float = key(7200.0, ge=1.0)
    #: per-tenant submissions per hour, averaged over the diurnal cycle
    mean_rate_per_h: float = key(9.0, ge=0.0)
    #: the rate swings between ``mean * (1 - amp)`` and ``mean * (1 + amp)``
    diurnal_amplitude: float = key(0.6, ge=0.0, le=0.999)
    #: sim time of the diurnal peak / length of one (compressed) day
    peak_time_s: float = key(2700.0, ge=0.0)
    period_s: float = key(7200.0, ge=1.0)
    #: expected burst windows per hour per tenant, each ``burst_len_s``
    #: long and multiplying the rate by ``burst_multiplier``
    bursts_per_h: float = key(0.5, ge=0.0)
    burst_len_s: float = key(300.0, ge=0.0)
    burst_multiplier: float = key(5.0, ge=1.0)


@dataclass(frozen=True)
class JobMixSpec(_Section):
    """Per-tenant job size sampling ranges (``[jobs]``)."""

    _section = "jobs"
    _only = "platform"

    min_workers: int = key(1, ge=1)
    max_workers: int = key(4, ge=1)
    min_steps: int = key(20, ge=1)
    max_steps: int = key(60, ge=1)
    #: lognormal median / sigma of per-step CPU seconds
    step_cpu_median_s: float = key(0.35, ge=1e-6)
    step_cpu_sigma: float = key(0.45, ge=0.0)
    sync_every: int = key(5, ge=0)

    def _cross_check(self, path: str, table: Dict[str, Any]) -> None:
        for what in ("workers", "steps"):
            low, high = getattr(self, f"min_{what}"), getattr(self, f"max_{what}")
            if low > high:
                raise SpecError(
                    f"{path}.min_{what}",
                    f"must be <= jobs.max_{what} ({high}), got {low}",
                )


@dataclass(frozen=True)
class PoolSpec(_Section):
    """Shared-pool shape (``[pool]``)."""

    _section = "pool"
    _only = "platform"

    #: sized so the default diurnal peak (plus bursts) really queues jobs
    concurrency: int = key(12, ge=1)
    #: function sizes the pool registers (each job draws one), inside the platform's range
    memory_grades_mb: Tuple[int, ...] = key(
        (1024, 2048), ge=FaaSLimits.min_memory_mb, le=FaaSLimits.max_memory_mb
    )
    keep_alive_s: float = key(180.0, ge=0.0)
    scale_to_zero_after_s: float = key(60.0, ge=0.0)
    max_skips: int = key(8, ge=0)


@dataclass(frozen=True)
class PricingSpec(_Section):
    """Billing rates (``[pricing]``)."""

    _section = "pricing"

    #: $ per GB-second of billed function time (the paper's Table 2 rate)
    rate_per_gb_s: float = key(1.7e-5, ge=0.0)
    #: platform idle keep-alive re-billed at this fraction of active rate
    idle_rate_fraction: float = key(0.25, ge=0.0, le=1.0)


@dataclass(frozen=True)
class BudgetSpec(_Section):
    """Run budget (``[budget]``): KPI ceilings the run must stay under."""

    _section = "budget"

    max_cost_usd: Optional[float] = key(None, ge=0.0)
    max_exec_time_s: Optional[float] = key(None, ge=0.0)
    #: platform runs only: p95 queue wait ceiling
    max_queue_wait_p95_s: Optional[float] = key(None, ge=0.0, only="platform")
    require_converged: bool = key(False, dump=IF_SET, only="single-job")


@dataclass(frozen=True)
class ReportSpec(_Section):
    """What the KPI report includes beyond the headline numbers."""

    _section = "report"

    #: record a span trace and include the critical-path summary
    critical_path: bool = key(False, dump=IF_SET, only="single-job")
    #: price the per-job-isolation counterfactual
    isolated_baseline: bool = key(False, dump=IF_SET, only="platform")


# -- the top-level spec -----------------------------------------------------


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully-described, replayable scenario.

    The four :func:`key` fields are the ``[scenario]`` table; every
    other field is one optional section table of the same name.
    """

    name: str = key()
    kind: str = key(choices=KINDS)
    seed: int = key(0, ge=0)
    description: str = key("", dump=IF_SET)
    workload: Optional[WorkloadSpec] = None
    sweep: Optional[SweepSpec] = None
    faults: Optional[FaultSpec] = None
    traffic: Optional[TrafficSpec] = None
    jobs: Optional[JobMixSpec] = None
    pool: Optional[PoolSpec] = None
    pricing: PricingSpec = field(default_factory=PricingSpec)
    budget: BudgetSpec = field(default_factory=BudgetSpec)
    report: ReportSpec = field(default_factory=ReportSpec)

    @property
    def backend(self) -> str:
        """Where the scenario runs; the platform is simulated."""
        return "sim" if self.workload is None else self.workload.backend

    @property
    def deterministic(self) -> bool:
        """True when two runs at the same seed are bit-identical."""
        return cap.supports(cap.RERUN, self.backend)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready nested dict; lossless input to :func:`spec_from_dict`.

        A section left unset, or whose every key is at an undumped
        default (``[budget]``, ``[report]``), has no table.
        """
        out: Dict[str, Any] = {"scenario": _dump_keys(self)}
        for name in _SECTIONS:
            section = getattr(self, name)
            table = section.to_dict() if section is not None else None
            if table:
                out[name] = table
        return out


#: section table name -> its dataclass, in canonical (dump) order
_SECTIONS: Dict[str, type] = {
    f.name: _unwrap(get_type_hints(ScenarioSpec)[f.name])
    for f in fields(ScenarioSpec)
    if not f.metadata
}
_SECTION_KEYS = ("scenario", *_SECTIONS)

#: template names must be CLI- and filename-safe
_NAME_CHARS = frozenset("abcdefghijklmnopqrstuvwxyz0123456789-")


def spec_from_dict(data: Dict[str, Any]) -> ScenarioSpec:
    """Build and cross-validate a :class:`ScenarioSpec` from a parsed dict."""
    if not isinstance(data, dict):
        raise SpecError("", f"spec must be a table/object, got {type(data).__name__}")
    unknown = sorted(set(data) - set(_SECTION_KEYS))
    if unknown:
        raise SpecError(
            unknown[0], f"unknown section (expected one of {list(_SECTION_KEYS)})"
        )
    if "scenario" not in data:
        raise SpecError("scenario", "is required")
    head = data["scenario"]
    if isinstance(head, dict) and head.get("description", "") is None:
        # a JSON author's ``"description": null`` reads as "none given"
        head = {**head, "description": ""}
    kwargs = _read_keys(ScenarioSpec, head, "scenario")
    name = kwargs["name"]
    if not name or not set(name) <= _NAME_CHARS or name[0] == "-":
        raise SpecError(
            "scenario.name",
            f"must be lowercase letters/digits/dashes, got {name!r}",
        )
    for section, cls in _SECTIONS.items():
        if section in data:
            kwargs[section] = cls.from_dict(data[section], section)
    spec = ScenarioSpec(**kwargs)
    _check_only(spec)
    _cross_validate(spec)
    return spec


def _check_only(spec: ScenarioSpec) -> None:
    """A section or key declared ``only=`` one kind is refused in the other."""
    for name, cls in _SECTIONS.items():
        section = getattr(spec, name)
        if section is None:
            continue
        if cls._only not in (None, spec.kind):
            raise SpecError(name, f"is a {cls._only} section; not allowed for {spec.kind!r}")
        for f, _ in _keys(cls):
            only = f.metadata["only"]
            if only not in (None, spec.kind) and getattr(section, f.name) != f.default:
                raise SpecError(f"{name}.{f.name}", f"only applies to kind = {only!r}")


def _features(spec: ScenarioSpec) -> Dict[str, str]:
    """Capability-table rows a single-job spec switches on -> the key that did."""
    wl, sweep, faults = spec.workload, spec.sweep, spec.faults
    asks = (
        (wl.sync, "workload.sync", wl.sync in (cap.SSP, cap.ADAPTIVE)),
        (cap.ISP, "sweep.isp_threshold", sweep is not None and any(sweep.isp_threshold)),
        (cap.ISP, "workload.isp_threshold", wl.isp_threshold != 0.0),
        (cap.AUTOTUNE, "workload.autotune", wl.autotune),
        (cap.PIPELINE, "workload.kind", wl.kind == "mlp-pipeline"),
        (cap.FAULTS, "faults", faults is not None),
        # a crash is only survivable with the recovery machinery on
        (cap.CRASH_RECOVERY, "faults",
         faults is not None and faults.to_profile(spec.name).crash_rate > 0.0),
        (cap.SWEEP, "sweep", sweep is not None),
        (cap.TRACING, "report.critical_path", spec.report.critical_path),
        (cap.COST_METERING, "pricing", spec.pricing != PricingSpec()),
    )
    return {row: key for row, key, on in asks if on}


#: :func:`pipeline_shape_error`'s field -> the spec key that sets it
_SHAPE_KEYS = {"model": "workload.kind", "n_workers": "workload.workers",
               "pipeline_stages": "workload.stages"}


def _cross_validate(spec: ScenarioSpec) -> None:
    """Cross-section constraints, after :func:`_check_only`."""
    if spec.kind == "platform":
        jobs = spec.jobs or JobMixSpec()
        pool = spec.pool or PoolSpec()
        if jobs.max_workers > pool.concurrency:
            raise SpecError(
                "jobs.max_workers",
                f"must be <= pool.concurrency ({pool.concurrency}), "
                f"got {jobs.max_workers} — such a job could never be admitted",
            )
        return
    wl = spec.workload
    if wl is None:
        raise SpecError("workload", "is required for kind = 'single-job'")
    asked = _features(spec)
    try:
        cap.check(asked, wl.backend)
    except cap.Refusal as refusal:
        raise SpecError(asked[refusal.feature], str(refusal)) from refusal
    if wl.kind == "mlp-pipeline":
        if wl.stages < 2:
            raise SpecError(
                "workload.stages",
                f"must be >= 2 for kind = 'mlp-pipeline', got {wl.stages}",
            )
        problem = pipeline_shape_error(WORKLOADS[wl.name]().make_model(), wl.workers, wl.stages)
        if problem is not None:
            raise SpecError(_SHAPE_KEYS[problem[0]], problem[1])
    elif wl.stages != 1 or wl.micro_batches != 1:
        raise SpecError(
            "workload.stages",
            "stages/micro_batches only apply to kind = 'mlp-pipeline'",
        )
    if spec.sweep is not None:
        n = len(spec.sweep.combos(wl.workers, wl.isp_threshold))
        if n > MAX_SWEEP_COMBOS:
            raise SpecError("sweep", f"grid has {n} combos; the cap is {MAX_SWEEP_COMBOS}")
