"""Declarative scenario engine: spec -> compile -> run -> KPI report.

The front door that makes every subsystem in this repo — execution
backends, fault injection, tracing, the multi-tenant platform, pricing —
demonstrable and regression-testable from one command.  A scenario
(workload + backend + fault profile + traffic pattern + pricing table +
run budget) is a declarative, replayable artifact: a TOML/JSON file
validated into frozen dataclasses (:mod:`repro.scenarios.spec`), lowered
onto the existing seams (:mod:`repro.scenarios.compiler` →
``repro.exec`` backends for single jobs, ``repro.platform`` for
multi-tenant runs), and reported as one KPI JSON document with a
deterministic digest (:mod:`repro.scenarios.kpi`) so committed templates
are regression-gated like benchmarks.

Quickstart::

    repro scenario list
    repro scenario run fault-storm --report out.json
    repro scenario run diurnal-multi-tenant

Everything except :mod:`repro.scenarios.cli` is pure (no host I/O, no
wall clock) and registered as a sim-lint simulated layer.
"""

from .compiler import KPI_SCHEMA, run_scenario_spec
from .kpi import (
    ReconciliationError,
    evaluate_budget,
    finalize_report,
    kpi_digest,
    reconcile_platform,
    reconcile_single_job,
    summary_lines,
)
from .loader import dump_spec_json, dump_spec_toml, load_spec_text
from .spec import (
    BudgetSpec,
    FaultSpec,
    JobMixSpec,
    PoolSpec,
    PricingSpec,
    ReportSpec,
    ScenarioSpec,
    SpecError,
    SweepSpec,
    TrafficSpec,
    WorkloadSpec,
    spec_from_dict,
)

__all__ = [
    "KPI_SCHEMA",
    "run_scenario_spec",
    "ReconciliationError",
    "evaluate_budget",
    "finalize_report",
    "kpi_digest",
    "reconcile_platform",
    "reconcile_single_job",
    "summary_lines",
    "dump_spec_json",
    "dump_spec_toml",
    "load_spec_text",
    "BudgetSpec",
    "FaultSpec",
    "JobMixSpec",
    "PoolSpec",
    "PricingSpec",
    "ReportSpec",
    "ScenarioSpec",
    "SpecError",
    "SweepSpec",
    "TrafficSpec",
    "WorkloadSpec",
    "spec_from_dict",
]
