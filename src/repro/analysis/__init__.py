"""Simulation-purity static analysis (``sim-lint``) and determinism oracle.

Everything this reproduction claims — convergence curves, bills, the
PR-1 fault-injection story — rests on the DES kernel being
bit-deterministic: one seed, one byte-identical event schedule.  The
invariants that guarantee this (named RNG streams, no wall-clock in
simulated layers, stable event ordering) used to live only in
docstrings; this package makes violating them a CI failure.

Two complementary halves:

``repro.analysis`` (static)
    A two-phase project analyzer (``repro lint``): a
    *collect* phase parses every file once into a shared
    :class:`~repro.analysis.project.ProjectContext` (import graph,
    symbol tables, machine detection, seed-stream call sites); a *check*
    phase runs the per-file purity rules (``SIM0xx``) plus three
    cross-module families — ``EXEC1xx`` (backend-neutrality of the
    training machines), ``SEED1xx`` (project-wide seed-stream
    discipline), ``LOCK1xx`` (thread-backend lock hygiene).  Pure
    ``ast`` + a small rule engine — no third-party lint framework.
    Which modules each rule polices is one policy, the defaults of
    :class:`~repro.analysis.config.SimLintConfig`.  A finding is
    forgiven in exactly two ways: ``# sim-lint: disable=ID`` on its line,
    or the per-module ``ALLOW`` map in :mod:`~repro.analysis.config`.
    Reports render as text, or as JSON with ``--json``.

``repro.analysis.determinism`` (runtime)
    An end-to-end oracle that runs a small training job twice, hashes
    the per-event monitor trace, and pinpoints the first diverging
    event.  The static rules catch hazards the oracle's single workload
    never executes; the oracle catches semantic non-determinism no
    syntactic rule can see.
"""

from .config import SimLintConfig
from .engine import Finding, analyze_paths, iter_source_files
from .project import ProjectContext
from .rules import ALL_RULES, rule_by_id

__all__ = [
    "ALL_RULES",
    "Finding",
    "ProjectContext",
    "SimLintConfig",
    "analyze_paths",
    "iter_source_files",
    "rule_by_id",
]
