"""What runs where: the one feature x backend capability table.

Every optional feature of a training job is a row of :data:`TABLE`; a
cell says what the feature does on one execution backend: supported,
supported with a caveat (``note``), or ``refused`` with the one sentence
the user is shown.  :data:`CONFLICTS` lists the feature pairs no backend
combines.  :func:`check` is the only place a combination is refused —
``JobConfig``, ``run_mlless``, the scenario spec layer and the command
lines ask it (or :func:`supports`) instead of keeping rules of their own
— and :func:`render_markdown` is the matrix in the README.  Pure data:
nothing here imports the rest of the package.
"""

from __future__ import annotations

from typing import Dict, Iterable, NamedTuple, Optional, Tuple

__all__ = ["BACKENDS", "TABLE", "CONFLICTS", "Cell", "Refusal", "check", "supports",
           "render_markdown"]

BACKENDS = ("sim", "local", "procs")

SSP, ADAPTIVE, ISP, AUTOTUNE, PIPELINE = "ssp", "adaptive", "isp", "autotune", "pipeline"
FAULTS, TRACING, SWEEP = "faults", "tracing", "sweep"
#: checkpoints, barrier timeouts and relaunch (``JobConfig.ft_enabled``)
CRASH_RECOVERY = "crash-recovery"
#: a bill: priced activations, a cost breakdown, ``[pricing]`` rates
COST_METERING = "cost-metering"
#: ``run_mlless(world=...)``
WORLD = "caller-supplied world"
#: two runs at one seed give one KPI digest (``--rerun-check``)
RERUN = "digest-stable rerun"


class Refusal(ValueError):
    """A combination the table refuses; ``str()`` is the declared sentence and
    ``feature`` the row to blame (for a pair: the one that cannot join the other)."""

    def __init__(self, feature: str, message: str):
        self.feature = feature
        super().__init__(message)


class Cell(NamedTuple):
    """One feature on one backend: supported unless ``refused`` is set."""

    refused: Optional[str] = None
    note: Optional[str] = None


def _row(sim_only: Optional[str] = None, **notes: str) -> Dict[str, Cell]:
    """A row every backend supports (with per-backend ``notes``), or one
    only the simulator does: ``sim_only`` is the others' refusal."""
    if sim_only is None:
        return {backend: Cell(note=notes.get(backend)) for backend in BACKENDS}
    row = {backend: Cell(refused=sim_only.format(backend=backend)) for backend in BACKENDS}
    return {**row, "sim": Cell()}


_PICKLED = "pickled through the control server, no shm arena"
_NO_INJECTION = "checkpoints and barrier timeouts run for real; nothing injects a crash"

TABLE: Dict[str, Dict[str, Cell]] = {
    SSP: _row(local="peers apply updates in arrival order: the loss depends on thread "
             "scheduling and is not bit-equal to sim", procs=_PICKLED),
    ADAPTIVE: _row(local="the controller reads wall-clock arrival skew, so when it evicts "
                  "or switches differs from run to run", procs=_PICKLED),
    ISP: _row(),
    AUTOTUNE: _row(),
    PIPELINE: {**_row(), "procs": Cell(refused="the procs backend does not support "
                                      "pipeline-parallel jobs; use the sim or local backend")},
    FAULTS: _row("the {backend} backend cannot inject faults — fault profiles steer simulated "
                 "time and sample simulated RNG streams; run them on the sim backend"),
    CRASH_RECOVERY: _row(local=_NO_INJECTION, procs=_NO_INJECTION),
    TRACING: _row("backend='{backend}' does not support span tracing"),
    COST_METERING: _row("the {backend} backend bills nothing — cost metering is sim-only"),
    WORLD: _row("backend='{backend}' does not take a simulation world"),
    RERUN: _row("a digest-stable rerun needs the sim backend — {backend} runs on "
                "wall-clock time, so two runs at one seed are not bit-identical"),
    SWEEP: _row(),
}

_BARRIER_ONLY = "pipeline stages synchronize through the barrier supervisor; sync must be 'bsp'"

#: ``(feature, the feature that cannot join it, sentence)``; the first
#: match in this order is the one reported
CONFLICTS: Tuple[Tuple[str, str, str], ...] = (
    (PIPELINE, SSP, _BARRIER_ONLY),
    (PIPELINE, ADAPTIVE, _BARRIER_ONLY),
    (PIPELINE, ISP, "the significance filter is data-parallel-only; pipelines need threshold 0"),
    (PIPELINE, AUTOTUNE, "a pipeline cannot scale in: every stage holds unique layers"),
    (PIPELINE, CRASH_RECOVERY, "fault tolerance is not yet wired for pipeline stages; "
                               "disable it (or the fault profile)"),
    (PIPELINE, FAULTS, "pipeline stages take no fault profile until they checkpoint"),
    (PIPELINE, SWEEP, "a pipeline has nothing to sweep: workers = stages, ISP threshold = 0"),
    (SSP, AUTOTUNE, "the scale-in auto-tuner currently requires the BSP barrier; disable "
                    "it for SSP runs"),
    (SSP, CRASH_RECOVERY, "fault tolerance currently requires the BSP barrier; disable it "
                          "(or the fault profile) for SSP runs"),
    (ADAPTIVE, AUTOTUNE, "sync='adaptive' owns scale-in itself; disable the scale-in "
                         "auto-tuner for adaptive runs"),
    (ADAPTIVE, CRASH_RECOVERY, "fault tolerance and sync='adaptive' are mutually exclusive: "
                               "the resync protocol assumes a fixed sync family"),
    (ADAPTIVE, ISP, "no test trains the significance filter across an adaptive sync switch; "
                    "adaptive runs need threshold 0"),
)


def check(features: Iterable[str], backend: Optional[str] = None) -> None:
    """Raise :class:`Refusal` unless ``features`` can run together on ``backend``
    (``None``: the pairs alone — a ``JobConfig`` does not know where it will run)."""
    asked = frozenset(features)
    if not asked <= TABLE.keys():
        raise KeyError(f"not capability rows: {sorted(asked - TABLE.keys())}")
    refusals = [(b, text) for a, b, text in CONFLICTS if a in asked and b in asked]
    if backend is not None:
        refusals += [(f, row[backend].refused) for f, row in TABLE.items()
                     if f in asked and row[backend].refused is not None]
    if refusals:
        raise Refusal(*refusals[0])


def supports(feature: str, backend: str) -> bool:
    """Whether ``backend`` runs ``feature`` at all."""
    return TABLE[feature][backend].refused is None


def render_markdown() -> str:
    """The table and the pairs as the README's "What runs where" block."""
    lines = ["| feature | " + " | ".join(BACKENDS) + " |", "|---|" + "---|" * len(BACKENDS)]
    for feature, row in TABLE.items():
        marks = ("no" if c.refused else "yes*" if c.note else "yes" for c in row.values())
        lines.append(f"| {feature} | " + " | ".join(marks) + " |")
    lines += ["", "`yes*` runs with a caveat; `no` is refused with its sentence:", ""]
    lines += [f"- {feature} on {backend}: {cell.refused or cell.note}"
              for feature, row in TABLE.items() for backend, cell in row.items() if cell != Cell()]
    lines += ["", "Refused on every backend:", ""]
    return "\n".join(lines + [f"- {a} + {b}: {text}" for a, b, text in CONFLICTS])
