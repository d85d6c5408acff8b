"""Synchronization policies as data.

The paper runs three synchronization modes — BSP (per-step barrier, the
default), ISP (BSP plus the significance filter, §3.2) and SSP (the
relaxation §3.1 notes is "easy enough to integrate") — and PR 5 left
them as two hand-written worker/supervisor loop pairs.  This module
makes the mode a *data-carrying policy object* consumed by one unified
step machine (:mod:`repro.core.step_machine`): the per-step skeleton is
written once, and a :class:`SyncPolicy` tells it

* which **family** of coordination to run — ``barrier`` (report to the
  supervisor, block on its ``step_complete`` release) or ``gossip``
  (announce updates directly to peers, block only on the staleness
  gate);
* whether per-step/barrier **spans** are traced (the barrier family
  opens them; gossip has no barrier wait to attribute);
* the gossip **staleness** bound; and
* how update contributions are **scaled** — by the *current* pool size
  (``active``: barrier runs shrink under scale-in, and an
  adaptively-switched job keeps its shrunken pool) or the *configured*
  one (``configured``: plain SSP runs without the auto-tuner).

The SMLT-style adaptive mode starts as a barrier policy and hops to
:func:`gossip_policy` mid-job when the supervisor's
:class:`~repro.core.adaptive.AdaptiveController` orders the switch.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "BARRIER",
    "GOSSIP",
    "SyncPolicy",
    "resolve_policy",
    "gossip_policy",
    "can_gossip",
]

#: coordination families
BARRIER = "barrier"
GOSSIP = "gossip"

#: update-scaling modes
SCALE_ACTIVE = "active"
SCALE_CONFIGURED = "configured"


@dataclass(frozen=True)
class SyncPolicy:
    """One synchronization mode, as data the step machine interprets."""

    #: display name: "bsp", "isp", "ssp" or "adaptive"
    name: str
    #: coordination family: BARRIER or GOSSIP
    family: str
    #: open per-step/barrier tracer spans (barrier family only — gossip
    #: has no collective wait whose self-time would mean anything)
    traced_steps: bool
    #: gossip: max steps a worker may lead the slowest peer
    staleness: int
    #: update scaling: SCALE_ACTIVE (1/current pool) or
    #: SCALE_CONFIGURED (1/configured pool)
    scale_mode: str


def resolve_policy(config) -> SyncPolicy:
    """The policy a job starts under, from its :class:`JobConfig`."""
    if config.sync == "ssp":
        return SyncPolicy(
            name="ssp",
            family=GOSSIP,
            traced_steps=False,
            staleness=config.ssp_staleness,
            scale_mode=SCALE_CONFIGURED,
        )
    if config.sync == "adaptive":
        return SyncPolicy(
            name="adaptive",
            family=BARRIER,
            traced_steps=True,
            staleness=config.ssp_staleness,
            scale_mode=SCALE_ACTIVE,
        )
    return SyncPolicy(
        name=config.sync_model,  # "bsp" or "isp" depending on v
        family=BARRIER,
        traced_steps=True,
        staleness=0,
        scale_mode=SCALE_ACTIVE,
    )


def gossip_policy(config) -> SyncPolicy:
    """The policy an adaptive job hops to when the controller orders it.

    Unlike plain SSP this keeps SCALE_ACTIVE: the barrier phase may have
    shrunk the pool, and update contributions must keep averaging over
    the workers that actually remain.
    """
    return SyncPolicy(
        name="adaptive",
        family=GOSSIP,
        traced_steps=False,
        staleness=config.ssp_staleness,
        scale_mode=SCALE_ACTIVE,
    )


def can_gossip(config) -> bool:
    """Whether the job ever gossips: SSP from step one, adaptive after its switch."""
    return config.sync == "adaptive" or resolve_policy(config).family == GOSSIP
