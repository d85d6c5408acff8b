"""Shared wall-clock deadline for host-concurrency backends.

The thread and process backends bound every blocking call so a stuck
peer surfaces as a timeout instead of a hung process (the LOCK103
discipline).  Before this helper each call site recomputed its own
budget, which quietly turned "wait up to 30 s for the workers" into
"wait up to 30 s *per worker*".  A :class:`Deadline` is constructed
once per logical wait and handed to every call site in that wait:
``remaining()`` shrinks monotonically toward zero, so the *total* time
blocked across any number of calls never exceeds the budget.

Wall-clock reads are legal here for the same reason they are legal in
``exec/local.py``: this module is part of the host-concurrency layer
and is deliberately left out of sim-lint's ``SIMULATED_LAYERS``.
"""

from __future__ import annotations

import time
from typing import Callable

__all__ = ["Deadline"]


class Deadline:
    """One absolute expiry shared across blocking call sites.

    >>> drain = Deadline(30.0)
    >>> for thread in workers:                      # doctest: +SKIP
    ...     thread.join(timeout=drain.remaining())  # 30 s total, not each

    ``remaining()`` never goes negative — once expired it returns 0.0,
    which every stdlib ``timeout=`` accepts as "poll and give up", so a
    loop over call sites terminates promptly instead of raising.
    """

    __slots__ = ("budget_s", "_clock", "_expires_at")

    def __init__(
        self,
        budget_s: float,
        clock: Callable[[], float] = time.monotonic,
    ):
        if budget_s < 0:
            raise ValueError(f"budget must be >= 0, got {budget_s}")
        self.budget_s = budget_s
        self._clock = clock
        self._expires_at = clock() + budget_s

    def remaining(self) -> float:
        """Seconds until expiry, clamped at 0.0 (safe as a ``timeout=``)."""
        left = self._expires_at - self._clock()
        return left if left > 0.0 else 0.0

    def expired(self) -> bool:
        """True once the budget is exhausted."""
        return self._clock() >= self._expires_at
