"""Self-healing supervision for parallel campaigns.

The paper's harness kept a multi-week campaign alive on physical
machines that its own test cases were crashing: the Ballista server
noticed a dead SUT, rebooted it, and continued from where the plan
stood, flagging what could not be re-measured.
:class:`~repro.core.parallel.ParallelCampaign` runs that
supervise-reboot-continue loop for the simulated fleet; this module
holds its knobs (:class:`SupervisorPolicy` and the environment
defaults behind them).  Three mechanisms:

* **Automatic restart.**  A worker that dies -- SIGKILLed from outside,
  OOM-killed, or felled by an internal error -- is relaunched from its
  per-variant shard checkpoint with exponential backoff, up to a
  per-variant restart budget.  Because the per-variant loop is
  restart-safe at any plan cursor (completed MuTs skip, machine wear
  restores), the healed run's results are byte-identical to an
  undisturbed run's.

* **Wall-clock watchdog.**  The simulated clock's watchdog catches
  hangs *inside* the simulation, but a MuT implementation that loops in
  real Python never advances the simulated clock at all.  Workers
  stream throttled ``(variant, "api:name", case_index)`` heartbeats
  over their message pipes; a worker whose heartbeat goes stale
  past the real-time deadline is SIGKILLed and restarted from its
  shard.

* **Poison-MuT quarantine.**  A MuT that kills or hangs its worker more
  than ``max_mut_retries`` times is withdrawn: the restarted worker
  records it as a harness-level QUARANTINED outcome (no case array,
  excluded from rates, footnoted in the analysis tables next to the
  ``!`` partial-variant flag) and the variant's plan continues -- the
  campaign finishes instead of burning its restart budget on one
  input.

An exception a worker raises before its first unit (resume validation,
a stale shard) is deterministic, so it fails its spec at once: no
restart, no backoff.

Every decision is logged; the log rides on in-flight checkpoint
documents (so a resumed run sees its fault history) and is cleared from
the final one, preserving the byte-identity guarantee.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable


def _env_value(name: str, default: str) -> str:
    return os.environ.get(name, default)


def default_mut_deadline() -> float | None:
    """Wall-clock heartbeat deadline: ``BALLISTA_MUT_DEADLINE`` seconds,
    default 300.  ``0`` disables the watchdog.  Raises
    :class:`ValueError` naming the variable on junk, so callers (the
    CLI) can report it cleanly."""
    raw = _env_value("BALLISTA_MUT_DEADLINE", "300")
    try:
        deadline = float(raw)
    except ValueError:
        raise ValueError(
            f"BALLISTA_MUT_DEADLINE must be a number of seconds "
            f"(0 disables the watchdog), got {raw!r}"
        ) from None
    if deadline < 0:
        raise ValueError(
            f"BALLISTA_MUT_DEADLINE must be >= 0, got {deadline}"
        )
    return None if deadline == 0 else deadline


def default_max_restarts() -> int:
    """Per-variant worker restart budget: ``BALLISTA_MAX_RESTARTS``,
    default 5."""
    raw = _env_value("BALLISTA_MAX_RESTARTS", "5")
    try:
        budget = int(raw)
    except ValueError:
        raise ValueError(
            f"BALLISTA_MAX_RESTARTS must be an integer restart budget, "
            f"got {raw!r}"
        ) from None
    if budget < 0:
        raise ValueError(f"BALLISTA_MAX_RESTARTS must be >= 0, got {budget}")
    return budget


def default_max_mut_retries() -> int:
    """Worker deaths one MuT may cause before quarantine:
    ``BALLISTA_MAX_MUT_RETRIES``, default 1."""
    raw = _env_value("BALLISTA_MAX_MUT_RETRIES", "1")
    try:
        retries = int(raw)
    except ValueError:
        raise ValueError(
            f"BALLISTA_MAX_MUT_RETRIES must be an integer retry count, "
            f"got {raw!r}"
        ) from None
    if retries < 0:
        raise ValueError(
            f"BALLISTA_MAX_MUT_RETRIES must be >= 0, got {retries}"
        )
    return retries


@dataclass(frozen=True)
class SupervisorPolicy:
    """Knobs for the supervision loop.

    :param mut_deadline: seconds a worker's heartbeat may go stale
        before the watchdog SIGKILLs it (``None`` = watchdog off).
    :param max_restarts: worker relaunches allowed per variant before
        the campaign fails loudly.
    :param max_mut_retries: worker deaths attributable to one MuT
        before it is quarantined (``1`` = one retry, quarantined on the
        second strike).
    :param backoff_base: sleep before the first relaunch of a variant;
        doubles per relaunch, capped at ``backoff_max``.
    :param clock: injectable monotonic clock (tests).
    """

    mut_deadline: float | None = field(default_factory=default_mut_deadline)
    max_restarts: int = field(default_factory=default_max_restarts)
    max_mut_retries: int = field(default_factory=default_max_mut_retries)
    backoff_base: float = 0.25
    backoff_max: float = 15.0
    clock: Callable[[], float] = time.monotonic

    def backoff(self, restart_index: int) -> float:
        """Delay before restart number ``restart_index + 1``."""
        return min(self.backoff_base * (2**restart_index), self.backoff_max)
