"""Self-healing supervision for parallel campaigns and the service.

The paper's harness kept a multi-week campaign alive on physical
machines that its own test cases were crashing: the Ballista server
noticed a dead SUT, rebooted it, and continued from where the plan
stood, flagging what could not be re-measured.  Both pump loops that
run workers -- :class:`~repro.core.parallel.ParallelCampaign` and
:class:`~repro.service.server.CampaignService` -- hand every death to
one :class:`Supervisor`; its knobs are a :class:`SupervisorPolicy`
(with the environment defaults behind them).  Three mechanisms:

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
  stream throttled ``(variant, "api:name", case_index)`` heartbeats;
  the parallel runner SIGKILLs a worker whose heartbeat goes stale
  past the real-time deadline (the service: past its shard lease), and
  the death counts as ``hung``.

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

Every decision is logged; the parallel runner's log rides on in-flight
checkpoint documents (so a resumed run sees its fault history) and is
cleared from the final one, preserving the byte-identity guarantee.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.obs.events import BudgetExhausted, WorkerDied, WorkerRestarted


def _env_policy(name: str, default: str, parse: Callable, what: str):
    """``parse`` of environment variable ``name`` (``default`` when
    unset).  Raises :class:`ValueError` naming the variable on junk or
    a negative value, so callers (the CLIs) can report it cleanly."""
    raw = os.environ.get(name, default)
    try:
        value = parse(raw)
    except ValueError:
        raise ValueError(f"{name} must be {what}, got {raw!r}") from None
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def default_mut_deadline() -> float | None:
    """Wall-clock heartbeat deadline: ``BALLISTA_MUT_DEADLINE`` seconds,
    default 300.  ``0`` disables the watchdog."""
    deadline = _env_policy(
        "BALLISTA_MUT_DEADLINE",
        "300",
        float,
        "a number of seconds (0 disables the watchdog)",
    )
    return None if deadline == 0 else deadline


def default_max_restarts() -> int:
    """Per-variant worker restart budget: ``BALLISTA_MAX_RESTARTS``,
    default 5."""
    return _env_policy(
        "BALLISTA_MAX_RESTARTS", "5", int, "an integer restart budget"
    )


def default_max_mut_retries() -> int:
    """Worker deaths one MuT may cause before quarantine:
    ``BALLISTA_MAX_MUT_RETRIES``, default 1."""
    return _env_policy(
        "BALLISTA_MAX_MUT_RETRIES", "1", int, "an integer retry count"
    )


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


class Supervisor:
    """The death policy of both pump loops, kept per spec tag.

    A loop puts each worker's last heartbeat ``(unit, case)`` in
    :attr:`inflight` and hands each death to :meth:`died` (an ``error``
    to :meth:`raised`): ``None`` back reruns the spec after ``due[tag]``
    with ``verdicts[tag]``; a string is the reason to give up on it.
    ``emit`` gets events naming ``name(tag)``; ``log``, each decision.
    """

    def __init__(self, policy, emit, log=None, name=None) -> None:
        self.policy = policy
        self._emit = emit
        self._log = log or (lambda event, variant, **detail: None)
        self._name = name or (lambda tag: tag)
        #: Per tag: the running spec's last ``(unit, case)``, verdicts
        #: ``{"api:name": reason}`` for its next run, the clock reading
        #: it may rerun at, restarts so far, and deaths blamed per unit.
        self.inflight: dict[str, tuple[str, int]] = {}
        self.verdicts: dict[str, dict[str, str]] = {}
        self.due: dict[str, float] = {}
        self.restarts: dict[str, int] = {}
        self.strikes: dict[str, dict[str, int]] = {}

    def forget(self, tag: str) -> None:
        """Drop ``tag``: its shard is done, or its job ended."""
        for table in (self.inflight, self.verdicts, self.due, self.restarts):
            table.pop(tag, None)
        self.strikes.pop(tag, None)

    def raised(self, tag: str, text: str) -> str | None:
        """A spec's ``error``: inside a unit, a death like any other;
        before the first unit it would only repeat, so it fails fast."""
        if tag in self.inflight:
            return self.died(tag, "crashed", f"raised:\n{text}")
        self._emit(WorkerDied(self._name(tag), "crashed", text))
        return text

    def died(self, tag: str, kind: str, why: str, exitcode=None) -> str | None:
        """A dead worker: blame its last heartbeat's unit (quarantined at
        strike ``max_mut_retries + 1``); rerun unless the budget is spent."""
        policy, variant = self.policy, self._name(tag)
        used = self.restarts[tag] = self.restarts.get(tag, 0) + 1
        self._emit(WorkerDied(variant, kind, why, exitcode=exitcode))
        if tag in self.inflight:
            unit, case_index = self.inflight.pop(tag)
            strikes = self.strikes.setdefault(tag, {})
            count = strikes[unit] = strikes.get(unit, 0) + 1
            if count > policy.max_mut_retries:
                # The persisted reason leaves out the case index: it
                # comes from wall-time-throttled heartbeats, so two runs
                # of one campaign could quote different cases.
                reason = self.verdicts.setdefault(tag, {})[unit] = (
                    f"{kind} its worker {count} times; quarantined after "
                    f"{policy.max_mut_retries} retries"
                )
                self._log(
                    "quarantine", variant, mut=unit, strikes=count,
                    case=case_index, why=reason,
                )
        if used > policy.max_restarts:
            self._log("budget_exhausted", variant, restarts=used - 1, why=why)
            self._emit(BudgetExhausted(variant, used - 1, why))
            return f"restart budget exhausted ({used - 1}) after worker {why}"
        delay = policy.backoff(used - 1)
        self.due[tag] = policy.clock() + delay
        self._log(
            "restart", variant, attempt=used, backoff_s=delay,
            kind=kind, why=why,
        )
        self._emit(WorkerRestarted(variant, used, delay, kind))
        return None
