"""Self-healing supervision for parallel campaigns.

The paper's harness kept a multi-week campaign alive on physical
machines that its own test cases were crashing: the Ballista server
noticed a dead SUT, rebooted it, and continued from where the plan
stood, flagging what could not be re-measured.  This module is that
supervise-reboot-continue loop for the simulated fleet.  Three
mechanisms, layered over :class:`~repro.core.parallel.ParallelCampaign`:

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

Every decision is logged; the log rides on in-flight checkpoint
documents (so a resumed run sees its fault history) and is cleared from
the final one, preserving the byte-identity guarantee.
"""

from __future__ import annotations

import os
import pathlib
import queue
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.core.campaign import CampaignConfig
from repro.core.parallel import ParallelCampaign
from repro.obs import events as obs_events
from repro.obs.recorder import Recorder
from repro.core.results_io import (
    CampaignCheckpoint,
    ResultFormatError,
    checkpoint_from_dict,
    load_checkpoint,
    save_checkpoint,
)
from repro.sim.personality import Personality


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


class SupervisedCampaign(ParallelCampaign):
    """A :class:`ParallelCampaign` whose workers are supervised.

    Drop-in: same constructor and :meth:`run` contract, same
    byte-identical output on a fault-free run (and on a run healed by
    restarts).  Additions: dead workers relaunch from their shards,
    stale-heartbeat workers are killed and relaunched, and poison MuTs
    are quarantined instead of failing the campaign.  The decision
    trail lands in :attr:`supervision_log`.

    ``jobs=1`` runs the serial in-process campaign: there is no worker
    process to supervise, exactly as in the base class.
    """

    def __init__(
        self,
        variants: Sequence[Personality],
        config: CampaignConfig | None = None,
        muts: Iterable[str] | None = None,
        jobs: int | None = None,
        policy: SupervisorPolicy | None = None,
        shards: int | None = None,
        atlas_path: str | pathlib.Path | None = None,
    ) -> None:
        super().__init__(
            variants,
            config=config,
            muts=muts,
            jobs=jobs,
            shards=shards,
            atlas_path=atlas_path,
        )
        self.policy = policy or SupervisorPolicy()
        #: Chronological supervision events of the last :meth:`run`.
        self.supervision_log: list[dict] = []
        self._tempdir: str | None = None
        self._live_checkpoint_path: str | pathlib.Path | None = None

    # -- shard plumbing -------------------------------------------------

    def _shard_base(self, checkpoint_path):
        """Restart-from-shard needs shards even when the caller did not
        ask for a checkpoint file: fabricate a temporary base."""
        if checkpoint_path is not None:
            return checkpoint_path
        self._tempdir = tempfile.mkdtemp(prefix="ballista-supervised-")
        return os.path.join(self._tempdir, "campaign.ckpt")

    def _release_shard_base(self) -> None:
        if self._tempdir is not None:
            shutil.rmtree(self._tempdir, ignore_errors=True)
            self._tempdir = None

    def _heartbeat_interval(self) -> float:
        """Beacons must be several times faster than the deadline that
        judges them."""
        if self.policy.mut_deadline is None:
            return 1.0
        return max(0.01, min(1.0, self.policy.mut_deadline / 5.0))

    # -- supervision loop -----------------------------------------------

    def run(
        self,
        progress=None,
        checkpoint_path: str | pathlib.Path | None = None,
        checkpoint_every: int = 25,
        resume=None,
        recorder: Recorder | None = None,
    ):
        self.supervision_log = []
        # Only worker-backed runs with a real checkpoint file persist
        # the log in-flight; jobs=1 has no supervision at all.
        self._live_checkpoint_path = (
            checkpoint_path if self.jobs > 1 else None
        )
        try:
            return super().run(
                progress=progress,
                checkpoint_path=checkpoint_path,
                checkpoint_every=checkpoint_every,
                resume=resume,
                recorder=recorder,
            )
        finally:
            self._live_checkpoint_path = None

    def _log(self, event: str, variant: str, **detail) -> None:
        entry = {"event": event, "variant": variant, **detail}
        self.supervision_log.append(entry)
        path = self._live_checkpoint_path
        if path is not None and os.path.exists(path):
            # Persist the fault history onto the in-flight combined
            # document (the base runner wrote it before spawning any
            # worker) so an operator resuming an interrupted run sees
            # what the supervisor already survived.  The *final*
            # checkpoint is rebuilt from the merged shards with an
            # empty supervision log, keeping byte-identity with an
            # undisturbed run.
            try:
                live = load_checkpoint(path)
            except (OSError, ResultFormatError):  # pragma: no cover
                return
            live.supervision = list(self.supervision_log)
            save_checkpoint(live, path)

    def _note_replay(self, spec, recorder: Recorder | None) -> None:
        super()._note_replay(spec, recorder)
        # Replays are settlement corrections, not faults: they ride the
        # supervision log for the operator but never burn the slice's
        # restart budget.
        self._log(
            "shard_replay",
            spec["variant"],
            index=spec["shard"]["index"],
            why="speculative base wear was stale",
        )

    def _pump_timeout(self) -> float:
        """Queue poll interval.  Floored at 50 ms: a tight MuT deadline
        used to drive this down to 10 ms, turning the pump into a busy
        loop that spent its time on liveness scans instead of events.
        The watchdog only needs the poll to be comfortably shorter than
        the deadline, not a fixed fraction of it."""
        if self.policy.mut_deadline is None:
            return 0.2
        return max(0.05, min(0.2, self.policy.mut_deadline / 4.0))

    def _run_workers(
        self, pool, specs, progress, recorder: Recorder | None = None
    ):
        policy = self.policy
        # Specs route by tag (the variant key unless a caller tagged
        # them -- the campaign service runs several jobs that share a
        # variant and tags "<job>/<variant>"); every dict below is
        # keyed by that same tag, matching the workers' messages.
        spec_by_key = {
            (spec.get("tag") or spec["variant"]): spec for spec in specs
        }
        pending = list(specs)
        shards: dict[str, CampaignCheckpoint] = {}
        errors: dict[str, str] = {}
        restarts: dict[str, int] = {}
        strikes: dict[tuple[str, str], int] = {}
        inflight: dict[str, tuple[str, int]] = {}
        last_seen: dict[str, float] = {}
        resume_at: dict[str, float] = {}

        def emit(event) -> None:
            if recorder is not None:
                recorder.emit(event)

        def handle_death(
            key: str, kind: str, why: str, exitcode: int | None = None
        ) -> None:
            """One dead worker: attribute, maybe quarantine, maybe
            relaunch."""
            used = restarts[key] = restarts.get(key, 0) + 1
            emit(obs_events.WorkerDied(key, kind, why, exitcode=exitcode))
            mut_case = inflight.pop(key, None)
            if mut_case is not None:
                mut, case_index = mut_case
                count = strikes[(key, mut)] = strikes.get((key, mut), 0) + 1
                if count > policy.max_mut_retries:
                    reason = (
                        f"{kind} its worker {count} times "
                        f"(last at case {case_index}); quarantined after "
                        f"{policy.max_mut_retries} retries"
                    )
                    spec_by_key[key]["quarantine"][mut] = reason
                    self._log(
                        "quarantine", key, mut=mut, strikes=count, why=reason
                    )
            if used > policy.max_restarts:
                errors[key] = (
                    f"restart budget exhausted ({policy.max_restarts}) "
                    f"after worker {why}"
                )
                self._log(
                    "budget_exhausted", key, restarts=used - 1, why=why
                )
                emit(obs_events.BudgetExhausted(key, used - 1, why))
                return
            delay = policy.backoff(used - 1)
            resume_at[key] = policy.clock() + delay
            pending.append(spec_by_key[key])
            self._log(
                "restart", key, attempt=used, backoff_s=delay,
                kind=kind, why=why,
            )
            emit(obs_events.WorkerRestarted(key, used, delay, kind))

        while pending or len(pool):
            if not len(pool) and pending and not errors:
                # Nothing alive to produce events: sleep out the
                # earliest backoff instead of spinning on the queue.
                wait = min(
                    resume_at.get(s.get("tag") or s["variant"], 0.0)
                    for s in pending
                ) - policy.clock()
                if wait > 0:
                    time.sleep(min(wait, 0.05))
            now = policy.clock()
            for spec in list(pending):
                if pool.full():
                    break
                key = spec.get("tag") or spec["variant"]
                if key in errors or resume_at.get(key, 0.0) > now:
                    continue
                if self._planner is not None and not self._planner.ready(
                    key
                ):
                    continue  # slice base unknown: predecessor first
                pending.remove(spec)
                if self._planner is not None:
                    self._planner.mark_spawned(key)
                pid = pool.run(key, spec)
                last_seen[key] = policy.clock()
                emit(
                    obs_events.WorkerSpawned(
                        key, pid, restarts.get(key, 0) + 1
                    )
                )
            if not len(pool) and not any(
                (s.get("tag") or s["variant"]) not in errors for s in pending
            ):
                break  # only budget-exhausted variants remain
            message = None
            try:
                message = pool.get(timeout=self._pump_timeout())
            except queue.Empty:
                pass
            if message is not None:
                kind, key = message[0], message[1]
                last_seen[key] = policy.clock()
                if kind == "progress":
                    self._forward_progress(progress, message)
                elif kind == "heartbeat":
                    inflight[key] = (message[2], message[3])
                elif kind == "obs":
                    if recorder is not None:
                        recorder.record(message[2])
                elif kind == "done":
                    inflight.pop(key, None)
                    pool.release(key)
                    emit(obs_events.WorkerFinished(key))
                    # A watchdog race can park a respawn for a variant
                    # that actually finished: cancel it (before the
                    # settlement cascade, which may legitimately
                    # re-queue this very slice as a replay).
                    pending[:] = [
                        s
                        for s in pending
                        if (s.get("tag") or s["variant"]) != key
                    ]
                    self._absorb_done(
                        key,
                        checkpoint_from_dict(message[2]),
                        shards,
                        pending,
                        recorder,
                    )
                else:  # "error": an exception inside the worker
                    pool.release(key)
                    handle_death(key, "crashed", f"raised:\n{message[2]}")
            # Wall-clock watchdog: a silent worker is hung in real time
            # (the simulated watchdog cannot see it).
            if policy.mut_deadline is not None:
                for key in list(pool.pids()):
                    stale = policy.clock() - last_seen.get(key, now)
                    if stale > policy.mut_deadline:
                        mut_case = inflight.get(key)
                        self._log(
                            "watchdog_kill", key,
                            stale_s=round(stale, 3),
                            mut=mut_case[0] if mut_case else None,
                        )
                        pool.kill(key)
                        handle_death(
                            key,
                            "hung",
                            f"heartbeat stale {stale:.1f}s "
                            f"(deadline {policy.mut_deadline}s)",
                        )
            # Reap workers killed from outside (OOM, SIGKILL).
            for key, exitcode in pool.reap():
                handle_death(
                    key,
                    "killed",
                    f"exited with code {exitcode}",
                    exitcode=exitcode,
                )
        if errors:
            detail = "\n".join(
                f"--- worker [{key}] ---\n{text}"
                for key, text in sorted(errors.items())
            )
            raise RuntimeError(
                f"supervised campaign gave up on {sorted(errors)}:\n{detail}"
            )
        return shards
