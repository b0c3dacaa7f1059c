"""Parallel campaign execution: variant slices on a pool of workers.

The paper ran its >2 million test cases over seven OS variants; each
variant boots an independent simulated :class:`~repro.sim.machine.Machine`,
so variants never share state and can run concurrently.  *Within* a
variant, however, machine wear (shared-arena corruption, the virtual
clock) accumulates across MuTs -- the source of the paper's ``*``
interference crashes -- so the unit of parallelism is the variant, never
the MuT.

:class:`ParallelCampaign` hands each variant (or variant slice) to a
warm ``spawn``-started worker of one :class:`~repro.core.pool.WorkerPool`
that lives for the :meth:`~ParallelCampaign.run` call.  Workers rebuild
the MuT/type registries in-process (their call implementations are
closures and cannot cross a spawn boundary), run the exact serial
per-variant loop
(:func:`repro.core.campaign.run_variant` via a single-variant
:class:`~repro.core.campaign.Campaign`), and stream progress events and
their final checkpoint back over a queue.  The parent merges the
per-variant shards into one :class:`CampaignCheckpoint` whose serialised
form is byte-identical to the serial run's -- result rows serialise
sorted by key, so completion order cannot leak into the output.

Checkpoint/resume semantics match the serial runner: with a
``checkpoint_path`` each worker checkpoints its own shard
(``<path>.<variant>.shard``) and the parent writes the combined
checkpoint (and removes the shards) once every variant finishes.  On
restart, a variant whose shard survived a killed worker resumes from the
shard; otherwise its slice is split out of the combined ``resume``
checkpoint.  Completed MuTs are skipped per variant either way.
"""

from __future__ import annotations

import os
import pathlib
import queue
import signal
import time
import traceback
import warnings
from typing import Iterable, Sequence

from repro.core.atlas import load_atlas, save_atlas
from repro.core.campaign import Campaign, CampaignConfig, ProgressFn
from repro.core.pool import WorkerPool
from repro.core.results import ResultSet
from repro.obs import events as obs_events
from repro.obs.recorder import Recorder
from repro.core.results_io import (
    CampaignCheckpoint,
    ResultFormatError,
    checkpoint_from_dict,
    checkpoint_plan,
    checkpoint_to_dict,
    load_checkpoint,
    merge_checkpoints,
    save_checkpoint,
    shard_path,
    split_checkpoint,
    wear_fingerprint,
)
from repro.sim.personality import Personality


def default_jobs(task_count: int) -> int:
    """Worker count when the caller does not choose: one per unit of
    schedulable work -- a (variant, shard) slice -- but never more than
    the machine has cores.  Before intra-variant sharding this capped
    at the variant count (seven), silently wasting every core past
    seven; pass the *total shard count* so big boxes fill up."""
    return max(1, min(task_count, os.cpu_count() or 1))


def default_shards() -> int:
    """Per-variant slice count: ``BALLISTA_SHARDS`` env var, default 1
    (no intra-variant sharding).  Raises :class:`ValueError` naming the
    variable on junk, so the CLI can report it cleanly."""
    raw = os.environ.get("BALLISTA_SHARDS", "1")
    try:
        shards = int(raw)
    except ValueError:
        raise ValueError(
            f"BALLISTA_SHARDS must be an integer slice count per "
            f"variant (e.g. 4), got {raw!r}"
        ) from None
    if shards < 1:
        raise ValueError(
            f"BALLISTA_SHARDS must be a positive integer, got {shards}"
        )
    return shards


def shard_bounds(total: int, shards: int) -> list[tuple[int, int]]:
    """Deterministically slice ``total`` plan positions into at most
    ``shards`` contiguous half-open ``(start, stop)`` ranges whose sizes
    differ by at most one (earlier slices take the remainder).  Never
    emits an empty slice; an empty plan yields one ``(0, 0)`` slice."""
    if total <= 0:
        return [(0, 0)]
    shards = max(1, min(shards, total))
    size, extra = divmod(total, shards)
    bounds = []
    start = 0
    for index in range(shards):
        stop = start + size + (1 if index < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def shard_tag(variant: str, index: int) -> str:
    """Routing key for one (variant, shard) slice's worker."""
    return f"{variant}#{index}"


def config_spec_fields(config: CampaignConfig) -> dict:
    """The plain-dict form of a :class:`CampaignConfig` that crosses the
    spawn boundary in worker specs.  Every field rides along -- a field
    omitted here would silently reset to its default inside the worker,
    so sequence-mode workers would run per-case plans."""
    return {
        "cap": config.cap,
        "watchdog_ticks": config.watchdog_ticks,
        "machine_per_case": config.machine_per_case,
        "count_thrown_exceptions_as_abort": (
            config.count_thrown_exceptions_as_abort
        ),
        "mode": config.mode,
        "sequences": config.sequences,
        "sequence_length": config.sequence_length,
        "sequence_seed": config.sequence_seed,
        "dirty_machine": config.dirty_machine,
        "fault_families": list(config.fault_families),
    }


def _fault_injector():
    """Env-triggered worker faults for resilience tests and CI drills.

    ``BALLISTA_FAULT_KILL="variant|api:name|case_index[|marker_path]"``
    SIGKILLs the worker when the matching case starts -- with a marker
    path the kill fires only once (the marker file records that it
    already happened, so the restarted worker survives), without one it
    fires on every attempt.  ``BALLISTA_FAULT_HANG`` with the same
    triple makes the worker loop in *real* Python, invisible to the
    simulated clock's watchdog -- exactly the failure mode the
    supervisor's wall-clock deadline exists for.

    Returns a callback for the worker's heartbeat path, or ``None``
    when neither variable is set (the common case: zero overhead).
    """
    kill_spec = os.environ.get("BALLISTA_FAULT_KILL")
    hang_spec = os.environ.get("BALLISTA_FAULT_HANG")
    if not kill_spec and not hang_spec:
        return None

    def parse(raw):
        parts = raw.split("|")
        if len(parts) not in (3, 4):
            raise ValueError(
                f"fault spec must be 'variant|api:name|case[|marker]', "
                f"got {raw!r}"
            )
        marker = parts[3] if len(parts) == 4 else None
        return parts[0], parts[1], int(parts[2]), marker

    kill = parse(kill_spec) if kill_spec else None
    hang = parse(hang_spec) if hang_spec else None

    def fire(variant: str, mut: str, case_index: int) -> None:
        if kill and (variant, mut, case_index) == kill[:3]:
            marker = kill[3]
            if marker is None or not os.path.exists(marker):
                if marker is not None:
                    pathlib.Path(marker).touch()
                # Every event already sent is in the parent's pipe: the
                # pool's workers write synchronously.
                os.kill(os.getpid(), signal.SIGKILL)
        if hang and (variant, mut, case_index) == hang[:3]:
            # A faithful hang: ignore polite SIGTERM (native code stuck
            # in a loop would too), so only the supervisor's SIGKILL
            # escalation ends it.
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
            while True:
                time.sleep(0.05)

    return fire


class _ObsForwarder(Recorder):
    """Worker-side telemetry bridge: ships event dicts to the parent as
    ``("obs", tag, event_dict)`` queue messages (the tag is the
    worker's routing key -- the variant, unless the spec set one).

    Campaign-scope events are dropped here: each worker drives a
    single-variant :class:`Campaign`, whose campaign-level bookkeeping
    (``campaign_started``/``campaign_finished``, the final combined-
    checkpoint save) duplicates what the parent already emits for the
    whole run.  Variant-scoped events pass through untouched, so the
    parent's recorder sees exactly the serial runner's per-variant
    stream.
    """

    _DROP_KINDS = frozenset({"campaign_started", "campaign_finished"})

    def __init__(self, events_queue, tag: str) -> None:
        self._queue = events_queue
        self._tag = tag

    def record(self, data: dict) -> None:
        if data.get("kind") in self._DROP_KINDS:
            return
        if data.get("kind") == "checkpoint_written" and (
            data.get("scope") == "campaign"
        ):
            return  # the worker's "combined" save is just its shard
        self._queue.put(("obs", self._tag, data))


def _shard_file_matches(resume: CampaignCheckpoint, shard: dict | None) -> bool:
    """Whether an on-disk shard checkpoint belongs to the slice this
    worker was assigned.  A shard file left by a killed worker is only a
    valid resume point if it records the same slice identity (variant,
    index, span) *and* the same execution basis (base wear, resumed
    flag) -- a file from another grid or a pre-replay speculative
    attempt must be discarded, not resumed."""
    if shard is None:
        return resume.shard is None
    info = resume.shard
    if info is None:
        return False
    return (
        info.get("variant") == shard.get("variant")
        and info.get("index") == shard.get("index")
        and info.get("start") == shard.get("start")
        and info.get("stop") == shard.get("stop")
        and bool(info.get("resumed")) == bool(shard.get("resumed"))
        and wear_fingerprint(info.get("base_wear"))
        == wear_fingerprint(shard.get("base_wear"))
    )


def _personality_by_key(key: str) -> Personality:
    from repro import ALL_VARIANTS

    for personality in ALL_VARIANTS:
        if personality.key == key:
            return personality
    raise KeyError(f"unknown variant key {key!r}")


def _variant_worker(spec: dict, events) -> None:
    """Run one spec -- a variant's slice -- inside a pooled worker.

    ``spec`` is a plain picklable dict (variant key, MuT-name filter,
    config fields, shard path, resume document, quarantine verdicts,
    heartbeat throttle); everything else -- registries, generator,
    machine -- is rebuilt inside the worker.  Emits ``("progress",
    tag, mut, position, total)`` events while running, throttled
    ``("heartbeat", tag, "api:name", case_index)`` liveness beacons
    for the supervisor's wall-clock watchdog, and finishes with either
    ``("done", tag, checkpoint_dict)`` or ``("error", tag,
    traceback_text)``.  Everything it builds is local to the call, so a
    warm worker runs the next spec exactly as a cold one would.

    ``tag`` is ``spec["tag"]`` when present, else the variant key.  The
    campaign runners never set one (their unit of work *is* the
    variant), but the multi-tenant campaign service leases the same
    variant to several concurrent jobs and needs each worker's messages
    routed to its own shard, so it tags specs ``"<job>/<variant>"``.
    """
    key = spec["variant"]
    tag = spec.get("tag") or key
    try:
        personality = _personality_by_key(key)
        config = CampaignConfig(**spec["config"])
        campaign = Campaign(
            [personality],
            config=config,
            muts=spec["muts"],
            shard=spec.get("shard"),
        )
        shard = spec["shard_path"]
        resume = None
        if shard is not None and os.path.exists(shard):
            # A previous worker for this variant was killed mid-run:
            # its shard is strictly fresher than any combined resume
            # document, so the shard wins.
            try:
                resume = load_checkpoint(shard)
            except (OSError, ResultFormatError) as exc:
                # A shard that did not survive its worker's death is
                # set aside, not fatal: fall back to the combined
                # resume document (or a cold start) and re-earn it.
                try:
                    os.replace(shard, shard + ".corrupt")
                except OSError:  # pragma: no cover - best effort
                    pass
                warnings.warn(
                    f"shard checkpoint {shard} is unreadable ({exc}); "
                    f"worker [{key}] restarting without it"
                )
        if resume is not None and not _shard_file_matches(
            resume, spec.get("shard")
        ):
            # The file on disk was written under a different slice
            # assignment (other grid, other base wear, or a replay
            # rebased this slice onto the true frontier).  Its rows
            # would splice a foreign wear trajectory into this slice,
            # so ignore it and re-earn the work.
            warnings.warn(
                f"shard checkpoint {shard} was written for a different "
                f"slice assignment; worker [{tag}] restarting without it"
            )
            resume = None
        if resume is None and spec["resume"] is not None:
            resume = checkpoint_from_dict(spec["resume"])

        def forward(variant: str, mut: str, position: int, total: int) -> None:
            events.put(("progress", tag, mut, position, total))

        fault = _fault_injector()
        recorder = _ObsForwarder(events, tag) if spec.get("events") else None
        hb_interval = spec.get("heartbeat_interval", 1.0)
        last_beat = 0.0

        def heartbeat(variant: str, mut: str, case_index: int) -> None:
            nonlocal last_beat
            if fault is not None:
                fault(variant, mut, case_index)
            now = time.monotonic()
            # Every MuT announces itself (case 0) so the supervisor can
            # attribute a death to the MuT in flight; within a MuT the
            # beacons are throttled to keep the queue quiet.
            if case_index == 0 or now - last_beat >= hb_interval:
                last_beat = now
                events.put(("heartbeat", tag, mut, case_index))

        campaign.run(
            progress=forward,
            checkpoint_path=shard,
            checkpoint_every=spec["checkpoint_every"],
            resume=resume,
            quarantine=spec.get("quarantine"),
            heartbeat=heartbeat,
            recorder=recorder,
        )
        events.put(
            ("done", tag, checkpoint_to_dict(campaign.last_checkpoint))
        )
    except BaseException:
        events.put(("error", tag, traceback.format_exc()))


class _SeamPlanner:
    """Settlement cascade for intra-variant shard slices.

    A slice is only *byte-faithful* if it executed from the exact
    machine wear the serial run would show at its first plan position.
    Slice 0's base (fresh boot, or the resume document) is authoritative
    by construction; every later slice runs from either the settled end
    wear of its predecessor (cold: the chain degenerates to a pipeline)
    or a speculative seam from the wear atlas (warm: all slices launch
    at once).  When a slice finishes, the planner walks the variant's
    chain from the front and *settles* each finished slice whose
    self-reported ``base_wear`` fingerprint matches its predecessor's
    settled end wear; a mismatch means the speculation was stale, so the
    slice's results are discarded and its spec is rebased onto the true
    frontier and re-queued.  Each slice replays at most once per
    settlement (its rebased base is authoritative), so a fully stale
    atlas costs one extra pass, never a livelock.

    ``resumed`` slices (their basis is a checkpoint document, the same
    trust extended to any resume) settle without a seam check, exactly
    as :func:`merge_checkpoints` treats them.
    """

    def __init__(self) -> None:
        #: variant -> slice entries in plan order (synthetic pre-settled
        #: resume prefixes first, then one entry per worker spec).
        self._chains: dict[str, list[dict]] = {}
        self._by_tag: dict[str, dict] = {}
        self._spawned: set[str] = set()
        #: variant -> {plan position -> settled wear} for the atlas.
        self._learned: dict[str, dict[int, dict]] = {}
        self.replays = 0

    def add_settled(
        self,
        variant: str,
        start: int,
        stop: int,
        end_known: bool,
        end_wear: dict | None,
    ) -> None:
        """A slice completed by a previous run (resume prefix): settled
        up front, no worker.  ``end_known`` is False when the resume
        document's wear frontier lies beyond this slice -- harmless,
        because every successor up to that frontier is itself settled or
        resumed and never consults this end."""
        self._chains.setdefault(variant, []).append(
            {
                "tag": None,
                "spec": None,
                "start": start,
                "stop": stop,
                "settled": True,
                "end_known": end_known,
                "end": end_wear,
                "done": None,
            }
        )

    def add_spec(self, spec: dict, base_known: bool) -> None:
        """Register a worker spec (in plan order per variant).  Specs
        with an unknown base stay unschedulable until a predecessor
        settles and hands them its end wear."""
        entry = {
            "tag": spec["tag"],
            "spec": spec,
            "start": spec["shard"]["start"],
            "stop": spec["shard"]["stop"],
            "settled": False,
            "end_known": False,
            "end": None,
            "done": None,
            "known": base_known,
        }
        self._chains.setdefault(spec["variant"], []).append(entry)
        self._by_tag[spec["tag"]] = entry

    def ready(self, tag: str) -> bool:
        """Whether the slice's execution base is known (authoritative or
        speculative) so its worker may spawn."""
        entry = self._by_tag.get(tag)
        return entry is None or entry["known"]

    def mark_spawned(self, tag: str) -> None:
        self._spawned.add(tag)

    def learned(self) -> dict[str, dict[int, dict]]:
        """Settled seam wears keyed by plan position, for the atlas."""
        return self._learned

    def on_done(
        self, tag: str, checkpoint: CampaignCheckpoint
    ) -> tuple[list[tuple[str, CampaignCheckpoint]], list[dict]]:
        """Absorb a finished slice and run the settlement cascade.

        Returns ``(accepted, replays)``: slices newly settled (tag plus
        their final checkpoint, ready for the merge) and specs whose
        speculative base proved stale (rebased, to be re-queued).
        """
        entry = self._by_tag[tag]
        entry["done"] = checkpoint
        variant = entry["spec"]["variant"]
        chain = self._chains[variant]
        accepted: list[tuple[str, CampaignCheckpoint]] = []
        replays: list[dict] = []
        prev_known, prev_end = True, None  # plan position 0: fresh boot
        for item in chain:
            if item["settled"]:
                prev_known, prev_end = item["end_known"], item["end"]
                continue
            done = item["done"]
            if done is None:
                break  # still running or unspawned; the cascade waits here
            info = done.shard or {}
            if info.get("resumed") or (
                prev_known
                and wear_fingerprint(info.get("base_wear"))
                == wear_fingerprint(prev_end)
            ):
                item["settled"] = True
                item["end_known"] = True
                if variant in done.machine_wear:
                    item["end"] = done.machine_wear.get(variant)
                elif prev_known:
                    # The slice never touched the machine (everything
                    # skipped, or per-case machines): wear unchanged.
                    item["end"] = prev_end
                else:  # pragma: no cover - resumed slice, wear unknown
                    item["end_known"] = False
                if item["end_known"] and item["end"] is not None:
                    self._learned.setdefault(variant, {})[item["stop"]] = item[
                        "end"
                    ]
                accepted.append((item["tag"], done))
                self._push_base(chain, item)
                prev_known, prev_end = item["end_known"], item["end"]
            else:
                # Stale speculation: the base this slice actually ran
                # from is not the serial wear at its first position.
                # Discard the attempt and replay from the true frontier.
                item["done"] = None
                spec = item["spec"]
                spec["shard"] = dict(
                    spec["shard"], base_wear=prev_end, resumed=False
                )
                spec["resume"] = None
                item["known"] = True
                self._spawned.discard(item["tag"])
                self.replays += 1
                replays.append(spec)
                break
        return accepted, replays

    def _push_base(self, chain: list[dict], item: dict) -> None:
        """Hand a freshly settled slice's end wear to its successor as
        the authoritative base -- unless the successor already spawned
        (its own settlement check will judge the base it actually used)
        or is a resumed slice (its basis is the resume document)."""
        index = chain.index(item)
        if index + 1 >= len(chain) or not item["end_known"]:
            return
        successor = chain[index + 1]
        spec = successor["spec"]
        if (
            spec is None
            or successor["settled"]
            or successor["tag"] in self._spawned
            or spec["shard"].get("resumed")
        ):
            return
        spec["shard"] = dict(spec["shard"], base_wear=item["end"])
        successor["known"] = True


class ParallelCampaign:
    """Drop-in campaign runner that fans variants out across processes.

    Mirrors :meth:`Campaign.run`'s signature and semantics; the merged
    result set (and the rendered tables built from it) is byte-identical
    to the serial run at the same cap.

    :param variants: OS personalities to test (must be among
        :data:`repro.ALL_VARIANTS` -- workers rebuild them by key).
    :param muts: optional subset of bare MuT names, as on
        :class:`Campaign`.  Custom registry objects cannot cross the
        spawn boundary; filter the default registry by name instead.
    :param jobs: concurrent worker processes (default: one per
        schedulable slice -- ``variants * shards`` -- capped at the core
        count).  ``jobs=1`` runs the serial :class:`Campaign`
        in-process, skipping spawn overhead.
    :param shards: slices per variant (default 1: one worker per
        variant, the pre-sharding behaviour).  With ``shards > 1`` each
        variant's plan is cut into that many contiguous slices and all
        slices across all variants feed one worker pool, so parallelism
        is no longer capped at the variant count.  Slices of one variant
        share a simulated machine, so each runs from the exact serial
        wear at its first plan position -- learned from its predecessor
        (cold) or a wear atlas (warm); see :class:`_SeamPlanner`.
    :param atlas_path: optional wear-atlas file (see
        :mod:`repro.core.atlas`).  Read for speculative slice bases at
        startup, updated with settled seams after a successful run.
        Purely an accelerator; results are byte-identical with or
        without it.
    """

    def __init__(
        self,
        variants: Sequence[Personality],
        config: CampaignConfig | None = None,
        muts: Iterable[str] | None = None,
        jobs: int | None = None,
        shards: int | None = None,
        atlas_path: str | pathlib.Path | None = None,
    ) -> None:
        self.variants = list(variants)
        self.config = config or CampaignConfig()
        self._muts = sorted(muts) if muts is not None else None
        self.shards = shards if shards is not None else default_shards()
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        self.atlas_path = atlas_path
        self.jobs = (
            jobs
            if jobs is not None
            else default_jobs(len(self.variants) * self.shards)
        )
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        self.last_checkpoint: CampaignCheckpoint | None = None
        #: Settlement planner for the current sharded run (None when
        #: shards == 1 or between runs).
        self._planner: _SeamPlanner | None = None
        #: Per-variant plan identities of the current sharded run.
        self._plans: dict[str, list] = {}
        #: Progress aggregation state: shard progress collapses into one
        #: per-variant line (see :meth:`_forward_progress`).
        self._progress_ctx: dict | None = None

    # ------------------------------------------------------------------

    def run(
        self,
        progress: ProgressFn | None = None,
        checkpoint_path: str | pathlib.Path | None = None,
        checkpoint_every: int = 25,
        resume: CampaignCheckpoint | str | pathlib.Path | None = None,
        recorder: Recorder | None = None,
    ) -> ResultSet:
        """Execute the campaign across worker processes and return the
        merged result set.  See :meth:`Campaign.run` for the checkpoint
        and resume contract -- it holds unchanged here, with shards as
        described in the module docstring.  ``recorder`` receives the
        workers' forwarded campaign events plus the parent's operational
        events (worker spawns/deaths, merges)."""
        keys = [p.key for p in self.variants]
        if isinstance(resume, (str, pathlib.Path)):
            resume = load_checkpoint(resume)
        if resume is not None:
            self._validate_resume(resume, keys)
        if self.jobs == 1:
            campaign = Campaign(
                self.variants, config=self.config, muts=self._muts
            )
            results = campaign.run(
                progress=progress,
                checkpoint_path=checkpoint_path,
                checkpoint_every=checkpoint_every,
                resume=resume,
                recorder=recorder,
            )
            self.last_checkpoint = campaign.last_checkpoint
            return results
        if recorder is not None:
            recorder.emit(
                obs_events.CampaignStarted(tuple(keys), self.config.cap)
            )

        if checkpoint_path is not None:
            # Write the combined document up front (the serial runner's
            # file exists from its first periodic save).  A run killed
            # before any merge then still leaves a loadable checkpoint
            # recording cap + variants; per-variant progress lives in
            # the shards, which win over this document on resume.
            initial = CampaignCheckpoint(
                resume.results if resume is not None else ResultSet(),
                cursors=dict(resume.cursors) if resume is not None else {},
                machine_wear=(
                    {k: dict(v) for k, v in resume.machine_wear.items()}
                    if resume is not None
                    else {}
                ),
                cap=self.config.cap,
                variants=keys,
                plan=checkpoint_plan(self.config),
            )
            save_checkpoint(initial, checkpoint_path)
        shard_base = self._shard_base(checkpoint_path)
        if self.shards > 1:
            specs, synthetic = self._build_shard_specs(
                resume,
                shard_base,
                checkpoint_every,
                events=recorder is not None,
            )
        else:
            specs = self._build_specs(
                resume,
                shard_base,
                checkpoint_every,
                events=recorder is not None,
            )
            synthetic = []
        pool = WorkerPool(self.jobs)
        try:
            shards = self._run_workers(pool, specs, progress, recorder)
            if self.shards > 1:
                entries = synthetic + [shards[spec["tag"]] for spec in specs]
            else:
                entries = [shards[key] for key in keys]
            merged = merge_checkpoints(
                entries,
                cap=self.config.cap,
                variants=keys,
            )
            merged.complete = True
            self._save_atlas_seams()
            self.last_checkpoint = merged
            if checkpoint_path is not None:
                save_checkpoint(merged, checkpoint_path)
                if recorder is not None:
                    recorder.emit(
                        obs_events.CheckpointWritten(
                            "campaign",
                            str(checkpoint_path),
                            len(merged.results),
                        )
                    )
            if shard_base is not None:
                for spec in specs:
                    if spec["shard_path"] is not None:
                        try:
                            os.remove(spec["shard_path"])
                        except OSError:  # pragma: no cover - already gone
                            pass
        finally:
            pool.close()
            self._planner = None
            self._progress_ctx = None
            self._plans = {}
            self._release_shard_base()
        if recorder is not None:
            recorder.emit(
                obs_events.CampaignFinished(merged.results.total_cases())
            )
        return merged.results

    # ------------------------------------------------------------------

    def _shard_base(
        self, checkpoint_path: str | pathlib.Path | None
    ) -> str | pathlib.Path | None:
        """Where workers checkpoint their shards.  The base runner only
        shards when the caller asked for checkpoints; the supervisor
        overrides this (restart-from-shard needs shards even when the
        user did not request a checkpoint file)."""
        return checkpoint_path

    def _release_shard_base(self) -> None:
        """Hook for subclasses that fabricate a temporary shard base."""

    def _heartbeat_interval(self) -> float:
        """Worker-side throttle for heartbeat events.  The base runner
        has no watchdog, so a slow beacon is plenty."""
        return 1.0

    def _validate_resume(
        self, resume: CampaignCheckpoint, keys: list[str]
    ) -> None:
        """The serial runner's compatibility checks, applied up front so
        an incompatible checkpoint fails before any worker spawns."""
        if not resume.cap:
            warnings.warn(
                f"checkpoint does not record its cap; resuming at "
                f"cap={self.config.cap} without compatibility checking",
                stacklevel=3,
            )
        elif resume.cap != self.config.cap:
            raise ValueError(
                f"checkpoint was taken at cap={resume.cap}, cannot "
                f"resume at cap={self.config.cap}"
            )
        if resume.variants is not None and set(resume.variants) != set(keys):
            raise ValueError(
                f"checkpoint was taken for variants "
                f"{sorted(resume.variants)}, cannot resume with "
                f"{sorted(keys)}"
            )

    def _build_specs(
        self,
        resume: CampaignCheckpoint | None,
        shard_base: str | pathlib.Path | None,
        checkpoint_every: int,
        events: bool = False,
    ) -> list[dict]:
        config_fields = config_spec_fields(self.config)
        specs = []
        for personality in self.variants:
            key = personality.key
            resume_doc = None
            if resume is not None:
                shard = split_checkpoint(resume, key)
                shard.complete = False
                resume_doc = checkpoint_to_dict(shard)
            specs.append(
                {
                    "variant": key,
                    "muts": self._muts,
                    "config": config_fields,
                    "shard_path": (
                        None
                        if shard_base is None
                        else str(shard_path(shard_base, key))
                    ),
                    "checkpoint_every": checkpoint_every,
                    "resume": resume_doc,
                    "quarantine": {},
                    "heartbeat_interval": self._heartbeat_interval(),
                    "events": events,
                }
            )
        return specs

    def _build_shard_specs(
        self,
        resume: CampaignCheckpoint | None,
        shard_base: str | pathlib.Path | None,
        checkpoint_every: int,
        events: bool = False,
    ) -> tuple[list[dict], list[CampaignCheckpoint]]:
        """Cut each variant's plan into ``self.shards`` contiguous
        slices and build one worker spec per incomplete slice.

        Returns ``(specs, synthetic)``: the specs to schedule plus
        pre-settled checkpoint pieces for slices a resume document
        already completed (they go straight to the merge, no worker).
        Also primes the run's :class:`_SeamPlanner` and the per-variant
        progress aggregation state.
        """
        config_fields = config_spec_fields(self.config)
        atlas = (
            load_atlas(self.atlas_path) if self.atlas_path is not None else None
        )
        planner = _SeamPlanner()
        plan_source = Campaign(
            self.variants, config=self.config, muts=self._muts
        )
        specs: list[dict] = []
        synthetic: list[CampaignCheckpoint] = []
        spans: dict[str, tuple[int, int]] = {}
        totals: dict[str, int] = {}
        counts: dict[str, dict[str, int]] = {}
        self._plans = {}
        for personality in self.variants:
            key = personality.key
            plan = plan_source.plan_identities(personality)
            self._plans[key] = plan
            totals[key] = len(plan)
            cursor = resume.cursors.get(key, 0) if resume is not None else 0
            for index, (start, stop) in enumerate(
                shard_bounds(len(plan), self.shards)
            ):
                tag = shard_tag(key, index)
                if resume is not None and cursor >= stop:
                    # Completed by the interrupted run: a settled,
                    # workerless piece.  Its end wear is known exactly
                    # when the resume document's wear frontier lies in
                    # this slice (cursor == stop); earlier pieces'
                    # successors are themselves settled or resumed and
                    # never consult it.
                    piece = split_checkpoint(
                        resume, key, plan=plan, span=(start, stop)
                    )
                    piece.shard = {
                        "variant": key,
                        "index": index,
                        "start": start,
                        "stop": stop,
                        "resumed": True,
                        "base_wear": None,
                    }
                    synthetic.append(piece)
                    planner.add_settled(
                        key,
                        start,
                        stop,
                        end_known=key in piece.machine_wear,
                        end_wear=piece.machine_wear.get(key),
                    )
                    counts.setdefault(key, {})["resumed"] = (
                        counts.get(key, {}).get("resumed", 0) + (stop - start)
                    )
                    continue
                resume_doc = None
                base = None
                resumed = False
                if resume is not None and cursor >= start:
                    # The resume frontier lands in this slice: carry its
                    # rows and mid-slice wear (cursor > start), or --
                    # exactly on the boundary -- just the wear, which
                    # the split handed to the predecessor piece.
                    resumed = cursor > 0
                    if cursor > start:
                        piece = split_checkpoint(
                            resume, key, plan=plan, span=(start, stop)
                        )
                        piece.complete = False
                        resume_doc = checkpoint_to_dict(piece)
                    elif cursor > 0:
                        base = resume.machine_wear.get(key)
                    known = True
                else:
                    # Beyond the frontier (or a cold start): slice 0
                    # boots fresh; later slices wait for their
                    # predecessor's end wear unless the atlas ventures
                    # a speculative seam.
                    if atlas is not None:
                        base = atlas.seam(key, plan, self.config.cap, start)
                    known = index == 0 or base is not None
                spec = {
                    "variant": key,
                    "tag": tag,
                    "muts": self._muts,
                    "config": config_fields,
                    "shard_path": (
                        None
                        if shard_base is None
                        else str(shard_path(shard_base, tag))
                    ),
                    "checkpoint_every": checkpoint_every,
                    "resume": resume_doc,
                    "quarantine": {},
                    "heartbeat_interval": self._heartbeat_interval(),
                    "events": events,
                    "shard": {
                        "variant": key,
                        "index": index,
                        "start": start,
                        "stop": stop,
                        "resumed": resumed,
                        "base_wear": base,
                    },
                }
                specs.append(spec)
                planner.add_spec(spec, known)
                spans[tag] = (start, stop)
        self._planner = planner
        self._progress_ctx = {
            "spans": spans,
            "totals": totals,
            "counts": counts,
        }
        return specs, synthetic

    def _save_atlas_seams(self) -> None:
        """After a successful sharded run, memoize the settled seam
        wears so the next identical run launches every slice warm."""
        planner = self._planner
        if planner is None or self.atlas_path is None:
            return
        atlas = load_atlas(self.atlas_path)
        for variant, table in planner.learned().items():
            plan = self._plans.get(variant, [])
            for position, wear in table.items():
                if 0 < position < len(plan):
                    atlas.record(
                        variant, plan, self.config.cap, position, wear
                    )
        save_atlas(atlas, self.atlas_path)

    def _admit(self, pending: list[dict]) -> dict | None:
        """Pop the first schedulable spec: without a planner that is
        simply the queue head; with one, the first spec whose slice base
        is known (work-stealing order -- a slice of any variant)."""
        planner = self._planner
        for index, spec in enumerate(pending):
            tag = spec.get("tag") or spec["variant"]
            if planner is None or planner.ready(tag):
                if planner is not None:
                    planner.mark_spawned(tag)
                return pending.pop(index)
        return None

    def _absorb_done(
        self,
        key: str,
        checkpoint: CampaignCheckpoint,
        shards: dict[str, CampaignCheckpoint],
        pending: list[dict],
        recorder: Recorder | None,
    ) -> None:
        """Fold a finished worker's checkpoint into the run: directly
        (per-variant workers) or via the seam planner's settlement
        cascade (sharded), which may re-queue stale speculative slices."""
        planner = self._planner
        if planner is None:
            shards[key] = checkpoint
            return
        accepted, replays = planner.on_done(key, checkpoint)
        for tag, settled in accepted:
            shards[tag] = settled
        for spec in replays:
            shards.pop(spec["tag"], None)
            self._note_replay(spec, recorder)
            pending.append(spec)

    def _note_replay(self, spec: dict, recorder: Recorder | None) -> None:
        if recorder is not None:
            recorder.emit(
                obs_events.ShardReplayed(
                    spec["variant"],
                    spec["shard"]["index"],
                    "speculative base wear was stale",
                )
            )

    def _forward_progress(
        self, progress: ProgressFn | None, message: tuple
    ) -> None:
        """Relay a worker progress event.  Sharded runs collapse the
        per-slice streams into one aggregate line per variant (completed
        cases across all slices over the whole plan), so the renderer's
        cursor-up redraw stays one line per variant instead of exploding
        past terminal height at high ``--shards``."""
        if progress is None:
            return
        _, tag, mut, position, total = message
        ctx = self._progress_ctx
        if ctx is None:
            progress(tag, mut, position, total)
            return
        variant = tag.partition("#")[0]
        span = ctx["spans"].get(tag)
        if span is None:  # pragma: no cover - untagged message
            progress(variant, mut, position, total)
            return
        counts = ctx["counts"].setdefault(variant, {})
        counts[tag] = position - span[0] + 1
        started = sum(counts.values())
        progress(variant, mut, started - 1, ctx["totals"][variant])

    def _run_workers(
        self,
        pool: WorkerPool,
        specs: list[dict],
        progress: ProgressFn | None,
        recorder: Recorder | None = None,
    ) -> dict[str, CampaignCheckpoint]:
        """Run the specs on at most ``self.jobs`` pooled workers, pump
        their messages, and collect one finished shard per spec."""
        pending = list(specs)
        shards: dict[str, CampaignCheckpoint] = {}
        errors: dict[str, str] = {}
        while pending or len(pool):
            while not pool.full():
                spec = self._admit(pending)
                if spec is None:
                    break
                pid = pool.run(spec.get("tag") or spec["variant"], spec)
                if recorder is not None:
                    recorder.emit(
                        obs_events.WorkerSpawned(spec["variant"], pid, 1)
                    )
            if pending and not len(pool):
                # Defensive: every unschedulable slice waits on a
                # predecessor, so something must always be running.
                raise RuntimeError(
                    "sharded campaign stalled: no runnable slices"
                )
            try:
                message = pool.get(timeout=0.2)
            except queue.Empty:
                # A worker killed from outside (OOM, SIGKILL) never
                # posts a message; fail its spec loudly instead of
                # hanging.  Its shard stays on disk for the next run.
                for key, exitcode in pool.reap():
                    errors[key] = (
                        f"worker exited with code {exitcode} without "
                        f"reporting a result"
                    )
                    if recorder is not None:
                        recorder.emit(
                            obs_events.WorkerDied(
                                key,
                                "killed",
                                "exited without reporting a result",
                                exitcode=exitcode,
                            )
                        )
                continue
            kind, key = message[0], message[1]
            if kind == "progress":
                self._forward_progress(progress, message)
            elif kind == "heartbeat":
                pass  # liveness beacons; only the supervisor consumes them
            elif kind == "obs":
                if recorder is not None:
                    recorder.record(message[2])
            elif kind == "done":
                pool.release(key)
                if recorder is not None:
                    recorder.emit(obs_events.WorkerFinished(key))
                self._absorb_done(
                    key,
                    checkpoint_from_dict(message[2]),
                    shards,
                    pending,
                    recorder,
                )
            else:  # "error"
                errors[key] = message[2]
                pool.release(key)
                if recorder is not None:
                    recorder.emit(
                        obs_events.WorkerDied(key, "crashed", message[2])
                    )
        if errors:
            detail = "\n".join(
                f"--- worker [{key}] ---\n{text}"
                for key, text in sorted(errors.items())
            )
            raise RuntimeError(
                f"parallel campaign worker(s) failed for "
                f"{sorted(errors)}:\n{detail}"
            )
        return shards
