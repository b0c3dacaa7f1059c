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
per-variant loop (the plan driver,
:func:`repro.core.campaign.drive_plan`, via a single-variant
:class:`~repro.core.campaign.Campaign`), and stream progress events and
their final checkpoint back over a queue.  One :class:`SlicePlanner`
-- the campaign service's too -- builds the worker specs and settles
what they return.  The parent merges the per-variant shards into one
:class:`CampaignCheckpoint` whose serialised form is byte-identical to
the serial run's -- result rows serialise sorted by key, so completion
order cannot leak into the output.

Checkpoint/resume semantics match the serial runner: each worker
checkpoints its own shard (``<path>.<variant>.shard``) and the parent
writes the combined checkpoint (and removes the shards) once every
variant finishes.  On restart, a variant whose shard survived a killed
worker resumes from the shard; otherwise its slice is split out of the
combined ``resume`` checkpoint.  Completed MuTs are skipped per variant
either way.  Without a ``checkpoint_path`` the shards live in a
temporary directory removed when the run ends: the shared
:class:`~repro.core.supervisor.Supervisor` restarts dead workers from them.
"""

from __future__ import annotations

import os
import pathlib
import queue
import shutil
import signal
import tempfile
import time
import traceback
import warnings
from typing import Iterable, Sequence

from repro.core.atlas import WearAtlas, load_atlas, save_atlas
from repro.core.campaign import (
    Campaign,
    CampaignConfig,
    ProgressFn,
    check_resume,
    plan_identities,
)
from repro.core.generator import CaseGenerator
from repro.core.pool import WorkerPool
from repro.core.results import ResultSet
from repro.core.supervisor import Supervisor, SupervisorPolicy
from repro.core.types import ParamType, default_types
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


def personality_by_key(key: str) -> Personality:
    from repro import ALL_VARIANTS

    for personality in ALL_VARIANTS:
        if personality.key == key:
            return personality
    raise KeyError(f"unknown variant key {key!r}")


class _GeneratorMemo:
    """A pool worker's case generator, kept across the specs it runs.

    Plans are pure functions of ``(MuT name, pools, cap)``, so every
    slice of one run reuses one generator's plans, finder tables and
    resolve memo -- as the serial path shares one generator across all
    of its variants -- instead of rebuilding them per slice.  The memo
    holds one generator, keyed on the cap, the MuT-name filter and
    :attr:`ParamType._generation`: a spec that differs in any of them
    replaces it.  A worker therefore holds at most one plan set (about
    18 MB for every MuT at cap 300), and a service worker no more than
    its current job's."""

    def __init__(self) -> None:
        self._key: tuple | None = None
        self._generator: CaseGenerator | None = None

    def get(self, cap: int, muts: Iterable[str] | None) -> CaseGenerator:
        types = default_types()
        key = (
            cap,
            None if muts is None else frozenset(muts),
            ParamType._generation,
        )
        if key != self._key:
            self._generator = None  # release the old plan set first
            self._generator = CaseGenerator(types, cap=cap)
            self._key = key
        return self._generator


def _variant_worker(spec: dict, events, generators: _GeneratorMemo) -> None:
    """Run one spec -- a variant's slice -- inside a pooled worker.

    ``spec`` is a plain picklable dict (variant key, MuT-name filter,
    config fields, shard path, resume document, quarantine verdicts,
    heartbeat throttle); everything else -- registries, generator,
    machine -- is built inside the worker.  Emits ``("progress",
    tag, mut, position, total)`` events while running, throttled
    ``("heartbeat", tag, "api:name", case_index)`` liveness beacons
    for the supervisor's wall-clock watchdog, and finishes with either
    ``("done", tag, checkpoint_dict)`` or ``("error", tag,
    traceback_text)``.  Everything it builds is local to the call except
    the case generator, which comes from the worker's ``generators``
    memo: its plans are pure functions of their inputs, so a warm worker
    runs the next spec exactly as a cold one would.

    ``tag`` is ``spec["tag"]`` when present, else the variant key.
    :class:`SlicePlanner` tags a spec with its variant key, or
    ``variant#k`` for a slice; the multi-tenant campaign service leases
    the same variant to several concurrent jobs and needs each worker's
    messages routed to its own shard, so it prefixes ``"<job>/"``.
    """
    key = spec["variant"]
    tag = spec.get("tag") or key
    try:
        personality = personality_by_key(key)
        config = CampaignConfig(**spec["config"])
        campaign = Campaign(
            [personality],
            config=config,
            muts=spec["muts"],
            shard=spec.get("shard"),
            generator=generators.get(config.cap, spec["muts"]),
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


class SlicePlanner:
    """The slice planner of both runners: it builds a run's worker
    specs, says which of them may run, and settles finished slices.

    Each spec is the ``common`` fields plus the MuT-name filter, the
    config fields (:func:`config_spec_fields`), the variant, a tag and
    a shard file named after ``shard_base``.  With ``shards == 1`` a
    variant is one spec tagged with its bare key and no ``shard`` block,
    carrying its slice of ``resume``.  With ``shards > 1`` each
    variant's plan is cut into contiguous slices (:func:`shard_bounds`),
    one spec per incomplete slice, tagged ``variant#k``; slices a
    ``resume`` document already completed settle up front, with no
    worker.

    A slice is only *byte-faithful* if it executed from the exact
    machine wear the serial run would show at its first plan position.
    Slice 0's base (fresh boot, or the resume document) is authoritative
    by construction; every later slice runs from either the settled end
    wear of its predecessor (cold: the chain degenerates to a pipeline)
    or a speculative seam from the wear ``atlas`` (warm: all slices
    launch at once).  When a slice finishes, :meth:`on_done` walks the
    variant's chain from the front and *settles* each finished slice
    whose self-reported ``base_wear`` fingerprint matches its
    predecessor's settled end wear; a mismatch means the speculation was
    stale, so the slice's results are discarded and its spec is rebased
    onto the true frontier and returned for a replay.  Each slice
    replays at most once per settlement (its rebased base is
    authoritative), so a fully stale atlas costs one extra pass, never a
    livelock.  Settled seams are recorded into the atlas.

    ``resumed`` slices (their basis is a checkpoint document, the same
    trust extended to any resume) settle without a seam check, exactly
    as :func:`merge_checkpoints` treats them.

    Seam checks compare fingerprints from :meth:`fingerprint`, which
    dumps each wear image once however often the cascade re-walks a
    chain; the final merge of :meth:`pieces` reuses them.
    """

    def __init__(
        self,
        variants: Sequence[Personality],
        config: CampaignConfig,
        muts: Iterable[str] | None,
        shards: int,
        shard_base: str | pathlib.Path,
        common: dict,
        resume: CampaignCheckpoint | None = None,
        atlas: WearAtlas | None = None,
    ) -> None:
        self.config = config
        self.atlas = atlas
        #: variant -> its plan identities, in plan order.
        self.plans: dict[str, list] = {}
        #: Every worker spec, in variant then plan order.
        self.specs: list[dict] = []
        #: variant -> slice entries in plan order (pre-settled resume
        #: prefixes included).
        self._chains: dict[str, list[dict]] = {}
        self._by_tag: dict[str, dict] = {}
        self._spawned: set[str] = set()
        #: id(wear image) -> (the image, its fingerprint); holding the
        #: image keeps its id from being reused within the run.
        self._fingerprints: dict[int, tuple[dict, str]] = {}
        common = dict(
            common,
            muts=None if muts is None else list(muts),
            config=config_spec_fields(config),
        )
        for personality in variants:
            key = personality.key
            plan = self.plans[key] = plan_identities(personality, config, muts)
            if shards == 1:
                resume_doc = None
                if resume is not None:
                    piece = split_checkpoint(resume, key)
                    piece.complete = False
                    resume_doc = checkpoint_to_dict(piece)
                spec = dict(
                    common,
                    variant=key,
                    tag=key,
                    shard_path=str(shard_path(shard_base, key)),
                    resume=resume_doc,
                )
                self._add(key, spec, 0, len(plan), known=True)
                continue
            cursor = resume.cursors.get(key, 0) if resume is not None else 0
            for index, (start, stop) in enumerate(
                shard_bounds(len(plan), shards)
            ):
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
                    entry = self._add(key, None, start, stop, known=True)
                    entry.update(
                        settled=True,
                        end_known=key in piece.machine_wear,
                        end=piece.machine_wear.get(key),
                        done=piece,
                        started=stop - start,
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
                        base = atlas.seam(key, plan, config.cap, start)
                    known = index == 0 or base is not None
                tag = shard_tag(key, index)
                spec = dict(
                    common,
                    variant=key,
                    tag=tag,
                    shard_path=str(shard_path(shard_base, tag)),
                    resume=resume_doc,
                    shard={
                        "variant": key,
                        "index": index,
                        "start": start,
                        "stop": stop,
                        "resumed": resumed,
                        "base_wear": base,
                    },
                )
                self._add(key, spec, start, stop, known)

    def _add(
        self,
        variant: str,
        spec: dict | None,
        start: int,
        stop: int,
        known: bool,
    ) -> dict:
        """Append a slice entry to the variant's chain.  A spec with an
        unknown base stays unschedulable until its predecessor settles
        and hands it its end wear."""
        entry = {
            "spec": spec,
            "start": start,
            "stop": stop,
            "known": known,
            "settled": False,
            "end_known": False,
            "end": None,
            "done": None,
            "started": 0,
        }
        self._chains.setdefault(variant, []).append(entry)
        if spec is not None:
            self.specs.append(spec)
            self._by_tag[spec["tag"]] = entry
        return entry

    def __contains__(self, tag: str) -> bool:
        return tag in self._by_tag

    def fingerprint(self, wear: dict | None) -> str:
        """:func:`wear_fingerprint`, memoized per wear image object."""
        if wear is None:
            return wear_fingerprint(None)
        hit = self._fingerprints.get(id(wear))
        if hit is None:
            hit = self._fingerprints[id(wear)] = (wear, wear_fingerprint(wear))
        return hit[1]

    def runnable(self) -> list[dict]:
        """The specs that may run now: unfinished, with a known base
        (authoritative or speculative)."""
        return [
            entry["spec"]
            for entry in self._by_tag.values()
            if entry["done"] is None and entry["known"]
        ]

    def mark_spawned(self, tag: str) -> None:
        self._spawned.add(tag)

    def progress(self, tag: str, position: int) -> tuple[str, int, int]:
        """A worker's progress at plan ``position`` as its variant's
        aggregate: ``(variant, plan positions started across the
        variant's slices, plan length)``."""
        entry = self._by_tag[tag]
        entry["started"] = position - entry["start"] + 1
        variant = entry["spec"]["variant"]
        started = sum(item["started"] for item in self._chains[variant])
        return variant, started, len(self.plans[variant])

    def pieces(self) -> list[CampaignCheckpoint]:
        """Every settled slice's final checkpoint, in variant then plan
        order: the input of the run's merge."""
        return [
            entry["done"]
            for chain in self._chains.values()
            for entry in chain
            if entry["settled"]
        ]

    def on_done(self, tag: str, checkpoint: CampaignCheckpoint) -> list[dict]:
        """Absorb a finished slice and run the settlement cascade;
        returns the specs whose speculative base proved stale (rebased,
        to be run again)."""
        entry = self._by_tag[tag]
        entry["done"] = checkpoint
        variant = entry["spec"]["variant"]
        chain = self._chains[variant]
        plan = self.plans[variant]
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
                and self.fingerprint(info.get("base_wear"))
                == self.fingerprint(prev_end)
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
                if (
                    self.atlas is not None
                    and item["end_known"]
                    and item["end"] is not None
                    and 0 < item["stop"] < len(plan)
                ):
                    self.atlas.record(
                        variant,
                        plan,
                        self.config.cap,
                        item["stop"],
                        item["end"],
                    )
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
                self._spawned.discard(spec["tag"])
                replays.append(spec)
                break
        return replays

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
            or spec["tag"] in self._spawned
            or spec["shard"].get("resumed")
        ):
            return
        spec["shard"] = dict(spec["shard"], base_wear=item["end"])
        successor["known"] = True


class CampaignGaveUp(RuntimeError):
    """The supervisor gave up on at least one worker spec: its restart
    budget ran out, or the spec raised before its first unit.  The
    message names the specs and carries each worker's own diagnosis
    (a traceback, for a spec that raised)."""


class ParallelCampaign:
    """Drop-in campaign runner that fans variants out across supervised
    worker processes.

    Mirrors :meth:`Campaign.run`'s signature and semantics; the merged
    result set (and the rendered tables built from it) is byte-identical
    to the serial run at the same cap, also when restarts healed the
    run.  Every worker death -- the wall-clock watchdog's kills too --
    goes to a :class:`~repro.core.supervisor.Supervisor`, which
    relaunches the spec from its shard and quarantines poison MuTs.
    The decision trail lands in :attr:`supervision_log`.

    :param variants: OS personalities to test (must be among
        :data:`repro.ALL_VARIANTS` -- workers rebuild them by key).
    :param muts: optional subset of bare MuT names, as on
        :class:`Campaign`.  Custom registry objects cannot cross the
        spawn boundary; filter the default registry by name instead.
    :param jobs: concurrent worker processes (default: one per
        schedulable slice -- ``variants * shards`` -- capped at the core
        count).  ``jobs=1`` runs the serial :class:`Campaign`
        in-process, skipping spawn overhead; there is no worker to
        supervise.
    :param shards: slices per variant (default 1: one worker per
        variant, the pre-sharding behaviour).  With ``shards > 1`` each
        variant's plan is cut into that many contiguous slices and all
        slices across all variants feed one worker pool, so parallelism
        is no longer capped at the variant count.  Slices of one variant
        share a simulated machine, so each runs from the exact serial
        wear at its first plan position -- learned from its predecessor
        (cold) or a wear atlas (warm); see :class:`SlicePlanner`.
    :param atlas_path: optional wear-atlas file (see
        :mod:`repro.core.atlas`).  Read for speculative slice bases at
        startup, updated with settled seams after a successful run.
        Purely an accelerator; results are byte-identical with or
        without it.
    :param policy: restart, watchdog and quarantine knobs (default: a
        :class:`SupervisorPolicy` read from the ``BALLISTA_*``
        environment).  ``max_restarts=0, mut_deadline=None`` fails the
        run on the first worker death.
    """

    def __init__(
        self,
        variants: Sequence[Personality],
        config: CampaignConfig | None = None,
        muts: Iterable[str] | None = None,
        jobs: int | None = None,
        shards: int | None = None,
        atlas_path: str | pathlib.Path | None = None,
        *,
        policy: SupervisorPolicy | None = None,
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
        self.policy = policy or SupervisorPolicy()
        self.last_checkpoint: CampaignCheckpoint | None = None
        #: Chronological supervision events of the last :meth:`run`.
        self.supervision_log: list[dict] = []
        #: The combined checkpoint the log is persisted onto mid-run.
        self._live_checkpoint_path: str | pathlib.Path | None = None

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
        events (worker spawns, deaths and restarts, merges)."""
        self.supervision_log = []
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
        keys = [p.key for p in self.variants]
        if isinstance(resume, (str, pathlib.Path)):
            resume = load_checkpoint(resume)
        if resume is not None:
            # Fail an incompatible checkpoint before any worker spawns.
            check_resume(resume, self.config, keys)
        if recorder is not None:
            recorder.emit(
                obs_events.CampaignStarted(tuple(keys), self.config.cap)
            )

        tempdir = None
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
            shard_base = checkpoint_path
        else:
            # Restart-from-shard needs shards even when the caller did
            # not ask for a checkpoint file.
            tempdir = tempfile.mkdtemp(prefix="ballista-supervised-")
            shard_base = os.path.join(tempdir, "campaign.ckpt")
        deadline = self.policy.mut_deadline
        # Seams exist only between slices: one slice per variant has none
        # to predict or learn.
        atlas = (
            load_atlas(self.atlas_path)
            if self.atlas_path is not None and self.shards > 1
            else None
        )
        self._live_checkpoint_path = checkpoint_path
        pool = WorkerPool(self.jobs)
        try:
            planner = SlicePlanner(
                self.variants,
                self.config,
                self._muts,
                self.shards,
                shard_base,
                {
                    "checkpoint_every": checkpoint_every,
                    # Beacons must be several times faster than the
                    # deadline that judges them.
                    "heartbeat_interval": (
                        1.0
                        if deadline is None
                        else max(0.01, min(1.0, deadline / 5.0))
                    ),
                    "events": recorder is not None,
                },
                resume=resume,
                atlas=atlas,
            )
            self._run_workers(pool, planner, progress, recorder)
            merged = merge_checkpoints(
                planner.pieces(),
                cap=self.config.cap,
                variants=keys,
                fingerprint=planner.fingerprint,
            )
            merged.complete = True
            if atlas is not None:
                # Memoize the settled seams, so the next identical run
                # launches every slice warm.
                save_atlas(atlas, self.atlas_path)
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
            for spec in planner.specs:
                try:
                    os.remove(spec["shard_path"])
                except OSError:  # pragma: no cover - already gone
                    pass
        finally:
            pool.close()
            self._live_checkpoint_path = None
            if tempdir is not None:
                shutil.rmtree(tempdir, ignore_errors=True)
        if recorder is not None:
            recorder.emit(
                obs_events.CampaignFinished(merged.results.total_cases())
            )
        return merged.results

    # ------------------------------------------------------------------

    def _note_replay(self, spec: dict, recorder: Recorder | None) -> None:
        """Replays are settlement corrections, not faults: they ride the
        supervision log for the operator but never burn the slice's
        restart budget."""
        variant, index = spec["variant"], spec["shard"]["index"]
        why = "speculative base wear was stale"
        if recorder is not None:
            recorder.emit(obs_events.ShardReplayed(variant, index, why))
        self._log("shard_replay", variant, index=index, why=why)

    def _log(self, event: str, variant: str, **detail) -> None:
        self.supervision_log.append(
            {"event": event, "variant": variant, **detail}
        )
        path = self._live_checkpoint_path
        if path is not None and os.path.exists(path):
            # Persist the fault history onto the in-flight combined
            # document (written before any worker spawned) so an
            # operator resuming an interrupted run sees what the
            # supervisor already survived.  The *final* checkpoint is
            # rebuilt from the merged shards with an empty supervision
            # log, keeping byte-identity with an undisturbed run.
            try:
                live = load_checkpoint(path)
            except (OSError, ResultFormatError):  # pragma: no cover
                return
            live.supervision = list(self.supervision_log)
            save_checkpoint(live, path)

    def _forward_progress(
        self,
        planner: SlicePlanner,
        progress: ProgressFn | None,
        message: tuple,
    ) -> None:
        """Relay a worker progress event.  Sharded runs collapse the
        per-slice streams into one aggregate line per variant (completed
        cases across all slices over the whole plan), so the renderer's
        cursor-up redraw stays one line per variant instead of exploding
        past terminal height at high ``--shards``."""
        if progress is None:
            return
        _, tag, mut, position, _total = message
        variant, started, total = planner.progress(tag, position)
        progress(variant, mut, started - 1, total)

    def _pump_timeout(self) -> float:
        """Pipe poll interval.  Floored at 50 ms: a tight MuT deadline
        used to drive this down to 10 ms, turning the pump into a busy
        loop that spent its time on liveness scans instead of events.
        The watchdog only needs the poll to be comfortably shorter than
        the deadline, not a fixed fraction of it."""
        if self.policy.mut_deadline is None:
            return 0.2
        return max(0.05, min(0.2, self.policy.mut_deadline / 4.0))

    def _run_workers(
        self,
        pool: WorkerPool,
        planner: SlicePlanner,
        progress: ProgressFn | None,
        recorder: Recorder | None = None,
    ) -> None:
        """Run the planner's runnable specs on at most ``self.jobs``
        pooled workers and pump their messages until none is left to
        run; a :class:`Supervisor` under :attr:`policy` heals every
        death."""
        policy = self.policy
        errors: dict[str, str] = {}
        last_seen: dict[str, float] = {}

        def emit(event) -> None:
            if recorder is not None:
                recorder.emit(event)

        supervisor = Supervisor(policy, emit, log=self._log)

        def settle(key: str, reason: str | None) -> None:
            """A dead worker's spec runs again, unless given up on."""
            if reason is not None:
                errors[key] = reason

        while True:
            pending = [
                spec
                for spec in planner.runnable()
                if spec["tag"] not in pool and spec["tag"] not in errors
            ]
            if not len(pool):
                if not pending:
                    # Nothing runs and nothing left can: every slice
                    # settled, or the rest were given up on or wait on a
                    # slice that was.
                    break
                if not errors:
                    # Nothing alive to produce events: sleep out the
                    # earliest backoff instead of spinning on the pipes.
                    wait = min(
                        supervisor.due.get(s["tag"], 0.0) for s in pending
                    ) - policy.clock()
                    if wait > 0:
                        time.sleep(min(wait, 0.05))
            now = policy.clock()
            for spec in pending:
                if pool.full():
                    break
                key = spec["tag"]
                if supervisor.due.get(key, 0.0) > now:
                    continue
                planner.mark_spawned(key)
                spec["quarantine"] = supervisor.verdicts.get(key, {})
                pid = pool.run(key, spec)
                last_seen[key] = policy.clock()
                emit(
                    obs_events.WorkerSpawned(
                        key, pid, supervisor.restarts.get(key, 0) + 1
                    )
                )
            message = None
            try:
                message = pool.get(timeout=self._pump_timeout())
            except queue.Empty:
                pass
            if message is not None:
                kind, key = message[0], message[1]
                last_seen[key] = policy.clock()
                if kind == "progress":
                    self._forward_progress(planner, progress, message)
                elif kind == "heartbeat":
                    supervisor.inflight[key] = (message[2], message[3])
                elif kind == "obs":
                    if recorder is not None:
                        recorder.record(message[2])
                elif kind == "done":
                    supervisor.inflight.pop(key, None)
                    pool.release(key)
                    emit(obs_events.WorkerFinished(key))
                    for spec in planner.on_done(
                        key, checkpoint_from_dict(message[2])
                    ):
                        self._note_replay(spec, recorder)
                elif key in pool:
                    # "error" from the running spec; one sent before its
                    # worker was killed or reaped is moot.
                    pool.release(key)
                    settle(key, supervisor.raised(key, message[2]))
            # Wall-clock watchdog: a silent worker is hung in real time
            # (the simulated watchdog cannot see it).
            if policy.mut_deadline is not None:
                for key in list(pool.pids()):
                    stale = policy.clock() - last_seen.get(key, now)
                    if stale > policy.mut_deadline:
                        mut_case = supervisor.inflight.get(key)
                        self._log(
                            "watchdog_kill", key,
                            stale_s=round(stale, 3),
                            mut=mut_case[0] if mut_case else None,
                        )
                        pool.kill(key)
                        why = (
                            f"heartbeat stale {stale:.1f}s "
                            f"(deadline {policy.mut_deadline}s)"
                        )
                        settle(key, supervisor.died(key, "hung", why))
            # Reap workers killed from outside (OOM, SIGKILL).
            for key, exitcode in pool.reap():
                why = f"exited with code {exitcode}"
                settle(key, supervisor.died(key, "killed", why, exitcode))
        if errors:
            detail = "\n".join(
                f"--- worker [{key}] ---\n{text}"
                for key, text in sorted(errors.items())
            )
            raise CampaignGaveUp(
                f"parallel campaign gave up on {sorted(errors)}:\n{detail}"
            )


#: The runner's former name, from when supervision was an opt-in
#: subclass; the benchmark's ``case_sharded`` workload still uses it.
SupervisedCampaign = ParallelCampaign
