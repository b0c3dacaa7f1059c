"""Campaign orchestration: run every MuT on every requested OS variant.

A campaign reproduces the paper's measurement procedure:

* per variant, one simulated machine is booted and persists across test
  cases (so shared-state corruption can accumulate);
* each MuT's test-case sequence is generated deterministically (identical
  across variants) and each case runs in a fresh process;
* a Catastrophic failure interrupts testing of that MuT -- the machine is
  rebooted and the campaign moves to the next MuT, and the MuT is
  excluded from rate averages, exactly as in the paper;
* results land in a :class:`~repro.core.results.ResultSet`.

The per-MuT cap defaults to the ``BALLISTA_CAP`` environment variable
(300 when unset) so test/bench runs stay fast; set ``BALLISTA_CAP=5000``
for the paper-scale campaign.
"""

from __future__ import annotations

import os
import pathlib
import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.core.crash_scale import CaseCode
from repro.core.executor import CaseOutcome, Executor
from repro.core.generator import CaseGenerator, TestCase
from repro.core.mut import MuT, MuTRegistry, default_registry
from repro.core.results import ResultSet
from repro.core.results_io import (
    CampaignCheckpoint,
    checkpoint_plan,
    load_checkpoint,
    save_checkpoint,
)
from repro.core.types import TypeRegistry, default_types
from repro.obs import events as obs_events
from repro.obs.recorder import Recorder
from repro.sim.faults import FAULT_FAMILIES
from repro.sim.machine import Machine
from repro.sim.personality import Personality

#: Detail-string marker for crashes caused by accumulated corruption.
_INTERFERENCE_MARKER = "accumulated corruption"


def default_cap() -> int:
    """Per-MuT case cap: ``BALLISTA_CAP`` env var, default 300.

    Raises a :class:`ValueError` naming the variable when it holds
    something other than a positive integer, so callers (notably the
    CLI) can report it cleanly instead of leaking a traceback.
    """
    raw = os.environ.get("BALLISTA_CAP", "300")
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(
            f"BALLISTA_CAP must be an integer number of test cases "
            f"(e.g. 300 or 5000), got {raw!r}"
        ) from None
    if cap < 1:
        raise ValueError(f"BALLISTA_CAP must be a positive integer, got {cap}")
    return cap


@dataclass
class CampaignConfig:
    """Tunable knobs for a campaign.

    :param cap: per-MuT test-case cap (paper: 5000).
    :param watchdog_ticks: per-call hang budget in virtual ms.
    :param machine_per_case: ablation switch -- boot a fresh machine for
        *every* case (full isolation).  Interference crashes disappear in
        this mode, demonstrating why the paper could not reproduce the
        ``*`` crashes outside the harness.
    :param count_thrown_exceptions_as_abort: ablation switch for the
        paper's "more than fair" policy of assuming all thrown Win32
        exceptions are recoverable error reports.  When True, *every*
        thrown exception counts as an Abort.
    :param mode: ``"case"`` (the paper's per-case campaign) or
        ``"sequence"`` (stateful k-call sequences as the unit of work;
        see :mod:`repro.core.sequences`).
    :param sequences: sequences planned per variant (sequence mode).
    :param sequence_length: calls per sequence (sequence mode).
    :param sequence_seed: campaign-level seed for sequence planning.
    :param dirty_machine: sequence mode only -- skip the
        between-sequence reboot, so each sequence starts on the wear
        its predecessors accumulated.
    :param fault_families: exhaustion families eligible for seeded
        injection in sequence mode (subset of
        :data:`repro.sim.faults.FAULT_FAMILIES`); empty disables
        injection.
    """

    cap: int = field(default_factory=default_cap)
    watchdog_ticks: int = 30_000
    machine_per_case: bool = False
    count_thrown_exceptions_as_abort: bool = False
    mode: str = "case"
    sequences: int = 50
    sequence_length: int = 6
    sequence_seed: int = 0
    dirty_machine: bool = False
    fault_families: tuple = FAULT_FAMILIES

    def __post_init__(self) -> None:
        if self.mode not in ("case", "sequence"):
            raise ValueError(
                f"mode must be 'case' or 'sequence', got {self.mode!r}"
            )
        # Workers rebuild configs from plain JSON-ish dicts, where the
        # families arrive as a list; normalise so equality and plan
        # seeding cannot depend on the container type.
        self.fault_families = tuple(self.fault_families)


ProgressFn = Callable[[str, str, int, int], None]

#: Per-case liveness callback: ``(variant, "api:name", case_index)``.
#: The supervisor's wall-clock watchdog consumes these -- a worker whose
#: heartbeats stop mid-MuT is hung in *real* time (outside the simulated
#: clock's reach) and gets terminated and restarted from its shard.
HeartbeatFn = Callable[[str, str, int], None]


def mut_key(mut: MuT) -> str:
    """The unambiguous ``api:name`` identity used in heartbeats and
    quarantine specs (bare names can repeat across APIs, e.g. the libc
    and syscall ``rename``)."""
    return f"{mut.api}:{mut.name}"


def check_resume(
    resume: CampaignCheckpoint, config: CampaignConfig, keys: list[str]
) -> None:
    """Refuse to resume ``resume`` under another cap, variant set or
    campaign plan: case sequences are a function of the cap and
    sequence plans of the plan parameters, so a mismatch would splice
    incompatible plans.  A hand-built checkpoint that omits its cap or
    plan resumes with a warning (a missing plan is adopted from
    ``config``).  Every runner calls this before it runs, or spawns,
    anything."""
    if not resume.cap:
        warnings.warn(
            f"checkpoint does not record its cap; resuming at "
            f"cap={config.cap} without compatibility checking",
            stacklevel=3,
        )
    elif resume.cap != config.cap:
        raise ValueError(
            f"checkpoint was taken at cap={resume.cap}, cannot "
            f"resume at cap={config.cap}"
        )
    if resume.variants is not None and set(resume.variants) != set(keys):
        raise ValueError(
            f"checkpoint was taken for variants "
            f"{sorted(resume.variants)}, cannot resume with "
            f"{sorted(keys)}"
        )
    mine = checkpoint_plan(config)
    if resume.plan is None and mine is not None:
        warnings.warn(
            "checkpoint does not record its campaign plan; resuming in "
            "sequence mode without compatibility checking",
            stacklevel=3,
        )
        resume.plan = mine
    elif resume.plan != mine:
        raise ValueError(
            f"checkpoint records campaign plan {resume.plan}, "
            f"cannot resume with {mine}"
        )


def variant_muts(
    personality: Personality,
    muts: Iterable[str] | None = None,
    registry: MuTRegistry | None = None,
) -> list[MuT]:
    """The variant's MuTs in plan order, restricted to the bare names
    in ``muts`` when given."""
    plan = (registry or default_registry()).for_variant(personality)
    if muts is not None:
        wanted = set(muts)
        plan = [m for m in plan if m.name in wanted]
    return plan


def plan_identities(
    personality: Personality,
    config: CampaignConfig,
    muts: Iterable[str] | None = None,
    registry: MuTRegistry | None = None,
) -> list[tuple[str, str]]:
    """The variant's ordered plan as ``(api, name)`` identities -- the
    currency of checkpoint splitting/merging and the wear atlas.  One
    entry per MuT in case mode, one per sequence (under the reserved
    ``"seq"`` namespace) in sequence mode.  Builds no case plan."""
    if config.mode == "sequence":
        from repro.core.sequences import SEQUENCE_API, sequence_name

        return [
            (SEQUENCE_API, sequence_name(index))
            for index in range(config.sequences)
        ]
    return [(m.api, m.name) for m in variant_muts(personality, muts, registry)]


class Campaign:
    """Runs MuTs across OS variants and collects results."""

    def __init__(
        self,
        variants: Sequence[Personality],
        registry: MuTRegistry | None = None,
        types: TypeRegistry | None = None,
        config: CampaignConfig | None = None,
        muts: Iterable[str] | None = None,
        shard: dict | None = None,
        generator: CaseGenerator | None = None,
    ) -> None:
        """
        :param variants: OS personalities to test.
        :param muts: optional subset of bare MuT names to run.
        :param shard: intra-variant slice assignment for a sharded
            campaign worker (single-variant campaigns only): the
            checkpoint ``shard`` block --
            ``{"variant", "index", "start", "stop", "resumed",
            "base_wear"}``.  The plan is restricted to positions
            ``[start, stop)`` and the machine boots from ``base_wear``
            (the exact serial wear at the slice's first position;
            ``None`` = fresh boot), so the slice classifies byte-
            identically to the same positions of a serial run.
        :param generator: a :class:`CaseGenerator` over ``types`` at the
            config's cap whose memoized plans to reuse (plans are pure
            functions of ``(MuT name, pools, cap)``, so campaigns may
            share one); default: a fresh one.
        """
        self.variants = list(variants)
        self.registry = registry or default_registry()
        self.types = types or default_types()
        self.config = config or CampaignConfig()
        self.generator = generator or CaseGenerator(
            self.types, cap=self.config.cap
        )
        if (
            self.generator.cap != self.config.cap
            or self.generator.types is not self.types
        ):
            raise ValueError(
                "a shared case generator must match the campaign's cap "
                "and type registry"
            )
        self._mut_filter = set(muts) if muts is not None else None
        if shard is not None and len(self.variants) != 1:
            raise ValueError(
                "an intra-variant shard assignment needs a single-variant "
                f"campaign, got {len(self.variants)} variants"
            )
        self._shard = dict(shard) if shard is not None else None
        #: Set by :meth:`run`: the run's final checkpoint (results plus
        #: plan cursors and machine wear), whether or not it was saved.
        self.last_checkpoint: CampaignCheckpoint | None = None
        # Materialise every per-MuT case plan up front: a plan is a pure
        # function of (MuT name, pools, cap), so one list serves all of
        # the campaign's variants and shard slices.  Doing it at
        # construction keeps plan decoding out of the per-case loop.
        # Shard workers skip the warm-up -- their slice may touch a
        # fraction of the plan, and the per-MuT cache fills lazily --
        # and so do sequence campaigns, which never read a case plan
        # (steps resolve their own value names).
        if self._shard is None and self.config.mode == "case":
            seen: set[str] = set()
            for personality in self.variants:
                for mut in self.muts_for(personality):
                    if mut.name not in seen:
                        seen.add(mut.name)
                        self.generator.cases(mut)

    # ------------------------------------------------------------------

    def muts_for(self, personality: Personality) -> list[MuT]:
        return variant_muts(personality, self._mut_filter, self.registry)

    def sequence_plans(self, personality: Personality) -> list:
        """The variant's deterministic sequence plan (sequence mode)."""
        from repro.core.sequences import SequencePlanner

        return SequencePlanner(
            self.muts_for(personality),
            self.generator,
            count=self.config.sequences,
            length=self.config.sequence_length,
            seed=self.config.sequence_seed,
            fault_families=self.config.fault_families,
        ).plans()

    def run(
        self,
        progress: ProgressFn | None = None,
        checkpoint_path: str | pathlib.Path | None = None,
        checkpoint_every: int = 25,
        resume: CampaignCheckpoint | str | pathlib.Path | None = None,
        quarantine: dict[str, str] | None = None,
        heartbeat: HeartbeatFn | None = None,
        recorder: Recorder | None = None,
    ) -> ResultSet:
        """Execute the full campaign and return the result set.

        :param checkpoint_path: write a restartable checkpoint document
            here every ``checkpoint_every`` completed MuTs (and at each
            variant boundary).  Writes are atomic, so killing the run
            mid-checkpoint never loses the previous one.
        :param resume: a :class:`CampaignCheckpoint` (or path to one)
            from an interrupted run.  Already-completed MuTs are skipped
            and per-variant machine wear (accumulated corruption, clock)
            is restored, so the final result set matches an
            uninterrupted run.
        :param quarantine: ``{"api:name": reason}`` MuTs the supervisor
            has withdrawn; each is recorded as QUARANTINED and skipped.
        :param heartbeat: per-case liveness callback (see
            :data:`HeartbeatFn`); the supervisor's watchdog feeds on it.
        :param recorder: optional telemetry sink (see :mod:`repro.obs`);
            receives typed campaign events as the run progresses.
        """
        keys = [p.key for p in self.variants]
        if isinstance(resume, (str, pathlib.Path)):
            resume = load_checkpoint(resume)
        if resume is not None:
            check_resume(resume, self.config, keys)
            checkpoint = resume
        else:
            checkpoint = CampaignCheckpoint(
                ResultSet(),
                cap=self.config.cap,
                variants=keys,
                plan=checkpoint_plan(self.config),
            )
        plan_slice = None
        if self._shard is not None:
            # The slice's checkpoints carry their shard block (merge
            # validates seams from it) and the machine boots from the
            # exact serial wear at the slice's first plan position --
            # unless a resumed slice already recorded fresher mid-slice
            # wear, which supersedes the base.
            checkpoint.shard = dict(self._shard)
            plan_slice = (self._shard["start"], self._shard["stop"])
            base_wear = self._shard.get("base_wear")
            if base_wear is not None and keys[0] not in checkpoint.machine_wear:
                checkpoint.machine_wear[keys[0]] = dict(base_wear)
        results = checkpoint.results
        if recorder is not None:
            recorder.emit(
                obs_events.CampaignStarted(tuple(keys), self.config.cap)
            )
        #: Sequence plans are a function of the sorted MuT pool, not of
        #: the variant, so consecutive variants with one pool (win98,
        #: win98se, winnt and win2000 in the canonical order) share one
        #: plan list.  The memo lives for this run only and holds one
        #: list at a time.
        plans: list = []
        plans_pool: list | None = None
        for personality in self.variants:
            if self.config.mode == "sequence":
                from repro.core.sequences import run_variant_sequences

                muts = self.muts_for(personality)
                pool = sorted((mut.api, mut.name) for mut in muts)
                if pool != plans_pool:
                    plans = []  # release the old list before building
                    plans = self.sequence_plans(personality)
                    plans_pool = pool
                run_variant_sequences(
                    personality,
                    plans,
                    self.generator,
                    self.config,
                    results,
                    progress,
                    checkpoint,
                    checkpoint_path,
                    checkpoint_every,
                    quarantine=quarantine,
                    heartbeat=heartbeat,
                    recorder=recorder,
                    plan_slice=plan_slice,
                )
                continue
            run_variant(
                personality,
                self.muts_for(personality),
                self.generator,
                self.config,
                results,
                progress,
                checkpoint,
                checkpoint_path,
                checkpoint_every,
                quarantine=quarantine,
                heartbeat=heartbeat,
                recorder=recorder,
                plan_slice=plan_slice,
            )
        checkpoint.complete = True
        #: The final checkpoint of the last run (cursors + machine wear
        #: included); the parallel runner merges these across workers.
        self.last_checkpoint = checkpoint
        if checkpoint_path is not None:
            save_checkpoint(checkpoint, checkpoint_path)
            if recorder is not None:
                recorder.emit(
                    obs_events.CheckpointWritten(
                        "campaign", str(checkpoint_path), len(results)
                    )
                )
        if recorder is not None:
            recorder.emit(obs_events.CampaignFinished(results.total_cases()))
        return results


# ----------------------------------------------------------------------
# The per-variant campaign loop
# ----------------------------------------------------------------------


def run_variant(
    personality: Personality,
    muts: Sequence[MuT],
    generator: CaseGenerator,
    config: CampaignConfig,
    results: ResultSet,
    progress: ProgressFn | None,
    checkpoint: CampaignCheckpoint,
    checkpoint_path: str | pathlib.Path | None,
    checkpoint_every: int,
    quarantine: dict[str, str] | None = None,
    heartbeat: HeartbeatFn | None = None,
    recorder: Recorder | None = None,
    plan_slice: tuple[int, int] | None = None,
) -> None:
    """Run one variant's full MuT plan (the campaign inner loop).

    A standalone module-level function so the parallel runner
    (:mod:`repro.core.parallel`) can reference it from spawn-started
    worker processes; :meth:`Campaign.run` drives it directly for the
    serial path, so both paths classify identically by construction.

    The entry is restart-safe at an arbitrary plan cursor: MuTs already
    present in ``results`` (or already quarantined there) from an
    interrupted run's checkpoint are skipped, and machine wear restored
    from the checkpoint puts the simulated machine back exactly where
    the dead worker left it, so a supervisor can kill and relaunch this
    loop mid-variant without perturbing a single classification.  In
    ``machine_per_case`` mode there is no cross-MuT machine state, so no
    wear is captured into (or restored from) the checkpoint -- recording
    the throwaway per-case machine's wear would restore meaningless
    corruption onto a resumed run.

    ``quarantine`` maps ``"api:name"`` keys to reason strings: the
    supervisor's verdict that a MuT repeatedly killed or hung its
    worker.  Each is recorded as a harness-level QUARANTINED outcome
    (no case array, excluded from rates) and the plan moves on -- the
    paper's reboot-and-continue loop, minus the reboot.

    ``plan_slice=(start, stop)`` restricts execution to that half-open
    range of plan positions -- one intra-variant shard.  Positions (and
    so the per-MuT case sequences, which are seeded by MuT name) are
    identical to the serial plan's; the caller is responsible for
    booting the machine from the exact serial wear at ``start`` (via
    the checkpoint's ``machine_wear``), which makes the slice's
    classifications byte-identical to the same span of a serial run.
    The plan cursor still counts global positions, and lands on
    ``stop`` when the slice completes even if its tail was skipped, so
    merged slice chains reproduce the serial cursor.
    """
    quarantine = quarantine or {}
    start, stop = plan_slice if plan_slice is not None else (0, len(muts))
    machine = Machine(personality, watchdog_ticks=config.watchdog_ticks)
    wear = checkpoint.machine_wear.get(personality.key)
    if wear and not config.machine_per_case:
        machine.restore_wear(wear)
    executor = Executor(machine, generator)
    since_checkpoint = 0
    #: Lazy wear capture: the expensive machine snapshot
    #: (:meth:`Machine.wear_state`) is taken only when a checkpoint is
    #: actually about to be written (and once at end of variant), not
    #: after every MuT -- the machine state at capture time is exactly
    #: the state after the last completed MuT, so the captured image is
    #: byte-identical to the eager per-MuT capture it replaces.
    wear_dirty = False

    def capture_wear() -> None:
        nonlocal wear_dirty
        if wear_dirty:
            checkpoint.machine_wear[personality.key] = machine.wear_state()
            wear_dirty = False

    def emit(event: "obs_events.Event") -> None:
        if recorder is not None:
            recorder.emit(event)

    def save_and_tell(position: int) -> None:
        capture_wear()
        save_checkpoint(checkpoint, checkpoint_path)
        emit(
            obs_events.CheckpointWritten(
                personality.key, str(checkpoint_path), position
            )
        )

    emit(obs_events.VariantStarted(personality.key, len(muts)))
    for position in range(start, stop):
        mut = muts[position]
        if results.has(personality.key, mut.name, api=mut.api):
            continue  # already recorded by the interrupted run
        if results.is_quarantined(personality.key, mut.api, mut.name):
            continue  # quarantined by the interrupted run
        key = mut_key(mut)
        if key in quarantine:
            results.quarantine(
                personality.key, mut.api, mut.name, quarantine[key]
            )
            emit(
                obs_events.MutQuarantined(
                    personality.key, key, quarantine[key]
                )
            )
            checkpoint.cursors[personality.key] = position + 1
            since_checkpoint += 1
            if (
                checkpoint_path is not None
                and since_checkpoint >= checkpoint_every
            ):
                save_and_tell(position + 1)
                since_checkpoint = 0
            continue
        if progress is not None:
            progress(personality.key, mut.name, position, len(muts))
        result = results.new_result(
            personality.key, mut.name, mut.api, mut.group
        )
        result.planned_cases = generator.case_count(mut)
        result.capped = generator.is_capped(mut)
        per_case_machine = config.machine_per_case
        reclass_thrown = config.count_thrown_exceptions_as_abort
        for case in generator.cases(mut):
            if heartbeat is not None:
                heartbeat(personality.key, key, case.index)
            if per_case_machine:
                # Full isolation as a copy-on-write revert: observable
                # state identical to booting a fresh machine per case,
                # without rebuilding machine and executor objects.
                machine.revert()
            outcome = executor.run_case(mut, case)
            # Inline _apply_policies (one guarded branch beats a
            # function call on the per-case hot path).
            if (
                reclass_thrown
                and outcome.code is CaseCode.PASS_ERROR
                and outcome.detail.startswith("thrown ")
            ):
                outcome = _apply_policies(config, outcome)
            result.record(
                case.index,
                outcome.code,
                outcome.exceptional_input,
                outcome.detail,
                outcome.value_names,
                error_code=outcome.error_code,
            )
            if recorder is not None:
                # Hot path -- one event per test case: build the plain
                # record directly instead of routing through the
                # CaseExecuted dataclass (same wire shape, ~2x cheaper;
                # bench_obs.py pins the budget).
                recorder.record(
                    {
                        "kind": "case_executed",
                        "variant": personality.key,
                        "mut": key,
                        "case": case.index,
                        "code": int(outcome.code),
                        "exceptional": outcome.exceptional_input,
                        "sim_ticks": machine.clock.ticks,
                    }
                )
            if outcome.code is CaseCode.CATASTROPHIC:
                # The crash interrupts testing of this function: the
                # case set is incomplete and the machine reboots.
                if _INTERFERENCE_MARKER in outcome.detail:
                    result.interference_crash = True
                machine.reboot()
                break
        if recorder is not None:
            # Guarded so the histogram is only computed when there is a
            # sink to receive it.
            recorder.emit(
                obs_events.MutFinished(
                    personality.key,
                    key,
                    mut.group,
                    len(result.codes),
                    _outcome_histogram(result.codes),
                    result.catastrophic,
                    result.interference_crash,
                    machine.clock.ticks,
                )
            )
        checkpoint.cursors[personality.key] = position + 1
        wear_dirty = not config.machine_per_case
        since_checkpoint += 1
        if (
            checkpoint_path is not None
            and since_checkpoint >= checkpoint_every
        ):
            save_and_tell(position + 1)
            since_checkpoint = 0
    if plan_slice is not None:
        # A slice that ends on skipped (already-recorded) positions
        # still completed its span: the cursor must land on ``stop`` so
        # the merged chain matches the serial cursor byte for byte.
        checkpoint.cursors[personality.key] = max(
            checkpoint.cursors.get(personality.key, 0), stop
        )
    capture_wear()
    emit(
        obs_events.VariantFinished(
            personality.key,
            results.total_cases(personality.key),
            machine.clock.ticks,
        )
    )
    if checkpoint_path is not None:
        save_and_tell(stop)


_CODE_NAMES = {code.value: code.name for code in CaseCode}


def _outcome_histogram(codes: bytearray) -> dict[str, int]:
    """Per-MuT outcome counts keyed by CaseCode name, keys sorted (the
    deterministic form that rides on ``mut_finished`` events)."""
    counts: dict[str, int] = {}
    for code in codes:
        name = _CODE_NAMES[code]
        counts[name] = counts.get(name, 0) + 1
    return {name: counts[name] for name in sorted(counts)}


def _apply_policies(config: CampaignConfig, outcome: CaseOutcome) -> CaseOutcome:
    if (
        config.count_thrown_exceptions_as_abort
        and outcome.code is CaseCode.PASS_ERROR
        and outcome.detail.startswith("thrown ")
    ):
        return CaseOutcome(
            CaseCode.ABORT,
            outcome.detail,
            outcome.exceptional_input,
            outcome.value_names,
            error_code=outcome.error_code,
        )
    return outcome


# ----------------------------------------------------------------------
# Single-case replay
# ----------------------------------------------------------------------


def run_single_case(
    personality: Personality,
    mut_name: str,
    value_names: Sequence[str],
    registry: MuTRegistry | None = None,
    types: TypeRegistry | None = None,
    config: CampaignConfig | None = None,
) -> CaseOutcome:
    """Replay one test case on a freshly booted machine -- the analogue
    of the paper's "brief single-test program representing a single test
    case" (e.g. Listing 1).  Interference (``*``) crashes do not
    reproduce here; immediate Catastrophic crashes do.

    Pass the campaign's :class:`CampaignConfig` to replay under the same
    knobs -- in particular ``watchdog_ticks``, without which a case the
    campaign classified as a hang could replay differently under the
    default watchdog budget.
    """
    registry = registry or default_registry()
    types = types or default_types()
    config = config or CampaignConfig()
    mut = registry.find(mut_name) if ":" not in mut_name else registry.get(
        *mut_name.split(":", 1)
    )
    if not mut.available_on(personality):
        raise ValueError(f"{mut_name} is not available on {personality.name}")
    machine = Machine(personality, watchdog_ticks=config.watchdog_ticks)
    generator = CaseGenerator(types, cap=config.cap)
    case = TestCase(mut.name, 0, tuple(value_names))
    return Executor(machine, generator).run_case(mut, case)
