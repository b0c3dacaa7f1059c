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

The per-variant loop, :func:`drive_plan`, is shared with sequence
campaigns (:mod:`repro.core.sequences`); each mode supplies the runner
for one unit of its plan.

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
from repro.core.results import MuTResult, ResultSet
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
    :param machine_per_case: case-mode ablation switch -- boot a fresh
        machine for *every* case (full isolation).  Interference crashes
        disappear in this mode, demonstrating why the paper could not
        reproduce the ``*`` crashes outside the harness.  Sequence mode
        rejects it (a sequence is one process; ``dirty_machine`` is its
        wear knob).
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
        if self.mode == "sequence" and self.machine_per_case:
            raise ValueError("machine_per_case applies to case mode only")
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
        units: list = []
        pool: list | None = None
        for personality in self.variants:
            if self.config.mode == "case":
                entry, units = run_variant, self.muts_for(personality)
            else:
                from repro.core import sequences

                entry = sequences.run_variant_sequences
                mut_pool = sorted((m.api, m.name) for m in self.muts_for(personality))
                if mut_pool != pool:
                    units = []  # release the old list before building
                    units, pool = self.sequence_plans(personality), mut_pool
            entry(
                personality,
                units,
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
# The plan driver: one per-variant loop for both campaign modes
# ----------------------------------------------------------------------

#: A unit runner, ``run_unit(executor, unit, key, result, config,
#: heartbeat, recorder)``: runs one plan unit (``key`` is its
#: ``"api:name"``) on ``executor.machine`` and fills its fresh result row.
#: It may return a callable, which the driver calls right after the
#: unit's ``mut_finished`` event.
UnitRunner = Callable[..., "Callable[[], None] | None"]


def drive_plan(
    run_unit: UnitRunner,
    personality: Personality,
    units: Sequence,
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
    """Run one variant's plan on one persistent machine, a unit at a
    time: the per-variant loop of both campaign modes.

    A *unit* is anything with ``api``, ``name`` and ``group`` (a
    :class:`MuT`, or a sequence plan) and owns the result row
    ``(variant, api, name)``, which ``run_unit`` fills (see
    :data:`UnitRunner`).  The driver owns the rest: machine boot and
    wear, skips, quarantine, progress, ``mut_finished``, the plan
    cursor and the checkpoint cadence.

    Restart-safe at any plan cursor: units an interrupted run recorded
    or quarantined are skipped, and the wear restored from
    ``checkpoint`` puts the machine back where the dead worker left it,
    so a supervisor can relaunch the loop mid-variant without changing
    a classification.  Wear is captured lazily, when a checkpoint is
    written and at the end of the variant.  ``machine_per_case`` leaves
    no cross-unit wear, so none is restored or captured (the throwaway
    machine's wear would poison a resumed run).

    ``quarantine`` maps ``"api:name"`` to the supervisor's reason for
    withdrawing a unit that kept killing or hanging its worker: it is
    recorded QUARANTINED (no row, excluded from rates) and the plan
    moves on -- the paper's reboot-and-continue loop, minus the reboot.

    ``plan_slice=(start, stop)`` runs one intra-variant shard.  The
    caller boots it from the serial wear at ``start`` (the checkpoint's
    ``machine_wear``), so the slice matches that span of a serial run
    byte for byte; the cursor counts global positions and lands on
    ``stop`` even when the slice's tail was skipped, so merged slice
    chains reproduce the serial cursor.
    """
    quarantine = quarantine or {}
    variant = personality.key
    start, stop = plan_slice if plan_slice is not None else (0, len(units))
    machine = Machine(personality, watchdog_ticks=config.watchdog_ticks)
    keep_wear = not config.machine_per_case
    wear = checkpoint.machine_wear.get(variant)
    if wear and keep_wear:
        machine.restore_wear(wear)
    executor = Executor(machine, generator)
    since_checkpoint = 0
    wear_dirty = False

    def capture_wear() -> None:
        nonlocal wear_dirty
        if wear_dirty:
            checkpoint.machine_wear[variant] = machine.wear_state()
            wear_dirty = False

    def emit(event: "obs_events.Event") -> None:
        if recorder is not None:
            recorder.emit(event)

    def save_and_tell(position: int) -> None:
        capture_wear()
        save_checkpoint(checkpoint, checkpoint_path)
        emit(obs_events.CheckpointWritten(variant, str(checkpoint_path), position))

    emit(obs_events.VariantStarted(variant, len(units)))
    for position in range(start, stop):
        unit = units[position]
        if results.has(variant, unit.name, api=unit.api) or (
            results.is_quarantined(variant, unit.api, unit.name)
        ):
            continue  # recorded (or quarantined) by the interrupted run
        key = mut_key(unit)
        if key in quarantine:
            results.quarantine(variant, unit.api, unit.name, quarantine[key])
            emit(obs_events.MutQuarantined(variant, key, quarantine[key]))
        else:
            if progress is not None:
                progress(variant, unit.name, position, len(units))
            result = results.new_result(variant, unit.name, unit.api, unit.group)
            finish = run_unit(
                executor, unit, key, result, config, heartbeat, recorder
            )
            if recorder is not None:
                # Guarded so the histogram is only computed when there
                # is a sink to receive it.
                recorder.emit(
                    obs_events.MutFinished(
                        variant,
                        key,
                        unit.group,
                        len(result.codes),
                        _outcome_histogram(result.codes),
                        result.catastrophic,
                        result.interference_crash,
                        machine.clock.ticks,
                    )
                )
            if finish is not None:
                finish()
            wear_dirty = keep_wear
        checkpoint.cursors[variant] = position + 1
        since_checkpoint += 1
        # At the last position the end-of-variant save below writes the
        # same document, so the cadence leaves it to that one.
        if (
            checkpoint_path is not None
            and since_checkpoint >= checkpoint_every
            and position + 1 < stop
        ):
            save_and_tell(position + 1)
            since_checkpoint = 0
    if plan_slice is not None:
        checkpoint.cursors[variant] = max(checkpoint.cursors.get(variant, 0), stop)
    capture_wear()
    emit(
        obs_events.VariantFinished(
            variant, results.total_cases(variant), machine.clock.ticks
        )
    )
    if checkpoint_path is not None:
        save_and_tell(stop)


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
    """Run one variant's MuT plan: :func:`drive_plan` with the case
    runner.  Module-level so spawn-started parallel workers
    (:mod:`repro.core.parallel`) and :meth:`Campaign.run` run the same
    loop, and so classify identically by construction."""
    drive_plan(
        _run_mut,
        personality,
        muts,
        generator,
        config,
        results,
        progress,
        checkpoint,
        checkpoint_path,
        checkpoint_every,
        quarantine,
        heartbeat,
        recorder,
        plan_slice,
    )


def _run_mut(
    executor: Executor,
    mut: MuT,
    key: str,
    result: MuTResult,
    config: CampaignConfig,
    heartbeat: HeartbeatFn | None,
    recorder: Recorder | None,
) -> None:
    """The case runner: each of ``mut``'s cases in a fresh process.  A
    Catastrophic case interrupts the MuT (its case set is incomplete)
    and reboots the machine."""
    machine = executor.machine
    generator = executor.generator
    variant = machine.personality.key
    result.planned_cases = generator.case_count(mut)
    result.capped = generator.is_capped(mut)
    per_case_machine = config.machine_per_case
    reclass_thrown = config.count_thrown_exceptions_as_abort
    for case in generator.cases(mut):
        if heartbeat is not None:
            heartbeat(variant, key, case.index)
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
                    "variant": variant,
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
