"""Stateful call-sequence campaigns with sequence-level attribution.

Per-case campaigns (:mod:`repro.core.campaign`) spend one fresh process
per test case, so the only state a case inherits is *machine* wear.  A
**sequence campaign** makes the k-call sequence the unit of work: the
whole sequence runs inside one spawned process, so handles, ``FILE*``
streams, and file descriptors opened by one step are genuinely live for
the next -- the setting in which real applications meet the Win32 API,
and the one the paper's ``*`` interference crashes point at.

Three pieces live here:

* :class:`SequencePlanner` -- a seeded generator of
  :class:`SequencePlan` objects.  Plans are a pure function of
  ``(sequence name, seed, MuT pool, value pools)``: the same planner
  inputs yield byte-identical plans in every worker process, which is
  what lets sequences shard and heal exactly like cases.
* :func:`run_variant_sequences` -- the plan driver
  (:func:`repro.core.campaign.drive_plan`) with the sequence runner:
  each sequence is one unit with one result row under the reserved
  ``api="seq"`` namespace (step index = case index), so checkpoint
  splitting, merging, supervision, and the deterministic event stream
  work as they do for MuTs.
* **Fault injection and attribution.**  A plan may arm one
  fault family (:data:`~repro.sim.faults.FAULT_FAMILIES`) for one step;
  the executor scopes it to the call window, and a call that reports
  failure while leaving durable wear residue is classified
  :attr:`~repro.core.crash_scale.CaseCode.FAULT_ATOMICITY`.  A
  Catastrophic step is attributed: an immediate kernel fault is an
  ``"origin"`` crash of its own step, while an accumulated-corruption
  crash is ``"propagated"`` from the first corrupting step of the
  sequence (or inherited from pre-sequence wear in dirty-machine mode,
  recorded as ``origin_step = None``).

Dirty-machine mode (``CampaignConfig.dirty_machine``) skips the
between-sequence reboot, so sequences start on the wear every earlier
sequence left behind -- the multi-week-uptime regime the paper's test
machines actually lived in.
"""

from __future__ import annotations

import pathlib
import random
import zlib
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.campaign import (
    _INTERFERENCE_MARKER,
    _apply_policies,
    CampaignConfig,
    HeartbeatFn,
    ProgressFn,
    drive_plan,
)
from repro.core.context import TestContext
from repro.core.crash_scale import FAILURE_CODES, CaseCode
from repro.core.executor import Executor
from repro.core.generator import CaseGenerator, TestCase
from repro.core.mut import MuT
from repro.core.results import MuTResult, ResultSet
from repro.core.results_io import CampaignCheckpoint
from repro.obs import events as obs_events
from repro.obs.recorder import Recorder
from repro.sim.errors import MachineCrashed, SimFault, SystemCrash
from repro.sim.faults import FAULT_FAMILIES
from repro.sim.personality import Personality

#: Reserved ``api`` namespace for sequence result rows.  The lint
#: registry contract forbids real MuTs from registering under it, so a
#: sequence row can never collide with a per-case row.
SEQUENCE_API = "seq"

#: Group name carried by sequence rows (analysis tables select by api,
#: so sequence rows never leak into the paper's per-group rates).
SEQUENCE_GROUP = "sequence"

#: Fraction of sequences that arm a fault (as a rational, so the seeded
#: draw stays exact): 2 of every 3 planned sequences inject, the rest
#: stay clean for contrast.
_FAULT_NUMERATOR, _FAULT_DENOMINATOR = 2, 3


def sequence_name(index: int) -> str:
    """The plan identity of sequence ``index`` (``seq00042``)."""
    return f"seq{index:05d}"


@dataclass(frozen=True)
class SequenceStep:
    """One call in a sequence: a MuT plus concrete test-value names.

    ``fault_family`` is the triage-replay form of the campaign's
    injection decision: the campaign addresses the armed step by index
    (:attr:`SequencePlan.fault_step`), but delta-debugging drops steps,
    so a replayed step carries its own fault marker and the arming
    travels with the call it belongs to.
    """

    api: str
    mut_name: str
    value_names: tuple[str, ...]
    fault_family: str | None = None

    def describe(self) -> str:
        call = f"{self.mut_name}({', '.join(self.value_names)})"
        if self.fault_family is not None:
            call += f" [{self.fault_family} exhaustion]"
        return call


@dataclass(frozen=True)
class SequencePlan:
    """One planned k-call sequence (plus its resolved MuT objects): the
    plan driver's unit in sequence mode, with its row under
    ``(variant, "seq", name)``.

    ``fault_family``/``fault_step`` record the injection decision:
    ``None`` for a clean sequence, else the armed family and the step
    whose call window it fires in.
    """

    api = SEQUENCE_API
    group = SEQUENCE_GROUP
    name: str
    index: int
    steps: tuple[SequenceStep, ...]
    muts: tuple[MuT, ...]
    fault_family: str | None = None
    fault_step: int | None = None


class SequencePlanner:
    """Seeded generator of call-sequence plans for one variant.

    :param pool: the MuTs sequences may draw steps from (the variant's
        registry population, already filtered by availability and any
        ``--muts`` subset).  Sorted internally, so pool construction
        order cannot perturb plans.
    :param generator: the campaign's case generator (provides the
        per-parameter value pools).
    :param count: sequences to plan.
    :param length: calls per sequence (the paper-style ``k``).
    :param seed: campaign-level sequence seed; two campaigns at the
        same seed plan identical sequences.
    :param fault_families: families eligible for injection; empty
        disables injection entirely.
    """

    def __init__(
        self,
        pool: Sequence[MuT],
        generator: CaseGenerator,
        count: int,
        length: int,
        seed: int = 0,
        fault_families: Sequence[str] = FAULT_FAMILIES,
    ) -> None:
        self.pool = sorted(pool, key=lambda m: (m.api, m.name))
        #: Per pool MuT, the value names of each parameter, resolved once
        #: per planner rather than on every planned step.
        self._value_names = [
            tuple(
                tuple(value.name for value in values)
                for values in generator.pools(mut)
            )
            for mut in self.pool
        ]
        self.count = count
        self.length = length
        self.seed = seed
        self.fault_families = tuple(fault_families)
        for family in self.fault_families:
            if family not in FAULT_FAMILIES:
                raise ValueError(
                    f"unknown fault family {family!r}; expected a subset "
                    f"of {', '.join(FAULT_FAMILIES)}"
                )
        if self.length < 1:
            raise ValueError(f"sequence length must be >= 1, got {length}")

    def _rng(self, name: str) -> random.Random:
        """Per-sequence RNG, seeded like the case generator: a stable
        function of the sequence name (plus the campaign seed), never of
        interpreter hash state."""
        return random.Random(
            (self.seed & 0xFFFF_FFFF) * 0x1_0000_0000
            + zlib.crc32(name.encode("utf-8"))
        )

    def plan(self, index: int) -> SequencePlan:
        """The plan for sequence ``index`` (pure; any order, any
        process)."""
        pool = self.pool
        if not pool:
            raise ValueError("cannot plan sequences from an empty MuT pool")
        name = sequence_name(index)
        rng = self._rng(name)
        steps: list[SequenceStep] = []
        muts: list[MuT] = []
        for _ in range(self.length):
            pick = rng.randrange(len(pool))
            mut = pool[pick]
            values = tuple(
                names[rng.randrange(len(names))]
                for names in self._value_names[pick]
            )
            steps.append(SequenceStep(mut.api, mut.name, values))
            muts.append(mut)
        fault_family: str | None = None
        fault_step: int | None = None
        if self.fault_families and (
            rng.randrange(_FAULT_DENOMINATOR) < _FAULT_NUMERATOR
        ):
            fault_family = self.fault_families[
                rng.randrange(len(self.fault_families))
            ]
            fault_step = rng.randrange(self.length)
        return SequencePlan(
            name, index, tuple(steps), tuple(muts), fault_family, fault_step
        )

    def plans(self) -> list[SequencePlan]:
        return [self.plan(index) for index in range(self.count)]


# ----------------------------------------------------------------------
# The sequence runner
# ----------------------------------------------------------------------


def run_variant_sequences(
    personality: Personality,
    plans: Sequence[SequencePlan],
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
    """Run one variant's sequence plan (the ``--mode sequence`` loop):
    :func:`~repro.core.campaign.drive_plan` with the sequence runner,
    one plan per unit.  The machine reboots between sequences (each
    starts pristine) unless ``config.dirty_machine``, in which case wear
    accumulates across sequences -- a Catastrophic step still forces a
    reboot either way, since a crashed machine cannot run the next
    sequence."""
    drive_plan(
        _run_sequence,
        personality,
        plans,
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


def _run_sequence(
    executor: Executor,
    plan: SequencePlan,
    key: str,
    result: MuTResult,
    config: CampaignConfig,
    heartbeat: HeartbeatFn | None,
    recorder: Recorder | None,
) -> Callable[[], None]:
    """The sequence runner: execute one sequence in one process and fill
    ``result`` (one case code per step plus the ``sequence`` attribution
    record).  Returns the hook that, after ``mut_finished``, emits
    ``sequence_finished`` and reboots a clean-mode machine.

    The process is spawned from the machine's process image, and a
    sequence that ends on a live machine hands it back, with the C
    runtime its steps booted (:meth:`Machine.retire_process`): right
    after ``terminate`` in dirty mode, and after the between-sequence
    reboot in clean mode, since a reboot drops the image.  A sequence
    that crashed the machine hands nothing back."""
    machine = executor.machine
    variant = machine.personality.key
    result.planned_cases = len(plan.steps)
    if recorder is not None:
        recorder.emit(
            obs_events.SequenceStarted(
                variant,
                plan.name,
                len(plan.steps),
                plan.fault_family,
                plan.fault_step,
            )
        )
    base_wear = machine.wear_state() if config.dirty_machine else None
    reclass_thrown = config.count_thrown_exceptions_as_abort
    # The step whose call window the fault is armed for (None: clean).
    armed_step = plan.fault_step if plan.fault_family is not None else None
    step_ticks: list[int] = []
    deltas: list[int] = []
    fault_fired = 0
    ctx: TestContext | None = None
    crash_detail = ""
    try:
        process = machine.spawn_process()
        ctx = TestContext(machine, process)
    except (SystemCrash, MachineCrashed) as exc:
        # A heavily worn machine (dirty mode) can go down spawning the
        # sequence's process: the sequence inherits the crash at step 0.
        result.record(0, CaseCode.CATASTROPHIC, False, str(exc), None)
        step_ticks.append(machine.clock.ticks)
        deltas.append(0)
        crash_detail = str(exc)
    if ctx is not None:
        # Corruption moves only inside a step, so the level after one
        # step is the level before the next.
        level = machine.corruption_level
        for index, (step, mut) in enumerate(zip(plan.steps, plan.muts)):
            if heartbeat is not None:
                heartbeat(variant, key, index)
            case = TestCase(mut.name, index, step.value_names)
            inject = index == armed_step
            if inject:
                machine.faults.arm(plan.fault_family)
            try:
                outcome = executor.run_step(
                    ctx, mut, case, inject_fault=inject
                )
            finally:
                if inject:
                    fault_fired = machine.faults.fired
                    machine.faults.disarm()
            # Inline _apply_policies, as the case runner does.
            if (
                reclass_thrown
                and outcome.code is CaseCode.PASS_ERROR
                and outcome.detail.startswith("thrown ")
            ):
                outcome = _apply_policies(config, outcome)
            code = outcome.code
            result.record(
                index,
                code,
                outcome.exceptional_input,
                outcome.detail,
                outcome.value_names,
                error_code=outcome.error_code,
            )
            step_ticks.append(machine.clock.ticks)
            before, level = level, machine.corruption_level
            deltas.append(level - before)
            if recorder is not None:
                # Same hot-path dict form as the case runner, so the
                # deterministic stream machinery treats a sequence like
                # one MuT whose cases are its steps.
                recorder.record(
                    {
                        "kind": "case_executed",
                        "variant": variant,
                        "mut": key,
                        "case": index,
                        "code": int(code),
                        "exceptional": outcome.exceptional_input,
                        "sim_ticks": machine.clock.ticks,
                    }
                )
                if inject and fault_fired:
                    recorder.emit(
                        obs_events.FaultInjected(
                            variant,
                            plan.name,
                            index,
                            plan.fault_family,
                            fault_fired,
                        )
                    )
                if code is CaseCode.FAULT_ATOMICITY:
                    recorder.emit(
                        obs_events.AtomicityViolation(
                            variant,
                            plan.name,
                            index,
                            plan.fault_family,
                        )
                    )
            if code in FAILURE_CODES:
                # The sequence's task (or machine) is gone: Abort and
                # Restart kill the process the remaining steps needed,
                # an atomicity break invalidates their baseline, and a
                # Catastrophic crash takes the machine down.  The case
                # set is incomplete, exactly like a crashed per-case
                # MuT.
                crash_detail = outcome.detail
                break
    rebooted = False
    # The context whose process clean mode hands back after its reboot.
    retiring: TestContext | None = None
    if machine.crashed:
        machine.reboot()
        rebooted = True
    elif ctx is not None:
        # End-of-sequence teardown: deferred constructor cleanups, then
        # the process (closing every handle/fd the sequence still held).
        ctx.run_cleanups()
        process = ctx.process
        try:
            process.terminate()
        except (SimFault, MachineCrashed):  # pragma: no cover - defensive
            pass
        if config.dirty_machine:
            machine.retire_process(process, ctx._crt)
        elif not machine.crashed:
            retiring = ctx
    result.sequence = _attribute(
        plan, result, step_ticks, deltas, fault_fired, crash_detail, base_wear
    )

    def finish() -> None:
        if recorder is not None:
            seq = result.sequence
            recorder.emit(
                obs_events.SequenceFinished(
                    variant,
                    plan.name,
                    len(result.codes),
                    seq.get("crash_step"),
                    seq.get("classification"),
                    machine.clock.ticks,
                )
            )
        if not config.dirty_machine and not rebooted:
            # Clean mode: every sequence starts on a pristine machine
            # (the crash path already rebooted), from the process image.
            machine.reboot()
            if retiring is not None:
                machine.retire_process(retiring.process, retiring._crt)

    return finish


def _attribute(
    plan: SequencePlan,
    result: MuTResult,
    step_ticks: list[int],
    deltas: list[int],
    fault_fired: int,
    crash_detail: str,
    base_wear: dict | None,
) -> dict:
    """Build the sequence record (format v3 ``sequence`` field): step
    identities, per-step sim ticks, the fault decision, and the crash
    attribution."""
    # The stored code bytes, read as they are: FAILURE_CODES answers for
    # a byte, and the Catastrophic one is a byte search.
    codes = result.codes
    first_failure = next(
        (i for i, code in enumerate(codes) if code in FAILURE_CODES), None
    )
    found = codes.find(CaseCode.CATASTROPHIC)
    crash_step = found if found >= 0 else None
    origin_step: int | None = None
    classification: str | None = None
    if crash_step is not None:
        if _INTERFERENCE_MARKER in crash_detail:
            # The crash needed accumulated corruption: attribute it to
            # the first step of this sequence that corrupted shared
            # state.  No such step means the corruption was inherited
            # from pre-sequence wear (dirty-machine mode).
            result.interference_crash = True
            classification = "propagated"
            origin_step = next(
                (
                    i
                    for i, delta in enumerate(deltas[: crash_step + 1])
                    if delta > 0
                ),
                None,
            )
        else:
            classification = "origin"
            origin_step = crash_step
    record: dict = {
        "length": len(plan.steps),
        "steps": [
            {
                "api": step.api,
                "mut": step.mut_name,
                "values": list(step.value_names),
            }
            for step in plan.steps
        ],
        "step_ticks": step_ticks,
        "fault": (
            None
            if plan.fault_family is None
            else {
                "family": plan.fault_family,
                "step": plan.fault_step,
                "fired": fault_fired,
            }
        ),
        "first_failure": first_failure,
        "crash_step": crash_step,
        "origin_step": origin_step,
        "classification": classification,
    }
    if base_wear is not None and crash_step is not None:
        # A dirty-mode crash may need the inherited wear to reproduce:
        # carry the sequence's starting wear so triage can replay it.
        record["base_wear"] = base_wear
    return record
