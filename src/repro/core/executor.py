"""Execution of individual test cases in isolated simulated processes.

"A single Ballista test case involves selecting a set of test values,
executing constructors associated with those test values to initialize
essential system state, executing a call to the MuT with the selected
test values in its parameter list, measuring whether the MuT behaves in
a robust manner in that situation, and cleaning up any lingering system
state in preparation for the next test." (paper, section 2)

Isolation granularity matters: every test case gets a **fresh process**,
but the **machine persists** across the cases of a campaign (just as the
paper's physical test machines did).  That is what lets shared-state
corruption accumulate and reproduce the paper's ``*`` crashes that
"could not be reproduced outside of the test harness".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.classify import classify_exception
from repro.core.context import TestContext
from repro.core.crash_scale import CaseCode
from repro.core.generator import CaseGenerator, TestCase
from repro.core.mut import MuT
from repro.sim.errors import MachineCrashed, SimFault, SystemCrash
from repro.sim.filesystem import FileSystemError
from repro.sim.machine import Machine


@dataclass(slots=True, unsafe_hash=True)
class CaseOutcome:
    """The classified result of one executed test case.

    A value: it compares and hashes by its fields, and nothing assigns
    to one once built.  It is not ``frozen`` because a frozen
    dataclass's ``__init__`` stores every field through
    ``object.__setattr__``, two to three times the cost of plain slot
    stores, and one outcome is built per case and per sequence step.
    """

    code: CaseCode
    detail: str
    exceptional_input: bool
    value_names: tuple[str, ...]
    #: errno / GetLastError value reported by the call (0 when none) --
    #: the raw material for Hindering-failure estimation.
    error_code: int = 0


class Executor:
    """Runs test cases for one OS variant on one simulated machine."""

    def __init__(self, machine: Machine, generator: CaseGenerator) -> None:
        self.machine = machine
        self.generator = generator
        #: The machine's API family never changes over the executor's
        #: life; resolved once so classification does not chase
        #: ``machine.personality.api`` on every call under test.
        self._api_family = machine.personality.api

    def run_case(self, mut: MuT, case: TestCase) -> CaseOutcome:
        """Execute one test case in a fresh process and classify it.

        Raises :class:`MachineCrashed` if called while the machine is
        down (the campaign must reboot first).
        """
        machine = self.machine
        machine.check_alive()
        process = machine.spawn_process()
        ctx = TestContext(machine, process)
        values, exceptional = self.generator.resolve_case(mut, case)
        args: list = []
        outcome = self._construct_and_call(
            ctx, mut, case.value_names, values, exceptional, args
        )
        # -- destructors (a crashed machine keeps nothing to release) -----
        if not machine.crashed:
            self._teardown(ctx, values, args)
        return outcome

    def run_step(
        self,
        ctx: TestContext,
        mut: MuT,
        case: TestCase,
        inject_fault: bool = False,
    ) -> CaseOutcome:
        """Execute one *sequence step* inside a persistent context.

        The sequence-campaign twin of :meth:`run_case`: constructors and
        the call run in the caller's process (``ctx.process``), so the
        handles, streams, and files a step creates are still there for
        the next step -- and nothing is torn down here.  The sequence
        runner owns the process lifetime and terminates it once at the
        end of the sequence.

        With ``inject_fault`` the machine's armed fault family may fire
        inside the call window (never during constructors), and a call
        that *reports failure* under injection while leaving residue in
        durable machine wear is reclassified
        :attr:`~repro.core.crash_scale.CaseCode.FAULT_ATOMICITY` -- it
        broke the failure-atomic expectation and dirtied the machine the
        next step runs on.
        """
        self.machine.check_alive()
        values, exceptional = self.generator.resolve_case(mut, case)
        return self._construct_and_call(
            ctx, mut, case.value_names, values, exceptional, [], inject_fault
        )

    def _construct_and_call(
        self,
        ctx: TestContext,
        mut: MuT,
        value_names: tuple[str, ...],
        values: list,
        exceptional: bool,
        args: list,
        inject_fault: bool = False,
    ) -> CaseOutcome:
        """Construct ``values`` into ``args`` inside ``ctx``'s process,
        then make the classified call (the path :meth:`run_case` and
        :meth:`run_step` share).  A constructor that crashes the machine
        is Catastrophic and one that faults skips the case; either way
        the call never happens.  An armed call is probed for the
        failure-atomicity residue :meth:`run_step` describes."""
        try:
            for value in values:
                args.append(value.construct(ctx))
        except SystemCrash as exc:
            return CaseOutcome(
                CaseCode.CATASTROPHIC, str(exc), exceptional, value_names
            )
        except (SimFault, FileSystemError) as exc:
            return CaseOutcome(
                CaseCode.SETUP_SKIP,
                f"constructor failed: {exc}",
                exceptional,
                value_names,
            )
        if not inject_fault:
            return self._call_under_test(
                ctx, mut, args, exceptional, value_names
            )
        machine = self.machine
        faults = machine.faults
        residue_before = machine.wear_residue()
        fired_before = faults.fired
        outcome = self._call_under_test(
            ctx, mut, args, exceptional, value_names, inject_fault=True
        )
        if (
            faults.fired > fired_before
            and outcome.code in (CaseCode.PASS_ERROR, CaseCode.ABORT)
            and not machine.crashed
            and machine.wear_residue() != residue_before
        ):
            detail = (
                f"failed call left wear residue under "
                f"{faults.family} exhaustion"
            )
            if outcome.detail:
                detail += f" [{outcome.detail}]"
            outcome = CaseOutcome(
                CaseCode.FAULT_ATOMICITY,
                detail,
                exceptional,
                value_names,
                error_code=outcome.error_code,
            )
        return outcome

    def _call_under_test(
        self,
        ctx: TestContext,
        mut: MuT,
        args: list,
        exceptional: bool,
        value_names: tuple[str, ...],
        inject_fault: bool = False,
    ) -> CaseOutcome:
        """Invoke the MuT and classify the result."""
        ctx.reset_error_state()
        # Every call costs one tick of virtual time, so the per-step
        # sim-tick stamps on sequence outcomes are strictly ordered even
        # when no call in the sequence sleeps or waits.
        self.machine.clock.begin_call_tick(mut.name)
        api_family = self._api_family
        try:
            if inject_fault:
                with self.machine.faults.window():
                    mut.call(ctx, tuple(args))
            else:
                mut.call(ctx, tuple(args))
        except SimFault as exc:
            code, detail = classify_exception(exc, api_family)
            return CaseOutcome(code, detail, exceptional, value_names)
        code = (
            CaseCode.PASS_ERROR
            if ctx.error_reported()
            else CaseCode.PASS_NO_ERROR
        )
        reported = ctx.process.errno or ctx.process.last_error
        return CaseOutcome(
            code, "", exceptional, value_names, error_code=reported
        )

    def _teardown(self, ctx: TestContext, values: list, args: list) -> None:
        """Run per-value cleanups and release the process, swallowing
        faults (a broken destructor must not poison classification --
        but lingering state is exactly what the shared machine keeps).
        The terminated process, and the C runtime the case booted in it,
        go back to the machine as the image the next case's process is
        reset from."""
        for value, arg in zip(values, args):
            if value.cleanup is not None:
                try:
                    value.cleanup(ctx, arg)
                except (SimFault, MachineCrashed):
                    pass
        ctx.run_cleanups()
        process = ctx.process
        try:
            process.terminate()
        except (SimFault, MachineCrashed):
            pass
        self.machine.retire_process(process, ctx._crt)
