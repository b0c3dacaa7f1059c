"""The CRASH severity scale and per-case result codes.

CRASH (Kropp, Koopman & Siewiorek, FTCS-28) is an acronym for the five
robustness failure classes:

* **C**atastrophic -- the whole system crashes; a reboot is required.
* **R**estart -- the task hangs and must be killed and restarted.
* **A**bort -- abnormal task termination (signal / unhandled exception).
* **S**ilent -- an exceptional call "succeeds" with no error indication.
* **H**indering -- an incorrect error indication is returned.

Ballista detects Catastrophic, Restart, and Abort automatically.  Silent
and Hindering failures require extra analysis; the paper estimates Silent
failures by voting identical test cases across Win32 implementations
(:mod:`repro.analysis.silent`).  This reproduction additionally knows the
ground truth (each test value is annotated ``exceptional``), which the
validation suite uses to sanity-check the voting estimator.
"""

from __future__ import annotations

import enum


class Severity(enum.IntEnum):
    """CRASH classes ordered most- to least-severe, plus PASS."""

    CATASTROPHIC = 0
    RESTART = 1
    ABORT = 2
    SILENT = 3
    HINDERING = 4
    PASS = 5


class CaseCode(enum.IntEnum):
    """Compact per-test-case outcome stored in result arrays.

    ``PASS_NO_ERROR`` vs ``PASS_ERROR`` preserves whether the MuT
    reported an error indication, which is what the Silent-failure
    voting estimator consumes.
    """

    PASS_NO_ERROR = 0  #: returned success, no error indication
    PASS_ERROR = 1  #: returned an error indication (robust handling)
    ABORT = 2  #: signal / unhandled exception killed the task
    RESTART = 3  #: task hung; watchdog fired
    CATASTROPHIC = 4  #: machine crashed
    SETUP_SKIP = 5  #: test-value constructor could not build the case
    NOT_RUN = 6  #: testing interrupted (after a machine crash)
    #: Harness-level outcome for sequence campaigns: a call that
    #: *reported failure* under an injected exhaustion fault nonetheless
    #: left residue in durable machine wear (filesystem, shared arena,
    #: corruption) -- it broke the failure-atomic expectation, so the
    #: next step runs on a machine the failed call dirtied.
    FAULT_ATOMICITY = 7

    @property
    def is_failure(self) -> bool:
        return self in FAILURE_CODES

    @property
    def counts_as_executed(self) -> bool:
        return self not in (CaseCode.SETUP_SKIP, CaseCode.NOT_RUN)


#: The codes that count as robustness failures: a failing case keeps its
#: value names, and a failing step ends its sequence.  Members hash and
#: compare as their ints, so one probe also answers for a stored code
#: byte.
FAILURE_CODES = frozenset(
    {
        CaseCode.ABORT,
        CaseCode.RESTART,
        CaseCode.CATASTROPHIC,
        CaseCode.FAULT_ATOMICITY,
    }
)

#: Map from case codes to the CRASH class they directly evidence.
CODE_TO_SEVERITY = {
    CaseCode.ABORT: Severity.ABORT,
    CaseCode.RESTART: Severity.RESTART,
    CaseCode.CATASTROPHIC: Severity.CATASTROPHIC,
}
