"""Checker 9: machine wear only moves through the sanctioned API.

The exact-base shard seam model (PR 8) and sequence ``base_wear``
attribution (PR 10) both assume the *only* way simulated-machine state
changes between snapshots is the sanctioned surface: the wear snapshot
API (``wear_state``/``restore_wear``/``wear_residue``), the lifecycle
verbs (``reboot``, ``spawn_process``), the fault-injection plane
(``machine.faults.*``), and the test-execution layer itself
(executor/context/value pools, which *are* the machine's legitimate
driver).  Any other code poking ``machine.fs``, ``machine.clock`` or
``machine.shared_region`` mutates wear out of band: the wear
fingerprint recorded at the seam no longer describes the machine the
next shard boots from, and crash attribution silently shifts.

The project graph records every attribute store and call rooted at a
``Machine`` receiver (parameters annotated ``Machine``, locals assigned
``Machine(...)``, ``self.machine``/``ctx.machine`` chains); this
checker flags the ones outside the sanctioned surface declared in
:data:`repro.lint.manifests.WEAR_API`.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.framework import Checker, Finding, Project, register_checker
from repro.lint.manifests import WEAR_API

#: Packages where machine state may only move through the wear API.
#: sim/ is excluded -- it *implements* the machine -- and so are the
#: simulated OS layers (win32/posix/libc), which are the machine's own
#: syscall surface.
_SCOPED_PACKAGES = ("core", "service", "analysis", "triage", "obs")


@register_checker
class WearEscapeChecker(Checker):
    name = "wear-escape"
    title = "machine state mutates only through the sanctioned wear API"
    rationale = (
        "Intra-variant sharding proves shard N+1 boots from exactly the\n"
        "wear shard N recorded (the exact-base seam check), and sequence\n"
        "campaigns attribute crashes against a recorded base_wear.  Both\n"
        "proofs die silently if any orchestration code mutates machine\n"
        "state out of band -- a stray machine.clock.ticks = 0 or\n"
        "machine.fs.create_file() between snapshots makes the recorded\n"
        "wear fingerprint a lie.  The project graph tracks every store\n"
        "and call rooted at a Machine receiver; outside the sanctioned\n"
        "surface (wear_state/restore_wear/wear_residue/reboot/\n"
        "spawn_process/retire_process/check_alive, the machine.faults.*\n"
        "injection plane, read-only probes, and the test-execution layer in\n"
        "executor/context/values, which is the machine's legitimate\n"
        "driver) every such operation is a finding.  Worked example:\n"
        "\n"
        "    def warm_up(machine: Machine) -> None:\n"
        "        machine.clock.ticks = 0            # WEAR-ESCAPE\n"
        "        machine.fs.create_file('/t', b'')  # WEAR-ESCAPE\n"
        "        machine.restore_wear(base)         # sanctioned\n"
        "\n"
        "Deliberate out-of-band wear (triage's load studies prime the\n"
        "disk on purpose) carries `# lint: allow(wear-escape)` pragmas\n"
        "with a justification, keeping each exception reviewable."
    )

    def run(self, project: Project) -> Iterator[Finding]:
        graph = project.graph()
        sanctioned_files = set(WEAR_API["sanctioned_files"])
        methods = set(WEAR_API["machine_methods"])
        subobjects = set(WEAR_API["subobject_prefixes"])
        wear_objects = set(WEAR_API["wear_objects"])
        readonly = set(WEAR_API["readonly_calls"])
        emitted: set[tuple[str, int, str]] = set()
        for qual, rec in sorted(graph.functions.items()):
            if rec["package"] not in _SCOPED_PACKAGES:
                continue
            if rec["path"] in sanctioned_files:
                continue
            for op in rec["machine"]:
                rest = op["rest"]
                if not rest:
                    continue
                if op["kind"] == "call":
                    if len(rest) == 1 and rest[0] in methods:
                        continue
                    if rest[0] in subobjects:
                        continue
                    if rest[0] in wear_objects and rest[-1] in readonly:
                        continue
                    what = f"call {op['expr']}()"
                else:
                    what = f"store to {op['expr']}"
                key = (rec["path"], op["line"], op["expr"])
                if key in emitted:
                    continue
                emitted.add(key)
                yield self.finding(
                    "WEAR-ESCAPE",
                    f"{what} mutates simulated-machine state outside "
                    "the sanctioned wear API (wear_state/restore_wear/"
                    "reboot/wear_residue/faults.*); out-of-band wear "
                    "breaks exact-base shard seams and sequence "
                    "base_wear attribution",
                    path=rec["path"],
                    line=op["line"],
                )
