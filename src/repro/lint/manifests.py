"""Checked-in contracts the lint pass enforces.

Two manifests live here, deliberately as reviewable source rather than
derived state:

* :data:`PLATFORM_MATRIX` -- the paper's Table 1 platform matrix: how
  many system calls and C library functions each OS variant must expose
  through the MuT registry.  The registry-contract checker recomputes
  the per-variant counts from the live registry and fails on any drift,
  so an accidental edit to a registration table cannot silently change
  the population the reported failure rates are computed over.
* :data:`WALLCLOCK_ALLOWANCES` -- the package-scoped exceptions to the
  determinism checker's wall-clock rule.  The telemetry layer
  (:mod:`repro.obs`) exists to timestamp operational events, so its
  recorders legitimately read ``time.perf_counter``; nothing else may.
  Scoping the allowance here, per package and per call, keeps the rule
  reviewable: widening it is a manifest diff, not a silent pragma.
* :data:`POOL_PURITY` -- the memoized plan/value-pool layer and the
  machine-layer imports it must never take on.  Materialised case plans
  and type pools are shared across variants, shards, and sequences; the
  determinism checker keeps that layer machine-independent so the
  sharing stays sound.
* :data:`SERIALIZATION_PINS` -- the field lists of every dataclass the
  :mod:`repro.core.results_io` formats serialize, pinned together with
  the format version they were pinned at.  Changing a serialized field
  list without bumping the corresponding format version breaks the
  byte-identity guarantees the parallel/supervised runners prove
  against serial runs (PRs 2 and 5), so the serialization-version
  checker makes that an error.  The legitimate workflow when a format
  evolves: bump the version constant, teach the loader about both
  versions, and re-pin the entry here in the same commit.
"""

from __future__ import annotations

from dataclasses import dataclass

#: variant key -> required registry population, straight from the
#: paper's platform matrix ("133 syscalls + 94 C" for Windows 95,
#: "143 + 94" for 98/98SE/NT4/2000, "71 + 82" for CE, "91 + 94" for
#: RedHat Linux 6.0).  ``unicode_twins`` is the paper's "(108)"
#: parenthetical: the 26 wide-character twins tested only on Windows CE.
PLATFORM_MATRIX: dict[str, dict[str, int]] = {
    "win95": {"syscalls": 133, "c_functions": 94, "unicode_twins": 0},
    "win98": {"syscalls": 143, "c_functions": 94, "unicode_twins": 0},
    "win98se": {"syscalls": 143, "c_functions": 94, "unicode_twins": 0},
    "winnt": {"syscalls": 143, "c_functions": 94, "unicode_twins": 0},
    "win2000": {"syscalls": 143, "c_functions": 94, "unicode_twins": 0},
    "wince": {"syscalls": 71, "c_functions": 82, "unicode_twins": 26},
    "linux": {"syscalls": 91, "c_functions": 94, "unicode_twins": 0},
}

#: Number of CE wide-character twins ("18 functions (27 counting ASCII
#: and UNICODE separately)" implies the full 26-twin population).
CE_UNICODE_TWIN_COUNT = 26

#: package -> wall-clock calls that package may make despite the
#: determinism rule.  Telemetry recorders stamp a wall ``t`` on each
#: emitted record; the stamp never feeds results or checkpoints (event
#: *contents* carry simulated ticks), so the byte-identity guarantee is
#: untouched.  Monotonic perf_counter only -- absolute time.time stays
#: banned even in obs/ so event files never leak calendar timestamps.
WALLCLOCK_ALLOWANCES: dict[str, tuple[str, ...]] = {
    "obs": ("time.perf_counter", "time.perf_counter_ns"),
}

#: The sanctioned surface through which simulated-machine state may
#: change, enforced by the wear-escape checker.  Everything here is a
#: reviewable contract: widening the surface is a manifest diff.
#:
#: * ``sanctioned_files`` -- the test-execution layer.  The executor
#:   advances the simulated clock per call, the test context and value
#:   pools materialize fixture files; these *are* the machine's
#:   legitimate driver, and every effect they produce is part of the
#:   deterministic per-case trajectory the wear model accounts for.
#: * ``machine_methods`` -- the snapshot/lifecycle API on Machine
#:   itself.  Wear moves through these verbs by design.
#: * ``subobject_prefixes`` -- sub-objects that are themselves a
#:   sanctioned control plane (fault injection) or read-only config.
#: * ``wear_objects`` + ``readonly_calls`` -- wear-carrying sub-objects
#:   (filesystem, shared arena, simulated clock) on which only the
#:   listed read-only probes are allowed from orchestration code.
WEAR_API: dict[str, tuple[str, ...]] = {
    "sanctioned_files": (
        "repro/core/executor.py",
        "repro/core/context.py",
        "repro/core/values.py",
        # The CE target agent is the paper's device-side execution
        # layer: its result-file protocol (write outcome record, host
        # reads + deletes it) is part of the deterministic per-case
        # trajectory, exactly like the value pool's fixture files.
        "repro/service/ce_client.py",
    ),
    "machine_methods": (
        "wear_state",
        "restore_wear",
        "wear_residue",
        "reboot",
        # The copy-on-write snapshot verb: observable state identical to
        # a cold ``Machine(personality)`` rebuild, restored by reverting
        # wear against the pristine boot image instead of
        # reconstructing.  ``machine_per_case`` isolation runs through
        # it, so it is part of the sanctioned lifecycle surface.
        "revert",
        "spawn_process",
        # The process-image hand-back: ``Executor.run_case`` returns its
        # terminated process (and C runtime) so the next spawn resets it
        # in place -- identical to a cold ``Process(machine, pid)``.
        "retire_process",
        "check_alive",
    ),
    "subobject_prefixes": ("faults", "personality"),
    "wear_objects": ("fs", "shared_region", "clock"),
    "readonly_calls": (
        "iter_files",
        "exists",
        "stat",
        "lookup",
        "tick_count",
        "unix_seconds",
    ),
}


#: The pool/plan layer the hot path memoizes: per-MuT case plans,
#: resolved value lists, and type-pool lookup tables are built once and
#: shared across *every* variant, shard slice, and sequence of a
#: campaign (their determinism contract: a pure function of MuT name,
#: pools, and cap).  That sharing is only sound while the layer stays
#: machine-independent, so the determinism checker bans these modules
#: from importing the machine, process, or API-personality layers --
#: a pool keyed (even accidentally) on machine or variant state would
#: poison the cross-variant reuse byte-identity relies on.  Simulation
#: *data structures* (memory layout constants, pipes, filesystem nodes)
#: remain fair game -- value constructors legitimately build those; the
#: ban targets the machine/personality layer and the per-variant API
#: facades.
POOL_PURITY: dict[str, tuple[str, ...]] = {
    "files": (
        "repro/core/generator.py",
        "repro/core/types.py",
        "repro/core/values.py",
    ),
    "banned_imports": (
        "repro.sim.machine",
        "repro.win32",
        "repro.posix",
        "repro.libc",
    ),
}


@dataclass(frozen=True)
class SerializationPin:
    """One serialized dataclass and the format version it is pinned at.

    :param cls: dotted path of the dataclass.
    :param version_const: dotted path of the format-version constant
        guarding its wire format.
    :param version: the value ``version_const`` had when ``fields`` was
        pinned.
    :param fields: ``dataclasses.fields`` names, in declaration order.
    """

    cls: str
    version_const: str
    version: int
    fields: tuple[str, ...]


SERIALIZATION_PINS: tuple[SerializationPin, ...] = (
    SerializationPin(
        cls="repro.core.results.MuTResult",
        version_const="repro.core.results_io.FORMAT_VERSION",
        version=3,
        fields=(
            "variant",
            "mut_name",
            "api",
            "group",
            "codes",
            "exceptional",
            "error_codes",
            "details",
            "failing_cases",
            "catastrophic",
            "interference_crash",
            "planned_cases",
            "capped",
            "sequence",
        ),
    ),
    SerializationPin(
        cls="repro.core.results.QuarantineRecord",
        version_const="repro.core.results_io.FORMAT_VERSION",
        version=3,
        fields=("variant", "api", "mut_name", "reason"),
    ),
    SerializationPin(
        cls="repro.core.results_io.CampaignCheckpoint",
        version_const="repro.core.results_io.CHECKPOINT_VERSION",
        version=3,
        fields=(
            "results",
            "cursors",
            "machine_wear",
            "cap",
            "variants",
            "complete",
            "supervision",
            "shard",
            "plan",
        ),
    ),
    SerializationPin(
        cls="repro.service.queue.JobSpec",
        version_const="repro.service.queue.QUEUE_VERSION",
        version=2,
        fields=(
            "tenant",
            "job_key",
            "variants",
            "cap",
            "muts",
            "checkpoint_every",
            "shards",
        ),
    ),
    SerializationPin(
        cls="repro.core.atlas.WearAtlas",
        version_const="repro.core.atlas.ATLAS_VERSION",
        version=1,
        fields=("plans", "seams"),
    ),
)
