"""The process image is invisible: a reused process or C runtime is
exactly what cold construction builds.

``Executor.run_case`` hands each terminated process, with the C runtime
the case booted in it, back to its machine
(``Machine.retire_process``), and the sequence runner does the same at
the end of each sequence that leaves the machine up; the next
``Machine.spawn_process()`` resets that process in place and the next
``TestContext.crt`` moves the runtime to the current cursor, both
through the class's one boot routine (``Process._boot`` /
``CRuntime._boot``).  Three proofs, in the manner of
``test_hotpath_golden.TestRevertEqualsColdRebuild``:

* an oracle: with the hand-back verb patched to a no-op every process
  and runtime is built cold, and results and wall-stripped telemetry
  must be byte-identical to the image path's -- over a crash and
  reboot, dirty shared arenas, ``fork``, armed sequence campaigns in
  clean mode (one with Catastrophic steps) and on a dirty machine, and
  MuTs that dirty each boot object;
* field equality: on those campaigns every reused process equals
  ``Process(machine, pid)`` and every moved runtime equals a cold
  ``CRuntime`` built after the same allocations, field for field;
* the ``version`` contract reuse trusts: every region the image reuses
  still holds its boot bytes.
"""

import collections
import gc
import json
import sys
import weakref

import pytest

from repro import ALL_VARIANTS
from repro.core import sequences
from repro.core.campaign import Campaign, CampaignConfig
from repro.core.context import TestContext
from repro.core.crash_scale import CaseCode
from repro.core.executor import Executor
from repro.core.generator import CaseGenerator, TestCase
from repro.core.mut import default_registry
from repro.core.results_io import results_to_dict
from repro.core.types import default_types
from repro.libc.runtime import _BOOT_MAPPINGS, _STREAM_SPECS, CRuntime
from repro.obs import MemoryRecorder, strip_wall, variant_stream
from repro.posix.linux import LINUX
from repro.sim.errors import ResourceExhausted
from repro.sim.filesystem import FileNode, OpenFile
from repro.sim.machine import Machine
from repro.sim.memory import Protection
from repro.sim.process import Process
from repro.win32.variants import WIN98, WINCE, WINNT

#: MuTs that dirty each boot object: the code region (VirtualProtect,
#: VirtualFree through PTR_CODE), the process and main-thread kernel
#: objects (pseudo-handles), the standard streams and their FILE
#: headers, and the runtime's strtok state and localtime buffer.
DIRTYING = [
    "VirtualProtect",
    "VirtualFree",
    "SetThreadContext",
    "SuspendThread",
    "TerminateProcess",
    "fclose",
    "freopen",
    "ungetc",
    "strtok",
    "localtime",
    "fputs",
]

#: ``(variants, config, muts)`` per oracle subset.
SUBSETS = {
    # GetThreadContext crashes win98; the campaign reboots and goes on.
    "crash_reboot": ([WIN98], CampaignConfig(cap=40), ["GetThreadContext", "strcpy"]),
    # Functions that scribble on the shared arena (win98/CE `*` rows).
    "dirty_arena": (
        [WIN98, WINCE],
        CampaignConfig(cap=40),
        ["DuplicateHandle", "strncpy", "fwrite", "CreateThread", "fread", "fgets"],
    ),
    "linux_fork": ([LINUX], CampaignConfig(cap=40), ["fork", "wait", "fclose", "strtok"]),
    "armed_sequences": (
        [WIN98],
        CampaignConfig(cap=40, mode="sequence", sequences=40, sequence_seed=3),
        None,
    ),
    # Clean mode with Catastrophic steps (three origin crashes): a
    # crashed sequence hands nothing back.
    "crashed_sequences": (
        [WIN98],
        CampaignConfig(cap=40, mode="sequence", sequences=40, sequence_seed=4),
        None,
    ),
    # No reboot between sequences: the image passes straight from one
    # sequence to the next, over the wear they leave (the CI sequences
    # job's dirty-machine plan).
    "dirty_sequences": (
        [WIN98, WINCE],
        CampaignConfig(
            cap=40,
            mode="sequence",
            sequences=100,
            sequence_seed=2,
            dirty_machine=True,
        ),
        None,
    ),
    "dirtying": ([WIN98, WINCE, WINNT, LINUX], CampaignConfig(cap=40), DIRTYING),
}


_RX = int(Protection.RX)
_RW = int(Protection.RW)


def dumps(payload) -> str:
    return json.dumps(payload, separators=(",", ":"))


def _cold_hand_back(self, process, runtime=None) -> None:
    """Oracle: the machine keeps nothing, so every spawn and every
    runtime is built cold."""


# ----------------------------------------------------------------------
# Field snapshots (object ids excepted: only ``__repr__`` reads them)
# ----------------------------------------------------------------------


def _slots(obj) -> dict:
    names = []
    for cls in type(obj).__mro__:
        names.extend(getattr(cls, "__slots__", ()))
    return {name: getattr(obj, name) for name in names if hasattr(obj, name)}


def region_fields(region) -> tuple:
    return (
        region.start,
        region.size,
        region._prot,
        region.protection,
        region.tag,
        bytes(region.data),
        region.version,
        region.freed,
    )


def kernel_object_fields(obj) -> tuple:
    fields = dict(vars(obj))
    fields.pop("object_id")
    return type(obj), fields


def node_fields(node: FileNode) -> dict:
    fields = _slots(node)
    fields["body"] = bytes(fields["body"])
    return fields


def open_file_fields(open_file: OpenFile, clock) -> dict:
    fields = _slots(open_file)
    fields["node"] = node_fields(open_file.node)
    fields["_now"] = open_file._now == clock.tick_count
    return fields


def fd_table(fds: dict, clock) -> list:
    """Each fd's open file, plus which fds share a description or node
    (``dup`` aliasing is part of the table's shape)."""
    firsts: dict[int, int] = {}
    nodes: dict[int, int] = {}
    table = []
    for fd, obj in fds.items():
        shape = (firsts.setdefault(id(obj), fd), nodes.setdefault(id(obj.node), fd))
        table.append((fd, shape, open_file_fields(obj, clock)))
    return table


def memory_fields(memory, machine) -> dict:
    return {
        "strict_alignment": memory.strict_alignment,
        "faults": memory.faults is machine.faults,
        "cursor": memory._cursor,
        "shared_cursor": memory._shared_cursor,
        "starts": list(memory._starts),
        "regions": [region_fields(r) for r in memory._regions],
        "shared": [r is machine.shared_region for r in memory._regions],
    }


#: How each ``Process`` slot is compared.  A slot missing here fails the
#: field-equality test: a new field must be reset by ``Process._boot``
#: and listed.
PROCESS_FIELDS = {
    "machine": lambda p, v: v is p.machine,
    "personality": lambda p, v: v,
    "pid": lambda p, v: v,
    "memory": lambda p, v: memory_fields(v, p.machine),
    "code_region": lambda p, v: (region_fields(v), v is p.memory._regions[0]),
    "stack_region": lambda p, v: (region_fields(v), v is p.memory._regions[1]),
    "handles": lambda p, v: (
        [(h, kernel_object_fields(o)) for h, o in v._slots.items()],
        v._next,
        v.faults is p.machine.faults,
    ),
    "fds": lambda p, v: fd_table(v, p.machine.clock),
    "errno": lambda p, v: v,
    "last_error": lambda p, v: v,
    "_environ": lambda p, v: v,
    "cwd": lambda p, v: v,
    "umask": lambda p, v: v,
    "uid": lambda p, v: v,
    "gid": lambda p, v: v,
    "exited": lambda p, v: v,
    "exit_code": lambda p, v: v,
    "_next_tid": lambda p, v: v,
    "kernel_object": lambda p, v: kernel_object_fields(v),
    "main_thread": lambda p, v: kernel_object_fields(v),
    "_console": lambda p, v: (
        node_fields(v[0]),
        [(open_file_fields(f, p.machine.clock), f.node is v[0]) for f in v[1:]],
    ),
    # The one slot a cold process cannot share: a reused process may
    # carry the runtime it retired with (moved in by ``TestContext.crt``).
    "crt": lambda p, v: v is None or type(v) is CRuntime,
}


def process_fields(process: Process) -> dict:
    missing = set(Process.__slots__) - set(PROCESS_FIELDS)
    assert not missing, f"Process slots without a comparison: {missing}"
    return {
        name: compare(process, getattr(process, name))
        for name, compare in PROCESS_FIELDS.items()
    }


def stream_fields(state, process) -> dict:
    fields = _slots(state)
    open_file = fields["open_file"]
    fields["open_file"] = next(
        (fd for fd, obj in process.fds.items() if obj is open_file), open_file
    )
    fields["ungot"] = list(fields["ungot"])
    return fields


#: How each ``CRuntime`` attribute is compared; as for the process, an
#: attribute missing here fails the test.
RUNTIME_FIELDS = {
    "process": lambda r, v: v is r.process,
    "machine": lambda r, v: v is r.process.machine,
    "mem": lambda r, v: v is r.process.memory,
    "personality": lambda r, v: v,
    "traits": lambda r, v: v,
    "error_reported": lambda r, v: v,
    "_streams": lambda r, v: [
        (addr, stream_fields(state, r.process)) for addr, state in v.items()
    ],
    "_heap": lambda r, v: dict(v),
    "_strtok_state": lambda r, v: v,
    "_static_tm": lambda r, v: v,
    "_static_str": lambda r, v: v,
    "_ctype_region": lambda r, v: region_fields(v),
    "_boot_regions": lambda r, v: [region_fields(x) for x in v],
    "_std_states": lambda r, v: [stream_fields(s, r.process) for s in v],
    "stdin": lambda r, v: v,
    "stdout": lambda r, v: v,
    "stderr": lambda r, v: v,
}


def runtime_fields(runtime: CRuntime) -> dict:
    names = set(vars(runtime))
    assert names == set(RUNTIME_FIELDS), (
        f"CRuntime attributes without a comparison: {names ^ set(RUNTIME_FIELDS)}"
    )
    fields = {
        name: compare(runtime, getattr(runtime, name))
        for name, compare in RUNTIME_FIELDS.items()
    }
    fields["memory"] = memory_fields(runtime.mem, runtime.machine)
    fields["stdin_console"] = node_fields(runtime.process.fds[0].node)
    return fields


def boot_bytes(index: int, regions: list) -> bytes:
    """What boot mapping ``index`` of a runtime whose mappings are
    ``regions`` holds right after boot."""
    _, size, _, _, _, version = _BOOT_MAPPINGS[index]
    if not version:
        return bytes(size)
    header = _STREAM_SPECS[(index - 1) // 2][3]
    return header + regions[index + 1].start.to_bytes(4, "little") + bytes(size - 8)


# ----------------------------------------------------------------------
# The spy: counts every image decision and checks what reuse relies on
# ----------------------------------------------------------------------


class ImageSpy:
    """Wraps the image's decision points (the originals still run).

    ``counts`` holds: ``reused`` (spawns served by the image),
    ``moved`` (runtimes moved into a reused process), ``dirty_region``
    and ``dirty_crt_region`` (boot regions rebuilt because a case
    touched them), ``window`` (an image left unused because a fault
    window was open), ``crashed`` (cases and sequences that crashed the
    machine, which hand nothing back) and ``outside`` (spawns made by
    neither runner, ``run_case`` nor ``_run_sequence``, which must find
    no image).  ``problems`` collects every violated check; with
    ``fields`` each reuse is also compared field by field with a cold
    construction.
    """

    def __init__(self, monkeypatch, fields: bool = False) -> None:
        self.counts: collections.Counter = collections.Counter()
        self.problems: list[str] = []
        self.fields = fields
        spawn = Machine.spawn_process
        process_boot = Process._boot
        runtime_boot = CRuntime._boot
        run_case = Executor.run_case
        run_sequence = sequences._run_sequence
        spy = self

        def spawn_process(machine):
            image = machine._process_image
            if sys._getframe(1).f_code.co_name not in ("run_case", "_run_sequence"):
                spy.counts["outside"] += 1
                if image is not None:
                    spy.problems.append("a spawn outside the runners found an image")
            if image is not None and machine.faults.active:
                spy.counts["window"] += 1
            process = spawn(machine)
            if process is image:
                spy.counts["reused"] += 1
                if spy.fields:
                    spy._compare(
                        "process",
                        process_fields(process),
                        process_fields(Process(machine, process.pid)),
                    )
            return process

        def boot_process(process, machine, pid):
            for name in ("code_region", "stack_region"):
                region = getattr(process, name)
                if region is None or machine.faults.active:
                    continue
                if region.version or region.freed or region._prot != (
                    _RX if name == "code_region" else _RW
                ):
                    spy.counts["dirty_region"] += 1
                elif region.data != bytes(region.size):
                    spy.problems.append(f"reused {name} lost its boot bytes")
            process_boot(process, machine, pid)

        def boot_runtime(runtime, process):
            old = list(runtime._boot_regions)
            moving = bool(old) and not process.memory.faults.active
            if old and not moving:
                spy.counts["window"] += 1
            if moving:
                spy.counts["moved"] += 1
                for index, region in enumerate(old):
                    _, _, _, prot, tag, version = _BOOT_MAPPINGS[index]
                    if region.version != version or region.freed or region._prot != prot:
                        spy.counts["dirty_crt_region"] += 1
                    elif bytes(region.data) != boot_bytes(index, old):
                        spy.problems.append(f"reused {tag} lost its boot bytes")
                if spy.fields:
                    shadow = spy._shadow(process)
            runtime_boot(runtime, process)
            if moving and spy.fields:
                spy._compare(
                    "runtime", runtime_fields(runtime), runtime_fields(CRuntime(shadow))
                )

        def run_case_spy(executor, mut, case):
            outcome = run_case(executor, mut, case)
            if executor.machine.crashed:
                spy.counts["crashed"] += 1
                if executor.machine._process_image is not None:
                    spy.problems.append("a crashed machine kept an image")
            return outcome

        def run_sequence_spy(executor, plan, key, result, *rest):
            finish = run_sequence(executor, plan, key, result, *rest)

            def finish_spy():
                finish()
                # The runner rebooted the crashed machine before this
                # hook, and the clean-mode reboot after it must not hand
                # the crashed sequence's process back either.
                if result.catastrophic:
                    spy.counts["crashed"] += 1
                    if executor.machine._process_image is not None:
                        spy.problems.append("a crashed sequence handed back its process")

            return finish_spy

        monkeypatch.setattr(Machine, "spawn_process", spawn_process)
        monkeypatch.setattr(Process, "_boot", boot_process)
        monkeypatch.setattr(CRuntime, "_boot", boot_runtime)
        monkeypatch.setattr(Executor, "run_case", run_case_spy)
        monkeypatch.setattr(sequences, "_run_sequence", run_sequence_spy)

    @staticmethod
    def _shadow(process: Process) -> Process:
        """A cold process holding the same allocations as ``process``,
        for a cold runtime to boot into."""
        shadow = Process(process.machine, process.pid)
        memory, source = shadow.memory, process.memory
        memory._starts = list(source._starts)
        memory._regions = list(source._regions)
        memory._cursor = source._cursor
        memory._shared_cursor = source._shared_cursor
        node = shadow.fds[0].node
        for name, value in node_fields(process.fds[0].node).items():
            setattr(node, name, bytearray(value) if name == "body" else value)
        return shadow

    def _compare(self, what: str, reused: dict, cold: dict) -> None:
        for name in cold:
            if reused[name] != cold[name]:
                self.problems.append(f"{what}.{name}: {reused[name]!r} != {cold[name]!r}")


def run_subset(name: str):
    variants, config, muts = SUBSETS[name]
    recorder = MemoryRecorder()
    results = Campaign(variants, config=config, muts=muts).run(recorder=recorder)
    streams = {
        variant.key: [
            strip_wall(record)
            for record in variant_stream(recorder.records, variant.key)
        ]
        for variant in variants
    }
    return dumps(results_to_dict(results)), streams


# ----------------------------------------------------------------------
# Oracle: the image path == cold construction
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def oracle_runs() -> dict:
    """Every subset run twice: through the image (spied, with field
    checks) and fully cold (the hand-back verb a no-op)."""
    runs = {}
    for subset in SUBSETS:
        with pytest.MonkeyPatch.context() as patch:
            spy = ImageSpy(patch, fields=True)
            image = run_subset(subset)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Machine, "retire_process", _cold_hand_back)
            cold_spy = ImageSpy(patch)
            cold = run_subset(subset)
        runs[subset] = (spy, image, cold_spy, cold)
    return runs


@pytest.mark.parametrize("subset", list(SUBSETS))
def test_subset_is_byte_identical_to_cold(oracle_runs, subset):
    spy, (image_results, image_streams), cold_spy, cold = oracle_runs[subset]
    assert spy.problems == []
    assert cold_spy.counts["reused"] == cold_spy.counts["moved"] == 0
    assert image_results == cold[0]
    assert image_streams == cold[1]
    # Sequences reuse the image too: from the clean-mode reboot, and
    # straight from the last sequence on a dirty machine.
    assert spy.counts["reused"] > 0
    if subset in ("crash_reboot", "crashed_sequences", "dirty_sequences"):
        assert f'"code":{int(CaseCode.CATASTROPHIC)}' in dumps(image_streams)
        assert spy.counts["crashed"] > 0


def test_image_path_and_every_rejection_class_fired(oracle_runs):
    """The image path was taken, and each rejection class fired at
    least once across the subsets (the fault window, which no campaign
    opens around a spawn, has its own test below)."""
    totals: collections.Counter = collections.Counter()
    for spy, *_ in oracle_runs.values():
        totals.update(spy.counts)
    for name in (
        "reused",
        "moved",
        "dirty_region",
        "dirty_crt_region",
        "crashed",
        "outside",
    ):
        assert totals[name] > 0, name


def _run_one_case(machine: Machine, mut_name: str, value_names) -> None:
    registry = default_registry()
    api = "libc" if mut_name in ("strlen", "fputs") else "win32"
    mut = registry.get(api, mut_name)
    executor = Executor(machine, CaseGenerator(default_types(), cap=10))
    executor.run_case(mut, TestCase(mut.name, 0, tuple(value_names)))


def _window_trial(machine: Machine):
    """Spawn inside an armed ``alloc`` window, then boot a runtime
    inside one: what fails, how often, and what is left."""
    machine.faults.arm("alloc")
    try:
        with machine.faults.window():
            with pytest.raises(ResourceExhausted):
                machine.spawn_process()
        first = machine.faults.fired
        process = machine.spawn_process()
        ctx = TestContext(machine, process)
        with machine.faults.window():
            with pytest.raises(ResourceExhausted):
                ctx.crt
        second = machine.faults.fired
    finally:
        machine.faults.disarm()
    ctx.crt  # outside the window the boot succeeds
    return first, second, process_fields(process), runtime_fields(ctx.crt)


def test_open_fault_window_builds_cold(monkeypatch):
    """An open fault window bypasses the image: the spawn and the
    runtime boot go through ``AddressSpace.map`` and fail exactly as a
    cold construction does."""
    spy = ImageSpy(monkeypatch)
    imaged = Machine(WIN98)
    _run_one_case(imaged, "fputs", ("STR_SHORT", "FILE_STDOUT"))
    image = imaged._process_image
    assert image is not None and image.crt is not None
    image_trial = _window_trial(imaged)
    assert spy.counts["window"] == 2  # the spawn and the runtime boot

    cold = Machine(WIN98)
    _run_one_case(cold, "fputs", ("STR_SHORT", "FILE_STDOUT"))
    cold._process_image = None
    assert image_trial == _window_trial(cold)


def test_crt_image_survives_cases_without_libc():
    """A reused process keeps its retired runtime through cases that
    never touch the C library; the next one that does moves it in."""
    machine = Machine(WINNT)
    _run_one_case(machine, "strlen", ("STR_SHORT",))
    runtime = machine._process_image.crt
    assert runtime is not None
    _run_one_case(machine, "GetTickCount", ())
    assert machine._process_image.crt is runtime
    process = machine.spawn_process()
    assert TestContext(machine, process).crt is runtime
    assert process.crt is None


def test_dirty_stack_region_is_rebuilt():
    """No pool value points into the stack, so dirty it directly: the
    next spawn rebuilds it and still equals a cold process."""
    machine = Machine(WINCE)
    process = machine.spawn_process()
    stack = process.stack_region
    process.memory.write(stack.start + 8, b"dirty")
    process.terminate()
    machine.retire_process(process)
    again = machine.spawn_process()
    assert again is process and again.stack_region is not stack
    assert process_fields(again) == process_fields(Process(machine, again.pid))


def test_dropped_machine_is_freed_without_the_cycle_collector():
    """The image must not tie a machine into a reference cycle: a warm
    worker drops each spec's machine, and a cycle would keep it, its
    filesystem and arena, alive until a full collection."""
    gc.disable()
    try:
        machine = Machine(WIN98)
        _run_one_case(machine, "fputs", ("STR_SHORT", "FILE_STDOUT"))
        assert machine._process_image.crt is not None
        dropped = weakref.ref(machine)
        del machine
        assert dropped() is None
    finally:
        gc.enable()


def test_hand_back_rejects_a_crashed_machine_and_a_live_process():
    machine = Machine(WIN98)
    process = machine.spawn_process()
    machine.retire_process(process)  # not terminated
    assert machine._process_image is None
    process.terminate()
    machine.crashed = True
    machine.retire_process(process)
    assert machine._process_image is None
    machine.reboot()
    machine.retire_process(process)
    assert machine._process_image is process
    machine.reboot()  # a reboot or revert drops the image
    assert machine._process_image is None


# ----------------------------------------------------------------------
# The version contract reuse trusts
# ----------------------------------------------------------------------


def test_reused_regions_hold_their_boot_bytes(monkeypatch):
    """Reuse trusts that every store into ``Region.data`` bumps
    ``version``.  Over the seven-variant campaign, every boot region the
    image reuses (version, protection and freed flag unchanged) must
    still hold exactly its boot bytes."""
    spy = ImageSpy(monkeypatch)
    Campaign(ALL_VARIANTS, config=CampaignConfig(cap=12)).run()
    assert spy.problems == []
    assert spy.counts["reused"] > 1000 and spy.counts["moved"] > 100
