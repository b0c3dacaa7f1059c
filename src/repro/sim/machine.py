"""A whole simulated machine: one OS personality, one filesystem, shared
system state, and crash/reboot semantics.

The machine is the unit of *catastrophe*: a fault taken in kernel mode
(:meth:`Machine.panic`) or accumulated corruption of the shared system
arena (:meth:`Machine.note_corruption`) crashes the whole machine, and
every subsequent operation fails with
:class:`~repro.sim.errors.MachineCrashed` until :meth:`Machine.reboot`.
That is exactly the observable the Ballista harness classifies as a
Catastrophic failure.
"""

from __future__ import annotations

import base64

from repro.sim.clock import SimClock
from repro.sim.errors import MachineCrashed, SystemCrash
from repro.sim.faults import FaultInjector
from repro.sim.filesystem import DirectoryNode, FileNode, FileSystem, Node
from repro.sim.memory import Protection, Region, SHARED_BASE
from repro.sim.personality import Personality
from repro.sim.process import Process

#: Size of the Windows 9x / CE shared system arena we model.
SHARED_ARENA_SIZE = 0x10000

#: The all-zero arena: telling a clean arena from a dirty one is one
#: memcmp against this image, not a byte-by-byte walk of 64 KiB.
_ZERO_ARENA = bytes(SHARED_ARENA_SIZE)

#: Pristine boot filesystems, keyed by ``(case_insensitive, max_files)``
#: and built once per process -- every boot clones the template instead
#: of replaying the path-by-path setup.  Template timestamps are all 0,
#: exactly what the replayed setup produced (the boot clock reads 0
#: while the tree is built, on first boot and reboot alike).
_PRISTINE_FS: dict[tuple, FileSystem] = {}

#: The fixed boot-time environment per API family (personality
#: resolution happens once, not on every machine construction).
_BOOT_ENVIRONS: dict[str, dict[str, str]] = {}


def _pristine_fs(case_insensitive: bool, max_files: int | None) -> FileSystem:
    key = (case_insensitive, max_files)
    template = _PRISTINE_FS.get(key)
    if template is None:
        template = FileSystem(
            case_insensitive=case_insensitive,
            now=lambda: 0,
            max_files=max_files,
        )
        for directory in ("/tmp", "/home", "/home/ballista"):
            template.mkdir(directory).protected = True
        passwd = template.create_file(
            "/etc_passwd", b"root:x:0:0:root:/root:/bin/sh\n"
        )
        passwd.protected = True
        _PRISTINE_FS[key] = template
    return template


class Machine:
    """One bootable machine running one OS personality.

    :param personality: the OS variant to boot.
    :param watchdog_ticks: per-call hang budget (virtual milliseconds).
    """

    def __init__(
        self,
        personality: Personality,
        watchdog_ticks: int = 30_000,
        fs_max_files: int | None = None,
    ) -> None:
        """
        :param fs_max_files: disk capacity (regular files) for heavy-load
            experiments; ``None`` = unlimited.
        """
        self.personality = personality
        self.watchdog_ticks = watchdog_ticks
        self.fs_max_files = fs_max_files
        self.reboot_count = 0
        #: Harness-side fault injection (sequence campaigns arm it per
        #: step); survives reboots -- arming is not machine state.
        self.faults = FaultInjector()
        environ = _BOOT_ENVIRONS.get(personality.api)
        if environ is None:
            environ = {
                "PATH": "/bin:/usr/bin"
                if personality.api == "posix"
                else r"C:\WINDOWS",
                "HOME": "/home/ballista",
                "TEMP": "/tmp",
                "BALLISTA": "1",
            }
            _BOOT_ENVIRONS[personality.api] = environ
        self.initial_environ = dict(environ)
        self._next_pid = 100
        self._boot()

    def _boot(self) -> None:
        self.clock = SimClock(self.watchdog_ticks)
        self._reset_system_state()

    def _reset_system_state(self) -> None:
        """(Re)establish pristine post-boot system state: a clone of the
        boot filesystem image, clean crash/corruption state, and a zeroed
        shared arena.  Shared by first boot, :meth:`reboot`, and
        :meth:`revert` -- the copy-on-write snapshot restore."""
        self.fs = _pristine_fs(
            self.personality.case_insensitive_fs, self.fs_max_files
        ).clone(now=self.clock.tick_count)
        self.fs.faults = self.faults

        self.crashed = False
        self.crash_reason: str | None = None
        self.crash_function: str | None = None
        self._corruption = 0
        #: Log of (function, amount) corruption events, for diagnosis and
        #: for the inter-test-interference ablation benchmark.
        self.corruption_log: list[tuple[str, int]] = []

        self.shared_region: Region | None = None
        if self.personality.shared_system_memory:
            self.shared_region = Region(
                SHARED_BASE, SHARED_ARENA_SIZE, Protection.RW, tag="shared-arena"
            )
        #: The process image: the last case's or sequence's process
        #: handed back by :meth:`retire_process`, which the next
        #: :meth:`spawn_process` resets in place.  A booted machine
        #: holds none.
        self._process_image: Process | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def spawn_process(self) -> Process:
        """Start a fresh process (one Ballista test case runs in one).

        When a retired process is held (:meth:`retire_process`) it is
        reset in place to exactly what ``Process(self, pid)`` builds;
        otherwise, and always inside an open fault window (whose armed
        ``"alloc"`` exhaustion must see every boot mapping), the process
        is constructed cold.
        """
        self.check_alive()
        pid = self._next_pid
        self._next_pid += 1
        image = self._process_image
        if image is None or self.faults.active:
            return Process(self, pid)
        self._process_image = None
        image._boot(self, pid)
        return image

    def retire_process(self, process: Process, runtime: object = None) -> None:
        """Hand a terminated process back as the machine's process
        image, together with the C runtime booted in it (``None`` keeps
        the runtime the process already carries).

        Two runners hand processes back, each after ``terminate``:
        ``Executor.run_case`` at the end of every case, and the
        sequence runner at the end of every sequence that leaves the
        machine up -- a clean-mode sequence after its between-sequence
        reboot, which drops the image.  The caller must not touch
        either object again.  Every other spawn (``fork``'s child,
        triage's shared-process replay) finds no image -- the running
        case or sequence took it, or the machine is fresh -- and hands
        nothing back.  A crashed machine keeps nothing: its next process
        is built cold after the reboot.
        """
        if self.crashed or not process.exited:
            return
        if runtime is not None:
            process.crt = runtime
        # Held objects point back at no machine and form no cycle, so a
        # machine that is dropped (a warm worker's finished spec) is
        # freed at once, image included, as before there was an image.
        # The boot routines set both fields again.
        runtime = process.crt
        if runtime is not None:
            runtime.machine = runtime.process = None
        process.machine = None
        self._process_image = process

    def reboot(self) -> None:
        """Power-cycle after a crash: fresh filesystem, shared arena and
        corruption state.  (Ballista restarts testing after a reboot.)

        Virtual time keeps running across the power cycle: the clock
        stays monotone along a campaign plan, which sharded event
        canonicalisation and per-step sequence timestamps rely on.
        """
        self.reboot_count += 1
        self.clock.reset(self.clock.ticks)
        self._reset_system_state()

    def revert(self) -> None:
        """Copy-on-write revert to the pristine boot image: observable
        state identical to a freshly constructed
        ``Machine(personality, watchdog_ticks, fs_max_files)`` --
        counters, clock, filesystem, arena, and crash state included --
        at a fraction of the construction cost.  The campaign's
        ``machine_per_case`` ablation reverts between cases instead of
        building a machine per case."""
        self.reboot_count = 0
        self._next_pid = 100
        self.clock.reset(0)
        self._reset_system_state()

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------

    def wear_state(self) -> dict:
        """The cross-MuT machine state a campaign checkpoint must carry
        so a resumed run classifies like an uninterrupted one: the
        accumulated shared-arena corruption (what turns into ``*``
        interference crashes), reboot count, virtual clock, and pid
        counter, plus a full image of the filesystem and the shared
        system arena.  Files that earlier MuTs created or deleted change
        later classifications (``remove()`` of a lingering file succeeds
        on a worn machine but fails after a fresh boot), so the tree
        itself is part of the wear.  A file costs its stored bytes: the
        zero tail a growing truncate left is recorded as a length
        (``zero_tail``), never as zeros (see :meth:`_fs_wear`)."""
        wear: dict = {
            "corruption": self._corruption,
            "reboot_count": self.reboot_count,
            "clock_ticks": self.clock.ticks,
            "next_pid": self._next_pid,
            "fs": self._fs_wear(),
        }
        arena = self._arena_image()
        if arena is not None:
            wear["shared_arena"] = base64.b64encode(arena).decode("ascii")
        return wear

    def restore_wear(self, wear: dict) -> None:
        """Reapply :meth:`wear_state` to a freshly booted machine.

        Checkpoints written before filesystem wear was recorded lack the
        ``fs``/``shared_arena`` keys; those restore the counters only,
        as before.
        """
        self._corruption = int(wear.get("corruption", 0))
        self.reboot_count = int(wear.get("reboot_count", 0))
        self.clock.ticks = int(wear.get("clock_ticks", 0))
        self._next_pid = int(wear.get("next_pid", self._next_pid))
        if "fs" in wear:
            self._restore_fs(wear["fs"])
        if self.shared_region is not None and "shared_arena" in wear:
            arena = base64.b64decode(wear["shared_arena"])
            self.shared_region.data[:] = arena.ljust(
                self.shared_region.size, b"\x00"
            )

    def _arena_image(self) -> bytes | None:
        """The shared arena's bytes, or ``None`` while it is all zero
        (and on personalities without one)."""
        region = self.shared_region
        if region is None or region.data == _ZERO_ARENA:
            return None
        return bytes(region.data)

    def _fs_wear(self, residue: bool = False) -> dict:
        """A depth-first, insertion-ordered image of the filesystem.

        Hard links are recorded as aliases of the first directory entry
        that reached the node, so the restored tree shares one
        :class:`FileNode` between them just like the original.

        A file's ``data`` is the base64 of its stored bytes (``body``);
        a file with a zero tail adds ``zero_tail``, the tail's length.
        The split is recorded as it is, so a restored machine captures
        the same image.  ``residue=True`` builds the comparison-only
        form :meth:`wear_residue` uses: no ``accessed_at``, and a file's
        ``data`` is its stored bytes less their trailing zeros beside
        its ``size`` -- equal exactly when the contents are, however
        each is split.
        """
        nodes: list[dict] = []
        seen: dict[int, int] = {}

        def record(node: Node, entry: dict) -> dict:
            entry["created_at"] = node.created_at
            entry["modified_at"] = node.modified_at
            if not residue:
                entry["accessed_at"] = node.accessed_at
            entry["read_only"] = node.read_only
            entry["hidden"] = node.hidden
            entry["protected"] = node.protected
            entry["mode"] = node.mode
            return entry

        nodes.append(record(self.fs.root, {"path": "", "type": "dir"}))

        def visit(prefix: str, directory: DirectoryNode) -> None:
            for name, node in directory.entries.items():
                path = f"{prefix}/{name}"
                if isinstance(node, DirectoryNode):
                    nodes.append(record(node, {"path": path, "type": "dir"}))
                    visit(path, node)
                    continue
                assert isinstance(node, FileNode)
                if id(node) in seen:
                    nodes.append(
                        {"path": path, "type": "link", "node": seen[id(node)]}
                    )
                    continue
                seen[id(node)] = len(nodes)
                entry = record(node, {"path": path, "type": "file"})
                body = node.body
                if residue:
                    entry["data"] = body.rstrip(b"\x00")
                    entry["size"] = node.size
                else:
                    entry["data"] = base64.b64encode(body).decode("ascii")
                    if node.size != len(body):
                        entry["zero_tail"] = node.size - len(body)
                if node.nlink != 1:
                    entry["nlink"] = node.nlink
                target = getattr(node, "symlink_target", None)
                if target is not None:
                    entry["symlink_target"] = target
                nodes.append(entry)

        visit("", self.fs.root)
        return {"nodes": nodes, "file_count": self.fs._file_count}

    def _restore_fs(self, image: dict) -> None:
        """Rebuild ``self.fs`` from a :meth:`_fs_wear` image."""
        fs = FileSystem(
            case_insensitive=self.personality.case_insensitive_fs,
            now=self.clock.tick_count,
        )
        by_index: dict[int, FileNode] = {}

        def apply(node: Node, entry: dict) -> None:
            node.created_at = int(entry["created_at"])
            node.modified_at = int(entry["modified_at"])
            node.accessed_at = int(entry["accessed_at"])
            node.read_only = bool(entry["read_only"])
            node.hidden = bool(entry["hidden"])
            node.protected = bool(entry["protected"])
            node.mode = int(entry["mode"])

        for index, entry in enumerate(image["nodes"]):
            path = entry["path"]
            if entry["type"] == "dir":
                node: Node = fs.root if not path else fs.mkdir(path)
            elif entry["type"] == "link":
                parent, name = fs._parent_of(path)
                parent.entries[name] = by_index[int(entry["node"])]
                parent._lower = None
                continue
            else:
                file_node = fs.create_file(
                    path,
                    base64.b64decode(entry["data"]),
                    zero_tail=int(entry.get("zero_tail", 0)),
                )
                file_node.nlink = int(entry.get("nlink", 1))
                if "symlink_target" in entry:
                    file_node.symlink_target = entry[  # type: ignore[attr-defined]
                        "symlink_target"
                    ]
                by_index[index] = file_node
                node = file_node
            apply(node, entry)
        # The live count can sit below the number of reachable files
        # (unlinking one name of a hard link decrements it), so restore
        # the recorded value rather than what the replay accumulated.
        fs.max_files = self.fs_max_files
        fs._file_count = int(image["file_count"])
        fs.faults = self.faults
        self.fs = fs

    # ------------------------------------------------------------------
    # Crash semantics
    # ------------------------------------------------------------------

    def check_alive(self) -> None:
        """Raise :class:`MachineCrashed` when the machine is down."""
        if self.crashed:
            raise MachineCrashed()

    def panic(self, reason: str, function: str | None = None) -> None:
        """Take the machine down (kernel-mode fault); raises
        :class:`SystemCrash`."""
        self.crashed = True
        self.crash_reason = reason
        self.crash_function = function
        raise SystemCrash(reason, function)

    def note_corruption(self, function: str, amount: int = 1) -> None:
        """Record corruption of shared system state.

        A single event is absorbed (the call even appears to succeed --
        the misdirected write landed somewhere in the shared arena), but
        once more than ``personality.corruption_tolerance`` events have
        accumulated since boot the machine goes down.  This reproduces
        the paper's ``*`` functions, whose crashes "could not be
        reproduced outside of the test harness" because they need the
        residue of earlier test cases.
        """
        self._corruption += amount
        self.corruption_log.append((function, amount))
        if self._corruption > self.personality.corruption_tolerance:
            self.panic(
                "accumulated corruption of shared system state", function
            )

    @property
    def corruption_level(self) -> int:
        return self._corruption

    # ------------------------------------------------------------------
    # Failure-atomicity support
    # ------------------------------------------------------------------

    def wear_residue(self) -> tuple:
        """A snapshot of the *durable* machine wear -- corruption,
        filesystem image, and shared-arena contents, but not the
        always-advancing counters (clock, pid) -- compared with ``==``.

        The sequence runner snapshots this around a fault-injected call:
        a call that reports failure under injection must leave the
        residue untouched (failure atomicity), and any change classifies
        as a harness-level :data:`~repro.core.crash_scale.CaseCode.FAULT_ATOMICITY`
        outcome.

        Access timestamps are excluded: a failed call may legitimately
        have *read* files before hitting the injected fault, and an
        ``accessed_at`` bump is not corruption the next step could trip
        over.  File contents, metadata, link structure, and the file
        population all count; how a file's content is split between
        stored bytes and a zero tail does not (a zero write into a tail
        changes no content).

        The snapshot is ``(corruption, fs nodes, file count, arena)``:
        the :meth:`_fs_wear` walk in its ``residue`` form (no
        ``accessed_at``, file contents as stored bytes less trailing
        zeros plus size, nothing base64-encoded), and the arena bytes
        (``None`` while the arena is all zero) -- one walk and one
        memcmp.
        """
        fs = self._fs_wear(residue=True)
        return (
            self._corruption,
            fs["nodes"],
            fs["file_count"],
            self._arena_image(),
        )
