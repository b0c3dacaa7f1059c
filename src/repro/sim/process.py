"""Simulated processes and threads.

A :class:`Process` owns the per-process state an OS API call can touch:
a private address space (plus the machine's shared arena where the
personality has one), a Win32 handle table, a POSIX fd table, ``errno``
and ``GetLastError`` values, an environment block, and its threads.

One Ballista test case runs inside one fresh process; the machine --
filesystem, shared arena, accumulated corruption -- persists across
test cases exactly as the physical test machine did in the paper.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.filesystem import FileNode, FileSystemError, OpenFile, Pipe
from repro.sim.memory import (
    SHARED_BASE,
    USER_BASE,
    AddressSpace,
    Protection,
    Region,
)
from repro.sim.objects import HandleTable, ProcessObject, ThreadObject

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.machine import Machine

#: The bootstrap layout every fresh process starts with: a code mapping
#: at the fixed image base and a stack allocated right after it.  The
#: constants below are exactly what two :meth:`AddressSpace.map` calls
#: produce (8 KiB-rounded bump allocation with a guard gap), precomputed
#: so process creation -- one per test case -- can place the regions
#: directly instead of replaying the allocator arithmetic.
_CODE_AT = 0x0040_1000 - 0x1000
_CODE_SIZE = 0x1000
_STACK_SIZE = 0x4000
_STACK_AT = (_CODE_AT + _CODE_SIZE + 8191) & ~4095
_BOOT_CURSOR = (_STACK_AT + _STACK_SIZE + 8191) & ~4095
assert _CODE_AT == USER_BASE and _STACK_AT > _CODE_AT + _CODE_SIZE
#: Boot protections as the plain ints ``Region._prot`` mirrors.
_RX = int(Protection.RX)
_RW = int(Protection.RW)


class PipeEnd:
    """One end of an anonymous pipe, usable where an open file is."""

    __slots__ = ("pipe", "readable", "writable", "closed")

    def __init__(self, pipe: Pipe, readable: bool) -> None:
        self.pipe = pipe
        self.readable = readable
        self.writable = not readable
        self.closed = False

    def read(self, count: int) -> bytes:
        if self.closed or not self.readable:
            raise FileSystemError("EBADF", "<pipe>")
        return self.pipe.read(count)

    def write(self, data: bytes) -> int:
        if self.closed or not self.writable:
            raise FileSystemError("EBADF", "<pipe>")
        return self.pipe.write(data)

    def seek(self, offset: int, whence: int = 0) -> int:
        raise FileSystemError("ESPIPE", "<pipe>")

    def close(self) -> None:
        self.closed = True
        if self.readable:
            self.pipe.read_open = False
        else:
            self.pipe.write_open = False


class Process:
    """A simulated process (one task running one test case)."""

    __slots__ = (
        "machine",
        "personality",
        "pid",
        "memory",
        "code_region",
        "stack_region",
        "handles",
        "fds",
        "errno",
        "last_error",
        "_environ",
        "cwd",
        "umask",
        "uid",
        "gid",
        "exited",
        "exit_code",
        "_next_tid",
        "kernel_object",
        "main_thread",
        "_console",
        "crt",
    )

    def __init__(self, machine: "Machine", pid: int) -> None:
        self.memory = AddressSpace(
            strict_alignment=machine.personality.strict_alignment
        )
        self.handles = HandleTable()
        self.fds: dict[int, OpenFile | PipeEnd] = {}
        self.code_region: Region | None = None
        self.stack_region: Region | None = None
        # fds 0/1/2 on a console device node (not linked into the
        # filesystem tree, like a character device); :meth:`_boot` sets
        # their fields.
        console = FileNode("<console>", 0)
        self._console = (
            console,
            OpenFile(console, readable=True, writable=False),
            OpenFile(console, readable=False, writable=True),
            OpenFile(console, readable=False, writable=True),
        )
        #: The C runtime this process retired with (see
        #: :meth:`Machine.retire_process`); the next case's
        #: ``TestContext.crt`` moves it into the reused process instead
        #: of booting a new one.  ``None`` while no runtime is retired.
        self.crt: object | None = None
        self._boot(machine, pid)

    def _boot(self, machine: "Machine", pid: int) -> None:
        """Set every field to what a fresh process starts with.

        The one boot routine: construction runs it on new containers,
        and :meth:`Machine.spawn_process` runs it on the machine's
        retired process (its *image*), so a reused process equals
        ``Process(machine, pid)`` field for field.  The image keeps its
        address space, handle table, fd dict and console objects, and
        its code and stack regions while they are untouched since boot:
        same ``version``, same protection, not freed.  The kernel
        objects are built fresh.
        """
        self.machine = machine
        self.personality = machine.personality
        self.pid = pid
        memory = self.memory
        faults = machine.faults
        memory.faults = faults
        memory._shared_cursor = SHARED_BASE
        #: Code and stack mappings so "pointer into code" / "stack
        #: pointer" test values have somewhere real to point.  The fast
        #: path below is byte-identical to mapping them through
        #: :meth:`AddressSpace.map` (same addresses, same cursor, same
        #: region order); an open fault window still takes the mapping
        #: path so armed "alloc" exhaustion fires exactly as before.
        shared = machine.shared_region
        if faults is not None and faults.active:
            memory._starts = []
            memory._regions = []
            memory._cursor = USER_BASE
            if shared is not None:
                memory.attach(shared)
            self.code_region = memory.map(
                _CODE_SIZE, Protection.RX, tag="code", at=_CODE_AT
            )
            self.stack_region = memory.map(
                _STACK_SIZE, Protection.RW, tag="stack"
            )
        else:
            code = self.code_region
            if code is None or code.version or code.freed or code._prot != _RX:
                code = Region(_CODE_AT, _CODE_SIZE, Protection.RX, "code")
                self.code_region = code
            stack = self.stack_region
            if (
                stack is None
                or stack.version
                or stack.freed
                or stack._prot != _RW
            ):
                stack = Region(_STACK_AT, _STACK_SIZE, Protection.RW, "stack")
                self.stack_region = stack
            if shared is not None:
                memory._starts = [_CODE_AT, _STACK_AT, shared.start]
                memory._regions = [code, stack, shared]
            else:
                memory._starts = [_CODE_AT, _STACK_AT]
                memory._regions = [code, stack]
            memory._cursor = _BOOT_CURSOR

        handles = self.handles
        handles._slots.clear()
        handles._next = 0x4
        handles.faults = faults
        self.errno = 0
        self.last_error = 0
        self._environ: dict[str, str] | None = None
        self.cwd = "/"
        self.umask = 0o022
        self.uid = 1000
        self.gid = 1000

        self.exited = False
        self.exit_code: int | None = None

        tid = pid * 0x100 + 1
        self._next_tid = tid + 1
        self.kernel_object = ProcessObject(pid, name=f"pid{pid}")
        self.main_thread = ThreadObject(tid)

        # Pre-open fds 0/1/2 on the console, stdin read-only and
        # stdout/stderr write-only, with an empty, just-created node.
        now = machine.clock.tick_count
        console, *files = self._console
        console.created_at = console.modified_at = console.accessed_at = now()
        console.read_only = console.hidden = console.protected = False
        console.mode = 0o644
        console.assign(b"")
        console.nlink = 1
        fds = self.fds
        fds.clear()
        for fd, open_file in enumerate(files):
            open_file.readable = not fd
            open_file.writable = bool(fd)
            open_file.append = False
            open_file.offset = 0
            open_file.closed = False
            open_file._now = now
            fds[fd] = open_file

    # ------------------------------------------------------------------
    # Threads
    # ------------------------------------------------------------------

    def spawn_thread(self, suspended: bool = False) -> ThreadObject:
        thread = ThreadObject(self._next_tid, suspended=suspended)
        self._next_tid += 1
        return thread

    # ------------------------------------------------------------------
    # POSIX fd table
    # ------------------------------------------------------------------

    @property
    def environ(self) -> dict[str, str]:
        """The process's private environment block, copied from the
        machine's boot image on first access.  The boot image is fixed
        for the machine's life, so the lazy copy observes exactly what
        an eager copy at process creation would -- and the overwhelming
        majority of test processes never touch their environment."""
        environ = self._environ
        if environ is None:
            environ = dict(self.machine.initial_environ)
            self._environ = environ
        return environ

    def alloc_fd(self, obj: OpenFile | PipeEnd, lowest: int = 0) -> int:
        fd = lowest
        while fd in self.fds:
            fd += 1
        self.fds[fd] = obj
        return fd

    def get_fd(self, fd: int) -> OpenFile | PipeEnd | None:
        return self.fds.get(fd)

    def close_fd(self, fd: int) -> bool:
        obj = self.fds.pop(fd, None)
        if obj is None:
            return False
        obj.close()
        return True

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------

    def terminate(self, exit_code: int = 0) -> None:
        """Close everything the process holds (the OS-level cleanup a
        real process death performs)."""
        if self.exited:
            return
        self.exited = True
        self.exit_code = exit_code
        self.kernel_object.exit_code = exit_code
        fds = self.fds
        for obj in fds.values():
            obj.close()
        fds.clear()
        self.handles.close_all()
