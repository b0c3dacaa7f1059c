"""Per-test-case execution context.

A :class:`TestContext` is created for every test case around a fresh
simulated process.  Test-value constructors use it to build concrete
parameter values (buffers, file names, open handles, ``FILE*`` streams);
MuT implementations use it to reach the API facade they belong to
(``ctx.crt`` for the C library, ``ctx.win32`` / ``ctx.posix`` for system
calls).  A deferred-cleanup stack mirrors Ballista's per-test
constructor/destructor discipline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.sim.errors import SimFault

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.libc.runtime import CRuntime
    from repro.posix.system import PosixSystem
    from repro.sim.machine import Machine
    from repro.sim.process import Process
    from repro.win32.system import Win32System


#: The API facade classes by ``MuT.api``, imported on first use and
#: kept: core must not import the API packages at module level, and an
#: import statement per test case costs more than the facade it builds.
_FACADE_CLASSES: dict[str, type] = {}


def _facade_class(api: str) -> type:
    cls = _FACADE_CLASSES.get(api)
    if cls is None:
        if api == "libc":
            from repro.libc.runtime import CRuntime as cls
        elif api == "win32":
            from repro.win32.system import Win32System as cls
        else:
            from repro.posix.system import PosixSystem as cls
        _FACADE_CLASSES[api] = cls
    return cls


class TestContext:
    """Everything one test case may touch."""

    __slots__ = (
        "machine",
        "process",
        "personality",
        "mem",
        "_crt",
        "_win32",
        "_posix",
        "_cleanups",
        "scratch",
    )

    def __init__(self, machine: "Machine", process: "Process") -> None:
        self.machine = machine
        self.process = process
        self.personality = machine.personality
        self.mem = process.memory
        self._crt: "CRuntime | None" = None
        self._win32: "Win32System | None" = None
        self._posix: "PosixSystem | None" = None
        self._cleanups: list[Callable[[], None]] = []
        #: Scratch storage for constructors that need to pass state to
        #: their cleanups (keyed by value name).
        self.scratch: dict[str, Any] = {}

    # ------------------------------------------------------------------
    # API facades (lazy so that core does not import the API packages)
    # ------------------------------------------------------------------

    @property
    def crt(self) -> "CRuntime":
        """The C runtime for this process, in the personality's flavour.
        A process reused from the machine's image may carry the runtime
        it retired with; that one is moved into place instead of booting
        a new one (the same boot routine, so the result is identical)."""
        crt = self._crt
        if crt is None:
            process = self.process
            crt = process.crt
            if crt is None:
                crt = _facade_class("libc")(process)
            else:
                process.crt = None
                crt._boot(process)
            self._crt = crt
        return crt

    @property
    def win32(self) -> "Win32System":
        facade = self._win32
        if facade is None:
            facade = self._win32 = _facade_class("win32")(self.process)
        return facade

    @property
    def posix(self) -> "PosixSystem":
        facade = self._posix
        if facade is None:
            facade = self._posix = _facade_class("posix")(self.process)
        return facade

    def facade(self, api: str) -> Any:
        """Resolve the facade for a MuT's ``api`` field."""
        if api == "libc":
            return self.crt
        if api == "win32":
            return self.win32
        if api == "posix":
            return self.posix
        raise ValueError(f"unknown api {api!r}")

    # ------------------------------------------------------------------
    # Error-reporting observation
    # ------------------------------------------------------------------

    def reset_error_state(self) -> None:
        """Clear error indications before invoking the call under test.
        (Unrolled: this runs once per test case, and most cases have at
        most one live facade.)"""
        process = self.process
        process.errno = 0
        process.last_error = 0
        f = self._crt
        if f is not None:
            f.error_reported = False
        f = self._win32
        if f is not None:
            f.error_reported = False
        f = self._posix
        if f is not None:
            f.error_reported = False

    def error_reported(self) -> bool:
        """Did the call under test report an error through one of the
        API error channels (errno, GetLastError, error return path)?

        Only the facade-level flags count: they are set by the
        implementations' error paths, not by value-transporting calls
        like ``SetLastError`` itself.
        """
        f = self._crt
        if f is not None and f.error_reported:
            return True
        f = self._win32
        if f is not None and f.error_reported:
            return True
        f = self._posix
        return f is not None and f.error_reported

    # ------------------------------------------------------------------
    # Constructor helpers
    # ------------------------------------------------------------------

    def defer(self, fn: Callable[[], None]) -> None:
        """Register teardown to run after the call under test."""
        self._cleanups.append(fn)

    def run_cleanups(self) -> list[Exception]:
        """Run deferred teardowns (LIFO); collect rather than raise
        non-crash errors so one bad destructor cannot poison the others."""
        errors: list[Exception] = []
        while self._cleanups:
            fn = self._cleanups.pop()
            try:
                fn()
            except SimFault as exc:
                errors.append(exc)
        return errors

    # -- memory ---------------------------------------------------------

    def buffer(self, size: int = 64, fill: bytes = b"") -> int:
        """A fresh writable buffer; returns its address."""
        return self.mem.alloc(fill.ljust(size, b"\x00"), tag="testbuf")

    def cstring(
        self, text: bytes, terminated: bool = True, round_to: int = 4
    ) -> int:
        return self.mem.alloc_cstring(
            text, terminated=terminated, round_to=round_to
        )

    def freed_buffer(self, size: int = 64) -> int:
        """A dangling pointer: allocate then unmap."""
        region = self.mem.map(size, tag="freed")
        self.mem.unmap(region)
        return region.start

    def readonly_buffer(self, data: bytes = b"readonly\x00") -> int:
        from repro.sim.memory import Protection

        return self.mem.alloc(data, protection=Protection.READ, tag="ro")

    # -- filesystem ------------------------------------------------------

    def existing_file(self, content: bytes = b"ballista file contents\n") -> str:
        """Create (and register cleanup for) a real file; returns path."""
        name = f"/tmp/bt_{self.process.pid}_{len(self._cleanups)}.dat"
        self.machine.fs.create_file(name, content)

        def remove() -> None:
            try:
                self.machine.fs.unlink(name)
            except Exception:
                pass

        self.defer(remove)
        return name

    def missing_path(self) -> str:
        return f"/tmp/bt_missing_{self.process.pid}.dat"
