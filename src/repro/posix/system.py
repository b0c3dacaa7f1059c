"""The POSIX system facade: per-process system-call entry points.

Every pointer crossing the system-call boundary goes through
:meth:`PosixSystem.copy_in` / :meth:`PosixSystem.copy_out` /
:meth:`PosixSystem.copy_path`, which model the kernel's
``copy_from_user`` family: on the probing Linux personality a bad
pointer produces a graceful ``EFAULT`` error return, never a fault.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.libc import errno_codes as E
from repro.posix.fs_calls import FsCallsMixin
from repro.posix.io_calls import IoCallsMixin
from repro.posix.mem_calls import MemCallsMixin
from repro.posix.proc_calls import ProcCallsMixin
from repro.posix.env_calls import EnvCallsMixin
from repro.sim.guarded import kernel_copy_from_user, kernel_copy_to_user

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.filesystem import OpenFile
    from repro.sim.process import PipeEnd, Process

_U32 = 0xFFFF_FFFF
PATH_MAX = 4096


class PosixSystem(
    IoCallsMixin, FsCallsMixin, MemCallsMixin, ProcCallsMixin, EnvCallsMixin
):
    """All POSIX system-call entry points for one simulated process."""

    def __init__(self, process: "Process") -> None:
        self.process = process
        self.machine = process.machine
        self.mem = process.memory
        self.personality = process.personality
        self.error_reported = False
        self._brk = 0
        self._shm_segments: dict[int, int] = {}

    # ------------------------------------------------------------------
    # errno
    # ------------------------------------------------------------------

    def _err(self, code: int, ret: int = -1) -> int:
        self.process.errno = code
        self.error_reported = True
        return ret

    def _fs_err(self, exc, ret: int = -1) -> int:
        return self._err(E.FS_CODE_TO_ERRNO.get(exc.code, E.EINVAL), ret)

    # ------------------------------------------------------------------
    # Kernel / user copies (the EFAULT discipline)
    # ------------------------------------------------------------------

    def copy_out(self, func: str, address: int, data: bytes) -> bool:
        return kernel_copy_to_user(self.machine, self.mem, func, address, data)

    def copy_in(self, func: str, address: int, size: int) -> bytes | None:
        return kernel_copy_from_user(self.machine, self.mem, func, address, size)

    def copy_path(self, func: str, address: int) -> str | None:
        """Kernel pathname pickup (``getname``): scans for the NUL with
        probing, so a bad pointer yields ``None`` -> EFAULT.

        Readable memory is scanned a region at a time; the byte no
        window covers goes through :meth:`copy_in`, so the PROBE, RAW
        and CORRUPT handling sees exactly the per-byte pickup's fault."""
        out = bytearray()
        cursor = address & _U32
        while len(out) < PATH_MAX:
            data, found = self.mem.window(cursor, 1, PATH_MAX - len(out))
            out += data
            if found:
                return out.decode("latin-1")
            if data:
                cursor += len(data)
                continue
            chunk = self.copy_in(func, cursor, 1)
            if chunk is None:
                return None
            if chunk == b"\x00":
                return out.decode("latin-1")
            out += chunk
            cursor += 1
        return None  # ENAMETOOLONG territory; callers report an error

    # ------------------------------------------------------------------
    # fd table
    # ------------------------------------------------------------------

    def _fd_object(self, fd: int) -> "OpenFile | PipeEnd | None":
        if not isinstance(fd, int) or fd < 0 or fd > 0xFFFF:
            return None
        return self.process.get_fd(fd)
