"""The simulated C runtime: per-process state and shared access helpers.

One :class:`CRuntime` is created per simulated process (lazily, by
:class:`~repro.core.context.TestContext`).  It owns the process's stdio
stream table, its malloc heap, the ctype classification table, and the
static buffers that ``localtime``/``asctime`` return.  The actual C
function families live in mixins:

* :class:`~repro.libc.ctype_funcs.CtypeMixin` -- the "C char" group
* :class:`~repro.libc.string_funcs.StringMixin` -- "C string"
* :class:`~repro.libc.memory_funcs.MemoryMixin` -- "C memory management"
* :class:`~repro.libc.stdio_funcs.StdioMixin` -- "C file I/O management"
  and "C stream I/O"
* :class:`~repro.libc.math_funcs.MathMixin` -- "C math"
* :class:`~repro.libc.time_funcs.TimeMixin` -- "C time"
"""

from __future__ import annotations

from bisect import bisect_right
from typing import TYPE_CHECKING

from repro.libc import errno_codes as E
from repro.libc.ctype_funcs import CtypeMixin
from repro.libc.flavors import FLAVORS, FlavorTraits
from repro.libc.math_funcs import MathMixin
from repro.libc.memory_funcs import MemoryMixin
from repro.libc.stdio_funcs import (
    FLAG_OPEN,
    FLAG_READ,
    FLAG_WRITE,
    StdioMixin,
    StreamState,
)
from repro.libc.string_funcs import StringMixin
from repro.libc.time_funcs import TimeMixin
from repro.sim.guarded import crt_read, crt_write
from repro.sim.memory import USER_LIMIT, Protection, Region

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.process import Process

#: Text preloaded on the console so stdin-reading functions (gets,
#: fscanf on stdin, ...) have something to consume.
CONSOLE_INPUT = b"console input for ballista tests\n42 17 tokens\n"

#: Bump-allocation step for each of the runtime's seven boot mappings
#: (ctype table, then FILE + buffer per standard stream).  All are
#: smaller than a page, so each one advances the cursor by exactly one
#: 8 KiB slot -- the same arithmetic :meth:`AddressSpace.map` applies.
_CRT_STEP = 8192
#: Total address-space span the seven mappings cover.
_CRT_SPAN = 7 * _CRT_STEP
#: ``(fd, readable, writable, FILE-header flag word)`` per standard
#: stream, in registration order.
_STREAM_SPECS = (
    (0, True, False, (FLAG_OPEN | FLAG_READ).to_bytes(4, "little")),
    (1, False, True, (FLAG_OPEN | FLAG_WRITE).to_bytes(4, "little")),
    (2, False, True, (FLAG_OPEN | FLAG_WRITE).to_bytes(4, "little")),
)


class CRuntime(
    CtypeMixin, StringMixin, MemoryMixin, StdioMixin, MathMixin, TimeMixin
):
    """Per-process C runtime in the personality's flavour."""

    #: Size of the in-memory FILE structure.
    FILE_SIZE = 16
    #: Size of a stream's internal buffer.
    STREAM_BUF_SIZE = 64

    def __init__(self, process: "Process") -> None:
        self.process = process
        self.machine = process.machine
        self.mem = process.memory
        self.personality = process.personality
        self.traits: FlavorTraits = FLAVORS[self.personality.crt_flavor]
        self.error_reported = False

        self._streams: dict[int, StreamState] = {}
        self._heap: dict[int, object] = {}
        self._strtok_state = 0
        self._static_tm = 0  # lazily created static buffers
        self._static_str = 0

        # The runtime's seven boot mappings: the ctype table (384
        # readable bytes covering indices -128..255; the table pointer
        # aims at offset 128) followed by a FILE structure and stream
        # buffer per standard stream.  They are bump-allocated from the
        # current cursor in a fixed pattern, so the common case places
        # them directly -- byte-identical regions, addresses, cursor,
        # and list order to seven ``map()`` calls.  An open fault window
        # (armed "alloc" exhaustion must fire per mapping) or a cursor
        # near the top of user space takes the mapping path instead.
        mem = self.mem
        faults = mem.faults
        base = mem._cursor
        stdin_file = process.fds.get(0)
        if (faults is None or not faults.active) and base + _CRT_SPAN <= USER_LIMIT:
            ctype = Region(base, 384, Protection.READ, "ctype-table")
            self._ctype_region = ctype
            if stdin_file is not None and not stdin_file.node.data:
                stdin_file.node.data.extend(CONSOLE_INPUT)
            regions = [ctype]
            streams = self._streams
            fds = process.fds
            rw = Protection.RW
            file_size = self.FILE_SIZE
            buf_size = self.STREAM_BUF_SIZE
            offset = _CRT_STEP
            handles = []
            for fd, readable, writable, flag_header in _STREAM_SPECS:
                file_at = base + offset
                buf_at = file_at + _CRT_STEP
                file_region = Region(file_at, file_size, rw, "FILE")
                buf_region = Region(buf_at, buf_size, rw, "stdio-buf")
                offset += 2 * _CRT_STEP
                file_region.data[0:8] = flag_header + buf_at.to_bytes(
                    4, "little"
                )
                file_region.version = 1
                streams[file_at] = StreamState(
                    fds.get(fd), readable, writable, file_at, buf_at
                )
                regions.append(file_region)
                regions.append(buf_region)
                handles.append(file_at)
            position = bisect_right(mem._starts, base)
            mem._starts[position:position] = [r.start for r in regions]
            mem._regions[position:position] = regions
            mem._cursor = base + _CRT_SPAN
            self.stdin, self.stdout, self.stderr = handles
        else:
            self._ctype_region = mem.map(
                384, Protection.READ, tag="ctype-table"
            )
            if stdin_file is not None and not stdin_file.node.data:
                stdin_file.node.data.extend(CONSOLE_INPUT)
            self.stdin = self._register_stream(
                stdin_file, readable=True, writable=False
            )
            self.stdout = self._register_stream(
                process.fds.get(1), readable=False, writable=True
            )
            self.stderr = self._register_stream(
                process.fds.get(2), readable=False, writable=True
            )

    # ------------------------------------------------------------------
    # errno / error reporting
    # ------------------------------------------------------------------

    def _set_errno(self, code: int) -> None:
        self.process.errno = code
        self.error_reported = True

    def _fs_error(self, exc) -> None:
        """Translate a FileSystemError into errno."""
        self._set_errno(E.FS_CODE_TO_ERRNO.get(exc.code, E.EINVAL))

    # ------------------------------------------------------------------
    # Guarded user-memory access (see repro.sim.guarded)
    # ------------------------------------------------------------------

    def _user_write(self, func: str, address: int, data: bytes) -> bool:
        """Write through a caller pointer; False = fault absorbed as
        shared-state corruption (stop streaming)."""
        return crt_write(self.machine, self.mem, func, address, data)

    def _user_read(self, func: str, address: int, size: int) -> bytes | None:
        return crt_read(self.machine, self.mem, func, address, size)

    def _write_span(
        self, func: str, address: int, data: bytes, pad_to: int = 0
    ) -> None:
        """Write ``data`` then zero-fill up to ``pad_to`` total bytes,
        chunked so that enormous sizes fault at the region edge instead
        of materialising gigabytes."""
        if not self._user_write(func, address, data):
            return
        written = len(data)
        chunk = 4096
        while written < pad_to:
            step = min(chunk, pad_to - written)
            if not self._user_write(func, address + written, b"\x00" * step):
                return
            written += step

    def _read_span(self, func: str, address: int, size: int) -> bytes:
        """Chunked guarded read of up to ``size`` bytes; stops early when
        a fault is absorbed in CORRUPT mode."""
        out = bytearray()
        chunk = 4096
        while len(out) < size:
            step = min(chunk, size - len(out))
            piece = self._user_read(func, address + len(out), step)
            if piece is None:
                break
            out += piece
        return bytes(out)

    # ------------------------------------------------------------------
    # Bounded string scanning
    # ------------------------------------------------------------------

    def _scan_str(self, func: str, address: int, limit: int = 1 << 20) -> bytes:
        """Read a NUL-terminated string the way this flavour's scanner
        does (byte-wise vs word-at-a-time)."""
        return self.mem.read_cstring(
            address, limit=limit, word_at_a_time=self.traits.string_word_reads
        )

    def _scan_str_n(self, func: str, address: int, n: int) -> bytes:
        """Read at most ``n`` bytes, stopping at NUL.  A word-at-a-time
        scanner may touch up to 3 bytes past ``n``, as real ones do."""
        step = 4 if self.traits.string_word_reads else 1
        return self.mem.read_terminated(address, step, n)[0][:n]

    def _scan_wstr(self, func: str, address: int, limit: int = 1 << 20) -> bytes:
        """Read a UTF-16LE string (returns raw bytes, no terminator); a
        word-at-a-time scanner loads two units per (unaligned) word."""
        if self.traits.string_word_reads:
            return self.mem.read_terminated(address, 4, limit, term=2)[0]
        return self.mem.read_wstring(address, limit=limit)

    # ------------------------------------------------------------------
    # Static result buffers (localtime / asctime return pointers)
    # ------------------------------------------------------------------

    def _static_tm_buffer(self) -> int:
        if not self._static_tm:
            self._static_tm = self.mem.map(44, Protection.RW, tag="static-tm").start
        return self._static_tm

    def _static_str_buffer(self) -> int:
        if not self._static_str:
            self._static_str = self.mem.map(
                64, Protection.RW, tag="static-str"
            ).start
        return self._static_str
