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
#: The seven boot mappings in address order: ``(offset from the
#: cursor, size, protection, protection as the int ``Region._prot``
#: mirrors, tag, version after boot)``.  Each FILE header is written
#: once at boot, so FILE regions boot at version 1.
_BOOT_MAPPINGS = tuple(
    (index * _CRT_STEP, size, protection, int(protection), tag, version)
    for index, (size, protection, tag, version) in enumerate(
        [(384, Protection.READ, "ctype-table", 0)]
        + [(16, Protection.RW, "FILE", 1), (64, Protection.RW, "stdio-buf", 0)]
        * 3
    )
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
        self._streams: dict[int, StreamState] = {}
        self._heap: dict[int, object] = {}
        #: The seven boot mappings in address order (see :meth:`_boot`)
        #: and the three standard streams' states, kept so a retired
        #: runtime can be moved into the next case's process; the boot
        #: routine sets the states' fields.
        self._boot_regions: list[Region] = []
        self._std_states = tuple(
            StreamState(None, False, False, 0, 0) for _ in _STREAM_SPECS
        )
        self._boot(process)

    def _boot(self, process: "Process") -> None:
        """Set every field to what a fresh runtime in ``process`` starts
        with.

        The one boot routine: construction runs it on empty tables, and
        ``TestContext.crt`` runs it on a runtime retired with the
        process (:meth:`Machine.retire_process`), which moves its boot
        mappings to the current cursor.  A boot mapping is reused only
        while untouched since boot -- same ``version``, same protection,
        not freed -- and is built fresh otherwise; the standard streams'
        states are reset in place.  So a moved runtime equals a cold
        ``CRuntime(process)`` built after the same allocations.
        """
        self.process = process
        self.machine = process.machine
        self.mem = process.memory
        self.personality = process.personality
        self.traits: FlavorTraits = FLAVORS[self.personality.crt_flavor]
        self.error_reported = False

        self._streams.clear()
        self._heap.clear()
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
        fds = process.fds
        stdin_file = fds.get(0)
        if (faults is None or not faults.active) and base + _CRT_SPAN <= USER_LIMIT:
            old = self._boot_regions
            regions = []
            for index, (offset, size, protection, prot, tag, version) in enumerate(
                _BOOT_MAPPINGS
            ):
                region = old[index] if old else None
                if (
                    region is None
                    or region.version != version
                    or region.freed
                    or region._prot != prot
                ):
                    region = Region(base + offset, size, protection, tag)
                else:
                    region.start = base + offset
                regions.append(region)
            self._ctype_region = regions[0]
            if stdin_file is not None and not stdin_file.node.size:
                stdin_file.node.assign(CONSOLE_INPUT)
            streams = self._streams
            states = self._std_states
            for index, (fd, readable, writable, flag_header) in enumerate(
                _STREAM_SPECS
            ):
                file_region = regions[2 * index + 1]
                file_at = file_region.start
                buf_at = regions[2 * index + 2].start
                file_region.data[0:8] = flag_header + buf_at.to_bytes(
                    4, "little"
                )
                file_region.version = 1
                state = states[index]
                state.open_file = fds.get(fd)
                state.readable = readable
                state.writable = writable
                state.file_addr = file_at
                state.buffer_addr = buf_at
                state.closed = state.eof = state.err = False
                state.ungot.clear()
                streams[file_at] = state
            position = bisect_right(mem._starts, base)
            mem._starts[position:position] = [r.start for r in regions]
            mem._regions[position:position] = regions
            mem._cursor = base + _CRT_SPAN
            self._boot_regions = regions
            # The stream table's keys: the three FILE addresses, in order.
            self.stdin, self.stdout, self.stderr = streams
        else:
            self._ctype_region = mem.map(
                384, Protection.READ, tag="ctype-table"
            )
            if stdin_file is not None and not stdin_file.node.size:
                stdin_file.node.assign(CONSOLE_INPUT)
            self.stdin = self._register_stream(
                stdin_file, readable=True, writable=False
            )
            self.stdout = self._register_stream(
                fds.get(1), readable=False, writable=True
            )
            self.stderr = self._register_stream(
                fds.get(2), readable=False, writable=True
            )
            self._boot_regions = []

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
