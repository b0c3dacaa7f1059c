"""The "C file I/O management" and "C stream I/O" groups.

``FILE*`` values are real addresses of 16-byte in-memory FILE
structures (``_flag``, ``_buffer``, ``_fd``), so the Ballista pool can
include NULL, unmapped, stale, and "string buffer typecast to a file
pointer" values and each flavour reacts mechanistically:

* MSVCRT rejects NULL and unregistered streams (EINVAL error return);
* glibc trusts the structure and chases its (garbage) buffer pointer --
  a user-mode fault, hence the higher Linux Abort rates in both groups;
* the CE runtime also trusts the structure, but lives in a single
  shared address space: flushing through the garbage buffer pointer
  writes into system state.  For the personality's RAW functions that
  is an immediate system crash; for fread/fgets (CORRUPT) it silently
  corrupts until the machine falls over -- reproducing the paper's
  seventeen-function Windows CE finding.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.libc import errno_codes as E
from repro.sim.filesystem import FileSystemError, OpenFile
from repro.sim.guarded import crt_write
from repro.sim.memory import Protection

_U32 = 0xFFFF_FFFF

FLAG_READ = 0x1
FLAG_WRITE = 0x2
FLAG_OPEN = 0x4

#: Cap on pathological printf field widths so the simulation materialises
#: at most 64 KiB of padding (the fault, if any, happens long before).
MAX_FIELD_WIDTH = 0x1_0000


@dataclass(slots=True)
class StreamState:
    """CRT-side state of one open stream."""

    open_file: OpenFile | None
    readable: bool
    writable: bool
    file_addr: int
    buffer_addr: int
    closed: bool = False
    eof: bool = False
    err: bool = False
    ungot: list[int] = field(default_factory=list)


class StdioMixin:
    """stdio.h implementations (24 ASCII functions + CE wide twins)."""

    # ------------------------------------------------------------------
    # Stream plumbing
    # ------------------------------------------------------------------

    def _register_stream(
        self, open_file: OpenFile | None, readable: bool, writable: bool
    ) -> int:
        file_region = self.mem.map(self.FILE_SIZE, Protection.RW, tag="FILE")
        buf_region = self.mem.map(
            self.STREAM_BUF_SIZE, Protection.RW, tag="stdio-buf"
        )
        flags = FLAG_OPEN
        flags |= FLAG_READ if readable else 0
        flags |= FLAG_WRITE if writable else 0
        # Initialise the freshly mapped, word-aligned FILE structure
        # directly (stores identical to the checked ``write_u32`` path:
        # the region is private, RW, and cannot fault).
        file_region.data[0:8] = flags.to_bytes(4, "little") + (
            buf_region.start
        ).to_bytes(4, "little")
        file_region.version += 1
        state = StreamState(
            open_file, readable, writable, file_region.start, buf_region.start
        )
        self._streams[file_region.start] = state
        return file_region.start

    def open_stream_for_test(self, path: str, mode: str) -> int:
        """Constructor hook for test values: open a real stream."""
        readable = "r" in mode or "+" in mode
        writable = mode[0] in "wa" or "+" in mode
        open_file = self.machine.fs.open(
            path,
            readable=readable,
            writable=writable,
            create=mode[0] in "wa",
            truncate=mode[0] == "w",
            append=mode[0] == "a",
        )
        return self._register_stream(open_file, readable, writable)

    def make_closed_stream(self) -> int:
        """Constructor hook: a stream that has been properly fclosed."""
        fp = self.open_stream_for_test(
            f"/tmp/bt_closed_{self.process.pid}.dat", "w"
        )
        state = self._streams[fp]
        if state.open_file is not None:
            state.open_file.close()
        state.closed = True
        self.mem.write_u32(fp, 0)  # _flag cleared
        self.mem.write_u32(fp + 4, 0)  # buffer pointer zeroed
        return fp

    def _stream(self, func: str, fp: int) -> StreamState | None:
        """Resolve a FILE* the way this flavour does.

        Returns the live stream, or ``None`` after reporting an error;
        raises a fault (or crashes the machine) when the flavour
        dereferences garbage.
        """
        fp &= _U32
        if fp == 0:
            if self.traits.null_file_checked:
                self._set_errno(E.EINVAL)
                return None
            self.mem.read_u32(fp)  # NULL dereference: user-mode fault
        state = self._streams.get(fp)
        if state is not None and not state.closed:
            return state
        # Stale or foreign pointer.  Every CRT reads the header fields.
        self.mem.read_u32(fp)  # _flag  (faults on unmapped FILE*)
        buffer_ptr = self.mem.read_u32(fp + 4)
        if self.traits.stream_table_validated:
            self._set_errno(E.EINVAL)
            return None
        if self.traits.wild_file_hits_system:
            # Single shared address space: the garbage buffer pointer is
            # a system address; writing the flush through it tramples
            # the OS (immediate crash or creeping corruption depending
            # on the personality's mode for this function).
            crt_write(self.machine, self.mem, func, buffer_ptr, b"\x00" * 16)
            self._set_errno(E.EBADF)
            return None
        # glibc: trust the struct, chase the garbage buffer pointer.
        self.mem.read(buffer_ptr, 4)
        self._set_errno(E.EBADF)
        return None

    # ------------------------------------------------------------------
    # C file I/O management
    # ------------------------------------------------------------------

    def _parse_mode(self, mode_addr: int) -> str | None:
        mode = self._scan_str("fopen", mode_addr).decode("latin-1")
        base = mode.rstrip("bt+")
        if base not in ("r", "w", "a") or len(mode) > 3:
            return None
        return mode

    def fopen(self, path_addr: int, mode_addr: int) -> int:
        path = self._scan_str("fopen", path_addr).decode("latin-1")
        mode = self._parse_mode(mode_addr)
        if mode is None:
            self._set_errno(E.EINVAL)
            return 0
        try:
            return self.open_stream_for_test(path, mode)
        except FileSystemError as exc:
            self._fs_error(exc)
            return 0

    def freopen(self, path_addr: int, mode_addr: int, fp: int) -> int:
        state = self._stream("freopen", fp)
        if state is None:
            return 0
        if state.open_file is not None:
            # The original file closes first.  If the reopen below
            # fails it stays attached but closed, so later calls on
            # the stream fail with EBADF (see rewind, fseek, fread).
            state.open_file.close()
        path = self._scan_str("freopen", path_addr).decode("latin-1")
        mode = self._parse_mode(mode_addr)
        if mode is None:
            self._set_errno(E.EINVAL)
            return 0
        try:
            reopened = self.machine.fs.open(
                path,
                readable="r" in mode or "+" in mode,
                writable=mode[0] in "wa" or "+" in mode,
                create=mode[0] in "wa",
                truncate=mode[0] == "w",
                append=mode[0] == "a",
            )
        except FileSystemError as exc:
            self._fs_error(exc)
            return 0
        state.open_file = reopened
        state.readable = reopened.readable
        state.writable = reopened.writable
        return fp

    def fclose(self, fp: int) -> int:
        state = self._stream("fclose", fp)
        if state is None:
            return -1
        if state.open_file is not None:
            state.open_file.close()
        state.closed = True
        self.mem.write_u32(state.file_addr, 0)
        self.mem.write_u32(state.file_addr + 4, 0)
        return 0

    def fflush(self, fp: int) -> int:
        if fp == 0:
            return 0  # fflush(NULL) flushes every stream: always legal
        state = self._stream("fflush", fp)
        return 0 if state is not None else -1

    def fseek(self, fp: int, offset: int, whence: int) -> int:
        state = self._stream("fseek", fp)
        if state is None:
            return -1
        if whence not in (0, 1, 2):
            self._set_errno(E.EINVAL)
            return -1
        if state.open_file is None:
            self._set_errno(E.ESPIPE)
            return -1
        try:
            state.open_file.seek(offset, whence)
        except FileSystemError as exc:
            self._fs_error(exc)
            return -1
        state.ungot.clear()
        state.eof = False
        return 0

    def ftell(self, fp: int) -> int:
        state = self._stream("ftell", fp)
        if state is None:
            return -1
        if state.open_file is None:
            self._set_errno(E.ESPIPE)
            return -1
        return state.open_file.offset

    def rewind(self, fp: int) -> None:
        state = self._stream("rewind", fp)
        if state is None:
            return
        if state.open_file is not None:
            try:
                state.open_file.seek(0, 0)
            except FileSystemError as exc:
                self._fs_error(exc)  # closed by a failed freopen
                return
        state.ungot.clear()
        state.eof = False
        state.err = False

    def clearerr(self, fp: int) -> None:
        state = self._stream("clearerr", fp)
        if state is None:
            return
        state.eof = False
        state.err = False

    def remove(self, path_addr: int) -> int:
        path = self._scan_str("remove", path_addr).decode("latin-1")
        try:
            self.machine.fs.unlink(path)
            return 0
        except FileSystemError as exc:
            self._fs_error(exc)
            return -1

    def rename(self, old_addr: int, new_addr: int) -> int:
        old = self._scan_str("rename", old_addr).decode("latin-1")
        new = self._scan_str("rename", new_addr).decode("latin-1")
        try:
            self.machine.fs.rename(old, new)
            return 0
        except FileSystemError as exc:
            self._fs_error(exc)
            return -1

    # ------------------------------------------------------------------
    # C stream I/O primitives
    # ------------------------------------------------------------------

    def _stream_read(self, state: StreamState, count: int) -> bytes:
        if not state.readable or state.open_file is None:
            self._set_errno(E.EBADF)
            state.err = True
            return b""
        out = bytearray()
        while state.ungot and len(out) < count:
            out.append(state.ungot.pop())
        try:
            data = state.open_file.read(count - len(out))
        except FileSystemError as exc:
            self._fs_error(exc)
            state.err = True
            return bytes(out)
        out += data
        if len(out) < count:
            state.eof = True
        return bytes(out)

    def _stream_write(self, state: StreamState, data: bytes) -> int:
        if not state.writable or state.open_file is None:
            self._set_errno(E.EBADF)
            state.err = True
            return 0
        try:
            return state.open_file.write(data)
        except FileSystemError as exc:
            self._fs_error(exc)
            state.err = True
            return 0

    def fread(self, ptr: int, size: int, count: int, fp: int) -> int:
        size &= _U32
        count &= _U32
        state = self._stream("fread", fp)
        if state is None or size == 0 or count == 0:
            return 0
        data = self._stream_read(state, min(size * count, 1 << 20))
        self._write_span("fread", ptr, data)
        return len(data) // size

    def fwrite(self, ptr: int, size: int, count: int, fp: int) -> int:
        size &= _U32
        count &= _U32
        state = self._stream("fwrite", fp)
        if state is None or size == 0 or count == 0:
            return 0
        data = self._read_span("fwrite", ptr, min(size * count, 1 << 20))
        written = self._stream_write(state, data)
        return written // size

    def fgetc(self, fp: int) -> int:
        state = self._stream("fgetc", fp)
        if state is None:
            return -1
        data = self._stream_read(state, 1)
        return data[0] if data else -1

    def getc(self, fp: int) -> int:
        state = self._stream("getc", fp)
        if state is None:
            return -1
        data = self._stream_read(state, 1)
        return data[0] if data else -1

    def fputc(self, c: int, fp: int) -> int:
        state = self._stream("fputc", fp)
        if state is None:
            return -1
        byte = c & 0xFF
        return byte if self._stream_write(state, bytes([byte])) else -1

    def putc(self, c: int, fp: int) -> int:
        state = self._stream("putc", fp)
        if state is None:
            return -1
        byte = c & 0xFF
        return byte if self._stream_write(state, bytes([byte])) else -1

    def ungetc(self, c: int, fp: int) -> int:
        state = self._stream("ungetc", fp)
        if state is None:
            return -1
        if c == -1:
            return -1
        state.ungot.append(c & 0xFF)
        state.eof = False
        return c & 0xFF

    def fgets(self, buffer: int, n: int, fp: int) -> int:
        state = self._stream("fgets", fp)
        if state is None:
            return 0
        if n <= 0:
            if self.traits.fgets_size_checked:
                self._set_errno(E.EINVAL)
                return 0
            # Historic glibc bug family: a non-positive size was treated
            # as "no limit" by careless callers of the unchecked path.
            n = 1 << 20
        line = bytearray()
        while len(line) < n - 1:
            byte = self._stream_read(state, 1)
            if not byte:
                break
            line += byte
            if byte == b"\n":
                break
        if not line:
            return 0
        self._write_span("fgets", buffer, bytes(line) + b"\x00")
        return buffer

    def fputs(self, s: int, fp: int) -> int:
        data = self._scan_str("fputs", s)
        state = self._stream("fputs", fp)
        if state is None:
            return -1
        return self._stream_write(state, data)

    def gets(self, buffer: int) -> int:
        """The classic unbounded read into a caller buffer."""
        state = self._streams[self.stdin]
        line = bytearray()
        while True:
            byte = self._stream_read(state, 1)
            if not byte or byte == b"\n":
                break
            line += byte
        if not line and state.eof:
            return 0
        self._write_span("gets", buffer, bytes(line) + b"\x00")
        return buffer

    def puts(self, s: int) -> int:
        data = self._scan_str("puts", s)
        state = self._streams[self.stdout]
        self._stream_write(state, data + b"\n")
        return len(data) + 1

    # ------------------------------------------------------------------
    # Formatted I/O
    # ------------------------------------------------------------------

    def _format(self, func: str, fmt: bytes, arg: int) -> bytes:
        """Minimal printf engine supporting the pool's conversions.

        ``%s`` treats the (integer) vararg as a char* and scans it --
        faulting exactly like a mismatched vararg does; ``%n`` stores the
        running count through the vararg-as-pointer.
        """
        out = bytearray()
        index = 0
        consumed_arg = False
        while index < len(fmt):
            byte = fmt[index]
            if byte != ord("%"):
                out.append(byte)
                index += 1
                continue
            match = re.match(rb"%(-?\d*)([dsuxcn%])", fmt[index:])
            if match is None:
                out.append(byte)
                index += 1
                continue
            width = int(match.group(1) or 0)
            conv = match.group(2)
            index += match.end()
            if conv == b"%":
                out += b"%"
                continue
            value = 0 if consumed_arg else arg
            consumed_arg = True
            if conv == b"s":
                rendered = self._scan_str(func, value)
            elif conv == b"n":
                self._write_span(func, value, len(out).to_bytes(4, "little"))
                rendered = b""
            elif conv == b"c":
                rendered = bytes([value & 0xFF])
            elif conv == b"x":
                rendered = format(value & _U32, "x").encode()
            else:
                rendered = str(value).encode()
            pad = min(abs(width), MAX_FIELD_WIDTH) - len(rendered)
            if pad > 0:
                rendered = (
                    rendered + b" " * pad if width < 0 else b" " * pad + rendered
                )
            out += rendered
        return bytes(out)

    def fprintf(self, fp: int, fmt_addr: int, arg: int) -> int:
        fmt = self._scan_str("fprintf", fmt_addr)
        state = self._stream("fprintf", fp)
        if state is None:
            return -1
        rendered = self._format("fprintf", fmt, arg)
        return self._stream_write(state, rendered)

    def sprintf(self, buffer: int, fmt_addr: int, arg: int) -> int:
        fmt = self._scan_str("sprintf", fmt_addr)
        rendered = self._format("sprintf", fmt, arg)
        self._write_span("sprintf", buffer, rendered + b"\x00")
        return len(rendered)

    def fscanf(self, fp: int, fmt_addr: int, out_ptr: int) -> int:
        fmt = self._scan_str("fscanf", fmt_addr)
        state = self._stream("fscanf", fp)
        if state is None:
            return -1
        text = self._stream_read(state, 256)
        matched = 0
        if b"%d" in fmt:
            match = re.search(rb"[-+]?\d+", text)
            if match:
                value = int(match.group(0)) & _U32
                self._write_span("fscanf", out_ptr, value.to_bytes(4, "little"))
                matched = 1
        elif b"%s" in fmt:
            match = re.search(rb"\S+", text)
            if match:
                self._write_span("fscanf", out_ptr, match.group(0) + b"\x00")
                matched = 1
        elif b"%n" in fmt:
            self._write_span("fscanf", out_ptr, (0).to_bytes(4, "little"))
        return matched if matched else -1

    # ------------------------------------------------------------------
    # Windows CE wide twins
    # ------------------------------------------------------------------

    def _wfopen(self, path_addr: int, mode_addr: int) -> int:
        path = self._scan_wstr("_wfopen", path_addr).decode(
            "utf-16-le", "replace"
        )
        mode = self._scan_wstr("_wfopen", mode_addr).decode(
            "utf-16-le", "replace"
        )
        base = mode.rstrip("bt+")
        if base not in ("r", "w", "a") or len(mode) > 3:
            self._set_errno(E.EINVAL)
            return 0
        try:
            return self.open_stream_for_test(path, mode)
        except FileSystemError as exc:
            self._fs_error(exc)
            return 0

    def _wfreopen(self, path_addr: int, mode_addr: int, fp: int) -> int:
        state = self._stream("_wfreopen", fp)
        if state is None:
            return 0
        path = self._scan_wstr("_wfreopen", path_addr).decode(
            "utf-16-le", "replace"
        )
        mode = self._scan_wstr("_wfreopen", mode_addr).decode(
            "utf-16-le", "replace"
        )
        base = mode.rstrip("bt+")
        if base not in ("r", "w", "a") or len(mode) > 3:
            self._set_errno(E.EINVAL)
            return 0
        if state.open_file is not None:
            state.open_file.close()
        try:
            reopened = self.machine.fs.open(
                path,
                readable="r" in mode or "+" in mode,
                writable=mode[0] in "wa" or "+" in mode,
                create=mode[0] in "wa",
                truncate=mode[0] == "w",
            )
        except FileSystemError as exc:
            self._fs_error(exc)
            return 0
        state.open_file = reopened
        return fp

    def wfread(self, ptr: int, size: int, count: int, fp: int) -> int:
        """CE's wide-build fread (the paper's "fread (UNICODE and
        ASCII)" row)."""
        size &= _U32
        count &= _U32
        state = self._stream("wfread", fp)
        if state is None or size == 0 or count == 0:
            return 0
        data = self._stream_read(state, min(size * count, 1 << 20))
        self._write_span("wfread", ptr, data)
        return len(data) // size

    def fgetwc(self, fp: int) -> int:
        state = self._stream("fgetwc", fp)
        if state is None:
            return -1
        data = self._stream_read(state, 2)
        return int.from_bytes(data, "little") if len(data) == 2 else -1

    def fgetws(self, buffer: int, n: int, fp: int) -> int:
        state = self._stream("fgetws", fp)
        if state is None:
            return 0
        if n <= 0:
            n = 1 << 18
        line = bytearray()
        while len(line) // 2 < n - 1:
            unit = self._stream_read(state, 2)
            if len(unit) < 2:
                break
            line += unit
            if unit == b"\n\x00":
                break
        if not line:
            return 0
        self._write_span("fgetws", buffer, bytes(line) + b"\x00\x00")
        return buffer

    def fputwc(self, c: int, fp: int) -> int:
        state = self._stream("fputwc", fp)
        if state is None:
            return -1
        unit = (c & 0xFFFF).to_bytes(2, "little")
        return (c & 0xFFFF) if self._stream_write(state, unit) else -1

    def fputws(self, s: int, fp: int) -> int:
        data = self._scan_wstr("fputws", s)
        state = self._stream("fputws", fp)
        if state is None:
            return -1
        return self._stream_write(state, data)

    def fwprintf(self, fp: int, fmt_addr: int, arg: int) -> int:
        fmt = self._scan_wstr("fwprintf", fmt_addr).decode(
            "utf-16-le", "replace"
        )
        state = self._stream("fwprintf", fp)
        if state is None:
            return -1
        rendered = self._format("fwprintf", fmt.encode("latin-1", "replace"), arg)
        return self._stream_write(state, rendered.decode("latin-1").encode("utf-16-le"))

    def fwscanf(self, fp: int, fmt_addr: int, out_ptr: int) -> int:
        fmt = self._scan_wstr("fwscanf", fmt_addr)
        state = self._stream("fwscanf", fp)
        if state is None:
            return -1
        text = self._stream_read(state, 256)
        if b"%d" in fmt.replace(b"\x00", b""):
            match = re.search(rb"[-+]?\d+", text.replace(b"\x00", b"")) if text else None
            if match:
                value = int(match.group(0)) & _U32
                self._write_span("fwscanf", out_ptr, value.to_bytes(4, "little"))
                return 1
        return -1
