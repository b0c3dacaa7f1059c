"""Win32 Process Environment API (35 MuTs).

Mostly user-mode kernel32 services: environment blocks, module and
machine identity, and timing.  Struct out-parameters are written in user
mode (``GetStartupInfoA`` really does fault on a bad pointer on NT),
while ``Set*Time`` style calls go through the probed kernel boundary.
"""

from __future__ import annotations

from repro.win32 import errors as W

_U32 = 0xFFFF_FFFF


class EnvApiMixin:
    """Environment, identity, and timing services."""

    # ------------------------------------------------------------------
    # Environment variables
    # ------------------------------------------------------------------

    def GetEnvironmentVariableA(self, lpName: int, lpBuffer: int, nSize: int) -> int:
        name = self._scan_string(lpName)
        value = self.process.environ.get(name)
        if value is None:
            return self.fail(W.ERROR_ENVVAR_NOT_FOUND)
        encoded = value.encode("latin-1") + b"\x00"
        if (nSize & _U32) < len(encoded):
            return len(encoded)
        self.mem.write(lpBuffer, encoded)  # user-mode store
        return len(encoded) - 1

    def SetEnvironmentVariableA(self, lpName: int, lpValue: int) -> int:
        name = self._scan_string(lpName)
        if not name or "=" in name:
            if not self.personality.lax_flag_validation:
                return self.fail(W.ERROR_INVALID_PARAMETER)
        if lpValue == 0:
            self.process.environ.pop(name, None)
            return 1
        self.process.environ[name] = self._scan_string(lpValue)
        return 1

    def GetEnvironmentStrings(self) -> int:
        block = b"".join(
            f"{key}={value}".encode("latin-1") + b"\x00"
            for key, value in sorted(self.process.environ.items())
        ) + b"\x00"
        return self.mem.alloc(block, tag="environ")

    def FreeEnvironmentStringsA(self, lpszEnvironmentBlock: int) -> int:
        region = self.mem.find(lpszEnvironmentBlock)
        if (
            region is None
            or region.start != (lpszEnvironmentBlock & _U32)
            or region.tag != "environ"
        ):
            if self.lax_handles:
                return 1
            return self.fail(W.ERROR_INVALID_PARAMETER)
        self.mem.unmap(region)
        return 1

    def ExpandEnvironmentStringsA(self, lpSrc: int, lpDst: int, nSize: int) -> int:
        text = self._scan_string(lpSrc)
        out = text
        for key, value in self.process.environ.items():
            out = out.replace(f"%{key}%", value)
        encoded = out.encode("latin-1") + b"\x00"
        if (nSize & _U32) < len(encoded):
            return len(encoded)
        self.mem.write(lpDst, encoded)  # user-mode store
        return len(encoded)

    # ------------------------------------------------------------------
    # Process / module identity
    # ------------------------------------------------------------------

    def GetCommandLineA(self) -> int:
        if not hasattr(self, "_command_line_addr"):
            self._command_line_addr = self.mem.alloc(
                b"ballista_test.exe\x00", tag="cmdline"
            )
        return self._command_line_addr

    def GetModuleFileNameA(self, hModule: int, lpFilename: int, nSize: int) -> int:
        if hModule not in (0, self.process.code_region.start):
            if not self.lax_handles:
                return self.fail(W.ERROR_INVALID_HANDLE)
        path = b"C:\\BALLISTA\\ballista_test.exe\x00"
        count = min(len(path), nSize & _U32)
        self.mem.write(lpFilename, path[:count])  # user-mode store
        return max(count - 1, 0)

    def GetModuleHandleA(self, lpModuleName: int) -> int:
        if lpModuleName == 0:
            return self.process.code_region.start  # image base
        name = self._scan_string(lpModuleName)
        if name.lower() in ("kernel32", "kernel32.dll", "ballista_test.exe"):
            return self.process.code_region.start
        return self.fail(W.ERROR_FILE_NOT_FOUND)

    def GetStartupInfoA(self, lpStartupInfo: int) -> None:
        blob = bytearray(68)
        blob[0:4] = (68).to_bytes(4, "little")  # cb
        # kernel32 fills STARTUPINFO in user mode -- bad pointers fault
        # on every Windows variant, NT included.
        self.mem.write(lpStartupInfo, bytes(blob))

    def GetCurrentProcessId(self) -> int:
        return self.process.pid

    def GetCurrentThreadId(self) -> int:
        return self.process.main_thread.tid

    def GetProcessVersion(self, ProcessId: int) -> int:
        if (ProcessId & _U32) in (0, self.process.pid):
            return 0x0004_0000  # 4.0
        return self.fail(W.ERROR_INVALID_PARAMETER)

    def GetProcessHeap(self) -> int:
        from repro.sim.objects import HeapObject

        if not hasattr(self, "_process_heap"):
            self._process_heap = self.process.handles.insert(
                HeapObject(0x1000, 0)
            )
        return self._process_heap

    # ------------------------------------------------------------------
    # System identity
    # ------------------------------------------------------------------

    def GetSystemInfo(self, lpSystemInfo: int) -> None:
        blob = bytearray(36)
        blob[0:4] = (0).to_bytes(4, "little")  # PROCESSOR_ARCHITECTURE_INTEL
        blob[4:8] = (0x1000).to_bytes(4, "little")  # page size
        blob[20:24] = (1).to_bytes(4, "little")  # processors
        self.mem.write(lpSystemInfo, bytes(blob))  # user-mode store

    def GetVersion(self) -> int:
        return {
            "9x": 0xC000_0004,
            "nt": 0x0000_0004,
            "ce": 0x0002_0004,
        }.get(self.personality.family, 0x0000_0004)

    def GetVersionExA(self, lpVersionInformation: int) -> int:
        size = self.mem.read_u32(lpVersionInformation)  # user-mode read
        if size != 148:
            if not self.personality.lax_flag_validation:
                return self.fail(W.ERROR_INVALID_PARAMETER)
        blob = bytearray(148)
        blob[0:4] = (148).to_bytes(4, "little")
        blob[4:8] = (4).to_bytes(4, "little")  # major
        self.mem.write(lpVersionInformation, bytes(blob))
        return 1

    def GetComputerNameA(self, lpBuffer: int, nSize: int) -> int:
        length = self.mem.read_u32(nSize)  # in/out size parameter
        name = b"BALLISTA-PC\x00"
        if length < len(name):
            self.mem.write_u32(nSize, len(name))
            return self.fail(W.ERROR_INSUFFICIENT_BUFFER)
        self.mem.write(lpBuffer, name)
        self.mem.write_u32(nSize, len(name) - 1)
        return 1

    def SetComputerNameA(self, lpComputerName: int) -> int:
        name = self._scan_string(lpComputerName)
        if not name or len(name) > 15 or any(c in name for c in " \\/:*?\"<>|"):
            return self.fail(W.ERROR_INVALID_PARAMETER)
        return 1

    def GetSystemDirectoryA(self, lpBuffer: int, uSize: int) -> int:
        return self._copy_path_out("C:\\WINDOWS\\SYSTEM", lpBuffer, uSize)

    def GetWindowsDirectoryA(self, lpBuffer: int, uSize: int) -> int:
        return self._copy_path_out("C:\\WINDOWS", lpBuffer, uSize)

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------

    def _write_systemtime(self, address: int) -> None:
        from repro.libc.time_funcs import _civil_from_unix

        year, mon, day, hour, minute, sec, wday, _ = _civil_from_unix(
            self.machine.clock.unix_seconds()
        )
        fields = [year, mon + 1, wday, day, hour, minute, sec, 0]
        blob = b"".join(f.to_bytes(2, "little") for f in fields)
        self.mem.write(address, blob)  # user-mode store (shared data page)

    def GetSystemTime(self, lpSystemTime: int) -> None:
        self._write_systemtime(lpSystemTime)

    def GetLocalTime(self, lpSystemTime: int) -> None:
        self._write_systemtime(lpSystemTime)

    def _set_time_common(self, func: str, lpSystemTime: int) -> int:
        raw = self.copy_in(func, lpSystemTime, 16)
        if raw is None:
            return self.fail(W.ERROR_NOACCESS)
        year = int.from_bytes(raw[0:2], "little")
        month = int.from_bytes(raw[2:4], "little")
        day = int.from_bytes(raw[6:8], "little")
        if not (1601 <= year <= 30827 and 1 <= month <= 12 and 1 <= day <= 31):
            if not self.personality.lax_flag_validation:
                return self.fail(W.ERROR_INVALID_PARAMETER)
        return 1

    def SetSystemTime(self, lpSystemTime: int) -> int:
        return self._set_time_common("SetSystemTime", lpSystemTime)

    def SetLocalTime(self, lpSystemTime: int) -> int:
        return self._set_time_common("SetLocalTime", lpSystemTime)

    def GetTickCount(self) -> int:
        return self.machine.clock.tick_count() & _U32

    def GetSystemTimeAsFileTime(self, lpSystemTimeAsFileTime: int) -> None:
        from repro.win32.file_api import EPOCH_DELTA_100NS

        value = self.machine.clock.unix_seconds() * 10_000_000 + EPOCH_DELTA_100NS
        self.mem.write_u64(lpSystemTimeAsFileTime, value)  # user-mode store

    def GetProcessTimes(
        self,
        hProcess: int,
        lpCreationTime: int,
        lpExitTime: int,
        lpKernelTime: int,
        lpUserTime: int,
    ) -> int:
        target = self._process_or_fail(hProcess)
        if target is None:
            return 1 if self.lax_handles else 0
        for pointer in (lpCreationTime, lpExitTime, lpKernelTime, lpUserTime):
            if not self.copy_out("GetProcessTimes", pointer, b"\x00" * 8):
                return self.fail(W.ERROR_NOACCESS)
        return 1

    def GetThreadTimes(
        self,
        hThread: int,
        lpCreationTime: int,
        lpExitTime: int,
        lpKernelTime: int,
        lpUserTime: int,
    ) -> int:
        thread = self._thread_or_fail(hThread)
        if thread is None:
            return 1 if self.lax_handles else 0
        for pointer in (lpCreationTime, lpExitTime, lpKernelTime, lpUserTime):
            if not self.copy_out("GetThreadTimes", pointer, b"\x00" * 8):
                return self.fail(W.ERROR_NOACCESS)
        return 1

    def QueryPerformanceCounter(self, lpPerformanceCount: int) -> int:
        ticks = self.machine.clock.ticks * 1000
        if not self.copy_out(
            "QueryPerformanceCounter", lpPerformanceCount, ticks.to_bytes(8, "little")
        ):
            return self.fail(W.ERROR_NOACCESS)
        return 1

    def QueryPerformanceFrequency(self, lpFrequency: int) -> int:
        if not self.copy_out(
            "QueryPerformanceFrequency", lpFrequency, (1_000_000).to_bytes(8, "little")
        ):
            return self.fail(W.ERROR_NOACCESS)
        return 1

    def GetLastError(self) -> int:
        return self.process.last_error

    def SetLastError(self, dwErrCode: int) -> None:
        # Direct slot write -- not an error *report* by the callee.
        self.process.last_error = dwErrCode & _U32

    # ------------------------------------------------------------------
    # Pointer probes (documented never to fault)
    # ------------------------------------------------------------------

    def IsBadReadPtr(self, lp: int, ucb: int) -> int:
        size = ucb & _U32
        if size == 0:
            return 0
        return 0 if self.mem.is_mapped(lp & _U32, min(size, 1 << 20)) else 1

    def IsBadWritePtr(self, lp: int, ucb: int) -> int:
        from repro.sim.memory import Protection

        size = ucb & _U32
        if size == 0:
            return 0
        region = self.mem.find(lp)
        if region is None or (lp & _U32) + min(size, 1 << 20) > region.end:
            return 1
        return 0 if region.protection & Protection.WRITE else 1

    def IsBadStringPtrA(self, lpsz: int, ucchMax: int) -> int:
        if lpsz == 0:
            return 1
        cursor = lpsz & _U32
        remaining = min(ucchMax & _U32, 1 << 16)
        while remaining:
            data, found = self.mem.window(cursor, 1, remaining)
            if found:
                return 0
            if data:
                cursor += len(data)
                remaining -= len(data)
                continue
            # Region edge: the per-byte probe decides (an unmapped byte
            # is bad; a mapped but unreadable one faults in user mode).
            if not self.mem.is_mapped(cursor, 1):
                return 1
            if self.mem.read(cursor, 1) == b"\x00":
                return 0
            cursor += 1
            remaining -= 1
        return 0
