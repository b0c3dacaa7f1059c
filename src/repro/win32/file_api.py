"""Win32 File/Directory Access API (35 MuTs).

Crash mechanics reproduced here (paper Table 3):

* ``GetFileInformationByHandle`` writes a 52-byte
  ``BY_HANDLE_FILE_INFORMATION`` through the caller pointer in kernel
  mode -- unprotected on Windows 95/98/98 SE.
* ``FileTimeToSystemTime`` reads/writes its structures through an
  unprotected kernel path on Windows 95 only.

Path-taking entry points scan their ANSI strings in *user mode*
(kernel32's ANSI layer), so bad string pointers abort on every variant,
NT included.
"""

from __future__ import annotations

from repro.sim.filesystem import FileSystemError
from repro.win32 import errors as W

_U32 = 0xFFFF_FFFF

GENERIC_READ = 0x8000_0000
GENERIC_WRITE = 0x4000_0000

CREATE_NEW = 1
CREATE_ALWAYS = 2
OPEN_EXISTING = 3
OPEN_ALWAYS = 4
TRUNCATE_EXISTING = 5

FILE_ATTRIBUTE_READONLY = 0x01
FILE_ATTRIBUTE_HIDDEN = 0x02
FILE_ATTRIBUTE_DIRECTORY = 0x10
FILE_ATTRIBUTE_NORMAL = 0x80

#: 100ns intervals between 1601-01-01 and 1970-01-01.
EPOCH_DELTA_100NS = 11_644_473_600 * 10_000_000

MAX_PATH = 260


def _ticks_to_filetime(ticks_ms: int) -> int:
    from repro.sim.clock import EPOCH_UNIX_SECONDS

    return (EPOCH_UNIX_SECONDS + ticks_ms // 1000) * 10_000_000 + EPOCH_DELTA_100NS


class FileApiMixin:
    """CreateFile and friends."""

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _read_security_attributes(self, lpSecurityAttributes: int) -> bool:
        """User-mode read of the SECURITY_ATTRIBUTES length field (NULL
        is legal); returns validity."""
        if lpSecurityAttributes == 0:
            return True
        length = self.mem.read_u32(lpSecurityAttributes)
        if length != 12 and not self.personality.lax_flag_validation:
            return False
        return True

    def _file_object(self, func: str, hFile: int):
        from repro.sim.objects import FileObject

        return self.object_or_fail(hFile, FileObject)

    def _node_attributes(self, node) -> int:
        attrs = 0
        if node.is_directory:
            attrs |= FILE_ATTRIBUTE_DIRECTORY
        if node.read_only:
            attrs |= FILE_ATTRIBUTE_READONLY
        if node.hidden:
            attrs |= FILE_ATTRIBUTE_HIDDEN
        return attrs or FILE_ATTRIBUTE_NORMAL

    # ------------------------------------------------------------------
    # Open / create / delete
    # ------------------------------------------------------------------

    def CreateFileA(
        self,
        lpFileName: int,
        dwDesiredAccess: int,
        dwShareMode: int,
        lpSecurityAttributes: int,
        dwCreationDisposition: int,
        dwFlagsAndAttributes: int,
        hTemplateFile: int,
    ) -> int:
        from repro.sim.objects import FileObject

        path = self._scan_string(lpFileName)
        if not self._read_security_attributes(lpSecurityAttributes):
            return self.fail(W.ERROR_INVALID_PARAMETER, ret=_U32)
        if dwCreationDisposition not in (1, 2, 3, 4, 5):
            if not self.personality.lax_flag_validation:
                return self.fail(W.ERROR_INVALID_PARAMETER, ret=_U32)
            dwCreationDisposition = OPEN_ALWAYS
        if not path:
            return self.fail(W.ERROR_PATH_NOT_FOUND, ret=_U32)
        readable = bool(dwDesiredAccess & GENERIC_READ)
        writable = bool(dwDesiredAccess & GENERIC_WRITE)
        create = dwCreationDisposition in (CREATE_NEW, CREATE_ALWAYS, OPEN_ALWAYS)
        truncate = dwCreationDisposition in (CREATE_ALWAYS, TRUNCATE_EXISTING)
        if create and not writable:
            # Opening for create without write access: querying only.
            writable = True
        try:
            open_file = self.machine.fs.open(
                path,
                readable=readable or not writable,
                writable=writable,
                create=create,
                truncate=truncate and writable,
                exclusive=dwCreationDisposition == CREATE_NEW,
            )
        except FileSystemError as exc:
            return self._fs_fail(exc, ret=_U32)
        handle = self.process.handles.insert(FileObject(open_file, name=path))
        if dwCreationDisposition == CREATE_ALWAYS:
            self.set_last_error(W.ERROR_ALREADY_EXISTS)
        return handle

    def DeleteFileA(self, lpFileName: int) -> int:
        path = self._scan_string(lpFileName)
        try:
            self.machine.fs.unlink(path)
            return 1
        except FileSystemError as exc:
            return self._fs_fail(exc)

    def CopyFileA(self, lpExisting: int, lpNew: int, bFailIfExists: int) -> int:
        src = self._scan_string(lpExisting)
        dst = self._scan_string(lpNew)
        node = self.machine.fs.lookup(src)
        if node is None or node.is_directory:
            return self.fail(W.ERROR_FILE_NOT_FOUND)
        if bFailIfExists and self.machine.fs.lookup(dst) is not None:
            return self.fail(W.ERROR_FILE_EXISTS)
        try:
            self.machine.fs.copy_file(node, dst)
            return 1
        except FileSystemError as exc:
            return self._fs_fail(exc)

    def MoveFileA(self, lpExisting: int, lpNew: int) -> int:
        src = self._scan_string(lpExisting)
        dst = self._scan_string(lpNew)
        if self.machine.fs.lookup(dst) is not None:
            return self.fail(W.ERROR_ALREADY_EXISTS)
        try:
            self.machine.fs.rename(src, dst)
            return 1
        except FileSystemError as exc:
            return self._fs_fail(exc)

    def MoveFileExA(self, lpExisting: int, lpNew: int, dwFlags: int) -> int:
        if not self._flags_valid(dwFlags, 0x1F):
            return self.fail(W.ERROR_INVALID_PARAMETER)
        src = self._scan_string(lpExisting)
        dst = self._scan_string(lpNew)
        replace = bool(dwFlags & 0x1)
        existing = self.machine.fs.lookup(dst)
        if existing is not None:
            if not replace:
                return self.fail(W.ERROR_ALREADY_EXISTS)
            try:
                self.machine.fs.unlink(dst)
            except FileSystemError as exc:
                return self._fs_fail(exc)
        try:
            self.machine.fs.rename(src, dst)
            return 1
        except FileSystemError as exc:
            return self._fs_fail(exc)

    # ------------------------------------------------------------------
    # Directories
    # ------------------------------------------------------------------

    def CreateDirectoryA(self, lpPathName: int, lpSecurityAttributes: int) -> int:
        path = self._scan_string(lpPathName)
        if not self._read_security_attributes(lpSecurityAttributes):
            return self.fail(W.ERROR_INVALID_PARAMETER)
        try:
            self.machine.fs.mkdir(path)
            return 1
        except FileSystemError as exc:
            return self._fs_fail(exc)

    def RemoveDirectoryA(self, lpPathName: int) -> int:
        path = self._scan_string(lpPathName)
        try:
            self.machine.fs.rmdir(path)
            return 1
        except FileSystemError as exc:
            return self._fs_fail(exc)

    def GetCurrentDirectoryA(self, nBufferLength: int, lpBuffer: int) -> int:
        cwd = self.process.cwd.encode("latin-1") + b"\x00"
        if (nBufferLength & _U32) < len(cwd):
            return len(cwd)
        self.mem.write(lpBuffer, cwd)  # user-mode store
        return len(cwd) - 1

    def SetCurrentDirectoryA(self, lpPathName: int) -> int:
        path = self._scan_string(lpPathName)
        node = self.machine.fs.lookup(path)
        if node is None or not node.is_directory:
            return self.fail(W.ERROR_PATH_NOT_FOUND)
        self.process.cwd = path
        return 1

    # ------------------------------------------------------------------
    # Attributes and metadata
    # ------------------------------------------------------------------

    def GetFileAttributesA(self, lpFileName: int) -> int:
        path = self._scan_string(lpFileName)
        node = self.machine.fs.lookup(path)
        if node is None:
            return self.fail(W.ERROR_FILE_NOT_FOUND, ret=_U32)
        return self._node_attributes(node)

    def SetFileAttributesA(self, lpFileName: int, dwFileAttributes: int) -> int:
        if not self._flags_valid(dwFileAttributes, 0xFF):
            return self.fail(W.ERROR_INVALID_PARAMETER)
        path = self._scan_string(lpFileName)
        node = self.machine.fs.lookup(path)
        if node is None:
            return self.fail(W.ERROR_FILE_NOT_FOUND)
        node.read_only = bool(dwFileAttributes & FILE_ATTRIBUTE_READONLY)
        node.hidden = bool(dwFileAttributes & FILE_ATTRIBUTE_HIDDEN)
        return 1

    def GetFileAttributesExA(
        self, lpFileName: int, fInfoLevelId: int, lpFileInformation: int
    ) -> int:
        if fInfoLevelId != 0 and not self.personality.lax_flag_validation:
            return self.fail(W.ERROR_INVALID_PARAMETER)
        path = self._scan_string(lpFileName)
        node = self.machine.fs.lookup(path)
        if node is None:
            return self.fail(W.ERROR_FILE_NOT_FOUND)
        size = 0 if node.is_directory else node.size
        data = (
            self._node_attributes(node).to_bytes(4, "little")
            + _ticks_to_filetime(node.created_at).to_bytes(8, "little")
            + _ticks_to_filetime(node.accessed_at).to_bytes(8, "little")
            + _ticks_to_filetime(node.modified_at).to_bytes(8, "little")
            + (0).to_bytes(4, "little")
            + size.to_bytes(4, "little")
        )
        if not self.copy_out("GetFileAttributesExA", lpFileInformation, data):
            return self.fail(W.ERROR_NOACCESS)
        return 1

    def GetFileSize(self, hFile: int, lpFileSizeHigh: int) -> int:
        obj = self._file_object("GetFileSize", hFile)
        if obj is None:
            return 0 if self.lax_handles else W.INVALID_FILE_SIZE
        if lpFileSizeHigh:
            if not self.copy_out("GetFileSize", lpFileSizeHigh, b"\x00" * 4):
                return self.fail(W.ERROR_NOACCESS, ret=W.INVALID_FILE_SIZE)
        return obj.open_file.node.size

    def GetFileType(self, hFile: int) -> int:
        obj = self._file_object("GetFileType", hFile)
        if obj is None:
            return 1 if self.lax_handles else 0  # FILE_TYPE_UNKNOWN
        return 1  # FILE_TYPE_DISK

    def GetFileInformationByHandle(self, hFile: int, lpFileInformation: int) -> int:
        obj = self._file_object("GetFileInformationByHandle", hFile)
        if obj is None:
            return 1 if self.lax_handles else 0
        node = obj.open_file.node
        data = (
            self._node_attributes(node).to_bytes(4, "little")
            + _ticks_to_filetime(node.created_at).to_bytes(8, "little")
            + _ticks_to_filetime(node.accessed_at).to_bytes(8, "little")
            + _ticks_to_filetime(node.modified_at).to_bytes(8, "little")
            + (0).to_bytes(4, "little")  # volume serial
            + (0).to_bytes(4, "little")  # size high
            + node.size.to_bytes(4, "little")
            + node.nlink.to_bytes(4, "little")
            + (0).to_bytes(8, "little")  # file index
        )
        # Kernel-mode write: unprotected on Windows 95/98/98 SE (Table 3).
        if not self.copy_out("GetFileInformationByHandle", lpFileInformation, data):
            return self.fail(W.ERROR_NOACCESS)
        return 1

    def SetEndOfFile(self, hFile: int) -> int:
        obj = self._file_object("SetEndOfFile", hFile)
        if obj is None:
            return 1 if self.lax_handles else 0
        if not obj.open_file.writable:
            return self.fail(W.ERROR_ACCESS_DENIED)
        obj.open_file.truncate(obj.open_file.offset)
        return 1

    # ------------------------------------------------------------------
    # File times
    # ------------------------------------------------------------------

    def GetFileTime(
        self, hFile: int, lpCreationTime: int, lpLastAccessTime: int, lpLastWriteTime: int
    ) -> int:
        obj = self._file_object("GetFileTime", hFile)
        if obj is None:
            return 1 if self.lax_handles else 0
        node = obj.open_file.node
        for pointer, ticks in (
            (lpCreationTime, node.created_at),
            (lpLastAccessTime, node.accessed_at),
            (lpLastWriteTime, node.modified_at),
        ):
            if pointer == 0:
                continue  # each pointer is optional
            if not self.copy_out(
                "GetFileTime", pointer, _ticks_to_filetime(ticks).to_bytes(8, "little")
            ):
                return self.fail(W.ERROR_NOACCESS)
        return 1

    def SetFileTime(
        self, hFile: int, lpCreationTime: int, lpLastAccessTime: int, lpLastWriteTime: int
    ) -> int:
        obj = self._file_object("SetFileTime", hFile)
        if obj is None:
            return 1 if self.lax_handles else 0
        for pointer in (lpCreationTime, lpLastAccessTime, lpLastWriteTime):
            if pointer == 0:
                continue
            if self.copy_in("SetFileTime", pointer, 8) is None:
                return self.fail(W.ERROR_NOACCESS)
        return 1

    def _filetime_to_systemtime_fields(self, value: int) -> list[int] | None:
        if value < EPOCH_DELTA_100NS:
            return None  # before 1970 -- out of the simulation's range
        seconds = (value - EPOCH_DELTA_100NS) // 10_000_000
        if seconds > 0xFFFF_FFFF:
            return None
        from repro.libc.time_funcs import _civil_from_unix

        year, mon, day, hour, minute, sec, wday, _ = _civil_from_unix(int(seconds))
        if year > 30827:
            return None
        return [year, mon + 1, wday, day, hour, minute, sec, 0]

    def FileTimeToSystemTime(self, lpFileTime: int, lpSystemTime: int) -> int:
        # Unprotected kernel path on Windows 95 (Table 3).
        raw = self.copy_in("FileTimeToSystemTime", lpFileTime, 8)
        if raw is None:
            return self.fail(W.ERROR_NOACCESS)
        fields = self._filetime_to_systemtime_fields(int.from_bytes(raw, "little"))
        if fields is None:
            if self.personality.lax_flag_validation:
                fields = [1980, 1, 2, 1, 0, 0, 0, 0]  # garbage in, garbage out
            else:
                return self.fail(W.ERROR_INVALID_PARAMETER)
        data = b"".join(f.to_bytes(2, "little") for f in fields)
        if not self.copy_out("FileTimeToSystemTime", lpSystemTime, data):
            return self.fail(W.ERROR_NOACCESS)
        return 1

    def SystemTimeToFileTime(self, lpSystemTime: int, lpFileTime: int) -> int:
        raw = self.copy_in("SystemTimeToFileTime", lpSystemTime, 16)
        if raw is None:
            return self.fail(W.ERROR_NOACCESS)
        year = int.from_bytes(raw[0:2], "little")
        month = int.from_bytes(raw[2:4], "little")
        day = int.from_bytes(raw[6:8], "little")
        if not (1601 <= year <= 30827 and 1 <= month <= 12 and 1 <= day <= 31):
            if not self.personality.lax_flag_validation:
                return self.fail(W.ERROR_INVALID_PARAMETER)
        filetime = EPOCH_DELTA_100NS + max(0, year - 1970) * 31_556_952 * 10_000_000
        if not self.copy_out(
            "SystemTimeToFileTime", lpFileTime, (filetime & (2**64 - 1)).to_bytes(8, "little")
        ):
            return self.fail(W.ERROR_NOACCESS)
        return 1

    def FileTimeToLocalFileTime(self, lpFileTime: int, lpLocalFileTime: int) -> int:
        # kernel32 does this arithmetic in user mode.
        value = self.mem.read_u64(lpFileTime)
        self.mem.write_u64(lpLocalFileTime, value)  # simulation runs UTC
        return 1

    def CompareFileTime(self, lpFileTime1: int, lpFileTime2: int) -> int:
        first = self.mem.read_u64(lpFileTime1)  # user-mode reads
        second = self.mem.read_u64(lpFileTime2)
        return (first > second) - (first < second)

    # ------------------------------------------------------------------
    # Find files
    # ------------------------------------------------------------------

    #: WIN32_FIND_DATAA is 320 bytes -- written in user mode by kernel32.
    FIND_DATA_SIZE = 320

    def _write_find_data(self, lpFindFileData: int, name: str, node) -> None:
        data = bytearray(self.FIND_DATA_SIZE)
        data[0:4] = self._node_attributes(node).to_bytes(4, "little")
        size = 0 if node.is_directory else node.size
        data[28:32] = size.to_bytes(4, "little")
        encoded = name.encode("latin-1")[: MAX_PATH - 1]
        data[44 : 44 + len(encoded)] = encoded
        self.mem.write(lpFindFileData, bytes(data))

    def FindFirstFileA(self, lpFileName: int, lpFindFileData: int) -> int:
        from repro.sim.objects import KernelObject

        pattern = self._scan_string(lpFileName)
        directory = pattern.rsplit("/", 1)[0] if "/" in pattern else "/tmp"
        try:
            names = self.machine.fs.listdir(directory or "/")
        except FileSystemError as exc:
            return self._fs_fail(exc, ret=_U32)
        if not names:
            return self.fail(W.ERROR_FILE_NOT_FOUND, ret=_U32)
        search = KernelObject(name=directory)
        search.kind = "find"
        search.pending = list(names)  # type: ignore[attr-defined]
        first = search.pending.pop(0)  # type: ignore[attr-defined]
        node = self.machine.fs.lookup(f"{directory}/{first}")
        self._write_find_data(lpFindFileData, first, node)
        return self.process.handles.insert(search)

    def FindNextFileA(self, hFindFile: int, lpFindFileData: int) -> int:
        obj = self.object_or_fail(hFindFile)
        if obj is None or obj.kind != "find":
            if obj is not None:
                self.set_last_error(W.ERROR_INVALID_HANDLE)
            return 1 if self.lax_handles else 0
        pending = getattr(obj, "pending", [])
        if not pending:
            return self.fail(W.ERROR_NO_MORE_FILES)
        name = pending.pop(0)
        node = self.machine.fs.lookup(f"{obj.name}/{name}")
        if node is None:
            return self.fail(W.ERROR_NO_MORE_FILES)
        self._write_find_data(lpFindFileData, name, node)
        return 1

    def FindClose(self, hFindFile: int) -> int:
        obj = self.object_or_fail(hFindFile)
        if obj is None or obj.kind != "find":
            return 1 if self.lax_handles else 0
        self.process.handles.close(hFindFile & _U32)
        return 1

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------

    def _copy_path_out(self, path: str, lpBuffer: int, nBufferLength: int) -> int:
        """Common bounded path copy-out (user-mode store)."""
        encoded = path.encode("latin-1") + b"\x00"
        if (nBufferLength & _U32) < len(encoded):
            return len(encoded)  # required size, nothing written
        self.mem.write(lpBuffer, encoded)
        return len(encoded) - 1

    def GetFullPathNameA(
        self, lpFileName: int, nBufferLength: int, lpBuffer: int, lpFilePart: int
    ) -> int:
        path = self._scan_string(lpFileName)
        if not path:
            return self.fail(W.ERROR_INVALID_PARAMETER)
        parts = self.machine.fs.split(path)
        full = "/" + "/".join(parts)
        written = self._copy_path_out(full, lpBuffer, nBufferLength)
        if written == len(full) and lpFilePart:
            tail = full.rsplit("/", 1)[-1]
            self.mem.write_u32(lpFilePart, lpBuffer + len(full) - len(tail))
        return written

    def GetTempPathA(self, nBufferLength: int, lpBuffer: int) -> int:
        return self._copy_path_out("/tmp/", lpBuffer, nBufferLength)

    def GetTempFileNameA(
        self, lpPathName: int, lpPrefixString: int, uUnique: int, lpTempFileName: int
    ) -> int:
        directory = self._scan_string(lpPathName)
        prefix = self._scan_string(lpPrefixString)[:3]
        node = self.machine.fs.lookup(directory)
        if node is None or not node.is_directory:
            return self.fail(W.ERROR_PATH_NOT_FOUND)
        unique = (uUnique & 0xFFFF) or (self.process.pid & 0xFFFF)
        name = f"{directory}/{prefix}{unique:04X}.TMP"
        if (uUnique & 0xFFFF) == 0:
            try:
                self.machine.fs.create_file(name, exclusive=False)
            except FileSystemError as exc:
                return self._fs_fail(exc)
        # The output buffer must hold MAX_PATH characters -- kernel32
        # writes it in user mode without a length parameter.
        encoded = name.encode("latin-1") + b"\x00"
        self.mem.write(lpTempFileName, encoded.ljust(MAX_PATH, b"\x00"))
        return unique

    def SearchPathA(
        self,
        lpPath: int,
        lpFileName: int,
        lpExtension: int,
        nBufferLength: int,
        lpBuffer: int,
        lpFilePart: int,
    ) -> int:
        directory = self._scan_string(lpPath) if lpPath else "/tmp"
        name = self._scan_string(lpFileName)
        extension = self._scan_string(lpExtension) if lpExtension else ""
        candidate = f"{directory}/{name}{extension}" if name else ""
        if candidate and self.machine.fs.lookup(candidate) is not None:
            written = self._copy_path_out(candidate, lpBuffer, nBufferLength)
            if lpFilePart and written == len(candidate):
                self.mem.write_u32(lpFilePart, lpBuffer)
            return written
        return self.fail(W.ERROR_FILE_NOT_FOUND)

    def GetShortPathNameA(
        self, lpszLongPath: int, lpszShortPath: int, cchBuffer: int
    ) -> int:
        path = self._scan_string(lpszLongPath)
        if self.machine.fs.lookup(path) is None:
            return self.fail(W.ERROR_FILE_NOT_FOUND)
        return self._copy_path_out(path, lpszShortPath, cchBuffer)

    # ------------------------------------------------------------------
    # Volumes and misc
    # ------------------------------------------------------------------

    def GetDriveTypeA(self, lpRootPathName: int) -> int:
        if lpRootPathName == 0:
            return 3  # DRIVE_FIXED (NULL means the current root)
        root = self._scan_string(lpRootPathName)
        if root in ("/", "C:\\", "c:\\", "\\"):
            return 3
        node = self.machine.fs.lookup(root)
        return 3 if node is not None and node.is_directory else 1  # DRIVE_NO_ROOT_DIR

    def GetDiskFreeSpaceA(
        self,
        lpRootPathName: int,
        lpSectorsPerCluster: int,
        lpBytesPerSector: int,
        lpNumberOfFreeClusters: int,
        lpTotalNumberOfClusters: int,
    ) -> int:
        if lpRootPathName:
            root = self._scan_string(lpRootPathName)
            node = self.machine.fs.lookup(root)
            if node is None or not node.is_directory:
                if root not in ("/", "\\"):
                    return self.fail(W.ERROR_PATH_NOT_FOUND)
        for pointer, value in (
            (lpSectorsPerCluster, 8),
            (lpBytesPerSector, 512),
            (lpNumberOfFreeClusters, 0x10000),
            (lpTotalNumberOfClusters, 0x20000),
        ):
            if pointer == 0:
                continue
            if not self.copy_out(
                "GetDiskFreeSpaceA", pointer, value.to_bytes(4, "little")
            ):
                return self.fail(W.ERROR_NOACCESS)
        return 1

    def GetLogicalDrives(self) -> int:
        return 0b100  # just C:

    def AreFileApisANSI(self) -> int:
        return 1

    def SetHandleCount(self, uNumber: int) -> int:
        return min(uNumber & _U32, 256)
