"""Differential test: file contents held as stored bytes plus a zero
tail, against the dense ``bytearray`` file they replaced.

A :class:`~repro.sim.filesystem.FileNode` stores the bytes written to
it (``body``) and a logical ``size``; a truncate that grows the file
stores nothing, and ``[len(body), size)`` reads as zero.  The claim is
that this is invisible: every read, seek, write, truncate, mmap slice,
copy and clone sees the same content as the dense file that extended
itself with real zeros -- kept below, verbatim, as the oracle.  The
wear image round-trips the split exactly, and the failure-atomicity
residue changes exactly when some file's content does.
"""

from __future__ import annotations

import base64

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.core.context import TestContext
from repro.core.results_io import wear_fingerprint
from repro.libc.runtime import CONSOLE_INPUT
from repro.posix.linux import LINUX
from repro.posix.mem_calls import MAP_FAILED, MAP_PRIVATE, PROT_READ
from repro.sim.filesystem import FileSystemError
from repro.sim.machine import Machine
from repro.win32.variants import WINNT

PAGE = 4096

# ----------------------------------------------------------------------
# Oracle: the dense file and its open-file methods, verbatim
# ----------------------------------------------------------------------


class DenseFile:
    """A file whose content is one bytearray, zeros included."""

    def __init__(self, data: bytes = b"") -> None:
        self.data = bytearray(data)


class DenseOpenFile:
    """``OpenFile``'s content methods over a :class:`DenseFile`."""

    def __init__(self, node: DenseFile, append: bool) -> None:
        self.node = node
        self.append = append
        self.offset = 0

    def read(self, count: int) -> bytes:
        data = bytes(self.node.data[self.offset : self.offset + max(count, 0)])
        self.offset += len(data)
        return data

    def write(self, data: bytes) -> int:
        if self.append:
            self.offset = len(self.node.data)
        end = self.offset + len(data)
        if end > len(self.node.data):
            self.node.data.extend(b"\x00" * (end - len(self.node.data)))
        self.node.data[self.offset : end] = data
        self.offset = end
        return len(data)

    def seek(self, offset: int, whence: int = 0) -> int:
        base = {0: 0, 1: self.offset, 2: len(self.node.data)}.get(whence)
        if base is None:
            raise FileSystemError("EINVAL", "")
        position = base + offset
        if position < 0:
            raise FileSystemError("EINVAL", "")
        self.offset = position
        return position

    def truncate(self, length: int) -> None:
        if length < 0:
            raise FileSystemError("EINVAL", "")
        if length <= len(self.node.data):
            del self.node.data[length:]
        else:
            self.node.data.extend(b"\x00" * (length - len(self.node.data)))


def outcome(call, *args):
    try:
        return ("ok", call(*args))
    except FileSystemError as exc:
        return ("error", exc.code)


# ----------------------------------------------------------------------
# The state machine
# ----------------------------------------------------------------------

_PATHS = st.sampled_from(["/tmp/a", "/tmp/b", "/tmp/c"])
_PAYLOADS = st.binary(max_size=48) | st.builds(bytes, st.integers(0, 48))
_LENGTHS = st.integers(-2, 3 * PAGE) | st.sampled_from([0, 1, PAGE, PAGE + 1])
_POSITIONS = st.integers(-3 * PAGE, 3 * PAGE)
_MMAP_OFFSETS = st.sampled_from([-(2**31), -2 * PAGE, -PAGE, 0, PAGE, 2 * PAGE])


class SparseFileMachine(RuleBasedStateMachine):
    """Files on a Linux machine, each op mirrored onto the dense oracle."""

    handles = Bundle("handles")

    def __init__(self) -> None:
        super().__init__()
        self.machine = Machine(LINUX)
        self.ctx = TestContext(self.machine, self.machine.spawn_process())
        #: Oracle files by path, in creation order (the directory's).
        self.dense: dict[str, DenseFile] = {}
        self.residue = self.machine.wear_residue()
        self.contents: list = []

    @property
    def fs(self):
        return self.machine.fs

    def _dense_create(self, path: str, data: bytes) -> DenseFile:
        dense = self.dense.get(path)
        if dense is None:
            dense = self.dense[path] = DenseFile(data)
        else:
            dense.data[:] = data
        return dense

    @rule(path=_PATHS, data=_PAYLOADS)
    def create(self, path, data):
        self.fs.create_file(path, data)
        self._dense_create(path, data)

    @rule(target=handles, path=_PATHS, truncate=st.booleans(), append=st.booleans())
    def open(self, path, truncate, append):
        sparse = self.fs.open(
            path,
            writable=True,
            create=True,
            truncate=truncate,
            append=append,
        )
        dense = self.dense.get(path) or self._dense_create(path, b"")
        if truncate:
            del dense.data[:]
        return sparse, DenseOpenFile(dense, append)

    @rule(path=_PATHS)
    def unlink(self, path):
        result = outcome(self.fs.unlink, path)
        assert (result[0] == "ok") == (path in self.dense)
        self.dense.pop(path, None)

    @rule(handle=handles, data=_PAYLOADS)
    def write(self, handle, data):
        sparse, dense = handle
        assert sparse.write(data) == dense.write(data)
        assert sparse.offset == dense.offset

    @rule(handle=handles, offset=_POSITIONS, whence=st.integers(-1, 3))
    def seek(self, handle, offset, whence):
        sparse, dense = handle
        assert outcome(sparse.seek, offset, whence) == outcome(
            dense.seek, offset, whence
        )
        assert sparse.offset == dense.offset

    @rule(handle=handles, count=st.integers(-1, 3 * PAGE))
    def read(self, handle, count):
        sparse, dense = handle
        assert sparse.read(count) == dense.read(count)
        assert sparse.offset == dense.offset

    @rule(handle=handles, length=_LENGTHS)
    def truncate(self, handle, length):
        sparse, dense = handle
        assert outcome(sparse.truncate, length) == outcome(dense.truncate, length)

    @rule(handle=handles, count=st.integers(0, 48))
    def zero_write_into_tail(self, handle, count):
        """Zeros written into a zero tail move the split, not the
        content: the residue invariant must not see it."""
        sparse, dense = handle
        node = sparse.node
        tail = node.size - len(node.body)
        if tail <= 0 or sparse.append:
            return
        position = len(node.body) + tail // 2
        sparse.seek(position)
        dense.seek(position)
        zeros = bytes(min(count, node.size - position))
        assert sparse.write(zeros) == dense.write(zeros)
        assert node.size == len(dense.node.data)

    @rule(handle=handles, start=_POSITIONS, stop=_POSITIONS)
    def slice_read(self, handle, start, stop):
        sparse, dense = handle
        assert sparse.node.read(start, stop) == bytes(dense.node.data[start:stop])

    @rule(handle=handles, offset=_MMAP_OFFSETS, length=st.integers(1, 3 * PAGE))
    def mmap(self, handle, offset, length):
        """``mmap`` maps the file's slice at ``offset``, Python slice
        semantics included: a negative offset reads from the end."""
        sparse, dense = handle
        expected = bytes(dense.node.data[offset : offset + length])
        assert sparse.node.read(offset, offset + length) == expected
        fds = self.ctx.process.fds
        fd = max(fds) + 1
        fds[fd] = sparse
        try:
            address = self.ctx.posix.mmap(0, length, PROT_READ, MAP_PRIVATE, fd, offset)
            assert address != MAP_FAILED
            mapped = self.ctx.mem.read(address, length)
            assert mapped == expected.ljust(length, b"\x00")
            assert self.ctx.posix.munmap(address, length) == 0
        finally:
            del fds[fd]

    @rule(src=_PATHS, dst=_PATHS)
    def copy(self, src, dst):
        node = self.fs.lookup(src)
        if node is None:
            return
        copy = self.fs.copy_file(node, dst)
        self._dense_create(dst, bytes(self.dense[src].data))
        assert (copy.body, copy.size) == (node.body, node.size)

    @rule(offset=st.integers(0, 64), data=_PAYLOADS, grow=st.integers(0, PAGE))
    def clone(self, offset, data, grow):
        """A clone holds every file split as the original does, and
        writing or growing the clone's file leaves the original's."""
        clone = self.fs.clone()
        for path in self.dense:
            original, twin = self.fs.lookup(path), clone.lookup(path)
            assert twin is not original and twin.body is not original.body
            assert (twin.body, twin.size) == (original.body, original.size)
            twin.write(offset, data)
            twin.truncate(twin.size + grow)
        for path, dense in self.dense.items():
            assert self.fs.lookup(path).data == bytes(dense.data)

    @rule()
    def wear_round_trip(self):
        """Capture -> restore -> capture is the identity, and the image
        holds stored bytes and tail lengths, never the tail's zeros."""
        wear = self.machine.wear_state()
        fresh = Machine(LINUX)
        fresh.restore_wear(wear)
        assert wear_fingerprint(fresh.wear_state()) == wear_fingerprint(wear)
        for entry in wear["fs"]["nodes"]:
            if entry["type"] == "file":
                node = self.fs.lookup(entry["path"])
                assert base64.b64decode(entry["data"]) == node.body
                assert entry.get("zero_tail", 0) == node.size - len(node.body)
        for path, dense in self.dense.items():
            assert fresh.fs.lookup(path).data == bytes(dense.data)

    @invariant()
    def contents_match_the_oracle(self):
        files = {path: node for path, node in self.fs.iter_files()}
        for path, dense in self.dense.items():
            node = files.pop(path)
            assert node.size == len(dense.data)
            assert node.data == bytes(dense.data)
        assert set(files) == {"/etc_passwd"}

    @invariant()
    def residue_changes_exactly_with_contents(self):
        """The machine's clock stands still here, so no timestamp moves:
        the residue may change only when a file's content (or the file
        population, in directory order) does."""
        residue = self.machine.wear_residue()
        contents = [(path, bytes(d.data)) for path, d in self.dense.items()]
        assert (residue == self.residue) == (contents == self.contents)
        self.residue, self.contents = residue, contents


SparseFileMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)
TestSparseFileMachine = SparseFileMachine.TestCase


# ----------------------------------------------------------------------
# The content sites outside the filesystem
# ----------------------------------------------------------------------


def grown_file(machine: Machine, path: str, body: bytes, size: int):
    node = machine.fs.create_file(path, body)
    machine.fs.open(path, writable=True).truncate(size)
    return node


class TestContentSites:
    def test_truncate_grow_stores_nothing(self):
        machine = Machine(LINUX)
        node = grown_file(machine, "/tmp/big", b"abc", 1 << 24)
        assert node.body == b"abc" and node.size == 1 << 24
        assert node.read((1 << 24) - 2, 1 << 25) == b"\x00\x00"

    def test_posix_truncate_leaves_a_tail(self):
        machine = Machine(LINUX)
        ctx = TestContext(machine, machine.spawn_process())
        machine.fs.create_file("/tmp/t", b"xy")
        assert ctx.posix.truncate(ctx.cstring(b"/tmp/t"), 1 << 30) == 0
        node = machine.fs.lookup("/tmp/t")
        assert (bytes(node.body), node.size) == (b"xy", 1 << 24)

    def test_copy_file_a_copies_the_split(self):
        machine = Machine(WINNT)
        ctx = TestContext(machine, machine.spawn_process())
        src = grown_file(machine, "/tmp/src", b"\x00q", 5000)
        assert ctx.win32.CopyFileA(ctx.cstring(b"/tmp/src"), ctx.cstring(b"/tmp/dst"), 0) == 1
        dst = machine.fs.lookup("/tmp/dst")
        assert (dst.body, dst.size) == (src.body, src.size)

    def test_get_file_size_counts_the_tail(self):
        machine = Machine(WINNT)
        ctx = TestContext(machine, machine.spawn_process())
        grown_file(machine, "/tmp/s", b"abcd", 777)
        handle = ctx.win32.CreateFileA(
            ctx.cstring(b"/tmp/s"), 0x80000000, 0, 0, 3, 0x80, 0
        )
        assert ctx.win32.GetFileSize(handle, 0) == 777

    def test_data_is_read_only(self):
        node = Machine(LINUX).fs.create_file("/tmp/r", b"ab")
        assert node.data == b"ab"
        with pytest.raises(AttributeError):
            node.data = b"x"  # type: ignore[misc]

    def test_stdin_boots_with_console_input(self):
        machine = Machine(LINUX)
        for _ in range(2):  # cold boot, then the reused process image
            ctx = TestContext(machine, machine.spawn_process())
            assert ctx.crt  # boots the C runtime
            console = ctx.process.fds[0].node
            assert (bytes(console.body), console.size) == (
                CONSOLE_INPUT,
                len(CONSOLE_INPUT),
            )
            ctx.process.terminate()
            machine.retire_process(ctx.process, ctx.crt)
