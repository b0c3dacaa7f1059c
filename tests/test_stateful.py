"""Model-based (stateful) property tests.

Each machine subsystem is driven through random operation sequences by
hypothesis while a trivial Python model predicts the outcome -- the
classic oracle pattern for catching state-dependent bugs, which is
exactly the failure class the paper's ``*`` crashes live in.
"""

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
from repro.posix.linux import LINUX
from repro.sim.errors import AccessViolation
from repro.sim.filesystem import DirectoryNode, FileSystem, FileSystemError
from repro.sim.machine import Machine
from repro.sim.objects import EventObject, HandleTable

_NAMES = st.sampled_from(["a", "b", "c", "sub", "Data.txt"])
_PAYLOADS = st.binary(max_size=32)


class FileSystemModel(RuleBasedStateMachine):
    """FileSystem vs a flat dict oracle {path: bytes | DIR}."""

    DIR = object()

    def __init__(self):
        super().__init__()
        self.fs = FileSystem()
        self.fs.mkdir("/d")
        self.model = {"/d": self.DIR}

    def _parent_exists(self, path: str) -> bool:
        parent = path.rsplit("/", 1)[0]
        return parent == "" or self.model.get(parent) is self.DIR

    @rule(name=_NAMES, data=_PAYLOADS, under=st.sampled_from(["", "/d"]))
    def create_file(self, name, data, under):
        path = f"{under}/{name}"
        expected_dir = self.model.get(path) is self.DIR
        try:
            self.fs.create_file(path, data)
            assert not expected_dir
            self.model[path] = bytes(data)
        except FileSystemError as exc:
            assert expected_dir or not self._parent_exists(path), exc.code

    @rule(name=_NAMES, under=st.sampled_from(["", "/d"]))
    def mkdir(self, name, under):
        path = f"{under}/{name}"
        try:
            self.fs.mkdir(path)
            assert path not in self.model
            self.model[path] = self.DIR
        except FileSystemError:
            assert path in self.model or not self._parent_exists(path)

    @rule(name=_NAMES, under=st.sampled_from(["", "/d"]))
    def unlink(self, name, under):
        path = f"{under}/{name}"
        entry = self.model.get(path)
        try:
            self.fs.unlink(path)
            assert entry is not None and entry is not self.DIR
            del self.model[path]
        except FileSystemError:
            assert entry is None or entry is self.DIR

    @rule(name=_NAMES, under=st.sampled_from(["", "/d"]))
    def read_back(self, name, under):
        path = f"{under}/{name}"
        entry = self.model.get(path)
        node = self.fs.lookup(path)
        if entry is None:
            assert node is None
        elif entry is self.DIR:
            assert node is not None and node.is_directory
        else:
            assert node is not None and bytes(node.data) == entry

    @invariant()
    def file_listing_matches(self):
        actual = {path for path, _ in self.fs.iter_files()}
        expected = {
            path for path, entry in self.model.items() if entry is not self.DIR
        }
        assert actual == expected


class HeapModel(RuleBasedStateMachine):
    """CRT malloc/free vs a set of live (address, size) blocks."""

    blocks = Bundle("blocks")

    def __init__(self):
        super().__init__()
        machine = Machine(LINUX)
        self.ctx = TestContext(machine, machine.spawn_process())
        self.crt = self.ctx.crt
        self.live: dict[int, int] = {}

    @rule(target=blocks, size=st.integers(min_value=0, max_value=512))
    def malloc(self, size):
        address = self.crt.malloc(size)
        assert address != 0
        self.live[address] = size
        return address

    @rule(address=blocks)
    def free(self, address):
        if address not in self.live:
            return  # already freed through another path
        assert self.crt.free(address) == 0
        del self.live[address]
        with pytest.raises(AccessViolation):
            self.ctx.mem.read(address, 1)

    @rule(address=blocks, data=_PAYLOADS)
    def write_into_block(self, address, data):
        size = self.live.get(address)
        if size is None or size == 0:
            return
        payload = data[:size]
        if payload:
            self.ctx.mem.write(address, payload)
            assert self.ctx.mem.read(address, len(payload)) == payload

    @invariant()
    def live_blocks_do_not_overlap(self):
        spans = sorted(
            (address, address + max(size, 1)) for address, size in self.live.items()
        )
        for (_, first_end), (second_start, _) in zip(spans, spans[1:]):
            assert first_end <= second_start

    @invariant()
    def live_blocks_are_readable(self):
        for address, size in self.live.items():
            self.ctx.mem.read(address, max(size, 1))


class HandleTableModel(RuleBasedStateMachine):
    """HandleTable vs a dict {handle: object-id}."""

    handles = Bundle("handles")

    def __init__(self):
        super().__init__()
        self.table = HandleTable()
        self.model: dict[int, int] = {}
        self.objects: dict[int, EventObject] = {}

    @rule(target=handles)
    def insert(self):
        event = EventObject(True, False)
        handle = self.table.insert(event)
        assert handle not in self.model
        self.model[handle] = event.object_id
        self.objects[event.object_id] = event
        return handle

    @rule(target=handles, source=handles)
    def duplicate(self, source):
        obj = self.table.get(source)
        if obj is None:
            return source  # stale handle: nothing duplicated
        handle = self.table.insert(obj)
        self.model[handle] = obj.object_id
        return handle

    @rule(handle=handles)
    def close(self, handle):
        expected = handle in self.model
        assert self.table.close(handle) == expected
        if expected:
            object_id = self.model.pop(handle)
            still_referenced = object_id in self.model.values()
            assert self.objects[object_id].destroyed != still_referenced

    @rule(handle=handles)
    def resolve(self, handle):
        obj = self.table.get(handle)
        if handle in self.model:
            assert obj is not None and obj.object_id == self.model[handle]
        else:
            assert obj is None

    @invariant()
    def table_size_matches(self):
        assert len(self.table) == len(self.model)


_FOLDED_NAMES = st.sampled_from(["a", "A", "b", "B", "Data.txt", "DATA.TXT"])
_DIRS = st.sampled_from(["", "/d", "/D", "/a", "/B"])


def _rebuilt_index(directory: DirectoryNode) -> dict:
    lower: dict = {}
    for key, node in directory.entries.items():
        lower.setdefault(key.lower(), node)
    return lower


def _linear_lookup(directory: DirectoryNode, name: str):
    if name in directory.entries:
        return directory.entries[name]
    lowered = name.lower()
    for key, node in directory.entries.items():
        if key.lower() == lowered:
            return node
    return None


class CaseFoldIndexModel(RuleBasedStateMachine):
    """A case-insensitive FileSystem's folded-name index (kept in place
    by create/mkdir/unlink/rmdir, dropped by rename and link) vs a
    from-scratch rebuild, and its lookups vs a linear scan, on names
    that differ only in case."""

    def __init__(self):
        super().__init__()
        machine = Machine(LINUX)
        machine.fs = self.fs = FileSystem(case_insensitive=True)
        self.fs.mkdir("/d")
        self.ctx = TestContext(machine, machine.spawn_process())

    @rule(name=_FOLDED_NAMES, under=_DIRS, data=_PAYLOADS)
    def create_file(self, name, under, data):
        try:
            self.fs.create_file(f"{under}/{name}", data)
        except FileSystemError:
            pass

    @rule(name=_FOLDED_NAMES, under=_DIRS)
    def mkdir(self, name, under):
        try:
            self.fs.mkdir(f"{under}/{name}")
        except FileSystemError:
            pass

    @rule(name=_FOLDED_NAMES, under=_DIRS)
    def unlink(self, name, under):
        try:
            self.fs.unlink(f"{under}/{name}")
        except FileSystemError:
            pass

    @rule(name=_FOLDED_NAMES, under=_DIRS)
    def rmdir(self, name, under):
        try:
            self.fs.rmdir(f"{under}/{name}")
        except FileSystemError:
            pass

    @rule(old=_FOLDED_NAMES, new=_FOLDED_NAMES, src=_DIRS, dst=_DIRS)
    def rename(self, old, new, src, dst):
        try:
            self.fs.rename(f"{src}/{old}", f"{dst}/{new}")
        except FileSystemError:
            pass

    @rule(old=_FOLDED_NAMES, new=_FOLDED_NAMES, src=_DIRS, dst=_DIRS)
    def link(self, old, new, src, dst):
        self.ctx.posix.link(
            self.ctx.cstring(f"{src}/{old}".encode()),
            self.ctx.cstring(f"{dst}/{new}".encode()),
        )

    def _directories(self):
        pending = [self.fs.root]
        while pending:
            directory = pending.pop()
            yield directory
            pending.extend(
                node
                for node in directory.entries.values()
                if isinstance(node, DirectoryNode)
            )

    @invariant()
    def index_matches_rebuild_and_lookups_match_linear_scan(self):
        for directory in list(self._directories()):
            if directory._lower is not None:
                assert directory._lower == _rebuilt_index(directory)
            for name in ("a", "A", "b", "B", "d", "D", "data.txt", "DATA.TXT"):
                assert directory.lookup(name, True) is _linear_lookup(
                    directory, name
                )


FileSystemModelTest = FileSystemModel.TestCase
HeapModelTest = HeapModel.TestCase
HandleTableModelTest = HandleTableModel.TestCase
CaseFoldIndexModelTest = CaseFoldIndexModel.TestCase

for test_case in (
    FileSystemModelTest,
    HeapModelTest,
    HandleTableModelTest,
    CaseFoldIndexModelTest,
):
    test_case.settings = settings(
        max_examples=30, stateful_step_count=30, deadline=None
    )
# The loop variable would otherwise stay bound at module level, and
# pytest would collect it as a fifth test that re-runs the last model.
del test_case
