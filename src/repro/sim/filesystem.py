"""In-memory filesystem shared by the POSIX, Win32, and C stdio layers.

One :class:`FileSystem` belongs to one :class:`~repro.sim.machine.Machine`
and survives across simulated processes (so a file created by a Ballista
test-value constructor in one test case exists for the call under test,
and lingering files are visible as cleanup bugs).  Windows personalities
resolve paths case-insensitively and accept both separators; POSIX
resolves case-sensitively.
"""

from __future__ import annotations

from typing import Callable, Iterator


class FileSystemError(Exception):
    """Filesystem-level error with a POSIX-style symbolic code.

    The OS layers translate ``code`` into ``errno`` values or Win32
    ``GetLastError`` codes.
    """

    def __init__(self, code: str, path: str = "") -> None:
        self.code = code  # e.g. "ENOENT", "EEXIST", "EISDIR", "EACCES"
        self.path = path
        super().__init__(f"{code}: {path!r}")


class Node:
    """Base class for filesystem nodes."""

    __slots__ = (
        "name",
        "created_at",
        "modified_at",
        "accessed_at",
        "read_only",
        "hidden",
        "protected",
        "mode",
    )

    is_directory = False

    def __init__(self, name: str, now: int) -> None:
        self.name = name
        self.created_at = now
        self.modified_at = now
        self.accessed_at = now
        self.read_only = False
        self.hidden = False
        #: System nodes created at boot cannot be renamed or removed by
        #: an unprivileged process (EACCES), like /tmp on a real system.
        self.protected = False
        self.mode = 0o644


class FileNode(Node):
    """A regular file: the bytes written to it plus attributes.

    The content is ``size`` bytes long: ``body`` holds the bytes that
    were stored, and ``[len(body), size)`` reads as zero.  Only a
    truncate that grows the file creates that zero tail; a write past
    the stored bytes stores its gap, so a file that was only ever
    written has ``size == len(body)``.  The split is never
    canonicalised (trailing zeros stay in ``body``): the wear image
    records it as it is.  Content goes through :meth:`read`,
    :meth:`write`, :meth:`truncate` and :meth:`assign`; ``data`` is the
    whole content as a read-only copy.

    ``symlink_target`` is only ever set on nodes that model symbolic
    links (the slot exists so the attribute can be attached without a
    per-instance ``__dict__``); read it with ``getattr(..., None)``.
    """

    __slots__ = ("body", "size", "nlink", "symlink_target")

    def __init__(self, name: str, now: int, data: bytes = b"") -> None:
        super().__init__(name, now)
        self.body = bytearray(data)
        self.size = len(self.body)
        self.nlink = 1

    @property
    def data(self) -> bytes:
        """The whole content, zero tail included (a copy)."""
        return bytes(self.body) + bytes(self.size - len(self.body))

    def read(self, start: int, stop: int) -> bytes:
        """``self.data[start:stop]`` (Python slice semantics, negative
        indices too) without building the content."""
        body = self.body
        if self.size == len(body):
            return bytes(body[start:stop])
        start, stop, _ = slice(start, stop).indices(self.size)
        held = len(body)
        if stop <= held or stop <= start:
            return bytes(body[start:stop])
        return bytes(body[start:]) + bytes(stop - max(start, held))

    def write(self, offset: int, data: bytes) -> None:
        """Store ``data`` at ``offset``; a gap past the stored bytes is
        stored as zeros."""
        body = self.body
        end = offset + len(data)
        if end > len(body):
            body.extend(bytes(end - len(body)))
        body[offset:end] = data
        if end > self.size:
            self.size = end

    def truncate(self, length: int) -> None:
        """Cut the content to ``length`` bytes, or grow it with a zero
        tail that stores nothing."""
        if length < len(self.body):
            del self.body[length:]
        self.size = length

    def assign(self, data: bytes, zero_tail: int = 0) -> None:
        """Replace the content with ``data`` followed by ``zero_tail``
        zero bytes."""
        self.body[:] = data
        self.size = len(self.body) + zero_tail


class DirectoryNode(Node):
    __slots__ = ("entries", "_lower")

    is_directory = True

    def __init__(self, name: str, now: int) -> None:
        super().__init__(name, now)
        self.mode = 0o755
        self.entries: dict[str, Node] = {}
        #: Lazily built ``lowered name -> node`` index for
        #: case-insensitive lookups, holding for each folded key the
        #: first entry in insertion order (exactly what the linear scan
        #: it replaces would find).  :meth:`add` and :meth:`remove` keep
        #: it in place; any other mutation of ``entries`` (an insert
        #: that may shadow an existing folded key: rename, link,
        #: restore) must reset it to ``None``.
        self._lower: dict[str, Node] | None = None

    def lookup(self, name: str, case_insensitive: bool) -> Node | None:
        if name in self.entries:
            return self.entries[name]
        if case_insensitive:
            lower = self._lower
            if lower is None:
                lower = {}
                for key, node in self.entries.items():
                    lower.setdefault(key.lower(), node)
                self._lower = lower
            return lower.get(name.lower())
        return None

    def add(self, name: str, node: Node) -> None:
        """Insert ``node`` under a name ``entries`` does not hold yet.
        Appended last, it is first for its folded key only when no
        entry already folds to it."""
        self.entries[name] = node
        lower = self._lower
        if lower is not None:
            lower.setdefault(name.lower(), node)

    def remove(self, name: str, case_insensitive: bool) -> None:
        entries = self.entries
        if name not in entries:
            if not case_insensitive:
                raise KeyError(name)
            lowered = name.lower()
            for key in entries:
                if key.lower() == lowered:
                    name = key
                    break
            else:
                raise KeyError(name)
        lower = self._lower
        if lower is not None:
            if len(lower) == len(entries):
                # Every folded key is unique, this one included.
                del lower[name.lower()]
            else:
                self._lower = None
        del entries[name]


class OpenFile:
    """An open file description: node + offset + access mode.

    Shared by POSIX fds (``dup`` makes two fds share one description),
    Win32 ``FileObject`` handles, and C ``FILE*`` streams.
    """

    __slots__ = (
        "node",
        "readable",
        "writable",
        "append",
        "offset",
        "closed",
        "_now",
    )

    def __init__(
        self,
        node: FileNode,
        readable: bool,
        writable: bool,
        append: bool = False,
        now: Callable[[], int] = lambda: 0,
    ) -> None:
        self.node = node
        self.readable = readable
        self.writable = writable
        self.append = append
        self.offset = 0
        self.closed = False
        self._now = now

    def _require_open(self) -> None:
        if self.closed:
            raise FileSystemError("EBADF", self.node.name)

    def read(self, count: int) -> bytes:
        self._require_open()
        if not self.readable:
            raise FileSystemError("EBADF", self.node.name)
        data = self.node.read(self.offset, self.offset + max(count, 0))
        self.offset += len(data)
        self.node.accessed_at = self._now()
        return data

    def write(self, data: bytes) -> int:
        self._require_open()
        if not self.writable:
            raise FileSystemError("EBADF", self.node.name)
        node = self.node
        if self.append:
            self.offset = node.size
        node.write(self.offset, data)
        self.offset += len(data)
        node.modified_at = self._now()
        return len(data)

    def seek(self, offset: int, whence: int = 0) -> int:
        """``whence``: 0=SET, 1=CUR, 2=END.  Negative results are errors."""
        self._require_open()
        base = {0: 0, 1: self.offset, 2: self.node.size}.get(whence)
        if base is None:
            raise FileSystemError("EINVAL", self.node.name)
        position = base + offset
        if position < 0:
            raise FileSystemError("EINVAL", self.node.name)
        self.offset = position
        return position

    def truncate(self, length: int) -> None:
        self._require_open()
        if length < 0:
            raise FileSystemError("EINVAL", self.node.name)
        self.node.truncate(length)
        self.node.modified_at = self._now()

    def close(self) -> None:
        self.closed = True


class Pipe:
    """An anonymous pipe: bounded FIFO with a read and a write end."""

    __slots__ = ("capacity", "buffer", "read_open", "write_open")

    def __init__(self, capacity: int = 65536) -> None:
        self.capacity = capacity
        self.buffer = bytearray()
        self.read_open = True
        self.write_open = True

    def write(self, data: bytes) -> int:
        if not self.read_open:
            raise FileSystemError("EPIPE", "<pipe>")
        room = self.capacity - len(self.buffer)
        accepted = data[: max(room, 0)]
        self.buffer.extend(accepted)
        return len(accepted)

    def read(self, count: int) -> bytes:
        taken = bytes(self.buffer[: max(count, 0)])
        del self.buffer[: len(taken)]
        return taken


class FileSystem:
    """Machine-wide in-memory filesystem.

    ``max_files`` models disk capacity for heavy-load experiments: once
    that many regular files exist, creating another fails with
    ``ENOSPC`` (``None`` = unlimited, the default).
    """

    def __init__(
        self,
        case_insensitive: bool = False,
        now: Callable[[], int] = lambda: 0,
        max_files: int | None = None,
    ) -> None:
        self.case_insensitive = case_insensitive
        self._now = now
        self.max_files = max_files
        self._file_count = 0
        self._split_cache: dict[str, list[str]] = {}
        self.root = DirectoryNode("", now())
        #: Optional :class:`~repro.sim.faults.FaultInjector` (attached by
        #: the owning machine); armed "disk" faults fail
        #: :meth:`create_file` with ENOSPC.
        self.faults = None

    # ------------------------------------------------------------------
    # Snapshot support
    # ------------------------------------------------------------------

    def clone(self, now: Callable[[], int] | None = None) -> "FileSystem":
        """A deep copy sharing no mutable state with the original -- the
        copy-on-write substrate for machine snapshots: the machine keeps
        one pristine boot image and reverting is cloning it, not
        replaying ``mkdir``/``create_file`` path operations.

        Hard links are preserved: two directory entries reaching one
        :class:`FileNode` in the original share one copied node.  The
        fault injector is deliberately *not* carried over (the owning
        machine re-attaches its own).
        """
        fs = FileSystem.__new__(FileSystem)
        fs.case_insensitive = self.case_insensitive
        fs._now = self._now if now is None else now
        fs.max_files = self.max_files
        fs._file_count = self._file_count
        fs._split_cache = {}
        fs.faults = None
        seen: dict[int, FileNode] = {}

        def copy_node(node: Node) -> Node:
            dup: Node
            if isinstance(node, DirectoryNode):
                dup = DirectoryNode.__new__(DirectoryNode)
                dup.entries = {
                    name: copy_node(child)
                    for name, child in node.entries.items()
                }
                dup._lower = None
            else:
                assert isinstance(node, FileNode)
                cached = seen.get(id(node))
                if cached is not None:
                    return cached
                dup = FileNode.__new__(FileNode)
                dup.body = bytearray(node.body)
                dup.size = node.size
                dup.nlink = node.nlink
                target = getattr(node, "symlink_target", None)
                if target is not None:
                    dup.symlink_target = target  # type: ignore[attr-defined]
                seen[id(node)] = dup
            dup.name = node.name
            dup.created_at = node.created_at
            dup.modified_at = node.modified_at
            dup.accessed_at = node.accessed_at
            dup.read_only = node.read_only
            dup.hidden = node.hidden
            dup.protected = node.protected
            dup.mode = node.mode
            return dup

        fs.root = copy_node(self.root)  # type: ignore[assignment]
        return fs

    # ------------------------------------------------------------------
    # Path handling
    # ------------------------------------------------------------------

    def split(self, path: str) -> list[str]:
        """Normalise a path into components.  Accepts ``/`` always and
        ``\\`` plus drive letters on case-insensitive (Windows)
        filesystems.

        Memoized per raw path string (normalisation is a pure function
        of the path and the filesystem's fixed case mode); callers must
        treat the returned list as read-only.
        """
        cache = self._split_cache
        parts = cache.get(path)
        if parts is not None:
            return parts
        raw = path
        if self.case_insensitive:
            path = path.replace("\\", "/")
            if len(path) >= 2 and path[1] == ":":
                path = path[2:]
        parts = []
        for piece in path.split("/"):
            if piece in ("", "."):
                continue
            if piece == "..":
                if parts:
                    parts.pop()
                continue
            parts.append(piece)
        if len(cache) >= 8192:  # bound memory on very long campaigns
            cache.clear()
        cache[raw] = parts
        return parts

    def _walk(self, parts: list[str]) -> Node | None:
        node: Node = self.root
        for part in parts:
            if not isinstance(node, DirectoryNode):
                return None
            found = node.lookup(part, self.case_insensitive)
            if found is None:
                return None
            node = found
        return node

    def lookup(self, path: str) -> Node | None:
        return self._walk(self.split(path))

    def _parent_of(self, path: str) -> tuple[DirectoryNode, str]:
        parts = self.split(path)
        if not parts:
            raise FileSystemError("EINVAL", path)
        parent = self._walk(parts[:-1])
        if parent is None:
            raise FileSystemError("ENOENT", path)
        if not isinstance(parent, DirectoryNode):
            raise FileSystemError("ENOTDIR", path)
        return parent, parts[-1]

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def create_file(
        self,
        path: str,
        data: bytes = b"",
        exclusive: bool = False,
        zero_tail: int = 0,
    ) -> FileNode:
        """Create ``path`` holding ``data`` then ``zero_tail`` zero
        bytes, or replace an existing file's content with them."""
        parent, name = self._parent_of(path)
        existing = parent.lookup(name, self.case_insensitive)
        if existing is not None:
            if exclusive:
                raise FileSystemError("EEXIST", path)
            if existing.is_directory:
                raise FileSystemError("EISDIR", path)
            assert isinstance(existing, FileNode)
            existing.assign(data, zero_tail)
            existing.modified_at = self._now()
            return existing
        if self.max_files is not None and self._file_count >= self.max_files:
            raise FileSystemError("ENOSPC", path)
        if self.faults is not None and self.faults.trip("disk"):
            raise FileSystemError("ENOSPC", path)
        node = FileNode(name, self._now(), data)
        node.size += zero_tail
        parent.add(name, node)
        self._file_count += 1
        return node

    def copy_file(self, node: FileNode, path: str) -> FileNode:
        """Create (or overwrite) ``path`` with ``node``'s content, split
        as ``node`` holds it: the stored bytes are copied, the zero tail
        only as a length."""
        return self.create_file(
            path, bytes(node.body), zero_tail=node.size - len(node.body)
        )

    def open(
        self,
        path: str,
        readable: bool = True,
        writable: bool = False,
        create: bool = False,
        truncate: bool = False,
        exclusive: bool = False,
        append: bool = False,
    ) -> OpenFile:
        node = self.lookup(path)
        if node is None:
            if not create:
                raise FileSystemError("ENOENT", path)
            node = self.create_file(path, exclusive=exclusive)
        elif exclusive and create:
            raise FileSystemError("EEXIST", path)
        if node.is_directory:
            if writable:
                raise FileSystemError("EISDIR", path)
            raise FileSystemError("EISDIR", path)
        assert isinstance(node, FileNode)
        if writable and node.read_only:
            raise FileSystemError("EACCES", path)
        if truncate and writable:
            node.assign(b"")
        return OpenFile(node, readable, writable, append, now=self._now)

    def unlink(self, path: str) -> None:
        parent, name = self._parent_of(path)
        node = parent.lookup(name, self.case_insensitive)
        if node is None:
            raise FileSystemError("ENOENT", path)
        if node.is_directory:
            raise FileSystemError("EISDIR", path)
        if node.read_only or node.protected:
            raise FileSystemError("EACCES", path)
        parent.remove(name, self.case_insensitive)
        self._file_count = max(0, self._file_count - 1)

    def mkdir(self, path: str) -> DirectoryNode:
        parent, name = self._parent_of(path)
        if parent.lookup(name, self.case_insensitive) is not None:
            raise FileSystemError("EEXIST", path)
        node = DirectoryNode(name, self._now())
        parent.add(name, node)
        return node

    def rmdir(self, path: str) -> None:
        parent, name = self._parent_of(path)
        node = parent.lookup(name, self.case_insensitive)
        if node is None:
            raise FileSystemError("ENOENT", path)
        if not node.is_directory:
            raise FileSystemError("ENOTDIR", path)
        assert isinstance(node, DirectoryNode)
        if node.protected:
            raise FileSystemError("EACCES", path)
        if node.entries:
            raise FileSystemError("ENOTEMPTY", path)
        parent.remove(name, self.case_insensitive)

    def rename(self, old: str, new: str) -> None:
        node = self.lookup(old)
        if node is None:
            raise FileSystemError("ENOENT", old)
        old_parts = self.split(old)
        new_parts = self.split(new)
        if not old_parts:
            raise FileSystemError("EBUSY", old)  # renaming the root
        if node.protected:
            raise FileSystemError("EACCES", old)
        if node.is_directory and new_parts[: len(old_parts)] == old_parts:
            # rename(2) refuses to move a directory into itself.
            raise FileSystemError("EINVAL", new)
        new_parent, new_name = self._parent_of(new)
        existing = new_parent.lookup(new_name, self.case_insensitive)
        if existing is not None and existing.is_directory:
            raise FileSystemError("EISDIR", new)
        old_parent, old_name = self._parent_of(old)
        old_parent.remove(old_name, self.case_insensitive)
        node.name = new_name
        new_parent.entries[new_name] = node
        new_parent._lower = None

    def listdir(self, path: str) -> list[str]:
        node = self.lookup(path)
        if node is None:
            raise FileSystemError("ENOENT", path)
        if not isinstance(node, DirectoryNode):
            raise FileSystemError("ENOTDIR", path)
        return sorted(node.entries)

    def iter_files(self) -> Iterator[tuple[str, FileNode]]:
        """Yield ``(path, node)`` for every regular file (test cleanup
        audits use this)."""

        def recurse(prefix: str, directory: DirectoryNode):
            for name, node in sorted(directory.entries.items()):
                full = f"{prefix}/{name}"
                if isinstance(node, DirectoryNode):
                    yield from recurse(full, node)
                else:
                    assert isinstance(node, FileNode)
                    yield full, node

        yield from recurse("", self.root)
