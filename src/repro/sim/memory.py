"""A 32-bit virtual address space with regions, protections, and faults.

The simulated C library and OS kernels never hold Python references to
buffers; they hold integer *addresses* and go through an
:class:`AddressSpace` for every load and store.  This is what lets the
Ballista test values include genuinely exceptional pointers -- ``NULL``,
``-1``, unaligned addresses, pointers into freed or read-only regions,
pointers to buffers with no terminator -- and have the implementations
fault (or not) exactly where a real machine would.

Layout (loosely mirroring 32-bit Windows / Linux):

===================  =====================================================
``0x00000000``       NULL page, never mapped
``0x00400000``       user allocations (bump-allocated)
``0x7FFE0000``       top of per-process user space
``0x80000000``       shared system arena (Windows 9x / CE personalities
                     map kernel structures here, writable by user code)
``0xC0000000``       kernel space, never accessible from user mode
===================  =====================================================
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from typing import Iterator

from repro.sim.errors import AccessViolation, MisalignedAccess

ADDRESS_MASK = 0xFFFFFFFF

NULL = 0
USER_BASE = 0x0040_0000
USER_LIMIT = 0x7FFE_0000
SHARED_BASE = 0x8000_0000
SHARED_LIMIT = 0xBFFF_0000
KERNEL_BASE = 0xC000_0000


class Protection(enum.IntFlag):
    """Page protection bits for a :class:`Region`."""

    NONE = 0
    READ = 1
    WRITE = 2
    EXECUTE = 4

    RW = READ | WRITE
    RX = READ | EXECUTE
    RWX = READ | WRITE | EXECUTE


class Region:
    """A contiguous run of mapped memory.

    Regions may be shared between address spaces (the Windows 9x shared
    arena is one Region aliased into every process), so the backing
    ``data`` bytearray is the unit of sharing.
    """

    __slots__ = (
        "start",
        "size",
        "_protection",
        "_prot",
        "data",
        "tag",
        "freed",
        "version",
    )

    def __init__(
        self,
        start: int,
        size: int,
        protection: Protection,
        tag: str = "",
        data: bytearray | None = None,
    ) -> None:
        if size <= 0:
            raise ValueError(f"region size must be positive, got {size}")
        self.start = start & ADDRESS_MASK
        self.size = size
        # Inlined ``protection`` setter: regions are constructed on the
        # hot allocation path.
        self._protection = protection
        self._prot = int(protection)
        self.tag = tag
        self.data = bytearray(size) if data is None else data
        #: Set when the region has been deallocated but its address is
        #: still circulating as a dangling pointer.
        self.freed = False
        #: Bumped on every store through :meth:`AddressSpace.write` (and
        #: by the few sanctioned direct-``data`` writers); snapshot
        #: caches key on it to skip re-encoding unchanged contents.
        self.version = 0

    @property
    def protection(self) -> Protection:
        return self._protection

    @protection.setter
    def protection(self, value: Protection) -> None:
        # The hot access check compares the plain-int mirror: IntFlag's
        # __and__ allocates a flag instance per check, which profiling
        # shows from every simulated load/store.
        self._protection = value
        self._prot = int(value)

    @property
    def end(self) -> int:
        """One past the last valid address of the region."""
        return self.start + self.size

    def contains(self, address: int) -> bool:
        return self.start <= address < self.end

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Region(0x{self.start:08X}..0x{self.end:08X}, "
            f"{self.protection.name}, tag={self.tag!r})"
        )


class AddressSpace:
    """A per-process (or machine-shared) set of mapped regions.

    All loads/stores by simulated code go through :meth:`read` /
    :meth:`write` (or the typed helpers) and raise
    :class:`~repro.sim.errors.AccessViolation` on unmapped addresses or
    protection mismatches, and
    :class:`~repro.sim.errors.MisalignedAccess` for misaligned wide
    accesses when ``strict_alignment`` is set (the Windows CE / ARM case).
    """

    def __init__(self, strict_alignment: bool = False) -> None:
        self.strict_alignment = strict_alignment
        self._starts: list[int] = []
        self._regions: list[Region] = []
        self._cursor = USER_BASE
        self._shared_cursor = SHARED_BASE
        #: Optional :class:`~repro.sim.faults.FaultInjector` (attached by
        #: the owning process); armed "alloc" faults fail :meth:`map`.
        self.faults = None

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------

    def map(
        self,
        size: int,
        protection: Protection = Protection.RW,
        tag: str = "",
        at: int | None = None,
        shared: bool = False,
    ) -> Region:
        """Map a fresh region and return it.

        :param at: fixed placement address; by default the next free slot
            in the user (or, with ``shared=True``, the shared arena)
            range is used, with an unmapped guard gap after each region
            so off-by-one pointers fault.

        Raises :class:`~repro.sim.errors.ResourceExhausted` when an
        armed ``"alloc"`` fault window is open: the kernel is out of
        commit and every fresh mapping request fails.
        """
        faults = self.faults
        if faults is not None and faults.active:
            faults.exhaust("alloc", tag or "anonymous mapping")
        if at is None:
            if shared:
                at = self._shared_cursor
                self._shared_cursor = (at + size + 8191) & ~4095
            else:
                at = self._cursor
                self._cursor = (at + size + 8191) & ~4095
        region = Region(at, size, protection, tag)
        self._insert(region)
        # Keep the bump allocators clear of fixed placements.
        end = region.start + region.size
        if region.start < USER_LIMIT:
            if end + 4096 > self._cursor:
                self._cursor = (end + 8191) & ~4095
        elif region.start < SHARED_LIMIT:
            if end + 4096 > self._shared_cursor:
                self._shared_cursor = (end + 8191) & ~4095
        return region

    def attach(self, region: Region) -> None:
        """Alias an existing region (e.g. the machine's shared arena)
        into this address space."""
        self._insert(region)

    def unmap(self, region: Region) -> None:
        """Remove a region; subsequent accesses fault as ``freed``."""
        index = self._index_of(region)
        del self._starts[index]
        del self._regions[index]
        region.freed = True

    def _insert(self, region: Region) -> None:
        starts = self._starts
        regions = self._regions
        start = region.start
        index = bisect_right(starts, start)
        if index > 0:
            prev = regions[index - 1]
            if prev.start + prev.size > start:
                raise ValueError(f"overlapping mapping at 0x{start:08X}")
        if index < len(regions) and start + region.size > regions[index].start:
            raise ValueError(f"overlapping mapping at 0x{start:08X}")
        starts.insert(index, start)
        regions.insert(index, region)

    def _index_of(self, region: Region) -> int:
        index = bisect_right(self._starts, region.start) - 1
        if index < 0 or self._regions[index] is not region:
            raise KeyError(f"region not mapped: {region!r}")
        return index

    @staticmethod
    def _align_up(address: int, alignment: int = 4096) -> int:
        return (address + alignment - 1) & ~(alignment - 1)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def find(self, address: int) -> Region | None:
        """Return the region containing ``address``, or ``None``."""
        address &= ADDRESS_MASK
        index = bisect_right(self._starts, address) - 1
        if index >= 0:
            region = self._regions[index]
            if region.start <= address < region.start + region.size:
                return region
        return None

    def regions(self) -> Iterator[Region]:
        return iter(self._regions)

    def is_mapped(self, address: int, size: int = 1) -> bool:
        """True when ``[address, address+size)`` lies inside one region."""
        region = self.find(address)
        return region is not None and address + size <= region.end

    def check(self, address: int, size: int, access: str) -> Region:
        """Validate an access, returning the region or raising
        :class:`AccessViolation`."""
        address &= ADDRESS_MASK
        region = self.find(address)
        if region is None:
            raise AccessViolation(address, access, reason="unmapped")
        if address + size > region.start + region.size:
            raise AccessViolation(
                region.start + region.size, access, reason="unmapped"
            )
        if not region._prot & (2 if access == "write" else 1):
            raise AccessViolation(address, access, reason="protection")
        return region

    # ------------------------------------------------------------------
    # Raw access
    # ------------------------------------------------------------------

    def read(self, address: int, size: int) -> bytes:
        """Load ``size`` bytes, faulting like hardware would."""
        if size == 0:
            return b""
        region = self.check(address, size, "read")
        offset = (address & ADDRESS_MASK) - region.start
        return bytes(region.data[offset : offset + size])

    def write(self, address: int, data: bytes) -> None:
        """Store ``data``, faulting like hardware would."""
        if not data:
            return
        region = self.check(address, len(data), "write")
        offset = (address & ADDRESS_MASK) - region.start
        region.data[offset : offset + len(data)] = data
        region.version += 1

    # ------------------------------------------------------------------
    # Typed helpers
    # ------------------------------------------------------------------

    def _check_alignment(self, address: int, width: int, access: str) -> None:
        if self.strict_alignment and address % width != 0:
            raise MisalignedAccess(address, access)

    def read_u8(self, address: int) -> int:
        return self.read(address, 1)[0]

    def write_u8(self, address: int, value: int) -> None:
        self.write(address, bytes([value & 0xFF]))

    def read_u16(self, address: int) -> int:
        self._check_alignment(address, 2, "read")
        return int.from_bytes(self.read(address, 2), "little")

    def write_u16(self, address: int, value: int) -> None:
        self._check_alignment(address, 2, "write")
        self.write(address, (value & 0xFFFF).to_bytes(2, "little"))

    def read_u32(self, address: int) -> int:
        self._check_alignment(address, 4, "read")
        return int.from_bytes(self.read(address, 4), "little")

    def write_u32(self, address: int, value: int) -> None:
        self._check_alignment(address, 4, "write")
        self.write(address, (value & 0xFFFFFFFF).to_bytes(4, "little"))

    def read_i32(self, address: int) -> int:
        value = self.read_u32(address)
        return value - 0x1_0000_0000 if value >= 0x8000_0000 else value

    def write_i32(self, address: int, value: int) -> None:
        self.write_u32(address, value & 0xFFFFFFFF)

    def read_u64(self, address: int) -> int:
        self._check_alignment(address, 4, "read")
        return int.from_bytes(self.read(address, 8), "little")

    def write_u64(self, address: int, value: int) -> None:
        self._check_alignment(address, 4, "write")
        self.write(address, (value & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little"))

    # ------------------------------------------------------------------
    # C string helpers
    # ------------------------------------------------------------------

    def window(
        self, address: int, width: int, budget: int, term: int = 1
    ) -> tuple[bytearray, bool]:
        """One region's worth of a per-unit string scan, without a fault.

        The scan being windowed loads ``width`` bytes (1, 2 or 4) at a
        time from ``address`` while it holds fewer than ``budget`` bytes
        (so the last load may overshoot the budget), and stops at the
        first load holding a terminator: ``term`` zero bytes (1 or 2) at
        an offset from ``address`` that is a multiple of ``term``.  This
        covers, with one ``bytearray.find``, every such load that lies
        inside the readable region holding ``address`` and starts below
        4 GiB (past it, addresses wrap).

        Returns ``(data, found)``: the bytes those loads yield before the
        terminator, or all of them when ``found`` is false.  An empty,
        unterminated window means no load fits -- the address is
        unmapped or unreadable, or the load crosses the region's end --
        and the caller issues that one load through its own access path:
        :meth:`read` then faults exactly as the per-unit scan's load
        does, a kernel ``copy_in`` applies its PROBE/RAW/CORRUPT handling.
        """
        address &= ADDRESS_MASK
        region = self.find(address)
        if region is None or not region._prot & 1:
            return bytearray(), False
        offset = address - region.start
        loads = min(
            (region.size - offset) // width,
            (budget + width - 1) // width,
            (ADDRESS_MASK - address) // width + 1,
        )
        if loads <= 0:
            return bytearray(), False
        data = region.data
        end = offset + loads * width
        marker = bytes(term)
        stop = data.find(marker, offset, end)
        while stop >= 0 and (stop - offset) % term:
            stop = data.find(marker, stop + 1, end)
        if stop < 0:
            return data[offset:end], False
        return data[offset:stop], True

    def read_terminated(
        self, address: int, width: int, budget: int, term: int = 1
    ) -> tuple[bytes, bool]:
        """Run a per-unit string scan (see :meth:`window`) with plain
        user-mode loads: ``(bytes before the terminator, found)``.  It
        faults where the scan's ``read(cursor, width)`` would."""
        out = bytearray()
        cursor = address
        while len(out) < budget:
            data, found = self.window(cursor, width, budget - len(out), term)
            out += data
            if found:
                return bytes(out), True
            if not data:
                # No load fits, so the scan's next load faults right here.
                self.read(cursor, width)
                raise AssertionError(
                    f"window skipped a load at 0x{cursor & ADDRESS_MASK:08X}"
                )
            cursor += len(data)
        return bytes(out), False

    def read_cstring(
        self, address: int, limit: int = 1 << 20, word_at_a_time: bool = False
    ) -> bytes:
        """Read a NUL-terminated byte string starting at ``address``.

        :param word_at_a_time: scan in *aligned* 4-byte words, the way
            optimised C runtimes do (byte prologue up to the first
            aligned boundary, then whole words).  An aligned word read
            can fault on the bytes after a terminator that sits in a
            word crossing the end of the mapping -- a real robustness
            difference between byte-wise and word-wise string routines
            that the C-runtime flavours exploit.
        """
        cursor = address & ADDRESS_MASK
        if not word_at_a_time:
            return self.read_terminated(cursor, 1, limit)[0]
        head = b""
        if cursor & 3:
            head, found = self.read_terminated(cursor, 1, min(-cursor & 3, limit))
            if found:
                return head
        body = self.read_terminated(cursor + len(head), 4, limit - len(head))[0]
        return head + body

    def write_cstring(self, address: int, value: bytes) -> None:
        """Store ``value`` plus a NUL terminator."""
        self.write(address, value + b"\x00")

    def read_wstring(self, address: int, limit: int = 1 << 20) -> bytes:
        """Read a UTF-16LE (UNICODE) string, returning its bytes without
        the terminator."""
        return self.read_terminated(address & ADDRESS_MASK, 2, limit, term=2)[0]

    def write_wstring(self, address: int, value: bytes) -> None:
        """Store UTF-16LE bytes plus a two-byte terminator."""
        self.write(address, value + b"\x00\x00")

    # ------------------------------------------------------------------
    # Allocation convenience
    # ------------------------------------------------------------------

    def alloc(
        self,
        data: bytes,
        protection: Protection = Protection.RW,
        tag: str = "literal",
        pad: int = 0,
    ) -> int:
        """Map a region just large enough for ``data`` (+ ``pad`` spare
        bytes) and copy it in; return its address."""
        region = self.map(max(len(data) + pad, 1), protection, tag)
        if data:
            region.data[: len(data)] = data
        return region.start

    def alloc_cstring(
        self,
        text: bytes,
        protection: Protection = Protection.RW,
        terminated: bool = True,
        tag: str = "cstring",
        round_to: int = 4,
    ) -> int:
        """Map a buffer holding ``text``; when ``terminated`` is false the
        string fills the region exactly, with no NUL byte before the
        unmapped guard gap.

        ``round_to`` models allocator granularity (regions are rounded up
        to a word multiple, so aligned word-at-a-time scanners are safe
        on ordinary strings); pass ``round_to=1`` to place the data flush
        against the end of the mapping.
        """
        payload = text + b"\x00" if terminated else text
        size = max(len(payload), 1)
        if round_to > 1:
            size = (size + round_to - 1) & ~(round_to - 1)
        return self.alloc(payload, protection, tag=tag, pad=size - len(payload))
