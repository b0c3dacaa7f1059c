"""Differential test: every string pickup built on
:meth:`AddressSpace.window` against the per-unit loop it replaced.

The window primitive scans a whole readable region with one
``bytearray.find``; the scanners loop over windows and issue the single
load at a region edge through their own access path.  The claim is that
this is invisible: every scanner returns the same bytes, or raises the
same fault (type, address, access, reason), as its per-unit loop on any
memory layout -- and the kernel's ``copy_path`` panics at the same
address and leaves the same corruption behind.  The per-unit loops are
kept below, verbatim, as the oracles.
"""

from __future__ import annotations

from types import SimpleNamespace
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.libc.runtime import CRuntime
from repro.libc.string_funcs import StringMixin
from repro.posix import system as posix_system
from repro.posix.system import PosixSystem
from repro.sim.errors import MemoryFault, SystemCrash
from repro.sim.machine import Machine
from repro.sim.memory import ADDRESS_MASK, AddressSpace, Protection
from repro.sim.personality import CORRUPT, PROBE, RAW
from repro.win32.env_api import EnvApiMixin
from repro.win32.variants import WIN98

_U32 = 0xFFFF_FFFF

# ----------------------------------------------------------------------
# Oracles: the per-unit loops, verbatim
# ----------------------------------------------------------------------


def read_cstring(
    self, address: int, limit: int = 1 << 20, word_at_a_time: bool = False
) -> bytes:
    out = bytearray()
    cursor = address & ADDRESS_MASK
    if not word_at_a_time:
        while len(out) < limit:
            byte = self.read(cursor, 1)[0]
            if byte == 0:
                return bytes(out)
            out.append(byte)
            cursor += 1
        return bytes(out)
    # Byte prologue to the first word boundary.
    while cursor % 4 and len(out) < limit:
        byte = self.read(cursor, 1)[0]
        if byte == 0:
            return bytes(out)
        out.append(byte)
        cursor += 1
    # Aligned word loop.
    while len(out) < limit:
        chunk = self.read(cursor, 4)
        terminator = chunk.find(0)
        if terminator >= 0:
            out += chunk[:terminator]
            return bytes(out)
        out += chunk
        cursor += 4
    return bytes(out)


def read_wstring(self, address: int, limit: int = 1 << 20) -> bytes:
    out = bytearray()
    cursor = address & ADDRESS_MASK
    while len(out) < limit:
        unit = self.read(cursor, 2)
        if unit == b"\x00\x00":
            return bytes(out)
        out += unit
        cursor += 2
    return bytes(out)


def _scan_str_n(self, func: str, address: int, n: int) -> bytes:
    out = bytearray()
    step = 4 if self.traits.string_word_reads else 1
    cursor = address
    while len(out) < n:
        chunk = self.mem.read(cursor, step)
        terminator = chunk.find(0)
        if terminator >= 0:
            out += chunk[:terminator]
            break
        out += chunk
        cursor += step
    return bytes(out[:n])


def _scan_wstr(self, func: str, address: int, limit: int = 1 << 20) -> bytes:
    if self.traits.string_word_reads:
        out = bytearray()
        cursor = address
        while len(out) < limit:
            chunk = self.mem.read(cursor, 4)
            for i in (0, 2):
                unit = chunk[i : i + 2]
                if unit == b"\x00\x00":
                    return bytes(out)
                out += unit
            cursor += 4
        return bytes(out)
    return self.mem.read_wstring(address, limit=limit)


def _scan_wstr_n(self, func: str, address: int, n_units: int) -> bytes:
    out = bytearray()
    cursor = address
    while len(out) < 2 * n_units:
        unit = self.mem.read(cursor, 2)
        if unit == b"\x00\x00":
            break
        out += unit
        cursor += 2
    return bytes(out[: 2 * n_units])


def IsBadStringPtrA(self, lpsz: int, ucchMax: int) -> int:
    if lpsz == 0:
        return 1
    cursor = lpsz & _U32
    remaining = min(ucchMax & _U32, 1 << 16)
    while remaining:
        if not self.mem.is_mapped(cursor, 1):
            return 1
        if self.mem.read(cursor, 1) == b"\x00":
            return 0
        cursor += 1
        remaining -= 1
    return 0


def copy_path(self, func: str, address: int, PATH_MAX: int) -> str | None:
    out = bytearray()
    cursor = address & _U32
    while len(out) < PATH_MAX:
        chunk = self.copy_in(func, cursor, 1)
        if chunk is None:
            return None
        if chunk == b"\x00":
            return out.decode("latin-1")
        out += chunk
        cursor += 1
    return None  # ENAMETOOLONG territory; callers report an error


# ----------------------------------------------------------------------
# Layouts and inputs
# ----------------------------------------------------------------------

_PROTECTIONS = (Protection.RW, Protection.READ, Protection.WRITE, Protection.NONE)
#: Zero-heavy contents, so terminators land everywhere: at odd offsets
#: of wide scans, and as the last byte of one region or the first of
#: the next.
_BYTES = st.sampled_from((0, 0, 0, 1, 0x41, 0x80, 0xFF))
_BUDGETS = st.sampled_from((*range(9), 16, 1 << 20))


@st.composite
def layouts(draw) -> tuple[AddressSpace, int]:
    """1-3 regions of 1-24 bytes, adjacent or 1-4 bytes apart, in the
    user range or straddling the 4 GiB wrap; plus a scan start anywhere
    from two bytes before the first region to two after the last."""
    specs = []
    for index in range(draw(st.integers(1, 3))):
        gap = 0 if index == 0 else draw(st.sampled_from((0, 0, 1, 2, 3, 4)))
        size = draw(st.integers(1, 24))
        protection = draw(st.sampled_from(_PROTECTIONS))
        data = bytes(draw(st.lists(_BYTES, min_size=size, max_size=size)))
        specs.append((gap, size, protection, data))
    span = sum(gap + size for gap, size, _, _ in specs)
    if draw(st.integers(0, 4)) == 0:
        # The last region ends at, or runs past, 4 GiB: loads there wrap.
        base = (1 << 32) - span + draw(st.integers(0, specs[-1][1] - 1))
    else:
        base = 0x0050_0000 + draw(st.integers(0, 3))
    mem = AddressSpace()
    cursor = base
    for gap, size, protection, data in specs:
        cursor += gap
        mem.map(size, protection, at=cursor).data[:] = data
        cursor += size
    return mem, draw(st.integers(base - 2, cursor + 2))


def outcome(call, *args):
    """What a scan did: its value, or the fault it raised."""
    try:
        return "value", call(*args)
    except MemoryFault as fault:
        return type(fault), fault.address, fault.access, fault.reason
    except SystemCrash as crash:
        return SystemCrash, crash.reason, crash.function


def _crt(mem: AddressSpace, word_reads: bool) -> SimpleNamespace:
    return SimpleNamespace(
        mem=mem, traits=SimpleNamespace(string_word_reads=word_reads)
    )


_SETTINGS = settings(max_examples=300, deadline=None)

# ----------------------------------------------------------------------
# The scanners
# ----------------------------------------------------------------------


@_SETTINGS
@given(layout=layouts(), limit=_BUDGETS, word=st.booleans())
def test_read_cstring_matches_per_unit_loop(layout, limit, word):
    mem, address = layout
    assert outcome(mem.read_cstring, address, limit, word) == outcome(
        read_cstring, mem, address, limit, word
    )


@_SETTINGS
@given(layout=layouts(), limit=_BUDGETS)
def test_read_wstring_matches_per_unit_loop(layout, limit):
    mem, address = layout
    assert outcome(mem.read_wstring, address, limit) == outcome(
        read_wstring, mem, address, limit
    )


@_SETTINGS
@given(layout=layouts(), n=_BUDGETS, word=st.booleans())
def test_scan_str_n_matches_per_unit_loop(layout, n, word):
    mem, address = layout
    crt = _crt(mem, word)
    assert outcome(CRuntime._scan_str_n, crt, "f", address, n) == outcome(
        _scan_str_n, crt, "f", address, n
    )


@_SETTINGS
@given(layout=layouts(), limit=_BUDGETS, word=st.booleans())
def test_scan_wstr_matches_per_unit_loop(layout, limit, word):
    mem, address = layout
    crt = _crt(mem, word)
    assert outcome(CRuntime._scan_wstr, crt, "f", address, limit) == outcome(
        _scan_wstr, crt, "f", address, limit
    )


@_SETTINGS
@given(layout=layouts(), n_units=_BUDGETS)
def test_scan_wstr_n_matches_per_unit_loop(layout, n_units):
    mem, address = layout
    crt = _crt(mem, True)
    assert outcome(
        StringMixin._scan_wstr_n, crt, "f", address, n_units
    ) == outcome(_scan_wstr_n, crt, "f", address, n_units)


@_SETTINGS
@given(layout=layouts(), count=_BUDGETS)
def test_is_bad_string_ptr_matches_per_unit_loop(layout, count):
    mem, address = layout
    api = SimpleNamespace(mem=mem)
    assert outcome(EnvApiMixin.IsBadStringPtrA, api, address, count) == outcome(
        IsBadStringPtrA, api, address, count
    )


class _Kernel:
    """The two PosixSystem members a path pickup uses, on a bare
    machine and address space."""

    copy_in = PosixSystem.copy_in
    copy_path = PosixSystem.copy_path

    def __init__(self, mem: AddressSpace) -> None:
        self.machine = Machine(WIN98)
        self.mem = mem


#: One Windows 98 function per kernel access mode.
_MODES = {
    PROBE: "open",
    RAW: "GetThreadContext",
    CORRUPT: "DuplicateHandle",
}


@_SETTINGS
@given(
    layout=layouts(),
    path_max=_BUDGETS,
    mode=st.sampled_from(sorted(_MODES)),
)
def test_copy_path_matches_per_byte_pickup(layout, path_max, mode):
    mem, address = layout
    func = _MODES[mode]
    windowed, per_byte = _Kernel(mem), _Kernel(mem)
    assert windowed.machine.personality.kernel_access_mode(func) == mode
    with mock.patch.object(posix_system, "PATH_MAX", path_max):
        got = outcome(windowed.copy_path, func, address)
    assert got == outcome(copy_path, per_byte, func, address, path_max)
    assert windowed.machine.corruption_level == per_byte.machine.corruption_level
    assert windowed.machine.crashed == per_byte.machine.crashed


def test_copy_path_reports_an_overlong_path():
    """PATH_MAX itself: 4,096 readable non-NUL bytes are too long."""
    mem = AddressSpace()
    address = mem.alloc(b"a" * 5000 + b"\x00")
    kernel = _Kernel(mem)
    assert kernel.copy_path("open", address) is None
    assert copy_path(kernel, "open", address, posix_system.PATH_MAX) is None
    assert kernel.copy_path("open", address + 1000) == "a" * 4000


# ----------------------------------------------------------------------
# The primitive's own contract
# ----------------------------------------------------------------------


def per_unit_window(mem, address, width, budget, term):
    """The loads of a per-unit scan that stay inside the region holding
    ``address`` and start below 4 GiB: ``(bytes, found)``."""
    out = bytearray()
    cursor = address & ADDRESS_MASK
    region = mem.find(cursor)
    while len(out) < budget and cursor <= ADDRESS_MASK:
        if region is None or cursor + width > region.end:
            break
        try:
            unit = mem.read(cursor, width)
        except MemoryFault:
            break
        for offset in range(0, width, term):
            if unit[offset : offset + term] == bytes(term):
                return out + unit[:offset], True
        out += unit
        cursor += width
    return out, False


@_SETTINGS
@given(
    layout=layouts(),
    budget=st.integers(1, 8) | st.sampled_from((16, 1 << 20)),
    shape=st.sampled_from(((1, 1), (2, 2), (4, 1), (4, 2))),
)
def test_window_is_the_region_share_of_a_per_unit_scan(layout, budget, shape):
    """A window never faults, covers exactly the loads of a per-unit
    scan that fit in its region, and is empty and unterminated only
    when the scan's next load faults."""
    mem, address = layout
    width, term = shape
    data, found = mem.window(address, width, budget, term)
    assert (data, found) == per_unit_window(mem, address, width, budget, term)
    if not data and not found:
        assert outcome(mem.read, address, width)[0] != "value"
