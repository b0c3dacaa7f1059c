"""POSIX Memory Management system calls (12 MuTs)."""

from __future__ import annotations

from repro.libc import errno_codes as E
from repro.sim.memory import Protection

_U32 = 0xFFFF_FFFF
MAP_FAILED = _U32

PROT_READ = 0x1
PROT_WRITE = 0x2
PROT_EXEC = 0x4
_PROT_KNOWN = 0x7

MAP_SHARED = 0x01
MAP_PRIVATE = 0x02
MAP_FIXED = 0x10
MAP_ANONYMOUS = 0x20
_MAP_KNOWN = 0x33

MAX_MAP = 0x40_0000


def _prot_to_protection(prot: int) -> Protection:
    protection = Protection.NONE
    if prot & PROT_READ:
        protection |= Protection.READ
    if prot & PROT_WRITE:
        protection |= Protection.WRITE
    if prot & PROT_EXEC:
        protection |= Protection.EXECUTE
    return protection or Protection.READ


class MemCallsMixin:
    """mmap/brk/shm family."""

    def mmap(
        self, addr: int, length: int, prot: int, flags: int, fd: int, offset: int
    ) -> int:
        length &= _U32
        if length == 0 or prot & ~_PROT_KNOWN or flags & ~_MAP_KNOWN:
            return self._err(E.EINVAL, ret=MAP_FAILED)
        if not flags & (MAP_SHARED | MAP_PRIVATE):
            return self._err(E.EINVAL, ret=MAP_FAILED)
        if length > MAX_MAP:
            return self._err(E.ENOMEM, ret=MAP_FAILED)
        if offset % 4096:
            return self._err(E.EINVAL, ret=MAP_FAILED)
        data = b""
        if not flags & MAP_ANONYMOUS:
            obj = self._fd_object(fd)
            node = getattr(obj, "node", None)
            if obj is None or node is None:
                return self._err(E.EBADF, ret=MAP_FAILED)
            data = node.read(offset, offset + length)
        if flags & MAP_FIXED:
            if addr % 4096 or addr == 0:
                return self._err(E.EINVAL, ret=MAP_FAILED)
            existing = self.mem.find(addr)
            if existing is not None:
                return self._err(E.EINVAL, ret=MAP_FAILED)
            try:
                region = self.mem.map(
                    length, _prot_to_protection(prot), tag="mmap", at=addr
                )
            except ValueError:
                return self._err(E.EINVAL, ret=MAP_FAILED)
        else:
            region = self.mem.map(length, _prot_to_protection(prot), tag="mmap")
        if data:
            region.data[: len(data)] = data
        return region.start

    def munmap(self, addr: int, length: int) -> int:
        if (addr & _U32) % 4096:
            return self._err(E.EINVAL)
        region = self.mem.find(addr)
        if region is None or region.start != (addr & _U32) or region.tag != "mmap":
            return self._err(E.EINVAL)
        self.mem.unmap(region)
        return 0

    def mprotect(self, addr: int, length: int, prot: int) -> int:
        if prot & ~_PROT_KNOWN:
            return self._err(E.EINVAL)
        if (addr & _U32) % 4096:
            return self._err(E.EINVAL)
        region = self.mem.find(addr)
        if region is None:
            return self._err(E.ENOMEM)
        region.protection = _prot_to_protection(prot)
        return 0

    def msync(self, addr: int, length: int, flags: int) -> int:
        if flags & ~0x7 or (addr & _U32) % 4096:
            return self._err(E.EINVAL)
        if self.mem.find(addr) is None:
            return self._err(E.ENOMEM)
        return 0

    def mlock(self, addr: int, length: int) -> int:
        region = self.mem.find(addr)
        if region is None:
            return self._err(E.ENOMEM)
        if (length & _U32) > MAX_MAP:
            return self._err(E.ENOMEM)
        return 0

    def munlock(self, addr: int, length: int) -> int:
        return self.mlock(addr, length)

    def mlockall(self, flags: int) -> int:
        if flags & ~0x3 or flags == 0:
            return self._err(E.EINVAL)
        return 0

    def munlockall(self) -> int:
        return 0

    def brk(self, addr: int) -> int:
        if self._brk == 0:
            self._brk = self.mem.map(0x1000, tag="brk").start + 0x1000
        if addr == 0:
            return self._brk
        addr &= _U32
        if addr < self._brk or addr - self._brk > MAX_MAP:
            return self._err(E.ENOMEM)
        self._brk = addr
        return 0

    def sbrk(self, increment: int) -> int:
        if self._brk == 0:
            self._brk = self.mem.map(0x1000, tag="brk").start + 0x1000
        previous = self._brk
        if increment > MAX_MAP or self._brk + increment < 0:
            return self._err(E.ENOMEM, ret=MAP_FAILED)
        self._brk += increment
        return previous

    def shmget(self, key: int, size: int, shmflg: int) -> int:
        size &= _U32
        if size == 0 or size > MAX_MAP:
            return self._err(E.EINVAL)
        shmid = len(self._shm_segments) + 1
        region = self.mem.map(size, tag="shm")
        self._shm_segments[shmid] = region.start
        return shmid

    def shmat(self, shmid: int, shmaddr: int, shmflg: int) -> int:
        start = self._shm_segments.get(shmid)
        if start is None:
            return self._err(E.EINVAL, ret=MAP_FAILED)
        if shmaddr != 0:
            return self._err(E.EINVAL, ret=MAP_FAILED)
        return start
