"""The "C string" group: string.h plus the numeric conversions.

Flavour-relevant mechanics:

* the glibc flavour scans byte-wise; the MSVCRT/CE flavours scan
  word-at-a-time (``traits.string_word_reads``), which faults on valid
  strings whose terminator sits flush against an unmapped page (the
  ``STR_EDGE`` test value) -- the mechanistic reason the paper measured
  *higher* Windows Abort rates in this group;
* ``strncpy`` zero-fills the destination out to ``n`` (ISO semantics),
  which is what lets exceptional sizes trample past small buffers; on
  Windows 98/98 SE the personality routes those faults into the shared
  arena (the paper's ``*strncpy`` catastrophic entry), as does CE for
  the UNICODE twin ``_tcsncpy``.
"""

from __future__ import annotations

from repro.libc import errno_codes as E

_U32 = 0xFFFF_FFFF


class StringMixin:
    """string.h / stdlib.h-conversion implementations."""

    # ------------------------------------------------------------------
    # Copy / concatenate
    # ------------------------------------------------------------------

    def strcpy(self, dest: int, src: int) -> int:
        data = self._scan_str("strcpy", src)
        self._write_span("strcpy", dest, data + b"\x00")
        return dest

    def strncpy(self, dest: int, src: int, n: int) -> int:
        n &= _U32
        data = self._scan_str_n("strncpy", src, n)
        # ISO strncpy: if src is shorter than n, pad with NULs to n.
        self._write_span("strncpy", dest, data, pad_to=n)
        return dest

    def strcat(self, dest: int, src: int) -> int:
        existing = self._scan_str("strcat", dest)
        data = self._scan_str("strcat", src)
        self._write_span("strcat", dest + len(existing), data + b"\x00")
        return dest

    def strncat(self, dest: int, src: int, n: int) -> int:
        n &= _U32
        existing = self._scan_str("strncat", dest)
        data = self._scan_str_n("strncat", src, n)
        self._write_span("strncat", dest + len(existing), data + b"\x00")
        return dest

    # ------------------------------------------------------------------
    # Compare / search
    # ------------------------------------------------------------------

    def strcmp(self, a: int, b: int) -> int:
        left = self._scan_str("strcmp", a)
        right = self._scan_str("strcmp", b)
        return (left > right) - (left < right)

    def strncmp(self, a: int, b: int, n: int) -> int:
        n &= _U32
        left = self._scan_str_n("strncmp", a, n)
        right = self._scan_str_n("strncmp", b, n)
        return (left > right) - (left < right)

    def strchr(self, s: int, c: int) -> int:
        data = self._scan_str("strchr", s)
        target = c & 0xFF
        if target == 0:
            return s + len(data)
        index = data.find(bytes([target]))
        return s + index if index >= 0 else 0

    def strrchr(self, s: int, c: int) -> int:
        data = self._scan_str("strrchr", s)
        target = c & 0xFF
        if target == 0:
            return s + len(data)
        index = data.rfind(bytes([target]))
        return s + index if index >= 0 else 0

    def strstr(self, haystack: int, needle: int) -> int:
        hay = self._scan_str("strstr", haystack)
        pin = self._scan_str("strstr", needle)
        if not pin:
            return haystack
        index = hay.find(pin)
        return haystack + index if index >= 0 else 0

    def strlen(self, s: int) -> int:
        return len(self._scan_str("strlen", s))

    def strspn(self, s: int, accept: int) -> int:
        data = self._scan_str("strspn", s)
        allowed = set(self._scan_str("strspn", accept))
        count = 0
        for byte in data:
            if byte not in allowed:
                break
            count += 1
        return count

    def strcspn(self, s: int, reject: int) -> int:
        data = self._scan_str("strcspn", s)
        banned = set(self._scan_str("strcspn", reject))
        count = 0
        for byte in data:
            if byte in banned:
                break
            count += 1
        return count

    def strpbrk(self, s: int, accept: int) -> int:
        data = self._scan_str("strpbrk", s)
        wanted = set(self._scan_str("strpbrk", accept))
        for index, byte in enumerate(data):
            if byte in wanted:
                return s + index
        return 0

    def strtok(self, s: int, delim: int) -> int:
        """Stateful tokeniser; ``s == NULL`` continues the saved scan.
        With no saved scan every real CRT returns NULL here."""
        if s == 0:
            s = self._strtok_state
            if s == 0:
                return 0
        seps = set(self._scan_str("strtok", delim))
        data = self._scan_str("strtok", s)
        start = 0
        while start < len(data) and data[start] in seps:
            start += 1
        if start == len(data):
            self._strtok_state = 0
            return 0
        end = start
        while end < len(data) and data[end] not in seps:
            end += 1
        if end < len(data):
            # Terminate the token in place, as strtok really does.
            self._write_span("strtok", s + end, b"\x00")
            self._strtok_state = s + end + 1
        else:
            self._strtok_state = 0
        return s + start

    # ------------------------------------------------------------------
    # Numeric conversions
    # ------------------------------------------------------------------

    @staticmethod
    def _parse_int(data: bytes, base: int) -> tuple[int, int]:
        """Parse an integer prefix; returns (value, chars consumed)."""
        text = data.decode("latin-1")
        index = 0
        while index < len(text) and text[index] in " \t\n\r\v\f":
            index += 1
        start = index
        if index < len(text) and text[index] in "+-":
            index += 1
        effective = base or 10
        digits = "0123456789abcdefghijklmnopqrstuvwxyz"[:effective]
        if base in (0, 16) and text[index : index + 2].lower() == "0x":
            index += 2
            digits = "0123456789abcdef"
            effective = 16
        end = index
        while end < len(text) and text[end].lower() in digits:
            end += 1
        if end == index:
            return 0, 0
        body = text[start:end]
        try:
            value = int(body, effective)
        except ValueError:
            return 0, 0
        return value, end

    def atoi(self, s: int) -> int:
        value, _ = self._parse_int(self._scan_str("atoi", s), 10)
        return value

    def atol(self, s: int) -> int:
        value, _ = self._parse_int(self._scan_str("atol", s), 10)
        return value

    def atof(self, s: int) -> float:
        data = self._scan_str("atof", s).decode("latin-1")
        import re

        match = re.match(r"\s*[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?", data)
        return float(match.group(0)) if match else 0.0

    def strtol(self, s: int, endptr: int, base: int) -> int:
        if base != 0 and not 2 <= base <= 36:
            self._set_errno(E.EINVAL)
            return 0
        data = self._scan_str("strtol", s)
        value, consumed = self._parse_int(data, base)
        if endptr != 0:
            self._write_span("strtol", endptr, (s + consumed).to_bytes(4, "little"))
        if not -0x8000_0000 <= value <= 0x7FFF_FFFF:
            self._set_errno(E.ERANGE)
            value = 0x7FFF_FFFF if value > 0 else -0x8000_0000
        return value

    def strtod(self, s: int, endptr: int) -> float:
        data = self._scan_str("strtod", s).decode("latin-1")
        import re

        match = re.match(r"\s*[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?", data)
        consumed = match.end() if match else 0
        if endptr != 0:
            self._write_span("strtod", endptr, (s + consumed).to_bytes(4, "little"))
        return float(match.group(0)) if match else 0.0

    # ------------------------------------------------------------------
    # Wide-character twins (Windows CE UNICODE builds)
    # ------------------------------------------------------------------

    def _scan_wstr_n(self, func: str, address: int, n_units: int) -> bytes:
        return self.mem.read_terminated(address, 2, 2 * n_units, term=2)[0]

    def wcscpy(self, dest: int, src: int) -> int:
        data = self._scan_wstr("wcscpy", src)
        self._write_span("wcscpy", dest, data + b"\x00\x00")
        return dest

    def _tcsncpy(self, dest: int, src: int, n: int) -> int:
        """UNICODE strncpy: zero-fills to ``n`` UTF-16 units.  On CE the
        personality routes destination faults into shared system memory
        (the paper's ``(UNICODE) *_tcsncpy`` catastrophic entry)."""
        n &= _U32
        data = self._scan_wstr_n("_tcsncpy", src, n)
        self._write_span("_tcsncpy", dest, data, pad_to=min(2 * n, _U32))
        return dest

    def wcscat(self, dest: int, src: int) -> int:
        existing = self._scan_wstr("wcscat", dest)
        data = self._scan_wstr("wcscat", src)
        self._write_span("wcscat", dest + len(existing), data + b"\x00\x00")
        return dest

    def wcsncat(self, dest: int, src: int, n: int) -> int:
        n &= _U32
        existing = self._scan_wstr("wcsncat", dest)
        data = self._scan_wstr_n("wcsncat", src, n)
        self._write_span("wcsncat", dest + len(existing), data + b"\x00\x00")
        return dest

    def wcscmp(self, a: int, b: int) -> int:
        left = self._scan_wstr("wcscmp", a)
        right = self._scan_wstr("wcscmp", b)
        return (left > right) - (left < right)

    def wcsncmp(self, a: int, b: int, n: int) -> int:
        n &= _U32
        left = self._scan_wstr_n("wcsncmp", a, n)
        right = self._scan_wstr_n("wcsncmp", b, n)
        return (left > right) - (left < right)

    def _wfind(self, func: str, s: int, c: int, last: bool) -> int:
        data = self._scan_wstr(func, s)
        needle = (c & 0xFFFF).to_bytes(2, "little")
        units = [data[i : i + 2] for i in range(0, len(data), 2)]
        indices = [i for i, unit in enumerate(units) if unit == needle]
        if not indices:
            return s + len(data) if c == 0 else 0
        return s + 2 * (indices[-1] if last else indices[0])

    def wcschr(self, s: int, c: int) -> int:
        return self._wfind("wcschr", s, c, last=False)

    def wcsrchr(self, s: int, c: int) -> int:
        return self._wfind("wcsrchr", s, c, last=True)

    def wcsstr(self, haystack: int, needle: int) -> int:
        hay = self._scan_wstr("wcsstr", haystack)
        pin = self._scan_wstr("wcsstr", needle)
        if not pin:
            return haystack
        index = hay.find(pin)
        # Align to a unit boundary.
        while index >= 0 and index % 2:
            index = hay.find(pin, index + 1)
        return haystack + index if index >= 0 else 0

    def wcslen(self, s: int) -> int:
        return len(self._scan_wstr("wcslen", s)) // 2

    def _wclasses(self, func: str, s: int, other: int) -> tuple[list, set]:
        data = self._scan_wstr(func, s)
        units = [data[i : i + 2] for i in range(0, len(data), 2)]
        other_data = self._scan_wstr(func, other)
        other_units = {
            other_data[i : i + 2] for i in range(0, len(other_data), 2)
        }
        return units, other_units

    def wcsspn(self, s: int, accept: int) -> int:
        units, allowed = self._wclasses("wcsspn", s, accept)
        count = 0
        for unit in units:
            if unit not in allowed:
                break
            count += 1
        return count

    def wcscspn(self, s: int, reject: int) -> int:
        units, banned = self._wclasses("wcscspn", s, reject)
        count = 0
        for unit in units:
            if unit in banned:
                break
            count += 1
        return count

    def wcspbrk(self, s: int, accept: int) -> int:
        units, wanted = self._wclasses("wcspbrk", s, accept)
        for index, unit in enumerate(units):
            if unit in wanted:
                return s + 2 * index
        return 0

    def wcstok(self, s: int, delim: int) -> int:
        if s == 0:
            s = self._strtok_state
            if s == 0:
                return 0
        units, seps = self._wclasses("wcstok", s, delim)
        start = 0
        while start < len(units) and units[start] in seps:
            start += 1
        if start == len(units):
            self._strtok_state = 0
            return 0
        end = start
        while end < len(units) and units[end] not in seps:
            end += 1
        if end < len(units):
            self._write_span("wcstok", s + 2 * end, b"\x00\x00")
            self._strtok_state = s + 2 * (end + 1)
        else:
            self._strtok_state = 0
        return s + 2 * start
