"""The MuT registry must mirror the paper's platform matrix exactly.

These assertions duplicate the registry-contract lint checker on purpose:
registry drift must fail tier-1 even when nobody runs ``repro lint``.
The expected counts are the paper's Table 1 matrix: 133 syscalls + 94 C
functions on Windows 95, 143 + 94 on 98/98SE/NT4/2000, 71 + 82 (+ 26
UNICODE twins) on Windows CE, and 91 + 94 on RedHat Linux 6.0.
"""

from __future__ import annotations

import pytest

from repro.analysis.groups import ALL_GROUPS
from repro.libc.registration import CE_UNICODE_TWINS, UNICODE_TWIN_OF
from repro.lint.manifests import CE_UNICODE_TWIN_COUNT, PLATFORM_MATRIX

#: (variant key, syscalls, ascii C functions, CE UNICODE twins).
PLATFORM_EXPECTATIONS = [
    ("win95", 133, 94, 0),
    ("win98", 143, 94, 0),
    ("win98se", 143, 94, 0),
    ("winnt", 143, 94, 0),
    ("win2000", 143, 94, 0),
    ("wince", 71, 82, 26),
    ("linux", 91, 94, 0),
]


def _variant(all_variants, key):
    return next(p for p in all_variants if p.key == key)


@pytest.mark.parametrize(
    "key,syscalls,c_functions,twins",
    PLATFORM_EXPECTATIONS,
    ids=[row[0] for row in PLATFORM_EXPECTATIONS],
)
def test_platform_matrix(
    registry, all_variants, key, syscalls, c_functions, twins
):
    muts = registry.for_variant(_variant(all_variants, key))
    assert sum(1 for m in muts if m.api != "libc") == syscalls
    assert (
        sum(1 for m in muts if m.api == "libc" and m.charset == "ascii")
        == c_functions
    )
    assert (
        sum(1 for m in muts if m.api == "libc" and m.charset == "unicode")
        == twins
    )


def test_manifest_agrees_with_expectations():
    """The lint manifest and this test pin the same matrix, so neither
    can drift from the paper without the other noticing."""
    assert PLATFORM_MATRIX == {
        key: {
            "syscalls": syscalls,
            "c_functions": c_functions,
            "unicode_twins": twins,
        }
        for key, syscalls, c_functions, twins in PLATFORM_EXPECTATIONS
    }


def test_every_param_type_resolves(registry, types):
    for mut in registry.all():
        for param in mut.param_types:
            assert param in types, f"{mut.api}:{mut.name} uses {param!r}"


def test_every_group_is_one_of_the_twelve(registry):
    groups = set(ALL_GROUPS)
    assert len(ALL_GROUPS) == 12
    for mut in registry.all():
        assert mut.group in groups, f"{mut.api}:{mut.name} -> {mut.group!r}"


def test_no_duplicate_registrations(registry):
    seen = set()
    for mut in registry.all():
        key = (mut.api, mut.name, mut.charset)
        assert key not in seen, f"duplicate {key}"
        seen.add(key)


def test_muts_sharing_a_name_share_param_types(registry):
    """The case generator keys plans, finder tables and value
    resolutions on the bare MuT name, and one generator serves every
    spec a pool worker runs.  Two MuTs with one name (``libc:rename``
    and ``posix:rename``) must therefore take the same parameter types,
    or one would run the other's cases."""
    first_of: dict[str, object] = {}
    for mut in registry.all():
        first = first_of.setdefault(mut.name, mut)
        assert mut.param_types == first.param_types, (
            f"{mut.api}:{mut.name} takes {mut.param_types}, but "
            f"{first.api}:{first.name} takes {first.param_types}"
        )


def test_ce_unicode_twins_complete(registry):
    registered = {
        m.name for m in registry.by_api("libc") if m.charset == "unicode"
    }
    assert registered == set(UNICODE_TWIN_OF)
    assert registered == {name for name, _, _ in CE_UNICODE_TWINS}
    assert len(registered) == CE_UNICODE_TWIN_COUNT
    ascii_names = {
        m.name for m in registry.by_api("libc") if m.charset == "ascii"
    }
    for twin, partner in UNICODE_TWIN_OF.items():
        assert partner in ascii_names, f"{twin} shadows unknown {partner}"
        # Twins are CE-only; their ASCII partner runs everywhere else.
        assert registry.get("libc", twin).platforms == frozenset({"wince"})


def test_total_population(registry):
    """143 Win32 + 91 POSIX + 94 C + 26 CE twins = 354 MuTs."""
    assert len(registry) == 354
    assert len(registry.by_api("win32")) == 143
    assert len(registry.by_api("posix")) == 91
    assert len(registry.by_api("libc")) == 94 + 26
