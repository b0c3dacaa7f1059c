"""Test-case generation: exhaustive combinations with a sampling cap.

"Because many Win32 calls have four or more parameters, a very large
number of test cases could be generated ...  Therefore, testing was
capped at 5000 randomly selected test cases per MuT. ... In order to
fairly compare the desktop Windows variants, the same pseudorandom
sampling of test cases was performed in the same order for each system
call or C function tested across the different Windows variants."
(paper, section 3.1)

Determinism contract: for a given (MuT name, parameter pools, cap) the
sequence of test cases is identical on every OS variant and on every run.
The seed is derived from the MuT name only, so results are comparable
case-by-case across variants -- the property the Silent-failure voting
estimator relies on.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from math import prod
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.mut import MuT
    from repro.core.types import TestValue, TypeRegistry

#: The paper's per-MuT test-case cap.
PAPER_CAP = 5000


@dataclass(slots=True, unsafe_hash=True)
class TestCase:
    """One concrete test case: a MuT plus one chosen value per parameter.

    ``value_names`` makes any case replayable in isolation (the paper's
    "brief single-test program representing a single test case").

    A value: it compares and hashes by its fields, and nothing assigns
    to one once built -- the plan cache hands the same instances to
    every variant and shard.  It is not ``frozen`` because a frozen
    dataclass's ``__init__`` stores every field through
    ``object.__setattr__``, and the sequence runner builds one per step.
    """

    mut_name: str
    index: int
    value_names: tuple[str, ...]

    def describe(self) -> str:
        return f"{self.mut_name}({', '.join(self.value_names)})"


class CaseGenerator:
    """Generates the deterministic test-case sequence for MuTs.

    :param types: the type registry providing value pools.
    :param cap: per-MuT test-case cap (the paper used 5000; smaller caps
        keep CI-scale campaigns fast and, per the paper's prior findings,
        random sampling tracks exhaustive testing well).
    """

    def __init__(self, types: "TypeRegistry", cap: int = PAPER_CAP) -> None:
        self.types = types
        self.cap = cap
        #: Memoized per-MuT case plans and value lookups.  A plan is a
        #: pure function of ``(MuT name, pools, cap)`` and pools are
        #: fixed after registry install, so one materialised plan serves
        #: every variant, shard slice, and sequence of the campaign --
        #: the cross-variant sharing the determinism contract already
        #: guarantees is safe.
        self._plan_cache: dict[str, list[TestCase]] = {}
        self._resolve_cache: dict[tuple[str, tuple[str, ...]], tuple] = {}
        self._finder_cache: dict[str, tuple] = {}
        self._count_cache: dict[str, int] = {}

    # ------------------------------------------------------------------

    def pools(self, mut: "MuT") -> list[tuple["TestValue", ...]]:
        """The value pool for each parameter position."""
        return [self.types.get(name).all_values() for name in mut.param_types]

    def combination_count(self, mut: "MuT") -> int:
        """Size of the full cross-product for this MuT (memoized: the
        pools are fixed for the life of the plan caches)."""
        count = self._count_cache.get(mut.name)
        if count is None:
            count = (
                prod(len(pool) for pool in self.pools(mut))
                if mut.param_types
                else 1
            )
            self._count_cache[mut.name] = count
        return count

    def is_capped(self, mut: "MuT") -> bool:
        return self.combination_count(mut) > self.cap

    def case_count(self, mut: "MuT") -> int:
        return min(self.combination_count(mut), self.cap)

    # ------------------------------------------------------------------

    def cases(self, mut: "MuT") -> Iterator[TestCase]:
        """Yield the test-case sequence for ``mut``.

        Exhaustive (odometer order) when the cross-product fits under the
        cap; otherwise a seeded sample without replacement, in sampling
        order.  Either way the sequence is a pure function of the MuT
        name and the pools -- which is why the materialised plan is
        memoized per MuT and shared across variants.
        """
        plan = self._plan_cache.get(mut.name)
        if plan is None:
            plan = list(self._generate(mut))
            self._plan_cache[mut.name] = plan
        return iter(plan)

    def adopt_plan(self, mut: "MuT", plan: list[tuple[str, ...]]) -> None:
        """Serve ``plan`` (value-name tuples, e.g. a test server's copy
        of the sequence) as ``mut``'s cases from now on."""
        self._plan_cache[mut.name] = [
            TestCase(mut.name, index, tuple(names))
            for index, names in enumerate(plan)
        ]

    def _generate(self, mut: "MuT") -> Iterator[TestCase]:
        pools = self.pools(mut)
        sizes = [len(pool) for pool in pools]
        total = self.combination_count(mut)
        if total <= self.cap:
            for index in range(total):
                yield self._case_at(mut, pools, sizes, index, index)
            return

        rng = random.Random(self._seed(mut.name))
        seen: set[int] = set()
        emitted = 0
        while emitted < self.cap:
            flat = rng.randrange(total)
            if flat in seen:
                continue
            seen.add(flat)
            yield self._case_at(mut, pools, sizes, flat, emitted)
            emitted += 1

    def resolve(self, mut: "MuT", case: TestCase) -> list["TestValue"]:
        """Map a case's value names back to TestValue objects.

        Memoized per ``(MuT name, value names)``: the same case resolves
        to the same values on every variant, so the list is built once.
        Callers must treat the returned list as read-only.
        """
        return self.resolve_case(mut, case)[0]

    def resolve_case(
        self, mut: "MuT", case: TestCase
    ) -> tuple[list["TestValue"], bool]:
        """:meth:`resolve` plus the case's exceptional-input flag (any
        resolved value annotated exceptional), computed once per memo
        entry so the per-case loop does not rescan the value list."""
        cache_key = (mut.name, case.value_names)
        entry = self._resolve_cache.get(cache_key)
        if entry is None:
            finders = self._finder_cache.get(mut.name)
            if finders is None:
                finders = tuple(
                    self.types.get(name) for name in mut.param_types
                )
                self._finder_cache[mut.name] = finders
            try:
                values = [
                    param.find_map()[name]
                    for param, name in zip(finders, case.value_names)
                ]
            except KeyError:
                # Re-resolve through find() so an unknown name reports
                # which type rejected it.
                values = [
                    param.find(name)
                    for param, name in zip(finders, case.value_names)
                ]
            exceptional = False
            for value in values:
                if value.exceptional:
                    exceptional = True
                    break
            entry = (values, exceptional)
            self._resolve_cache[cache_key] = entry
        return entry

    # ------------------------------------------------------------------

    @staticmethod
    def _seed(mut_name: str) -> int:
        """Stable cross-run, cross-variant seed from the MuT name."""
        return zlib.crc32(mut_name.encode("utf-8"))

    @staticmethod
    def _case_at(
        mut: "MuT",
        pools: list[tuple["TestValue", ...]],
        sizes: list[int],
        flat_index: int,
        case_index: int,
    ) -> TestCase:
        """Decode a flat cross-product index into one value per pool
        (mixed-radix, last parameter fastest)."""
        names: list[str] = []
        remainder = flat_index
        for size, pool in zip(reversed(sizes), reversed(pools)):
            remainder, digit = divmod(remainder, size)
            names.append(pool[digit].name)
        names.reverse()
        return TestCase(mut.name, case_index, tuple(names))
