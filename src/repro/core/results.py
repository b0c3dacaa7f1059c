"""Result storage and per-MuT robustness failure rates.

Per (variant, MuT) the store keeps one compact byte per test case (a
:class:`~repro.core.crash_scale.CaseCode`), in generation order.  Because
the generator produces the *same case sequence for every variant*, code
arrays line up case-by-case across variants -- the property the
Silent-failure voting estimator exploits.

Rates follow the paper's normalisation: the failure rate of a MuT is
(failed cases / executed cases); group rates average MuT rates with
uniform weights; MuTs that suffered a Catastrophic failure are excluded
from rate averages (their case set is incomplete) and reported
separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.core.crash_scale import FAILURE_CODES, CaseCode


@dataclass(frozen=True)
class QuarantineRecord:
    """A MuT the supervisor withdrew from a variant's plan.

    A *harness-level* outcome, not a per-case code: a quarantined MuT
    repeatedly killed or hung its worker process, so it has no case
    array at all -- the campaign skipped it to keep the variant alive
    (the analogue of the paper's entries that could only be measured by
    rebooting the physical test machine and moving on).  Quarantined
    MuTs are excluded from rate averages exactly like Catastrophic-
    failure MuTs, and the analysis tables flag them with a footnote
    marker alongside the ``!`` partial-variant flag.
    """

    variant: str
    api: str
    mut_name: str
    reason: str


@dataclass
class MuTResult:
    """All outcomes for one MuT on one OS variant."""

    variant: str
    mut_name: str
    api: str
    group: str
    codes: bytearray = field(default_factory=bytearray)
    #: Parallel ground-truth bits: does case *i* include at least one
    #: exceptional input value?
    exceptional: bytearray = field(default_factory=bytearray)
    #: Parallel errno / GetLastError values (0 = none reported); feeds
    #: the Hindering-failure estimator.
    error_codes: list[int] = field(default_factory=list)
    #: Detail strings for failures, keyed by case index.
    details: dict[int, str] = field(default_factory=dict)
    #: Value-name tuples for failures, for replay / Table 3 reporting.
    failing_cases: dict[int, tuple[str, ...]] = field(default_factory=dict)
    #: True when testing this MuT crashed the machine.
    catastrophic: bool = False
    #: True when the crash needed accumulated state (the paper's ``*``).
    interference_crash: bool = False
    planned_cases: int = 0
    capped: bool = False
    #: Sequence-campaign extension (format version 3): present only on
    #: rows recorded by ``--mode sequence``, where one row is one k-call
    #: sequence and case index *i* is step *i*.  Carries the step
    #: identities (api, MuT, values), per-step sim-tick timestamps, the
    #: armed fault (family + step), and the crash attribution
    #: (first-failure step pointer, origin step, origin-vs-propagated
    #: classification).  ``None`` on per-case rows, which therefore
    #: serialise byte-identically to format version 2 documents.
    sequence: dict | None = None

    def record(
        self,
        case_index: int,
        code: CaseCode,
        exceptional: bool,
        detail: str = "",
        value_names: tuple[str, ...] | None = None,
        error_code: int = 0,
    ) -> None:
        assert case_index == len(self.codes), "cases must arrive in order"
        # Called once per case: a code appends as the int it is, and one
        # set probe tests it for failure.
        self.codes.append(code)
        self.exceptional.append(1 if exceptional else 0)
        self.error_codes.append(error_code & 0xFFFF_FFFF)
        if detail:
            self.details[case_index] = detail
        if code in FAILURE_CODES:
            if value_names is not None:
                self.failing_cases[case_index] = value_names
            if code is CaseCode.CATASTROPHIC:
                self.catastrophic = True

    # ------------------------------------------------------------------
    # Counting
    # ------------------------------------------------------------------

    def count(self, *codes: CaseCode) -> int:
        wanted = {int(c) for c in codes}
        return sum(1 for c in self.codes if c in wanted)

    @property
    def executed(self) -> int:
        return sum(
            1 for c in self.codes if CaseCode(c).counts_as_executed
        )

    def rate(self, *codes: CaseCode) -> float:
        """Failure rate for the given codes over executed cases."""
        executed = self.executed
        return self.count(*codes) / executed if executed else 0.0

    @property
    def abort_rate(self) -> float:
        return self.rate(CaseCode.ABORT)

    @property
    def restart_rate(self) -> float:
        return self.rate(CaseCode.RESTART)

    @property
    def pass_no_error_rate(self) -> float:
        return self.rate(CaseCode.PASS_NO_ERROR)

    def silent_ground_truth_rate(self) -> float:
        """Ground-truth Silent rate: exceptional input, completed with no
        error indication.  (Unavailable to the paper; used here to
        validate the voting estimator.)"""
        executed = 0
        silent = 0
        for code, exc in zip(self.codes, self.exceptional):
            if not CaseCode(code).counts_as_executed:
                continue
            executed += 1
            if code == int(CaseCode.PASS_NO_ERROR) and exc:
                silent += 1
        return silent / executed if executed else 0.0


class ResultSet:
    """All MuT results for a campaign (any number of variants)."""

    def __init__(self) -> None:
        self._results: dict[tuple[str, str, str], MuTResult] = {}
        #: Variants whose campaign did not run to completion (dead
        #: client, expired lease, interrupted run).  Their rows are
        #: real measurements, but coverage is incomplete and the
        #: analysis layer flags them.
        self._partial: set[str] = set()
        #: MuTs the supervisor withdrew after they repeatedly killed or
        #: hung their worker; keyed like results, holding the record.
        self._quarantined: dict[tuple[str, str, str], QuarantineRecord] = {}

    def mark_partial(self, variant: str) -> None:
        self._partial.add(variant)

    def is_partial(self, variant: str) -> bool:
        return variant in self._partial

    def partial_variants(self) -> set[str]:
        return set(self._partial)

    # ------------------------------------------------------------------
    # Quarantine (harness-level QUARANTINED outcome)
    # ------------------------------------------------------------------

    def quarantine(
        self, variant: str, api: str, mut_name: str, reason: str
    ) -> QuarantineRecord:
        """Record a poison MuT as QUARANTINED on ``variant``.

        Idempotent: re-recording an already-quarantined MuT keeps the
        first record (a resumed run replays the supervisor's decision).
        A quarantined MuT has no :class:`MuTResult` row, so it never
        contributes to rates -- mirroring the paper's exclusion of MuTs
        whose case set is incomplete.
        """
        key = (variant, api, mut_name)
        if key not in self._quarantined:
            self._quarantined[key] = QuarantineRecord(
                variant, api, mut_name, reason
            )
        return self._quarantined[key]

    def is_quarantined(self, variant: str, api: str, mut_name: str) -> bool:
        return (variant, api, mut_name) in self._quarantined

    def quarantined_records(self) -> list[QuarantineRecord]:
        """Every quarantine record, sorted by (variant, api, mut)."""
        return [self._quarantined[k] for k in sorted(self._quarantined)]

    def quarantined_for(self, variant: str) -> list[QuarantineRecord]:
        return [r for r in self.quarantined_records() if r.variant == variant]

    def new_result(
        self, variant: str, mut_name: str, api: str, group: str
    ) -> MuTResult:
        key = (variant, api, mut_name)
        if key in self._results:
            raise ValueError(f"duplicate result for {key}")
        result = MuTResult(variant, mut_name, api, group)
        self._results[key] = result
        return result

    def add(self, result: MuTResult) -> MuTResult:
        """Adopt a fully-built row (e.g. from another worker's shard).

        Iteration order is sorted by key, not insertion order, so adding
        rows in any order yields the same serialised document.
        """
        key = (result.variant, result.api, result.mut_name)
        if key in self._results:
            raise ValueError(f"duplicate result for {key}")
        self._results[key] = result
        return result

    def merge(self, other: "ResultSet") -> None:
        """Fold another result set into this one.

        Used to combine per-variant worker shards into the campaign
        result set; overlapping (variant, api, mut) rows are a merge
        error and raise :class:`ValueError`.  Partial-variant flags are
        unioned.
        """
        for row in other:
            self.add(row)
        for variant in other.partial_variants():
            self.mark_partial(variant)
        for record in other.quarantined_records():
            self.quarantine(
                record.variant, record.api, record.mut_name, record.reason
            )

    def get(self, variant: str, mut_name: str, api: str | None = None) -> MuTResult:
        """Look a result up; ``api`` disambiguates names tested through
        both the C library and a system-call API (e.g. ``rename``)."""
        if api is not None:
            return self._results[(variant, api, mut_name)]
        hits = [
            r
            for (v, _a, n), r in self._results.items()
            if v == variant and n == mut_name
        ]
        if not hits:
            raise KeyError((variant, mut_name))
        if len(hits) > 1:
            raise KeyError(f"{mut_name!r} is ambiguous on {variant}; pass api=")
        return hits[0]

    def has(self, variant: str, mut_name: str, api: str | None = None) -> bool:
        if api is not None:
            # The plan driver asks this once per unit, and mostly of
            # rows not recorded yet: a key probe, not a raised KeyError.
            return (variant, api, mut_name) in self._results
        try:
            self.get(variant, mut_name, api)
            return True
        except KeyError:
            return False

    def for_variant(self, variant: str) -> list[MuTResult]:
        return [
            r for (v, _a, _n), r in sorted(self._results.items()) if v == variant
        ]

    def variants(self) -> list[str]:
        return sorted({v for v, _a, _n in self._results})

    def mut_names(self, variant: str) -> list[str]:
        return [r.mut_name for r in self.for_variant(variant)]

    def __iter__(self) -> Iterator[MuTResult]:
        return iter(self._results[k] for k in sorted(self._results))

    def __len__(self) -> int:
        return len(self._results)

    # ------------------------------------------------------------------
    # Aggregates (paper Table 1 building blocks)
    # ------------------------------------------------------------------

    @staticmethod
    def _mean(rates: Iterable[float]) -> float:
        rates = list(rates)
        return sum(rates) / len(rates) if rates else 0.0

    def uniform_rate(
        self,
        variant: str,
        code: CaseCode,
        apis: set[str] | None = None,
        include_catastrophic: bool = False,
    ) -> float:
        """Uniformly weighted mean of per-MuT rates (the paper's
        normalised failure rate).  MuTs with Catastrophic failures are
        excluded unless requested, as in the paper."""
        rates = [
            r.rate(code)
            for r in self.for_variant(variant)
            if (apis is None or r.api in apis)
            and (include_catastrophic or not r.catastrophic)
        ]
        return self._mean(rates)

    def catastrophic_muts(
        self, variant: str, apis: set[str] | None = None
    ) -> list[MuTResult]:
        return [
            r
            for r in self.for_variant(variant)
            if r.catastrophic and (apis is None or r.api in apis)
        ]

    def total_cases(self, variant: str | None = None) -> int:
        return sum(
            len(r.codes)
            for r in self._results.values()
            if variant is None or r.variant == variant
        )
