"""Outside-in span tracing for the benchmark's traced runs.

The program under test is not modified: :class:`Tracer` replaces public
functions and methods of ``repro`` with wrappers that time each call,
and puts the originals back on :meth:`Tracer.uninstall`.  Every call is
aggregated (count, total time, time covered by child spans).  Full spans
-- name, start, end, parent and case id -- are kept only for every
``sample_every``-th case, so a 177k-case campaign keeps a few thousand
cases' worth of spans in memory.

A *case* is one call of a span registered as a unit (``run_case`` or
``run_step``).  Spans nested in a span that runs cases, and that run
after a case returns but before the next one starts (result recording,
a crash reboot), belong to that case.  Of the spans outside any case --
top-level spans, and everything in a thread that runs no cases -- the
first ``sample_every`` of each name are kept, then every
``sample_every``-th.

Some phases have no public boundary of their own.  They are measured as
the gap between two neighbouring spans (see :meth:`Tracer.wrap`'s
``mark``/``gap_from``/``gap_to``) and recorded under their own name as a
child of the enclosing span.  A gap may overlap real child spans, so
gaps never count toward their parent's aggregated child time.
"""

from __future__ import annotations

import itertools
import json
import threading
import time


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time of every span: its duration minus the union of its
    children's intervals (children overlap when they ran on different
    threads, or when one of them is a gap)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    return {
        span["id"]: (span["end"] - span["start"])
        - union_length(children.get(span["id"], ()), span["start"], span["end"])
        for span in spans
    }


class _Stat:
    __slots__ = ("count", "total", "child", "durations")

    def __init__(self, keep_durations: bool) -> None:
        self.count = 0
        self.total = 0.0
        self.child = 0.0
        self.durations: list[float] | None = [] if keep_durations else None


class Tracer:
    """Records spans around wrapped callables.

    :param sample_every: keep full spans for every n-th case.
    :param clock: timestamp source (seconds).
    """

    def __init__(self, sample_every: int = 64, clock=time.perf_counter) -> None:
        self.sample_every = sample_every
        self.clock = clock
        self.stats: dict[str, _Stat] = {}
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._span_ids = itertools.count()
        self._case_ids = itertools.count()
        self._restore: list[tuple[object, str, object]] = []

    # -- installing ----------------------------------------------------

    def _stat(self, name: str, keep_durations: bool = False) -> _Stat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = _Stat(keep_durations)
        return stat

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        unit: bool = False,
        mark: str | None = None,
        gap_from: tuple[str, str] | None = None,
        gap_to: tuple[str, str] | None = None,
        keep_durations: bool = False,
        post=None,
    ) -> None:
        """Replace ``owner.attr`` with a timing wrapper named ``name``.

        :param unit: each call starts a new case.
        :param mark: remember this call's end time under ``mark``.
        :param gap_from: ``(mark, gap_name)``: at call start, record the
            time since ``mark`` as a ``gap_name`` span.
        :param gap_to: ``(mark, gap_name)``: at call end, record the time
            since ``mark`` as a ``gap_name`` span.
        :param keep_durations: keep every call's duration (percentiles).
        :param post: ``post(args, result, end)``, called after each call
            that returned.
        """
        original = (
            owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        )
        self._stat(name, keep_durations)
        for gap in (gap_from, gap_to):
            if gap is not None:
                self._stat(gap[1])
        call = self._call

        def wrapper(*args, **kwargs):
            return call(
                original, args, kwargs, name, unit, mark, gap_from, gap_to, post
            )

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every wrapped callable back."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- recording -----------------------------------------------------

    def _call(self, fn, args, kwargs, name, unit, mark, gap_from, gap_to, post):
        local = self._local
        try:
            stack = local.stack
        except AttributeError:
            stack = local.stack = []
            local.marks = {}
            local.case = None
        marks = local.marks
        if unit:
            local.case = next(self._case_ids)
            marks.clear()
        frame = [0.0, next(self._span_ids)]
        start = self.clock()
        if gap_from is not None:
            since = marks.pop(gap_from[0], None)
            if since is not None:
                self._finish(gap_from[1], since, start, 0.0, stack, local.case, gap=True)
        stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = self.clock()
            if gap_to is not None:
                since = marks.pop(gap_to[0], None)
                if since is not None:
                    self._finish(gap_to[1], since, end, 0.0, stack, local.case, gap=True)
            stack.pop()
            self._finish(name, start, end, frame[0], stack, local.case, frame[1])
        if mark is not None:
            marks[mark] = end
        if post is not None:
            post(args, result, end)
        return result

    def _finish(self, name, start, end, child, stack, case, span_id=None, gap=False):
        duration = end - start
        parent = stack[-1] if stack else None
        if span_id is None:
            span_id = next(self._span_ids)
        every = self.sample_every
        with self._lock:
            stat = self.stats[name]
            stat.count += 1
            stat.total += duration
            stat.child += child
            if stat.durations is not None:
                stat.durations.append(duration)
            if parent is None or case is None:
                keep = stat.count <= every or stat.count % every == 0
            else:
                keep = case % every == 0
            if keep:
                self.spans.append(
                    (span_id, name, start, end, parent and parent[1], case)
                )
        if parent is not None and not gap:
            parent[0] += duration

    # -- reading -------------------------------------------------------

    def mean_us(self, name: str) -> float:
        stat = self.stats.get(name)
        return stat.total / stat.count * 1e6 if stat and stat.count else 0.0

    def count(self, name: str) -> int:
        stat = self.stats.get(name)
        return stat.count if stat else 0

    def total_s(self, name: str) -> float:
        stat = self.stats.get(name)
        return stat.total if stat else 0.0

    def self_s(self, name: str) -> float:
        stat = self.stats.get(name)
        return stat.total - stat.child if stat else 0.0

    def durations(self, name: str) -> list[float]:
        stat = self.stats.get(name)
        return list(stat.durations or ()) if stat else []

    def write(self, path, **header) -> None:
        """Write the kept spans, each with its self time, plus the
        per-name aggregates, as one JSON document."""
        spans = [
            {"id": i, "name": n, "start": s, "end": e, "parent": p, "case": c}
            for i, n, s, e, p, c in self.spans
        ]
        selfs = self_times(spans)
        for span in spans:
            span["self"] = selfs[span["id"]]
        document = {
            **header,
            "sample_every": self.sample_every,
            "aggregates": {
                name: {
                    "count": stat.count,
                    "total_s": stat.total,
                    "self_s": stat.total - stat.child,
                }
                for name, stat in sorted(self.stats.items())
            },
            "spans": spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(document, fh, separators=(",", ":"))
