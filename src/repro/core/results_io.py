"""Result-set and checkpoint persistence.

Campaigns are cheap at CI caps but expensive at the paper's 5000-case
scale, so result sets can be saved to a compact JSON document and
reloaded for analysis without re-running anything:

    save_results(results, "campaign.json")
    results = load_results("campaign.json")

The format is versioned and self-describing; per-case code/exceptional
arrays are hex-encoded to keep files small (one byte per test case).
Version 2 adds the partial-variant flags; version-1 documents (which
predate them) still load.

A second document kind, the **campaign checkpoint**, makes paper-scale
runs restartable: it bundles the partial :class:`ResultSet` with a
per-variant plan cursor and the per-variant machine wear (accumulated
shared-state corruption, reboot count, clock) needed to resume without
re-executing completed MuTs.  Checkpoints are written atomically
(temp file + rename) so a crash mid-write never corrupts the previous
checkpoint.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import warnings
from dataclasses import dataclass, field

from repro.core.crash_scale import FAILURE_CODES, CaseCode
from repro.core.results import ResultSet

FORMAT_VERSION = 3
#: Older document versions that still load (missing fields default).
#: Version 3 adds the per-row ``sequence`` extension recorded by
#: sequence-mode campaigns; per-case rows omit it, so version-2 readers
#: of case-mode documents lose nothing.
SUPPORTED_VERSIONS = {1, 2, 3}

CHECKPOINT_FORMAT = "ballista-checkpoint"
CHECKPOINT_VERSION = 3
#: Older checkpoint versions that still load (version 1 predates the
#: intra-variant ``shard`` block, version 2 the sequence-mode ``plan``
#: block; both default to the pre-existing semantics on load).
CHECKPOINT_SUPPORTED_VERSIONS = {1, 2, 3}


class ResultFormatError(ValueError):
    """The document is not a recognisable result-set dump."""


def _row_stamp(row) -> tuple:
    """Cheap mutation fingerprint of a result row.

    Every write path a row has (``record()`` appends to codes /
    exceptional / error_codes and inserts into details / failing_cases;
    the campaign sets the flags before the first checkpoint that could
    serialise the row; sequence records are assigned wholesale) moves at
    least one of these, so an unchanged stamp proves the cached
    serialised form is still exact."""
    return (
        len(row.codes),
        len(row.error_codes),
        len(row.details),
        len(row.failing_cases),
        row.interference_crash,
        row.planned_cases,
        row.capped,
        row.sequence is None,
    )


#: The one JSON encoder behind every saved document: compact separators,
#: otherwise ``json.dumps``'s defaults, so pieces it encodes separately
#: join into exactly the text ``json.dumps`` gives the whole document.
_dumps = json.JSONEncoder(separators=(",", ":")).encode


def _row_cache(row) -> list:
    """``[stamp, dict, JSON text or None]`` for one result row,
    memoized on the row object.

    Periodic checkpointing would otherwise hex- and JSON-encode every
    completed row on every save -- O(rows²) over a long campaign.  Rows
    are completed before the cursor moves past them and never mutate
    again, so both the serialised dict and its JSON text (encoded on
    first use) are cached on the row and reused by every later
    checkpoint/result save; :func:`_row_stamp` guards the cache against
    the append-only mutations an in-flight row can still see.
    """
    cached = getattr(row, "_serialized", None)
    stamp = _row_stamp(row)
    if cached is not None and cached[0] == stamp:
        return cached
    entry = {
        "variant": row.variant,
        "mut": row.mut_name,
        "api": row.api,
        "group": row.group,
        "codes": bytes(row.codes).hex(),
        "exceptional": bytes(row.exceptional).hex(),
        "error_codes": list(row.error_codes),
        # Case-index keys repeat in every row: intern them, like the
        # detail texts and value names results_from_dict interns.
        "details": {sys.intern(str(k)): v for k, v in row.details.items()},
        "failing_cases": {
            sys.intern(str(k)): list(v) for k, v in row.failing_cases.items()
        },
        "interference": row.interference_crash,
        "planned": row.planned_cases,
        "capped": row.capped,
    }
    if row.sequence is not None:
        # Version-3 sequence-record extension; omitted on per-case
        # rows so case-mode documents keep their version-2 shape.
        entry["sequence"] = row.sequence
    cached = row._serialized = [stamp, entry, None]
    return cached


def row_to_dict(row) -> dict:
    """One result row as its ``results`` entry in a saved document
    (shared with the row's cache: treat it as read-only)."""
    return _row_cache(row)[1]


def _row_json(row) -> str:
    """One result row's JSON text, encoded once per row state."""
    cached = _row_cache(row)
    if cached[2] is None:
        cached[2] = _dumps(cached[1])
    return cached[2]


def _spliced(document: dict, key: str, text: str) -> str:
    """``_dumps(document)`` where ``document[key]`` is already encoded
    as ``text``: a JSON object is its members' encodings joined, so the
    splice is byte-identical to encoding the whole document."""
    return (
        "{"
        + ",".join(
            _dumps(name) + ":" + (text if name == key else _dumps(value))
            for name, value in document.items()
        )
        + "}"
    )


def _results_document(results: ResultSet, rows) -> dict:
    """The ``ballista-results`` document with ``rows`` in its
    ``results`` slot."""
    document = {
        "format": "ballista-results",
        "version": FORMAT_VERSION,
        "results": rows,
    }
    partial = sorted(results.partial_variants())
    if partial:
        document["partial"] = partial
    quarantined = results.quarantined_records()
    if quarantined:
        # Harness-level QUARANTINED outcomes: MuTs the supervisor
        # withdrew after they repeatedly killed or hung their worker.
        # Serialised only when present so undisturbed runs stay
        # byte-identical to pre-supervision documents.
        document["quarantined"] = [
            {
                "variant": record.variant,
                "api": record.api,
                "mut": record.mut_name,
                "reason": record.reason,
            }
            for record in quarantined
        ]
    return document


def results_to_dict(results: ResultSet) -> dict:
    """Serialise a ResultSet to plain JSON-compatible data."""
    return _results_document(results, [row_to_dict(row) for row in results])


def _results_json(results: ResultSet) -> str:
    """``json.dumps(results_to_dict(results), separators=(",", ":"))``,
    from each row's cached JSON text."""
    rows = "[" + ",".join(map(_row_json, results)) + "]"
    return _spliced(_results_document(results, None), "results", rows)


#: Valid case-code bytes, and a ``bytes.translate`` table mapping every
#: nonzero exceptional byte to 1 (the flag is a bool).  A failing case
#: keeps its value names (:data:`FAILURE_CODES`).
_CODE_BYTES = bytes(int(code) for code in CaseCode)
_TRUTH = bytes([0] + [1] * 255)


def _row_from_dict(results: ResultSet, row: dict) -> None:
    """Rebuild one result row in place of replaying its cases.

    The fields come out exactly as :meth:`MuTResult.record`, called once
    per case, would leave them: exceptional flags as 0/1, error codes
    masked to 32 bits, details only for in-range cases with a text,
    value names only for in-range failing cases, both in case order,
    and ``catastrophic`` set by any Catastrophic code.  A row whose
    per-case arrays disagree in length raises :class:`ValueError`."""
    result = results.new_result(
        row["variant"], row["mut"], row["api"], row["group"]
    )
    codes = bytearray.fromhex(row["codes"])
    exceptional = bytearray.fromhex(row["exceptional"])
    count = len(codes)
    error_codes = row.get("error_codes") or [0] * count
    if len(exceptional) != count or len(error_codes) != count:
        raise ValueError(
            f"{count} codes but {len(exceptional)} exceptional flags "
            f"and {len(error_codes)} error codes"
        )
    if codes.translate(None, _CODE_BYTES):
        raise ValueError("unknown case code")
    # Detail texts and value names repeat across cases, rows and
    # documents; interning keeps one copy of each in a process that
    # holds many loaded result sets (a service, its clients).
    details = {
        int(k): sys.intern(v) for k, v in row.get("details", {}).items()
    }
    failing = {
        int(k): tuple(map(sys.intern, v))
        for k, v in row.get("failing_cases", {}).items()
    }
    result.codes = codes
    result.exceptional = exceptional.translate(_TRUTH)
    result.error_codes = [code & 0xFFFF_FFFF for code in error_codes]
    result.details = {
        index: details[index]
        for index in sorted(details)
        if 0 <= index < count and details[index]
    }
    result.failing_cases = {
        index: failing[index]
        for index in sorted(failing)
        if 0 <= index < count and codes[index] in FAILURE_CODES
    }
    result.catastrophic = int(CaseCode.CATASTROPHIC) in codes
    result.interference_crash = bool(row.get("interference"))
    result.planned_cases = int(row.get("planned", count))
    result.capped = bool(row.get("capped"))
    if row.get("sequence") is not None:
        result.sequence = dict(row["sequence"])


def results_from_dict(document: dict) -> ResultSet:
    """Rebuild a ResultSet from :func:`results_to_dict` output."""
    if document.get("format") != "ballista-results":
        raise ResultFormatError("not a ballista-results document")
    if document.get("version") not in SUPPORTED_VERSIONS:
        raise ResultFormatError(
            f"unsupported version {document.get('version')!r}"
        )
    results = ResultSet()
    for row in document.get("results", []):
        try:
            _row_from_dict(results, row)
        except (KeyError, ValueError, TypeError, AttributeError) as exc:
            raise ResultFormatError(f"malformed result row: {exc}") from exc
    for variant in document.get("partial", []):
        results.mark_partial(variant)
    for record in document.get("quarantined", []):
        try:
            results.quarantine(
                record["variant"],
                record["api"],
                record["mut"],
                str(record.get("reason", "")),
            )
        except (KeyError, TypeError) as exc:
            raise ResultFormatError(
                f"malformed quarantine record: {exc}"
            ) from exc
    return results


def _atomic_write(path: str | pathlib.Path, text: str) -> None:
    """Write via a sibling temp file + rename so readers never observe
    a half-written document (a crash mid-checkpoint keeps the old one)."""
    path = pathlib.Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def save_results(results: ResultSet, path: str | pathlib.Path) -> None:
    """Write a ResultSet to ``path`` as JSON."""
    _atomic_write(path, _results_json(results))


def load_results(path: str | pathlib.Path) -> ResultSet:
    """Read a ResultSet saved by :func:`save_results`.

    Checkpoint documents are accepted too: the embedded (partial)
    result set is returned, so interrupted campaigns can be analysed
    directly.
    """
    document = _read_json(path)
    if document.get("format") == CHECKPOINT_FORMAT:
        return checkpoint_from_dict(document).results
    return results_from_dict(document)


def _read_json(path: str | pathlib.Path) -> dict:
    try:
        document = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ResultFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ResultFormatError("top-level JSON value must be an object")
    return document


# ----------------------------------------------------------------------
# Campaign checkpoints
# ----------------------------------------------------------------------


@dataclass
class CampaignCheckpoint:
    """A restartable snapshot of a campaign in flight.

    :param results: every fully-recorded MuT result so far (checkpoints
        are only taken at MuT boundaries, so no row is half-filled).
    :param cursors: per-variant index of the next MuT position in the
        deterministic plan order.
    :param machine_wear: per-variant machine state that outcomes can
        depend on across MuTs: accumulated shared-arena corruption,
        reboot count, the virtual clock, and an image of the simulated
        filesystem and shared arena (files leaked by earlier MuTs change
        later classifications).
    :param cap: the per-MuT case cap the run was started with; resuming
        under a different cap would splice incompatible case sequences,
        so it is refused.
    :param variants: the variant keys the campaign was started with
        (``None`` on hand-built checkpoints: the check is skipped).
        Resuming with a different variant set is refused -- it would
        silently re-run or drop whole variants.
    :param complete: True once the campaign finished normally.
    :param supervision: the supervisor's event log (worker restarts,
        watchdog kills, quarantines) for a run still in flight.
        Operational state, not measurement data: it is persisted on
        in-flight documents so a resumed run can see its fault history,
        and cleared once the campaign completes -- a supervised run that
        survived faults leaves a final checkpoint byte-identical to an
        undisturbed run's.
    :param shard: intra-variant slice metadata (version 2), present only
        on the per-worker shard documents of a sharded campaign:
        ``{"variant", "index", "start", "stop", "resumed", "base_wear"}``.
        ``start``/``stop`` bound the slice's half-open plan-position
        range; ``base_wear`` is the exact machine wear the slice started
        from (``None`` = fresh boot) so :func:`merge_checkpoints` can
        prove each seam matches the serial wear trajectory before
        splicing rows; ``resumed`` marks slices whose base came from an
        authoritative combined checkpoint rather than a predecessor
        slice (the seam check is skipped -- same trust as any resume).
        ``None`` on serial, combined, and whole-variant documents.
    :param plan: the plan-defining campaign parameters beyond ``cap``
        (version 3), present on ``--mode sequence`` documents:
        ``{"mode", "sequences", "sequence_length", "sequence_seed",
        "dirty_machine", "fault_families"}``.  Like the cap, these fix
        the deterministic plan the cursors index into, so resuming
        under different values would splice incompatible plans and is
        refused.  ``None`` on per-case documents (and all pre-v3 ones).
    """

    results: ResultSet
    cursors: dict[str, int] = field(default_factory=dict)
    machine_wear: dict[str, dict] = field(default_factory=dict)
    cap: int = 0
    variants: list[str] | None = None
    complete: bool = False
    supervision: list[dict] = field(default_factory=list)
    shard: dict | None = None
    plan: dict | None = None


def checkpoint_plan(config) -> dict | None:
    """The :attr:`CampaignCheckpoint.plan` block for a campaign config:
    ``None`` for per-case mode (whose plan the cap alone defines), else
    the sequence-mode parameters the plan is a function of.
    ``fault_families`` keeps its order -- the planner indexes into it."""
    if config.mode == "case":
        return None
    return {
        "mode": config.mode,
        "sequences": config.sequences,
        "sequence_length": config.sequence_length,
        "sequence_seed": config.sequence_seed,
        "dirty_machine": bool(config.dirty_machine),
        "fault_families": list(config.fault_families),
    }


def _checkpoint_document(checkpoint: CampaignCheckpoint, results) -> dict:
    """The checkpoint document with ``results`` in its ``results``
    slot."""
    document = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "cap": checkpoint.cap,
        "variants": checkpoint.variants,
        "complete": checkpoint.complete,
        "cursors": dict(checkpoint.cursors),
        "machine_wear": {
            variant: dict(wear)
            for variant, wear in checkpoint.machine_wear.items()
        },
        "results": results,
    }
    if checkpoint.supervision:
        document["supervision"] = [dict(e) for e in checkpoint.supervision]
    if checkpoint.shard is not None:
        document["shard"] = dict(checkpoint.shard)
    if checkpoint.plan is not None:
        document["plan"] = dict(checkpoint.plan)
    return document


def checkpoint_to_dict(checkpoint: CampaignCheckpoint) -> dict:
    return _checkpoint_document(
        checkpoint, results_to_dict(checkpoint.results)
    )


def checkpoint_from_dict(document: dict) -> CampaignCheckpoint:
    if document.get("format") != CHECKPOINT_FORMAT:
        raise ResultFormatError("not a ballista-checkpoint document")
    if document.get("version") not in CHECKPOINT_SUPPORTED_VERSIONS:
        raise ResultFormatError(
            f"unsupported checkpoint version {document.get('version')!r}"
        )
    try:
        variants = document.get("variants")
        return CampaignCheckpoint(
            results=results_from_dict(document["results"]),
            cursors={k: int(v) for k, v in document.get("cursors", {}).items()},
            machine_wear={
                variant: {
                    k: int(v) if isinstance(v, (int, bool)) else v
                    for k, v in wear.items()
                }
                for variant, wear in document.get("machine_wear", {}).items()
            },
            cap=int(document.get("cap", 0)),
            variants=None if variants is None else [str(v) for v in variants],
            complete=bool(document.get("complete", False)),
            supervision=[
                dict(entry) for entry in document.get("supervision", [])
            ],
            shard=(
                dict(document["shard"])
                if document.get("shard") is not None
                else None
            ),
            plan=(
                dict(document["plan"])
                if document.get("plan") is not None
                else None
            ),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise ResultFormatError(f"malformed checkpoint: {exc}") from exc


# ----------------------------------------------------------------------
# Checkpoint shards (parallel campaigns)
# ----------------------------------------------------------------------


def shard_path(base: str | pathlib.Path, variant: str) -> pathlib.Path:
    """Where a parallel worker checkpoints one variant's slice of the
    campaign whose combined checkpoint lives at ``base``."""
    base = pathlib.Path(base)
    return base.with_name(f"{base.name}.{variant}.shard")


def split_checkpoint(
    checkpoint: CampaignCheckpoint,
    variant: str,
    plan: list | None = None,
    span: tuple[int, int] | None = None,
) -> CampaignCheckpoint:
    """Extract one variant's shard from a combined checkpoint, so a
    parallel worker can resume exactly where the serial semantics would:
    completed MuT rows, the plan cursor, and the machine wear for that
    variant only.  Rows are shared, not copied -- shards are written or
    shipped across a process boundary immediately.

    With ``span=(start, stop)`` the shard is one intra-variant slice:
    only rows (and quarantine records) whose plan position falls inside
    the half-open range are kept.  ``plan`` -- the variant's ordered
    ``(api, name)`` plan -- maps rows to positions and is required with
    a span.  The cursor is clamped into the span, and machine wear
    travels only with the slice holding the wear frontier (the combined
    cursor ``c`` satisfies ``start < c <= stop``): serial wear at plan
    position ``c`` belongs to the seam between slice rows ``c-1`` and
    ``c``, so exactly one slice may restore it.
    """
    if span is not None and plan is None:
        raise ValueError("split_checkpoint: span requires the variant plan")
    cursor = checkpoint.cursors.get(variant)
    if span is None:
        keep = None
        start, stop = 0, None
    else:
        start, stop = span
        positions = {identity: i for i, identity in enumerate(plan)}

        def keep(api: str, name: str) -> bool:
            position = positions.get((api, name))
            return position is not None and start <= position < stop

    results = ResultSet()
    for row in checkpoint.results:
        if row.variant != variant:
            continue
        if keep is not None and not keep(row.api, row.mut_name):
            continue
        results.add(row)
    for record in checkpoint.results.quarantined_records():
        if record.variant != variant:
            continue
        if keep is not None and not keep(record.api, record.mut_name):
            continue
        results.quarantine(variant, record.api, record.mut_name, record.reason)
    if checkpoint.results.is_partial(variant):
        results.mark_partial(variant)
    cursors = {}
    wear = {}
    if span is None:
        if cursor is not None:
            cursors[variant] = cursor
        if variant in checkpoint.machine_wear:
            wear[variant] = dict(checkpoint.machine_wear[variant])
        complete = checkpoint.complete
    else:
        frontier = cursor if cursor is not None else 0
        if frontier > start:
            cursors[variant] = min(frontier, stop)
        if start < frontier <= stop and variant in checkpoint.machine_wear:
            wear[variant] = dict(checkpoint.machine_wear[variant])
        complete = frontier >= stop
    return CampaignCheckpoint(
        results=results,
        cursors=cursors,
        machine_wear=wear,
        cap=checkpoint.cap,
        variants=[variant],
        complete=complete,
        plan=None if checkpoint.plan is None else dict(checkpoint.plan),
    )


def wear_fingerprint(wear: dict | None) -> str:
    """Canonical byte form of a machine-wear image (``None`` = fresh
    boot).  Two slices join at a valid seam exactly when the
    predecessor's end-wear fingerprint equals the successor's base-wear
    fingerprint -- execution is deterministic, so equal wear here proves
    the successor ran on the very machine state the serial campaign
    would have handed it."""
    return json.dumps(wear, sort_keys=True, separators=(",", ":"))


def merge_checkpoints(
    shards: list,
    cap: int = 0,
    variants: list[str] | None = None,
    fingerprint=wear_fingerprint,
) -> CampaignCheckpoint:
    """Merge per-variant shards back into one campaign checkpoint.

    Each entry may be a loaded :class:`CampaignCheckpoint` or a path to
    one on disk.  A path whose document is truncated or corrupt (a
    worker killed mid-write by something that defeated the atomic
    rename, a filesystem fault) is *quarantined* rather than fatal: the
    file is set aside as ``<path>.corrupt``, a warning naming the shard
    path is emitted, and the merge proceeds without it -- the merged
    document is marked incomplete so a resume re-runs that slice.

    The merged document is independent of shard completion order:
    result rows serialise sorted by key, and cursors/wear are keyed by
    variant.  ``complete`` only when every shard completed.

    Shards carrying an intra-variant ``shard`` block (checkpoint
    version 2) merge as a *validated chain* per variant: slices are
    ordered by plan position and spliced back only while each slice's
    recorded base wear byte-matches the previous slice's end wear (or
    the slice was resumed from an authoritative combined document).
    The first gap, seam mismatch, or incomplete slice ends the chain --
    later slices are speculative work whose machine state cannot be
    proven serial-equivalent, so their rows are dropped with a warning
    and the merged document is left incomplete for a resume to re-earn
    them.  The spliced output is byte-identical to the serial document:
    rows serialise sorted by key, the cursor lands on the last proven
    seam, and the wear image is the chain frontier's.

    ``fingerprint`` computes the seam fingerprints (default
    :func:`wear_fingerprint`); a caller that already fingerprinted the
    shards' wear images passes its memo so each is dumped once."""
    merged = CampaignCheckpoint(
        ResultSet(),
        cap=cap,
        variants=None if variants is None else list(variants),
    )
    complete = bool(shards)
    sliced: dict[str, list[CampaignCheckpoint]] = {}
    for shard in shards:
        if isinstance(shard, (str, pathlib.Path)):
            path = pathlib.Path(shard)
            try:
                shard = load_checkpoint(path)
            except (OSError, ResultFormatError) as exc:
                quarantined = path.with_name(path.name + ".corrupt")
                try:
                    os.replace(path, quarantined)
                    where = f"; set aside as {quarantined}"
                except OSError:
                    where = ""
                warnings.warn(
                    f"shard checkpoint {path} is unreadable ({exc}); "
                    f"merging without it{where}",
                    stacklevel=2,
                )
                complete = False
                continue
        if merged.plan is None and shard.plan is not None:
            merged.plan = dict(shard.plan)
        if shard.shard is not None:
            sliced.setdefault(str(shard.shard.get("variant")), []).append(
                shard
            )
            continue
        merged.results.merge(shard.results)
        merged.cursors.update(shard.cursors)
        for variant, wear in shard.machine_wear.items():
            merged.machine_wear[variant] = dict(wear)
        complete = complete and shard.complete
    # Chain order follows the campaign's variant order (the serial
    # cursor/wear dicts are keyed in execution order, and dict order
    # lands in the serialised document byte for byte).
    ordered = [v for v in (variants or []) if v in sliced]
    ordered += sorted(v for v in sliced if v not in set(ordered))
    for variant in ordered:
        complete = _merge_slice_chain(
            merged, variant, sliced[variant], fingerprint
        ) and complete
    merged.complete = complete
    return merged


def _merge_slice_chain(
    merged: CampaignCheckpoint,
    variant: str,
    entries: list[CampaignCheckpoint],
    fingerprint=wear_fingerprint,
) -> bool:
    """Splice one variant's intra-variant slices into ``merged`` as far
    as the seam-validated chain reaches; returns True when the chain
    covers the whole plan with every slice complete."""
    entries.sort(
        key=lambda e: (
            int(e.shard.get("start", 0)),
            int(e.shard.get("index", 0)),
        )
    )
    position = 0
    cursor: int | None = None
    wear: dict | None = None
    merged_upto = 0
    for count, entry in enumerate(entries):
        info = entry.shard
        start = int(info.get("start", 0))
        stop = int(info.get("stop", 0))
        if start != position:
            warnings.warn(
                f"shard chain for [{variant}] has a gap at plan position "
                f"{position} (next slice starts at {start}); dropping "
                f"{len(entries) - count} unproven slice(s)",
                stacklevel=3,
            )
            break
        if not info.get("resumed") and (
            fingerprint(info.get("base_wear")) != fingerprint(wear)
        ):
            warnings.warn(
                f"shard [{variant}#{info.get('index')}] base wear does "
                f"not match the chain frontier at plan position "
                f"{position}; dropping {len(entries) - count} unproven "
                f"slice(s) -- a resume will re-run them",
                stacklevel=3,
            )
            break
        merged.results.merge(entry.results)
        if variant in entry.cursors:
            cursor = entry.cursors[variant]
        if variant in entry.machine_wear:
            wear = entry.machine_wear[variant]
        merged_upto = count + 1
        if not entry.complete:
            if count + 1 < len(entries):
                warnings.warn(
                    f"shard chain for [{variant}] is incomplete at plan "
                    f"position {cursor if cursor is not None else start}; "
                    f"dropping {len(entries) - count - 1} unproven "
                    f"slice(s)",
                    stacklevel=3,
                )
            break
        position = stop
    if cursor is not None:
        merged.cursors[variant] = cursor
    if wear is not None:
        merged.machine_wear[variant] = dict(wear)
    return merged_upto == len(entries) and all(
        entry.complete for entry in entries
    )


def save_checkpoint(
    checkpoint: CampaignCheckpoint, path: str | pathlib.Path
) -> None:
    """Atomically write a checkpoint document to ``path``: the text of
    ``json.dumps(checkpoint_to_dict(checkpoint), separators=(",", ":"))``,
    with each row's JSON encoded once and reused by later saves."""
    text = _spliced(
        _checkpoint_document(checkpoint, None),
        "results",
        _results_json(checkpoint.results),
    )
    _atomic_write(path, text)


def load_checkpoint(path: str | pathlib.Path) -> CampaignCheckpoint:
    """Read a checkpoint saved by :func:`save_checkpoint`."""
    return checkpoint_from_dict(_read_json(path))
