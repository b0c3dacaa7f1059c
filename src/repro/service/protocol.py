"""Ballista service protocol: procedure numbers and body codecs.

The protocol is deliberately chatty in the way the 1999 service was: the
client announces its OS variant, the server hands out a per-MuT test
plan (the deterministic case list), and the client streams back one
result batch per MuT.  A REPORT body is the v2 JSON envelope
``{"seq": plan position, "row": row}``, where ``row`` is the MuT's
entry in a saved results document (the results codec's encoding).

The v2 campaign-service procedures (``PROC_SUBMIT`` ..
``PROC_QUEUE_STATS``) carry JSON documents inside a single XDR string.
Their payloads are small, irregular control-plane records -- job specs,
status snapshots, row pages -- where a JSON envelope beats hand-rolled
XDR structs; the framing, retransmission, and chaos machinery underneath
is unchanged.  All v2 procedures are idempotent: SUBMIT deduplicates on
``(tenant, job_key)``, STATUS and QUEUE_STATS are pure reads, and FETCH
is cursor-addressed, so the retrying RPC client can replay any of them
over a lossy link.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.service.xdr import XdrDecoder, XdrEncoder, XdrError

PROC_HELLO = 1
PROC_GET_PLAN = 2
PROC_REPORT = 3
PROC_COMPLETE = 4
PROC_SUMMARY = 5
PROC_HEARTBEAT = 6

# Campaign-service (multi-tenant queue) procedures.
PROC_SUBMIT = 10
PROC_JOB_STATUS = 11
PROC_FETCH = 12
PROC_QUEUE_STATS = 13

#: Server-side clamp on rows per FETCH page: keeps any one reply (and
#: the per-connection write buffer behind it) bounded.
MAX_FETCH_ROWS = 64


@dataclass(frozen=True)
class PlanEntry:
    """One MuT the server wants tested."""

    api: str
    name: str
    group: str
    param_types: tuple[str, ...]


def encode_hello(variant_key: str) -> bytes:
    return XdrEncoder().string(variant_key).bytes()


def decode_hello(dec: XdrDecoder) -> str:
    return dec.string()


def encode_hello_reply(entries: list[PlanEntry], cap: int) -> bytes:
    enc = XdrEncoder()
    enc.u32(cap)
    enc.u32(len(entries))
    for entry in entries:
        enc.string(entry.api).string(entry.name).string(entry.group)
        enc.string_array(list(entry.param_types))
    return enc.bytes()


def decode_hello_reply(dec: XdrDecoder) -> tuple[list[PlanEntry], int]:
    cap = dec.u32()
    count = dec.u32()
    entries = []
    for _ in range(count):
        api = dec.string()
        name = dec.string()
        group = dec.string()
        params = tuple(dec.string_array())
        entries.append(PlanEntry(api, name, group, params))
    return entries, cap


def encode_get_plan(api: str, name: str) -> bytes:
    return XdrEncoder().string(api).string(name).bytes()


def decode_get_plan(dec: XdrDecoder) -> tuple[str, str]:
    return dec.string(), dec.string()


def encode_plan_reply(cases: list[tuple[str, ...]]) -> bytes:
    enc = XdrEncoder()
    enc.u32(len(cases))
    for value_names in cases:
        enc.string_array(list(value_names))
    return enc.bytes()


def decode_plan_reply(dec: XdrDecoder) -> list[tuple[str, ...]]:
    count = dec.u32()
    return [tuple(dec.string_array()) for _ in range(count)]


# ----------------------------------------------------------------------
# Campaign-service v2: JSON-in-XDR control plane
# ----------------------------------------------------------------------


def encode_json(document: dict) -> bytes:
    """Encode a v2 request/reply body: one JSON document, one XDR
    string.  Keys are sorted so identical documents are byte-identical
    on the wire (retransmissions are literal replays)."""
    return (
        XdrEncoder()
        .string(json.dumps(document, sort_keys=True, separators=(",", ":")))
        .bytes()
    )


def decode_json(dec: XdrDecoder) -> dict:
    """Decode a v2 body; malformed JSON (a corrupted record that still
    parsed as an XDR string) raises :class:`XdrError` so it is handled
    exactly like any other undecodable body."""
    text = dec.string()
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise XdrError(f"v2 body is not valid JSON: {exc}") from None
    if not isinstance(document, dict):
        raise XdrError(
            f"v2 body must be a JSON object, got {type(document).__name__}"
        )
    return document
