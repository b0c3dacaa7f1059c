"""Typed telemetry events and the deterministic campaign stream.

Every observable moment of a campaign run is one event: a frozen
dataclass with a ``kind`` tag and an :meth:`~Event.as_dict` plain-data
form (the shape that crosses process boundaries and lands in JSONL
files).  Recorders (:mod:`repro.obs.recorder`) stamp a wall-clock ``t``
field onto that dict at emission time; nothing *inside* an event ever
reads a wall clock, so event contents are as reproducible as the
campaign itself.

Events split into two populations:

* **Campaign events** (:data:`DETERMINISTIC_KINDS`) describe the
  simulated measurement -- which case ran, with what outcome, at what
  simulated tick.  At a given seed and cap these are a pure function of
  the plan, so the per-variant stream is identical between serial,
  parallel, and supervised runs (after stripping wall timestamps and
  collapsing worker-restart replays; see :func:`variant_stream`).
* **Operational events** (everything else) describe the machinery:
  workers spawning, dying, restarting; checkpoints hitting disk; RPC
  retries and chaos faults.  These legitimately differ run to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

#: Event kinds whose content is a deterministic function of (seed, cap,
#: variant plan) -- the population the serial-vs-parallel equivalence
#: guarantee covers.
DETERMINISTIC_KINDS = frozenset(
    {
        "variant_started",
        "case_executed",
        "mut_finished",
        "mut_quarantined",
        "variant_finished",
    }
)

#: Schema version stamped into ``campaign_started`` events so a stats
#: reader can refuse documents it does not understand.
EVENTS_VERSION = 1


class Event:
    """Base class: one observable moment of a campaign run."""

    kind: str = ""

    def as_dict(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class CampaignStarted(Event):
    """The run began: which variants, at what cap."""

    variants: tuple[str, ...]
    cap: int
    kind = "campaign_started"

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "schema": EVENTS_VERSION,
            "variants": list(self.variants),
            "cap": self.cap,
        }


@dataclass(frozen=True)
class CampaignFinished(Event):
    """The run completed; ``cases`` is the merged result-set total."""

    cases: int
    kind = "campaign_finished"

    def as_dict(self) -> dict:
        return {"kind": self.kind, "cases": self.cases}


@dataclass(frozen=True)
class VariantStarted(Event):
    """One variant's plan began (re-emitted by a restarted worker; the
    canonical stream collapses the repeats)."""

    variant: str
    planned_muts: int
    kind = "variant_started"

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "variant": self.variant,
            "planned_muts": self.planned_muts,
        }


@dataclass(frozen=True)
class VariantFinished(Event):
    """One variant's plan ran to the end.  ``cases`` counts the cases
    *recorded* for the variant (restart-safe: resumed rows included);
    ``sim_ticks`` is the simulated clock after the last MuT."""

    variant: str
    cases: int
    sim_ticks: int
    kind = "variant_finished"

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "variant": self.variant,
            "cases": self.cases,
            "sim_ticks": self.sim_ticks,
        }


@dataclass(frozen=True)
class CaseExecuted(Event):
    """One test case ran.  ``code`` is the compact
    :class:`~repro.core.crash_scale.CaseCode` integer; ``sim_ticks`` the
    simulated clock after the case (simulated time, never wall time)."""

    variant: str
    mut: str  #: ``api:name``
    case_index: int
    code: int
    exceptional: bool
    sim_ticks: int
    kind = "case_executed"

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "variant": self.variant,
            "mut": self.mut,
            "case": self.case_index,
            "code": self.code,
            "exceptional": self.exceptional,
            "sim_ticks": self.sim_ticks,
        }


@dataclass(frozen=True)
class MutFinished(Event):
    """Testing of one MuT completed (or was cut short by a Catastrophic
    crash): case count plus the full outcome histogram, keyed by
    :class:`~repro.core.crash_scale.CaseCode` name in sorted order."""

    variant: str
    mut: str
    group: str
    cases: int
    outcomes: dict  #: {code_name: count}, keys sorted
    catastrophic: bool
    interference: bool
    sim_ticks: int
    kind = "mut_finished"

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "variant": self.variant,
            "mut": self.mut,
            "group": self.group,
            "cases": self.cases,
            "outcomes": dict(self.outcomes),
            "catastrophic": self.catastrophic,
            "interference": self.interference,
            "sim_ticks": self.sim_ticks,
        }


@dataclass(frozen=True)
class MutQuarantined(Event):
    """A MuT was recorded as QUARANTINED on this variant (the
    supervisor's verdict, applied by the worker when its plan reaches
    the withdrawn MuT)."""

    variant: str
    mut: str
    reason: str
    kind = "mut_quarantined"

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "variant": self.variant,
            "mut": self.mut,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class SequenceStarted(Event):
    """One planned call sequence began (sequence mode).  The fault
    decision is ``None``/``None`` for a clean sequence, else the armed
    family and the step whose call window it fires in."""

    variant: str
    sequence: str
    length: int
    fault_family: str | None
    fault_step: int | None
    kind = "sequence_started"

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "variant": self.variant,
            "sequence": self.sequence,
            "length": self.length,
            "fault_family": self.fault_family,
            "fault_step": self.fault_step,
        }


@dataclass(frozen=True)
class SequenceFinished(Event):
    """One call sequence ended: steps executed, the Catastrophic step
    and its attribution (``None`` when nothing crashed), and the
    simulated clock after the last step."""

    variant: str
    sequence: str
    steps_run: int
    crash_step: int | None
    classification: str | None
    sim_ticks: int
    kind = "sequence_finished"

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "variant": self.variant,
            "sequence": self.sequence,
            "steps_run": self.steps_run,
            "crash_step": self.crash_step,
            "classification": self.classification,
            "sim_ticks": self.sim_ticks,
        }


@dataclass(frozen=True)
class FaultInjected(Event):
    """An armed exhaustion fault fired inside a step's call window;
    ``fired`` counts the forced failures."""

    variant: str
    sequence: str
    step: int
    family: str
    fired: int
    kind = "fault_injected"

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "variant": self.variant,
            "sequence": self.sequence,
            "step": self.step,
            "family": self.family,
            "fired": self.fired,
        }


@dataclass(frozen=True)
class AtomicityViolation(Event):
    """A step failed under an injected fault yet left wear residue: the
    FAULT_ATOMICITY outcome."""

    variant: str
    sequence: str
    step: int
    family: str | None
    kind = "atomicity_violation"

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "variant": self.variant,
            "sequence": self.sequence,
            "step": self.step,
            "family": self.family,
        }


@dataclass(frozen=True)
class CheckpointWritten(Event):
    """A checkpoint document hit disk.  ``scope`` is a variant key for
    per-variant (shard) saves or ``"campaign"`` for combined saves."""

    scope: str
    path: str
    muts_done: int
    kind = "checkpoint_written"

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "scope": self.scope,
            "path": self.path,
            "muts_done": self.muts_done,
        }


@dataclass(frozen=True)
class WorkerSpawned(Event):
    """A worker spec started on the pool worker ``pid`` (a warm worker
    reuses its pid across specs; ``attempt`` counts from 1 and a
    supervised relaunch bumps it)."""

    variant: str
    pid: int
    attempt: int
    kind = "worker_spawned"

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "variant": self.variant,
            "pid": self.pid,
            "attempt": self.attempt,
        }


@dataclass(frozen=True)
class WorkerFinished(Event):
    """A worker delivered its shard and exited cleanly."""

    variant: str
    kind = "worker_finished"

    def as_dict(self) -> dict:
        return {"kind": self.kind, "variant": self.variant}


@dataclass(frozen=True)
class WorkerDied(Event):
    """A worker died before finishing: ``death`` is ``"crashed"``
    (internal exception), ``"hung"`` (wall-clock watchdog), ``"killed"``
    (nonzero exit noticed by the reap scan)."""

    variant: str
    death: str
    why: str
    exitcode: int | None = None
    kind = "worker_died"

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "variant": self.variant,
            "death": self.death,
            "why": self.why[:500],
            "exitcode": self.exitcode,
        }


@dataclass(frozen=True)
class WorkerRestarted(Event):
    """The supervisor scheduled a relaunch from the variant's shard."""

    variant: str
    attempt: int
    backoff_s: float
    death: str
    kind = "worker_restarted"

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "variant": self.variant,
            "attempt": self.attempt,
            "backoff_s": self.backoff_s,
            "death": self.death,
        }


@dataclass(frozen=True)
class ShardReplayed(Event):
    """A sharded slice ran from a stale speculative base wear; its
    attempt was discarded and the slice re-queued from the true
    frontier.  Operational only -- replays never reach the merged
    results, so the deterministic stream is unaffected."""

    variant: str
    index: int
    why: str
    kind = "shard_replayed"

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "variant": self.variant,
            "index": self.index,
            "why": self.why[:500],
        }


@dataclass(frozen=True)
class BudgetExhausted(Event):
    """The supervisor gave up on a variant: restart budget spent."""

    variant: str
    restarts: int
    why: str
    kind = "budget_exhausted"

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "variant": self.variant,
            "restarts": self.restarts,
            "why": self.why[:500],
        }


@dataclass(frozen=True)
class RpcRetry(Event):
    """An RPC call retransmitted (attempt counts the retry, from 1)."""

    attempt: int
    xid: int
    kind = "rpc_retry"

    def as_dict(self) -> dict:
        return {"kind": self.kind, "attempt": self.attempt, "xid": self.xid}


@dataclass(frozen=True)
class ChaosFault(Event):
    """The chaos schedule injected a fault into a transport."""

    fault: str  #: drop / dup / corrupt / truncate / delay / disconnect
    direction: str  #: send / recv
    kind = "chaos_fault"

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "fault": self.fault,
            "direction": self.direction,
        }


@dataclass(frozen=True)
class ProtocolViolation(Event):
    """A transport stream violated the record-marking protocol and the
    connection was closed (``where`` is ``"client"`` or ``"server"``)."""

    where: str
    detail: str
    kind = "protocol_error"

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "where": self.where,
            "detail": self.detail[:500],
        }


# ----------------------------------------------------------------------
# Campaign-service events (the multi-tenant queue/lease machinery)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class JobSubmitted(Event):
    """A tenant's campaign spec entered the durable job queue."""

    job_id: str
    tenant: str
    variants: tuple[str, ...]
    cap: int
    kind = "job_submitted"

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "job_id": self.job_id,
            "tenant": self.tenant,
            "variants": list(self.variants),
            "cap": self.cap,
        }


@dataclass(frozen=True)
class JobFinished(Event):
    """Every shard of a job completed and its results document was
    saved."""

    job_id: str
    cases: int
    kind = "job_finished"

    def as_dict(self) -> dict:
        return {"kind": self.kind, "job_id": self.job_id, "cases": self.cases}


@dataclass(frozen=True)
class JobFailed(Event):
    """A job was abandoned: one of its shards exhausted its attempt
    budget."""

    job_id: str
    why: str
    kind = "job_failed"

    def as_dict(self) -> dict:
        return {"kind": self.kind, "job_id": self.job_id, "why": self.why[:500]}


@dataclass(frozen=True)
class LeaseGranted(Event):
    """A shard was leased to a worker (``attempt`` counts from 1; a
    reassignment bumps it)."""

    job_id: str
    variant: str
    lease_id: str
    attempt: int
    kind = "lease_granted"

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "job_id": self.job_id,
            "variant": self.variant,
            "lease_id": self.lease_id,
            "attempt": self.attempt,
        }


@dataclass(frozen=True)
class LeaseExpired(Event):
    """A lease's holder went silent past its deadline; the shard is
    back on the queue."""

    job_id: str
    variant: str
    lease_id: str
    stale_s: float
    kind = "lease_expired"

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "job_id": self.job_id,
            "variant": self.variant,
            "lease_id": self.lease_id,
            "stale_s": self.stale_s,
        }


@dataclass(frozen=True)
class LeaseReassigned(Event):
    """A shard whose earlier lease died was granted to a fresh worker,
    resuming from the shard checkpoint."""

    job_id: str
    variant: str
    attempt: int
    kind = "lease_reassigned"

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "job_id": self.job_id,
            "variant": self.variant,
            "attempt": self.attempt,
        }


@dataclass(frozen=True)
class ClientDisconnected(Event):
    """A service connection ended (``reason``: ``"eof"``, ``"error"``,
    ``"protocol_error"``, or ``"drain"``).  Jobs are durable, so a
    disconnected client loses nothing -- it reconnects and resumes its
    result stream from its cursor."""

    reason: str
    kind = "client_disconnected"

    def as_dict(self) -> dict:
        return {"kind": self.kind, "reason": self.reason}


@dataclass(frozen=True)
class DrainStarted(Event):
    """SIGTERM drain began: no new leases, in-flight shards checkpoint,
    the queue persists, then the service exits 0."""

    pending_jobs: int
    kind = "drain_started"

    def as_dict(self) -> dict:
        return {"kind": self.kind, "pending_jobs": self.pending_jobs}


# ----------------------------------------------------------------------
# The deterministic per-variant stream
# ----------------------------------------------------------------------


def strip_wall(record: dict) -> dict:
    """A copy of an event record without its wall timestamp -- the form
    the serial-vs-parallel equivalence guarantee is stated over."""
    return {k: v for k, v in record.items() if k != "t"}


def variant_stream(
    records: Iterable[dict], variant: str, plan: Iterable | None = None
) -> list[dict]:
    """The canonical deterministic event stream for one variant.

    Filters ``records`` to the :data:`DETERMINISTIC_KINDS` belonging to
    ``variant``, strips wall timestamps, and collapses worker-restart
    replays so a healed run canonicalises to the undisturbed serial
    stream:

    * repeated ``variant_started`` events (one per worker launch) keep
      only the first;
    * ``case_executed`` events are buffered per MuT and flushed only
      when that MuT's ``mut_finished`` arrives, so the partial case run
      of a killed attempt (re-executed from case 0 after restart) never
      appears twice -- a fresh ``case 0`` for a MuT discards the stale
      partial buffer;
    * a MuT whose block already flushed is closed: a restarted worker
      without a recent shard re-runs completed MuTs from scratch, and
      those replays (byte-identical by the determinism guarantee) are
      dropped rather than emitted twice.

    The result is exactly the serial emission order: ``variant_started``,
    then per MuT in plan order its cases followed by ``mut_finished``
    (or a bare ``mut_quarantined``), then ``variant_finished``.

    With ``plan`` (the variant's ordered MuT identities, as ``api:name``
    strings or ``(api, name)`` pairs) the canonicalisation also covers
    *intra-variant sharded* runs, whose slices interleave and finish out
    of plan order: flushed MuT blocks are re-emitted in plan order, and
    the per-slice ``variant_finished`` events collapse into one
    synthesised record (``cases`` summed across slices, ``sim_ticks``
    the maximum -- the simulated clock is monotone along the plan, so
    the maximum is the final slice's end clock, the serial value).
    MuTs absent from ``plan`` sort after it in arrival order.
    """
    out: list[dict] = []
    started: dict | None = None
    pending: dict[str, list[dict]] = {}
    done: set[str] = set()
    tail: list[dict] = []
    for raw in records:
        if raw.get("kind") not in DETERMINISTIC_KINDS:
            continue
        if raw.get("variant") != variant:
            continue
        record = strip_wall(raw)
        kind = record["kind"]
        if kind == "variant_started":
            if started is None:
                started = record
            continue
        if kind == "case_executed":
            if record["mut"] in done:
                continue  # replay of an already-flushed MuT
            cases = pending.setdefault(record["mut"], [])
            if record["case"] == 0:
                cases.clear()  # a restarted attempt replays from case 0
            cases.append(record)
        elif kind == "mut_finished":
            if record["mut"] in done:
                pending.pop(record["mut"], None)
                continue
            out.extend(pending.pop(record["mut"], []))
            out.append(record)
            done.add(record["mut"])
        elif kind == "mut_quarantined":
            if record["mut"] in done:
                continue
            pending.pop(record["mut"], None)
            out.append(record)
            done.add(record["mut"])
        else:  # variant_finished: only the surviving attempt emits one
            tail.append(record)
    prefix = [started] if started is not None else []
    if plan is not None:
        order = [
            mut if isinstance(mut, str) else f"{mut[0]}:{mut[1]}"
            for mut in plan
        ]
        blocks: dict[str, list[dict]] = {}
        for record in out:
            blocks.setdefault(record.get("mut"), []).append(record)
        ordered: list[dict] = []
        for mut in order:
            ordered.extend(blocks.pop(mut, []))
        for leftovers in blocks.values():  # pragma: no cover - off-plan MuT
            ordered.extend(leftovers)
        out = ordered
        if len(tail) > 1:
            tail = [
                {
                    "kind": "variant_finished",
                    "variant": variant,
                    "cases": sum(r.get("cases", 0) for r in tail),
                    "sim_ticks": max(r.get("sim_ticks", 0) for r in tail),
                }
            ]
    return prefix + out + tail
