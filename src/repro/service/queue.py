"""Durable job queue for the multi-tenant campaign service.

Clients submit campaign specs; the service leases each job's shard
tokens (a bare variant, or ``variant#k`` for an intra-variant slice) to
workers and marks them done here as they finish.  The queue only
records which tokens are done: which slices may run, and from what base
wear, is the job's :class:`~repro.core.parallel.SlicePlanner`'s to say.
Everything that must survive a crash or a SIGTERM drain lives here, in
one directory:

* ``queue.json`` -- a compacted snapshot of every job record, written
  atomically (temp + rename, the :mod:`repro.core.results_io`
  discipline).
* ``queue.journal`` -- an append-only JSONL journal of operations since
  the last snapshot (``submit`` / ``shard_done`` / ``job_done`` /
  ``job_failed``).  Loading replays the journal over the snapshot; a
  torn final line (the process died mid-append) is tolerated and
  dropped, exactly like :func:`repro.obs.recorder.read_events`.
* ``jobs/<job_id>/`` -- per-job artifacts: one ``campaign.ckpt.<token>.shard``
  checkpoint per leased token (the restart-from-checkpoint documents
  the workers maintain) and, once every token completes, the merged
  ``results.json`` saved via :func:`repro.core.results_io.save_results`
  -- byte-identical to the same campaign run serially.

Lease state is deliberately *not* durable: leases die with the service
process, so a restarted service rebuilds each in-flight job's plan
(settling its done slices from their checkpoints) and re-leases every
token that is not done, resuming from the shard checkpoint on disk.

Submission is idempotent on ``(tenant, job_key)``: a client that
retransmits SUBMIT over a lossy link (or reconnects and resubmits) gets
the existing job back instead of a duplicate campaign.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
import warnings
from dataclasses import dataclass, field

from repro.core.results_io import _atomic_write, shard_path

QUEUE_FORMAT = "ballista-job-queue"
#: Version 2 added :attr:`JobSpec.shards` (intra-variant slicing).
#: Version-1 snapshots load unchanged: a missing ``shards`` means 1.
QUEUE_VERSION = 2
SUPPORTED_QUEUE_VERSIONS = (1, 2)

#: Journal appends between automatic compactions.
DEFAULT_COMPACT_EVERY = 256

JOB_PENDING = "pending"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"


class JobQueueError(ValueError):
    """The queue directory holds something that is not a job queue."""


@dataclass(frozen=True)
class JobSpec:
    """One tenant's campaign request: the unit of work clients submit.

    ``variants`` become the job's shards (one worker lease each);
    ``muts`` optionally restricts the plan to a set of bare MuT names,
    as on :class:`~repro.core.campaign.Campaign`.  ``shards`` slices
    each variant's plan into that many intra-variant shard tokens
    (``variant#k``); the default 1 keeps the pre-sharding one-token-
    per-variant scheme, so old journals and snapshots load unchanged.
    """

    tenant: str
    job_key: str
    variants: tuple[str, ...]
    cap: int
    muts: tuple[str, ...] | None = None
    checkpoint_every: int = 5
    shards: int = 1

    def as_dict(self) -> dict:
        return {
            "tenant": self.tenant,
            "job_key": self.job_key,
            "variants": list(self.variants),
            "cap": self.cap,
            "muts": None if self.muts is None else list(self.muts),
            "checkpoint_every": self.checkpoint_every,
            "shards": self.shards,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        try:
            muts = data.get("muts")
            return cls(
                tenant=str(data["tenant"]),
                job_key=str(data["job_key"]),
                variants=tuple(str(v) for v in data["variants"]),
                cap=int(data["cap"]),
                muts=None if muts is None else tuple(str(m) for m in muts),
                checkpoint_every=int(data.get("checkpoint_every", 5)),
                shards=int(data.get("shards", 1)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise JobQueueError(f"malformed job spec: {exc}") from exc

    def shard_tokens(self, variant: str) -> list[str]:
        """The work tokens one variant contributes: the bare variant
        key when the job is unsharded (the historical scheme, so old
        ``shards_done`` sets keep matching), else ``variant#k`` per
        slice."""
        if self.shards <= 1:
            return [variant]
        return [f"{variant}#{index}" for index in range(self.shards)]

    def all_tokens(self) -> list[str]:
        return [
            token
            for variant in self.variants
            for token in self.shard_tokens(variant)
        ]


def split_token(token: str) -> tuple[str, int]:
    """``(variant, slice index)`` from a shard token.  Bare variants
    (unsharded jobs) are slice 0."""
    variant, _, index = token.partition("#")
    try:
        return variant, int(index) if index else 0
    except ValueError:
        return variant, 0


@dataclass
class JobRecord:
    """One queued job's durable state."""

    job_id: str
    spec: JobSpec
    state: str = JOB_PENDING
    shards_done: set[str] = field(default_factory=set)
    error: str | None = None

    def as_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "spec": self.spec.as_dict(),
            "state": self.state,
            "shards_done": sorted(self.shards_done),
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "JobRecord":
        try:
            return cls(
                job_id=str(data["job_id"]),
                spec=JobSpec.from_dict(data["spec"]),
                state=str(data.get("state", JOB_PENDING)),
                shards_done=set(data.get("shards_done", [])),
                error=data.get("error"),
            )
        except (KeyError, TypeError) as exc:
            raise JobQueueError(f"malformed job record: {exc}") from exc


class JobQueue:
    """The persistent queue: snapshot + journal + per-job artifacts.

    Thread-safe: the service's network thread submits while its
    scheduler thread marks shards done.
    """

    def __init__(
        self,
        root: str | pathlib.Path,
        compact_every: int = DEFAULT_COMPACT_EVERY,
    ) -> None:
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / "jobs").mkdir(exist_ok=True)
        self.compact_every = max(1, compact_every)
        self._lock = threading.Lock()
        self._jobs: dict[str, JobRecord] = {}
        self._by_submit_key: dict[tuple[str, str], str] = {}
        #: The ids of jobs neither done nor failed, in submission order
        #: (a dict for its order and O(1) removal): the scheduler walks
        #: these, not every job the data dir ever held.
        self._live: dict[str, None] = {}
        self._next_seq = 1
        self._journal_ops = 0
        self._load()
        self._journal = open(  # noqa: SIM115 - long-lived append handle
            self._journal_path(), "a", encoding="utf-8"
        )

    # -- paths ---------------------------------------------------------

    def _snapshot_path(self) -> pathlib.Path:
        return self.root / "queue.json"

    def _journal_path(self) -> pathlib.Path:
        return self.root / "queue.journal"

    def job_dir(self, job_id: str) -> pathlib.Path:
        path = self.root / "jobs" / job_id
        path.mkdir(parents=True, exist_ok=True)
        return path

    def shard_file(self, job_id: str, token: str) -> pathlib.Path:
        """Where this shard token's worker checkpoints (and resumes
        from).  ``token`` is a bare variant key or ``variant#k``."""
        return shard_path(self.job_dir(job_id) / "campaign.ckpt", token)

    def results_file(self, job_id: str) -> pathlib.Path:
        return self.job_dir(job_id) / "results.json"

    # -- persistence ---------------------------------------------------

    def _load(self) -> None:
        snapshot = self._snapshot_path()
        if snapshot.exists():
            document = json.loads(snapshot.read_text(encoding="utf-8"))
            if document.get("format") != QUEUE_FORMAT:
                raise JobQueueError(f"{snapshot} is not a job-queue snapshot")
            if document.get("version") not in SUPPORTED_QUEUE_VERSIONS:
                raise JobQueueError(
                    f"unsupported queue version {document.get('version')!r}"
                )
            self._next_seq = int(document.get("next_seq", 1))
            for data in document.get("jobs", []):
                record = JobRecord.from_dict(data)
                self._jobs[record.job_id] = record
        journal = self._journal_path()
        if journal.exists():
            for line_no, line in enumerate(
                journal.read_text(encoding="utf-8").splitlines(), start=1
            ):
                if not line.strip():
                    continue
                try:
                    op = json.loads(line)
                except json.JSONDecodeError:
                    # A torn tail: the process died mid-append.  The op
                    # it was recording never took effect; everything
                    # before it did.
                    warnings.warn(
                        f"job-queue journal {journal} has a torn line "
                        f"{line_no}; replay stops there"
                    )
                    break
                self._apply(op)
                self._journal_ops += 1
        # Leases are process-local: anything that was mid-flight when
        # the previous service died is simply pending again.
        for record in self._jobs.values():
            if record.state == JOB_RUNNING:
                record.state = JOB_PENDING
        # Rebuild the idempotent-submission index over everything loaded
        # (snapshot rows never travel through ``_apply``).
        self._by_submit_key = {
            (record.spec.tenant, record.spec.job_key): record.job_id
            for record in self._jobs.values()
        }
        self._live = {
            job_id: None
            for job_id in sorted(self._jobs, key=_seq_of)
            if self._jobs[job_id].state not in (JOB_DONE, JOB_FAILED)
        }

    def _apply(self, op: dict) -> None:
        """Replay one journal operation onto the in-memory state."""
        kind = op.get("op")
        if kind == "submit":
            record = JobRecord.from_dict(op["job"])
            self._jobs[record.job_id] = record
            self._next_seq = max(
                self._next_seq, _seq_of(record.job_id) + 1
            )
        elif kind == "shard_done":
            record = self._jobs.get(op.get("job_id", ""))
            if record is not None:
                record.shards_done.add(str(op.get("variant")))
        elif kind == "job_done":
            record = self._jobs.get(op.get("job_id", ""))
            if record is not None:
                record.state = JOB_DONE
        elif kind == "job_failed":
            record = self._jobs.get(op.get("job_id", ""))
            if record is not None:
                record.state = JOB_FAILED
                record.error = str(op.get("error", ""))
        else:
            warnings.warn(f"job-queue journal has unknown op {kind!r}")

    def _append(self, op: dict) -> None:
        self._journal.write(json.dumps(op, sort_keys=True) + "\n")
        self._journal.flush()
        os.fsync(self._journal.fileno())
        self._journal_ops += 1
        if self._journal_ops >= self.compact_every:
            self._compact_locked()

    def _compact_locked(self) -> None:
        document = {
            "format": QUEUE_FORMAT,
            "version": QUEUE_VERSION,
            "next_seq": self._next_seq,
            "jobs": [
                self._jobs[job_id].as_dict()
                for job_id in sorted(self._jobs, key=_seq_of)
            ],
        }
        _atomic_write(
            self._snapshot_path(),
            json.dumps(document, separators=(",", ":"), sort_keys=True),
        )
        # The snapshot now covers every journaled op: truncate in place
        # (the handle stays valid for future appends).
        self._journal.seek(0)
        self._journal.truncate()
        self._journal.flush()
        self._journal_ops = 0

    def compact(self) -> None:
        """Fold the journal into an atomic snapshot (drain/shutdown)."""
        with self._lock:
            self._compact_locked()

    def close(self) -> None:
        with self._lock:
            self._compact_locked()
            self._journal.close()

    # -- operations ----------------------------------------------------

    def submit(self, spec: JobSpec) -> tuple[JobRecord, bool]:
        """Enqueue a job; idempotent on ``(tenant, job_key)``.

        Returns ``(record, created)`` -- ``created`` is False when the
        submission deduplicated against an existing job."""
        with self._lock:
            existing = self._by_submit_key.get((spec.tenant, spec.job_key))
            if existing is not None:
                return self._jobs[existing], False
            job_id = f"job-{self._next_seq:04d}"
            self._next_seq += 1
            record = JobRecord(job_id=job_id, spec=spec)
            self._jobs[job_id] = record
            self._by_submit_key[(spec.tenant, spec.job_key)] = job_id
            self._live[job_id] = None
            self._append({"op": "submit", "job": record.as_dict()})
            return record, True

    def get(self, job_id: str) -> JobRecord | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[JobRecord]:
        """Every job record, in submission order."""
        with self._lock:
            return [
                self._jobs[job_id]
                for job_id in sorted(self._jobs, key=_seq_of)
            ]

    def live_jobs(self) -> list[JobRecord]:
        """The records of jobs neither done nor failed, in submission
        order: what a scheduling pass has to look at, however many
        finished jobs the queue holds."""
        with self._lock:
            return [self._jobs[job_id] for job_id in self._live]

    def mark_running(self, job_id: str) -> None:
        """In-memory only: lease state is not durable."""
        with self._lock:
            record = self._jobs[job_id]
            if record.state == JOB_PENDING:
                record.state = JOB_RUNNING

    def mark_shard_done(self, job_id: str, token: str) -> bool:
        """Record one shard token's completion; returns True when it
        was the job's last outstanding token.  (The journal op keeps
        its historical ``variant`` field name -- for unsharded jobs the
        token *is* the variant, so old journals replay unchanged.)"""
        with self._lock:
            record = self._jobs[job_id]
            if token not in record.shards_done:
                record.shards_done.add(token)
                self._append(
                    {"op": "shard_done", "job_id": job_id, "variant": token}
                )
            return set(record.spec.all_tokens()) <= record.shards_done

    def mark_job_done(self, job_id: str) -> None:
        with self._lock:
            record = self._jobs[job_id]
            self._live.pop(job_id, None)
            if record.state != JOB_DONE:
                record.state = JOB_DONE
                self._append({"op": "job_done", "job_id": job_id})

    def mark_job_failed(self, job_id: str, error: str) -> None:
        with self._lock:
            record = self._jobs[job_id]
            self._live.pop(job_id, None)
            if record.state != JOB_FAILED:
                record.state = JOB_FAILED
                record.error = error
                self._append(
                    {"op": "job_failed", "job_id": job_id, "error": error}
                )


def _seq_of(job_id: str) -> int:
    """Submission sequence from a ``job-NNNN`` identifier (0 on junk,
    which only affects display ordering)."""
    _, _, digits = job_id.partition("-")
    try:
        return int(digits)
    except ValueError:
        return 0
