"""The portable Ballista testing client.

One client instance tests one OS variant: it boots the simulated
machine, announces itself to the server, pulls the deterministic test
plan for each MuT, executes every case in a fresh process, and streams
one result batch per MuT back.  A Catastrophic failure interrupts the
MuT (the machine reboots) exactly as in the local campaign.

Dependability: calls go through a retrying
:class:`~repro.service.rpc.RpcClient` (exponential backoff, per-call
deadlines) so a lossy link does not kill the campaign; every REPORT
carries a per-variant sequence number so a retransmitted batch is never
double-counted by the server; and the client can periodically write a
small checkpoint file from which a restarted client resumes, skipping
MuTs whose batches the server already acknowledged.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import socket
import time
import zlib
from typing import Callable

from repro.core.crash_scale import CaseCode
from repro.core.executor import Executor
from repro.core.generator import CaseGenerator, TestCase
from repro.core.mut import MuTRegistry, default_registry
from repro.core.results import ResultSet
from repro.core.results_io import results_from_dict
from repro.core.types import TypeRegistry, default_types
from repro.service import protocol as P
from repro.service.rpc import (
    RetryPolicy,
    RpcClient,
    RpcError,
    RpcTimeout,
    SocketTransport,
    Transport,
)
from repro.sim.machine import Machine
from repro.sim.personality import Personality

_INTERFERENCE_MARKER = "accumulated corruption"

CLIENT_CHECKPOINT_FORMAT = "ballista-client-checkpoint"


def default_connect_timeout() -> float:
    """TCP connect timeout in seconds: ``BALLISTA_CONNECT_TIMEOUT``,
    default 30 (the service's historical hardcoded value).  Raises
    :class:`ValueError` naming the variable on junk or non-positive
    values, so callers (the CLI) can report it cleanly -- the
    ``BALLISTA_CAP`` precedent."""
    raw = os.environ.get("BALLISTA_CONNECT_TIMEOUT", "30")
    try:
        timeout = float(raw)
    except ValueError:
        raise ValueError(
            f"BALLISTA_CONNECT_TIMEOUT must be a number of seconds, "
            f"got {raw!r}"
        ) from None
    if timeout <= 0:
        raise ValueError(
            f"BALLISTA_CONNECT_TIMEOUT must be > 0 seconds, got {timeout}"
        )
    return timeout


class BallistaClient:
    """Runs one variant's tests against the central server.

    :param retry: RPC retransmission policy; pass ``None`` for the
        legacy single-shot behaviour (any transport fault is fatal).
    :param checkpoint_path: write a resume file here after every
        ``checkpoint_every`` acknowledged MuT batches; a relaunched
        client pointed at the same path skips the acknowledged MuTs.
    """

    def __init__(
        self,
        personality: Personality,
        transport: Transport,
        registry: MuTRegistry | None = None,
        types: TypeRegistry | None = None,
        retry: RetryPolicy | None = RetryPolicy(),
        checkpoint_path: str | pathlib.Path | None = None,
        checkpoint_every: int = 5,
    ) -> None:
        self.personality = personality
        if retry is not None and retry.jitter_seed == 0:
            # De-correlate the fleet deterministically: each variant's
            # client jitters its retries on its own reproducible stream
            # (same variant -> same schedule on every run), so clients
            # that lost the same server do not retry in lock-step.
            retry = dataclasses.replace(
                retry, jitter_seed=zlib.crc32(personality.key.encode())
            )
        self.rpc = RpcClient(transport, retry=retry)
        self.registry = registry or default_registry()
        self.types = types or default_types()
        self.checkpoint_path = (
            pathlib.Path(checkpoint_path) if checkpoint_path else None
        )
        self.checkpoint_every = checkpoint_every
        #: "api:name" keys of MuTs whose REPORT the server acknowledged.
        self._reported: set[str] = set()
        self._seq = 0
        self._wear: dict = {}
        self._load_checkpoint()

    @classmethod
    def connect(
        cls,
        personality: Personality,
        host: str,
        port: int,
        wrap: Callable[[Transport], Transport] | None = None,
        timeout: float | None = None,
        **kwargs,
    ) -> "BallistaClient":
        """Connect over TCP.  ``wrap`` interposes on the transport before
        the client sees it (e.g. ``ChaosTransport`` for fault drills);
        ``timeout`` bounds the TCP connect (default:
        ``BALLISTA_CONNECT_TIMEOUT`` or 30 s)."""
        if timeout is None:
            timeout = default_connect_timeout()
        sock = socket.create_connection((host, port), timeout=timeout)
        transport: Transport = SocketTransport(sock)
        if wrap is not None:
            transport = wrap(transport)
        return cls(personality, transport, **kwargs)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def _load_checkpoint(self) -> None:
        if self.checkpoint_path is None or not self.checkpoint_path.exists():
            return
        document = json.loads(self.checkpoint_path.read_text(encoding="utf-8"))
        if document.get("format") != CLIENT_CHECKPOINT_FORMAT:
            raise ValueError(f"{self.checkpoint_path} is not a client checkpoint")
        if document.get("variant") != self.personality.key:
            raise ValueError(
                f"checkpoint is for variant {document.get('variant')!r}, "
                f"this client tests {self.personality.key!r}"
            )
        self._reported = set(document.get("reported", []))
        self._seq = int(document.get("next_seq", len(self._reported)))
        self._wear = {
            k: int(v) if isinstance(v, (int, bool)) else v
            for k, v in document.get("machine_wear", {}).items()
        }

    def _save_checkpoint(self) -> None:
        if self.checkpoint_path is None:
            return
        document = {
            "format": CLIENT_CHECKPOINT_FORMAT,
            "version": 1,
            "variant": self.personality.key,
            "reported": sorted(self._reported),
            "next_seq": self._seq,
            "machine_wear": self._wear,
        }
        tmp = self.checkpoint_path.with_name(self.checkpoint_path.name + ".tmp")
        tmp.write_text(json.dumps(document), encoding="utf-8")
        os.replace(tmp, self.checkpoint_path)

    # ------------------------------------------------------------------

    def heartbeat(self) -> None:
        """Renew this variant's lease on the server."""
        self.rpc.call(P.PROC_HEARTBEAT, P.encode_hello(self.personality.key))

    def run(self) -> int:
        """Execute the full plan; returns the number of MuTs tested."""
        reply = self.rpc.call(
            P.PROC_HELLO, P.encode_hello(self.personality.key)
        )
        entries, cap = P.decode_hello_reply(reply)
        generator = CaseGenerator(self.types, cap=cap)
        machine = Machine(self.personality)
        if self._wear:
            machine.restore_wear(self._wear)
        executor = Executor(machine, generator)

        since_checkpoint = 0
        for entry in entries:
            key = f"{entry.api}:{entry.name}"
            if key in self._reported:
                continue  # the server already has this batch
            mut = self.registry.get(entry.api, entry.name)
            plan = P.decode_plan_reply(
                self.rpc.call(
                    P.PROC_GET_PLAN, P.encode_get_plan(entry.api, entry.name)
                )
            )
            codes = bytearray()
            exceptional = bytearray()
            error_codes: list[int] = []
            interference = False
            for index, value_names in enumerate(plan):
                case = TestCase(mut.name, index, value_names)
                outcome = executor.run_case(mut, case)
                codes.append(int(outcome.code))
                exceptional.append(1 if outcome.exceptional_input else 0)
                error_codes.append(outcome.error_code)
                if outcome.code is CaseCode.CATASTROPHIC:
                    if _INTERFERENCE_MARKER in outcome.detail:
                        interference = True
                    machine.reboot()
                    break
            self.rpc.call(
                P.PROC_REPORT,
                P.encode_report(
                    self.personality.key,
                    entry.api,
                    entry.name,
                    bytes(codes),
                    bytes(exceptional),
                    interference,
                    capped=generator.is_capped(mut),
                    planned=len(plan),
                    error_codes=error_codes,
                    seq=self._seq,
                ),
            )
            self._seq += 1
            self._reported.add(key)
            self._wear = machine.wear_state()
            since_checkpoint += 1
            if since_checkpoint >= self.checkpoint_every:
                self._save_checkpoint()
                since_checkpoint = 0
        self.rpc.call(P.PROC_COMPLETE, P.encode_hello(self.personality.key))
        self._save_checkpoint()
        return len(entries)

    def close(self) -> None:
        self.rpc.close()


# ======================================================================
# Multi-tenant campaign-service client
# ======================================================================


class ServiceError(RpcError):
    """The campaign service rejected a request (an application-level
    ``{"ok": false}`` reply -- the transport and RPC layers are fine)."""


class ServiceClient:
    """Client for the :class:`~repro.service.server.CampaignService`.

    Tenants submit campaign specs and poll for status and result pages;
    the service runs the cases.  Every v2 procedure is idempotent, so
    the retrying RPC core can replay any request over a lossy link, and
    FETCH cursors make result streaming resumable: keep the ``state``
    dict passed to :meth:`stream` and a reconnected client picks up
    mid-stream without ever seeing a duplicate row.
    """

    def __init__(
        self,
        transport: Transport,
        retry: RetryPolicy | None = RetryPolicy(),
        recorder=None,
    ) -> None:
        self.rpc = RpcClient(transport, retry=retry, recorder=recorder)

    @classmethod
    def connect(
        cls,
        host: str,
        port: int,
        wrap: Callable[[Transport], Transport] | None = None,
        timeout: float | None = None,
        **kwargs,
    ) -> "ServiceClient":
        """Connect over TCP; same ``wrap``/``timeout`` contract as
        :meth:`BallistaClient.connect`."""
        if timeout is None:
            timeout = default_connect_timeout()
        sock = socket.create_connection((host, port), timeout=timeout)
        sock.settimeout(None)
        transport: Transport = SocketTransport(sock)
        if wrap is not None:
            transport = wrap(transport)
        return cls(transport, **kwargs)

    def _call(self, procedure: int, document: dict) -> dict:
        reply = P.decode_json(self.rpc.call(procedure, P.encode_json(document)))
        if not reply.get("ok", False):
            raise ServiceError(str(reply.get("error", "service error")))
        return reply

    # ------------------------------------------------------------------

    @staticmethod
    def job_key_for(document: dict) -> str:
        """Deterministic submission key: the same spec always maps to
        the same key, so a resubmission (retransmit, reconnect, or a
        retried CLI invocation) deduplicates server-side."""
        canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
        return f"auto-{zlib.crc32(canonical.encode()):08x}"

    def submit(
        self,
        variants: list[str],
        cap: int,
        muts: list[str] | None = None,
        tenant: str = "default",
        job_key: str | None = None,
        checkpoint_every: int = 5,
        shards: int = 1,
    ) -> tuple[str, bool]:
        """Submit a campaign; returns ``(job_id, created)`` --
        ``created`` is False when the service already had this
        ``(tenant, job_key)`` submission.  ``shards`` > 1 slices each
        variant's plan into that many chained slices (finer lease/
        checkpoint granularity; byte-identical results either way)."""
        document = {
            "tenant": tenant,
            "variants": list(variants),
            "cap": int(cap),
            "muts": None if muts is None else list(muts),
            "checkpoint_every": int(checkpoint_every),
            "shards": int(shards),
        }
        document["job_key"] = (
            job_key if job_key is not None else self.job_key_for(document)
        )
        reply = self._call(P.PROC_SUBMIT, document)
        return reply["job_id"], bool(reply["created"])

    def status(self, job_id: str) -> dict:
        """A coalesced snapshot: job state plus, per shard, done/leased
        flags, the grant attempt count, and the latest progress beacon."""
        return self._call(P.PROC_JOB_STATUS, {"job_id": job_id})

    def fetch(
        self,
        job_id: str,
        variant: str,
        cursor: int = 0,
        max_rows: int = P.MAX_FETCH_ROWS,
    ) -> dict:
        """One page of plan-ordered result rows from ``cursor``."""
        return self._call(
            P.PROC_FETCH,
            {
                "job_id": job_id,
                "variant": variant,
                "cursor": cursor,
                "max_rows": max_rows,
            },
        )

    def queue_stats(self) -> dict:
        return self._call(P.PROC_QUEUE_STATS, {})

    def stream(
        self,
        job_id: str,
        state: dict | None = None,
        poll_s: float = 0.05,
        timeout: float = 300.0,
    ) -> ResultSet:
        """Poll the job to completion, streaming result rows
        incrementally, and return the assembled
        :class:`~repro.core.results.ResultSet` (byte-identical, once
        saved, to the job's ``results.json``, quarantined MuTs included).

        ``state`` is the resumable stream position (per-shard cursors
        plus what was already received).  Pass the *same dict* to a new
        client after a disconnect and the stream resumes exactly where
        it stopped -- no duplicate rows, nothing lost."""
        state = {} if state is None else state
        cursors = state.setdefault("cursors", {})
        rows = state.setdefault("rows", [])
        quarantined = state.setdefault("quarantined", [])
        finished = state.setdefault("finished", [])
        deadline = time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            for variant in status["shards"]:
                if variant in finished:
                    continue
                while True:
                    page = self.fetch(
                        job_id, variant, cursor=cursors.get(variant, 0)
                    )
                    rows.extend(page["rows"])
                    cursors[variant] = page["cursor"]
                    if page["done"]:
                        finished.append(variant)
                        quarantined.extend(page.get("quarantined", []))
                        break
                    if not page["rows"]:
                        break  # drained what exists so far
            if status["state"] == "failed":
                raise ServiceError(
                    f"job {job_id} failed: {status.get('error')}"
                )
            if status["state"] == "done" and set(status["shards"]) <= set(
                finished
            ):
                return results_from_dict(
                    {
                        "format": "ballista-results",
                        "version": 2,
                        "results": rows,
                        "quarantined": quarantined,
                    }
                )
            if time.monotonic() >= deadline:
                raise RpcTimeout(
                    f"job {job_id} did not complete within {timeout}s"
                )
            time.sleep(poll_s)

    def close(self) -> None:
        self.rpc.close()
