"""The portable Ballista testing client.

One client instance tests one OS variant: it announces itself to the
server, pulls the deterministic test plan for each MuT, runs the plan
through the campaign's own plan driver and case runner
(:func:`~repro.core.campaign.drive_plan`), and REPORTs each finished row
in the results codec's encoding -- so the server holds exactly what a
local :class:`~repro.core.campaign.Campaign` would have recorded.

Dependability: calls go through a retrying
:class:`~repro.service.rpc.RpcClient` (exponential backoff, per-call
deadlines) so a lossy link does not kill the campaign; every REPORT
carries its MuT's plan position as a sequence number, so a retransmitted
batch is never double-counted by the server; and the client can write a
campaign checkpoint from which a restarted client resumes.  A row is
reported before the driver moves the plan cursor past it, so every MuT a
saved checkpoint holds was already acknowledged.
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

from repro.core.campaign import CampaignConfig, _run_mut, check_resume, drive_plan
from repro.core.generator import CaseGenerator
from repro.core.mut import MuTRegistry, default_registry
from repro.core.results import ResultSet
from repro.core.results_io import (
    CampaignCheckpoint,
    load_checkpoint,
    results_from_dict,
    row_to_dict,
    save_checkpoint,
)
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
from repro.sim.personality import Personality


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
    :param checkpoint_path: write a campaign checkpoint here every
        ``checkpoint_every`` MuTs (and at the end); a relaunched client
        pointed at the same path resumes from it, as ``Campaign.run``
        resumes, after checking it against its variant and the cap.
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
        #: The interrupted run's checkpoint, resumed by :meth:`run`.
        self._resume: CampaignCheckpoint | None = None
        if self.checkpoint_path is not None and self.checkpoint_path.exists():
            self._resume = load_checkpoint(self.checkpoint_path)
            if self._resume.variants not in (None, [personality.key]):
                raise ValueError(
                    f"checkpoint is for variants {self._resume.variants}, "
                    f"this client tests {personality.key!r}"
                )

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

    def heartbeat(self) -> None:
        """Renew this variant's lease on the server."""
        self.rpc.call(P.PROC_HEARTBEAT, P.encode_hello(self.personality.key))

    def run(self) -> int:
        """Execute the full plan; returns the number of MuTs tested."""
        variant = self.personality.key
        reply = self.rpc.call(P.PROC_HELLO, P.encode_hello(variant))
        entries, cap = P.decode_hello_reply(reply)
        config = CampaignConfig(cap=cap)
        generator = CaseGenerator(self.types, cap=cap)
        muts = [self.registry.get(entry.api, entry.name) for entry in entries]
        checkpoint = self._resume or CampaignCheckpoint(
            ResultSet(), cap=cap, variants=[variant]
        )
        check_resume(checkpoint, config, [variant])

        def run_unit(executor, mut, key, result, config, heartbeat, recorder):
            plan = self.rpc.call(P.PROC_GET_PLAN, P.encode_get_plan(mut.api, mut.name))
            generator.adopt_plan(mut, P.decode_plan_reply(plan))
            _run_mut(executor, mut, key, result, config, heartbeat, recorder)
            # The plan position is the REPORT's sequence number, so a
            # resumed client re-sends a batch under the same number.
            report = {"seq": muts.index(mut), "row": row_to_dict(result)}
            return lambda: self.rpc.call(P.PROC_REPORT, P.encode_json(report))

        drive_plan(
            run_unit, self.personality, muts, generator, config,
            checkpoint.results, None, checkpoint, self.checkpoint_path,
            self.checkpoint_every,
        )
        self.rpc.call(P.PROC_COMPLETE, P.encode_hello(variant))
        checkpoint.complete = True
        if self.checkpoint_path is not None:
            save_checkpoint(checkpoint, self.checkpoint_path)
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
