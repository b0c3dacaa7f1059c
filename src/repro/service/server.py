"""The central Ballista test server.

The server owns the MuT registry and the deterministic case generator,
hands out test plans to clients, and accumulates their reports into a
:class:`~repro.core.results.ResultSet` that the analysis layer consumes
exactly as if a local :class:`~repro.core.campaign.Campaign` had
produced it.

Dependability: every procedure is idempotent so that clients may
retransmit freely over lossy links -- HELLO and GET_PLAN are pure reads
of deterministic state, COMPLETE is a set insert, and REPORT carries a
per-variant sequence number so a duplicate batch is acknowledged but
never double-counted.  The server also tracks a lease per connected
variant (renewed by every RPC, including explicit HEARTBEATs); when a
lease expires, :meth:`BallistaServer.join` marks that variant's results
partial and lets the campaign finish with the survivors instead of
hanging forever on a dead client.

Two servers live here:

* :class:`BallistaServer` -- the original thread-per-connection server
  where remote *clients* execute the test cases (the 1999 topology).
* :class:`CampaignService` -- the multi-tenant campaign service: a
  selector-multiplexed control plane where clients merely *submit*
  campaign specs; the service runs the cases itself on leased workers
  of one warm :class:`~repro.core.pool.WorkerPool`, journals every job
  durably, and streams results back through
  cursor-addressed FETCH pages.  Its survival contract: under chaos
  transports, client disconnect/reconnect, and mid-run worker SIGKILL,
  every campaign completes byte-identical to its serial run.
"""

from __future__ import annotations

import queue as _queue
import selectors
import socket
import threading
import time

from repro.core.crash_scale import CaseCode
from repro.core.generator import CaseGenerator
from repro.core.mut import MuTRegistry, default_registry
from repro.core.parallel import shard_bounds
from repro.core.pool import WorkerPool
from repro.core.results import ResultSet
from repro.core.results_io import (
    ResultFormatError,
    load_checkpoint,
    merge_checkpoints,
    results_to_dict,
    save_results,
)
from repro.core.types import TypeRegistry, default_types
from repro.obs import events as obs_events
from repro.service import protocol as P
from repro.service.leases import LeaseError, LeaseManager
from repro.service.queue import (
    JOB_DONE,
    JOB_FAILED,
    JobQueue,
    JobRecord,
    JobSpec,
    split_token,
)
from repro.service.rpc import (
    ACCEPT_GARBAGE_ARGS,
    ACCEPT_PROC_UNAVAIL,
    ACCEPT_SUCCESS,
    ACCEPT_SYSTEM_ERR,
    LAST_FRAGMENT,
    MAX_RECORD,
    ProtocolError,
    RpcError,
    SocketTransport,
    Transport,
    decode_call,
    encode_reply,
    serve_connection,
)
from repro.service.xdr import XdrDecoder, XdrError
from repro.sim.personality import Personality


class BallistaServer:
    """Hands out test plans, collects results.

    :param variants: personalities the server knows (clients announce a
        variant key at HELLO time).
    :param cap: per-MuT case cap sent to clients.
    :param lease_s: per-variant lease duration in seconds.  A variant
        whose lease expires (no RPC for this long after it said HELLO)
        is declared dead by :meth:`join` and its results marked partial.
    """

    def __init__(
        self,
        variants: list[Personality],
        registry: MuTRegistry | None = None,
        types: TypeRegistry | None = None,
        cap: int = 300,
        lease_s: float = 30.0,
    ) -> None:
        self.registry = registry or default_registry()
        self.types = types or default_types()
        self.generator = CaseGenerator(self.types, cap=cap)
        self.cap = cap
        self.lease_s = lease_s
        self._variants = {p.key: p for p in variants}
        self.results = ResultSet()
        self._lock = threading.Lock()
        self._threads: list[threading.Thread] = []
        self._listener: socket.socket | None = None
        self._completed: set[str] = set()
        self._expired: set[str] = set()
        #: variant -> monotonic timestamp of its last RPC (the lease).
        self._last_seen: dict[str, float] = {}
        #: variant -> REPORT sequence numbers already applied.
        self._applied_seqs: dict[str, set[int]] = {}
        #: duplicate REPORTs acknowledged without recording.
        self.duplicate_reports = 0

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------

    def handlers(self):
        return {
            P.PROC_HELLO: self._on_hello,
            P.PROC_GET_PLAN: self._on_get_plan,
            P.PROC_REPORT: self._on_report,
            P.PROC_COMPLETE: self._on_complete,
            P.PROC_HEARTBEAT: self._on_heartbeat,
        }

    def _renew_lease(self, variant_key: str) -> None:
        with self._lock:
            self._last_seen[variant_key] = time.monotonic()

    def _on_hello(self, dec: XdrDecoder) -> bytes:
        variant_key = P.decode_hello(dec)
        personality = self._variants[variant_key]
        self._renew_lease(variant_key)
        entries = [
            P.PlanEntry(m.api, m.name, m.group, m.param_types)
            for m in self.registry.for_variant(personality)
        ]
        return P.encode_hello_reply(entries, self.cap)

    def _on_get_plan(self, dec: XdrDecoder) -> bytes:
        api, name = P.decode_get_plan(dec)
        mut = self.registry.get(api, name)
        cases = [case.value_names for case in self.generator.cases(mut)]
        return P.encode_plan_reply(cases)

    def _on_report(self, dec: XdrDecoder) -> bytes:
        report = P.decode_report(dec)
        variant = report["variant"]
        self._renew_lease(variant)
        mut = self.registry.get(report["api"], report["name"])
        with self._lock:
            applied = self._applied_seqs.setdefault(variant, set())
            if report["seq"] in applied:
                # A retransmission of a batch we already recorded: the
                # original ack was lost.  Acknowledge, do not re-count.
                self.duplicate_reports += 1
                return b""
            result = self.results.new_result(
                variant, mut.name, mut.api, mut.group
            )
            error_codes = report["error_codes"] or [0] * len(report["codes"])
            for index, (code, exceptional, error_code) in enumerate(
                zip(report["codes"], report["exceptional"], error_codes)
            ):
                result.record(
                    index,
                    CaseCode(code),
                    bool(exceptional),
                    error_code=error_code,
                )
            result.interference_crash = report["interference"]
            result.capped = report["capped"]
            result.planned_cases = report["planned"]
            applied.add(report["seq"])
        return b""

    def _on_complete(self, dec: XdrDecoder) -> bytes:
        variant_key = P.decode_hello(dec)
        self._renew_lease(variant_key)
        with self._lock:
            self._completed.add(variant_key)
        return b""

    def _on_heartbeat(self, dec: XdrDecoder) -> bytes:
        self._renew_lease(P.decode_hello(dec))
        return b""

    def completed_variants(self) -> set[str]:
        with self._lock:
            return set(self._completed)

    # ------------------------------------------------------------------
    # Local fallback
    # ------------------------------------------------------------------

    def run_local(
        self,
        jobs: int | None = None,
        progress=None,
        supervise: bool = True,
        policy=None,
    ) -> ResultSet:
        """Run the campaign in-process when no remote clients will
        connect -- the local fallback for a degraded fleet.

        Variants fan out across worker processes exactly like
        :class:`~repro.core.parallel.ParallelCampaign` (``jobs`` as
        there), producing the same result set remote clients would have
        reported.  By default the workers run under the self-healing
        :class:`~repro.core.supervisor.SupervisedCampaign` (tunable via
        ``policy``, a :class:`~repro.core.supervisor.SupervisorPolicy`);
        pass ``supervise=False`` for the bare runner.  A server built
        with a custom MuT/type registry falls back to the serial
        :class:`~repro.core.campaign.Campaign`: the registries' call
        implementations are closures and cannot cross the spawn
        boundary.  Completed variants are marked so :meth:`join`
        returns immediately for them.
        """
        from repro.core.campaign import Campaign, CampaignConfig
        from repro.core.mut import default_registry
        from repro.core.parallel import ParallelCampaign
        from repro.core.supervisor import SupervisedCampaign
        from repro.core.types import default_types

        variants = list(self._variants.values())
        config = CampaignConfig(cap=self.cap)
        stock = (
            self.registry is default_registry()
            and self.types is default_types()
        )
        if stock and supervise:
            runner = SupervisedCampaign(
                variants, config=config, jobs=jobs, policy=policy
            )
        elif stock:
            runner = ParallelCampaign(variants, config=config, jobs=jobs)
        else:
            runner = Campaign(
                variants,
                registry=self.registry,
                types=self.types,
                config=config,
            )
        local = runner.run(progress=progress)
        with self._lock:
            self.results.merge(local)
            self._completed |= {p.key for p in variants}
        return self.results

    def expired_variants(self) -> set[str]:
        """Variants whose lease ran out before they completed."""
        with self._lock:
            return set(self._expired)

    def _check_leases(self) -> None:
        """Expire leases of connected-but-silent variants."""
        now = time.monotonic()
        with self._lock:
            for variant, seen in self._last_seen.items():
                if variant in self._completed or variant in self._expired:
                    continue
                if now - seen > self.lease_s:
                    self._expired.add(variant)
                    self.results.mark_partial(variant)

    # ------------------------------------------------------------------
    # Transports
    # ------------------------------------------------------------------

    def attach(self, transport: Transport) -> threading.Thread:
        """Serve one client connection on a background thread."""
        thread = threading.Thread(
            target=serve_connection,
            args=(transport, self.handlers()),
            daemon=True,
        )
        thread.start()
        self._threads.append(thread)
        return thread

    def listen(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Accept TCP clients; returns the bound (host, port)."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen()
        self._listener = listener

        def accept_loop() -> None:
            while True:
                try:
                    conn, _addr = listener.accept()
                except OSError:
                    return
                self.attach(SocketTransport(conn))

        thread = threading.Thread(target=accept_loop, daemon=True)
        thread.start()
        self._threads.append(thread)
        return listener.getsockname()

    def shutdown(self) -> None:
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:  # pragma: no cover - defensive
                pass

    def join(self, variant_keys: set[str], timeout: float = 60.0) -> None:
        """Block until every requested variant has either reported
        completion or lost its lease.

        A variant that connected but fell silent for longer than
        ``lease_s`` is marked expired -- its partial results stay in
        :attr:`results`, flagged via
        :meth:`~repro.core.results.ResultSet.mark_partial` -- and the
        campaign proceeds with the survivors.  Variants that *never*
        connected have no lease to expire, so those still raise
        :class:`TimeoutError` when ``timeout`` runs out.
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            self._check_leases()
            settled = self.completed_variants() | self.expired_variants()
            if variant_keys <= settled:
                return
            time.sleep(0.01)
        missing = variant_keys - self.completed_variants() - self.expired_variants()
        raise TimeoutError(f"clients never completed: {sorted(missing)}")


# ======================================================================
# Multi-tenant campaign service
# ======================================================================


class _ServiceConnection:
    """One client socket in the selector loop.

    Inbound: an incremental RFC 5531 record-marking parser -- bytes
    accumulate in ``inbuf`` until whole records fall out; framing damage
    (implausible length prefix, oversize record) raises
    :class:`ProtocolError` so the service can close the connection with
    a typed event instead of a raw struct error.

    Outbound: a bounded write buffer.  When a slow consumer lets the
    buffer climb past ``HIGH_WATER`` the service *pauses reading* from
    that connection (backpressure: no new requests, so no new replies)
    until the buffer drains below ``LOW_WATER``.  Because the v2
    protocol is poll-based, a paused client loses nothing -- its next
    STATUS simply returns a fresher snapshot (progress is coalesced by
    construction).
    """

    HIGH_WATER = 256 * 1024
    LOW_WATER = 128 * 1024

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.fileno = sock.fileno()
        self.inbuf = bytearray()
        self.fragments = bytearray()  # record assembled so far
        self.outbuf = bytearray()
        self.paused = False

    @property
    def mid_record(self) -> bool:
        return bool(self.inbuf or self.fragments)

    def feed(self, data: bytes) -> list[bytes]:
        """Absorb bytes; return every now-complete record."""
        self.inbuf += data
        records: list[bytes] = []
        while len(self.inbuf) >= 4:
            header = int.from_bytes(self.inbuf[:4], "big")
            length = header & ~LAST_FRAGMENT
            if length > MAX_RECORD:
                raise ProtocolError(f"implausible fragment length {length}")
            if len(self.fragments) + length > MAX_RECORD:
                raise ProtocolError(
                    f"record exceeds sane maximum {MAX_RECORD}"
                )
            if len(self.inbuf) < 4 + length:
                break  # fragment still in flight
            self.fragments += self.inbuf[4 : 4 + length]
            del self.inbuf[: 4 + length]
            if header & LAST_FRAGMENT:
                records.append(bytes(self.fragments))
                self.fragments.clear()
        return records

    def enqueue(self, record: bytes) -> None:
        self.outbuf += (LAST_FRAGMENT | len(record)).to_bytes(4, "big")
        self.outbuf += record
        if len(self.outbuf) >= self.HIGH_WATER:
            self.paused = True

    def flush(self) -> None:
        """Write as much buffered output as the socket will take."""
        while self.outbuf:
            try:
                sent = self.sock.send(self.outbuf)
            except (BlockingIOError, InterruptedError):
                return
            del self.outbuf[:sent]
        if self.paused and len(self.outbuf) <= self.LOW_WATER:
            self.paused = False

    def interest(self) -> int:
        events = 0
        if not self.paused:
            events |= selectors.EVENT_READ
        if self.outbuf:
            events |= selectors.EVENT_WRITE
        return events


class CampaignService:
    """The multi-tenant campaign service.

    One selector-driven network thread multiplexes every client
    connection (no thread-per-client); one scheduler thread leases job
    shards to worker processes, pumps their messages, and finalises
    completed jobs.  All durable state -- the job queue, per-shard
    checkpoints, merged results -- lives under ``data_dir`` (see
    :mod:`repro.service.queue`), so a SIGTERMed or crashed service picks
    its campaigns back up on restart.

    :param data_dir: queue/checkpoint/result directory.
    :param max_workers: concurrent worker processes across all tenants
        (the size of the service's one worker pool; workers start on
        the first lease and stay warm for the service's life).
    :param lease_s: shard lease horizon; a worker silent this long loses
        its shard to a fresh worker (which resumes from the shard
        checkpoint).
    :param max_attempts: grant budget per shard before its job is
        declared failed.
    :param recorder: optional :class:`repro.obs.recorder.Recorder` for
        the service's operational event stream (``job_submitted``,
        ``lease_granted`` .. ``drain_started``) plus forwarded worker
        telemetry.
    """

    def __init__(
        self,
        data_dir,
        max_workers: int = 2,
        lease_s: float = 10.0,
        spawn_grace: float | None = None,
        max_attempts: int = 5,
        recorder=None,
    ) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.queue = JobQueue(data_dir)
        self.max_workers = max_workers
        self.lease_s = lease_s
        self.max_attempts = max_attempts
        self.recorder = recorder
        kwargs = {} if spawn_grace is None else {"spawn_grace": spawn_grace}
        self.leases = LeaseManager(
            lease_s=lease_s, recorder=recorder, **kwargs
        )
        self._lock = threading.RLock()
        #: Workers keyed by spec tag ``"job/token"``; the token is the
        #: bare variant for unsharded jobs, ``variant#k`` for slices.
        self._pool = WorkerPool(max_workers)
        #: (job_id, token) -> latest progress beacon (coalesced).
        self._progress: dict[tuple[str, str], dict] = {}
        #: (job_id, token) -> (mtime_ns, size, plan-ordered row list).
        self._row_cache: dict[tuple[str, str], tuple[int, int, list]] = {}
        self._plan_cache: dict[tuple[str, tuple[str, ...] | None], list] = {}
        self._selector = selectors.DefaultSelector()
        self._listener: socket.socket | None = None
        self._conns: dict[int, _ServiceConnection] = {}
        self._threads: list[threading.Thread] = []
        self._draining = threading.Event()
        self._net_stop = threading.Event()
        self._stopped = threading.Event()

    def _emit(self, event) -> None:
        if self.recorder is not None:
            self.recorder.emit(event)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def listen(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Bind, start the network and scheduler threads, and return the
        bound ``(host, port)``."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen()
        listener.setblocking(False)
        self._listener = listener
        self._selector.register(listener, selectors.EVENT_READ, data=None)
        # Spawned as two explicit constructions (not a loop over bound
        # methods) so the concurrency-contract lint rule can resolve
        # the thread roots and audit every field they share.
        network = threading.Thread(target=self._network_loop, daemon=True)
        scheduler = threading.Thread(target=self._scheduler_loop, daemon=True)
        for thread in (network, scheduler):
            thread.start()
            self._threads.append(thread)
        return listener.getsockname()

    def drain(self) -> None:
        """Graceful shutdown: stop granting leases, checkpoint in-flight
        shards (workers persist them at every MuT boundary; terminating
        them loses at most the tail since the last boundary, which the
        next service re-runs deterministically), persist the queue, and
        close every connection.  Idempotent and signal-handler safe: it
        only sets a flag -- the scheduler thread does the teardown."""
        self._draining.set()

    def close(self, timeout: float = 30.0) -> None:
        """Drain and wait for both service threads to finish."""
        self.drain()
        self._stopped.wait(timeout)
        for thread in self._threads:
            thread.join(timeout=timeout)

    def serve_forever(self) -> None:
        """Block until a :meth:`drain` (e.g. from a signal handler)
        completes."""
        self._stopped.wait()

    def worker_pids(self) -> dict[str, int]:
        """Live worker PIDs keyed ``"job/token"`` -- the token is the
        bare variant for unsharded jobs, ``variant#k`` for intra-variant
        slices (fault drills aim their SIGKILLs with this)."""
        with self._lock:
            return self._pool.pids()

    # ------------------------------------------------------------------
    # Network thread: the selector loop
    # ------------------------------------------------------------------

    def _network_loop(self) -> None:
        try:
            while not self._net_stop.is_set():
                for key, mask in self._selector.select(timeout=0.05):
                    if key.data is None:
                        self._accept()
                    else:
                        conn = key.data
                        if mask & selectors.EVENT_READ:
                            self._readable(conn)
                        if (
                            mask & selectors.EVENT_WRITE
                            and conn.fileno in self._conns
                        ):
                            self._writable(conn)
        finally:
            for conn in list(self._conns.values()):
                self._drop(conn, "drain")
            if self._listener is not None:
                try:
                    self._selector.unregister(self._listener)
                except (KeyError, ValueError):  # pragma: no cover
                    pass
                self._listener.close()
            self._selector.close()
            self._stopped.set()

    def _accept(self) -> None:
        try:
            sock, _addr = self._listener.accept()
        except OSError:
            return
        sock.setblocking(False)
        conn = _ServiceConnection(sock)
        self._conns[conn.fileno] = conn
        self._selector.register(sock, selectors.EVENT_READ, data=conn)

    def _update_interest(self, conn: _ServiceConnection) -> None:
        if conn.fileno not in self._conns:
            return
        self._selector.modify(conn.sock, conn.interest(), data=conn)

    def _drop(self, conn: _ServiceConnection, reason: str) -> None:
        if self._conns.pop(conn.fileno, None) is None:
            return
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError):  # pragma: no cover - already gone
            pass
        try:
            conn.sock.close()
        except OSError:  # pragma: no cover - defensive
            pass
        self._emit(obs_events.ClientDisconnected(reason))

    def _readable(self, conn: _ServiceConnection) -> None:
        try:
            data = conn.sock.recv(65536)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._drop(conn, "error")
            return
        if not data:
            if conn.mid_record:
                self._emit(
                    obs_events.ProtocolViolation(
                        "server", "connection closed mid-record"
                    )
                )
                self._drop(conn, "protocol_error")
            else:
                self._drop(conn, "eof")
            return
        try:
            records = conn.feed(data)
        except ProtocolError as exc:
            self._emit(obs_events.ProtocolViolation("server", str(exc)))
            self._drop(conn, "protocol_error")
            return
        for record in records:
            self._dispatch(conn, record)
        try:
            conn.flush()
        except OSError:
            self._drop(conn, "error")
            return
        self._update_interest(conn)

    def _writable(self, conn: _ServiceConnection) -> None:
        try:
            conn.flush()
        except OSError:
            self._drop(conn, "error")
            return
        self._update_interest(conn)

    def _dispatch(self, conn: _ServiceConnection, record: bytes) -> None:
        try:
            xid, procedure, dec = decode_call(record)
        except (RpcError, XdrError):
            # An unparseable call (a corrupted record that still framed
            # cleanly): nothing to reply to -- the client retransmits.
            return
        handler = {
            P.PROC_SUBMIT: self._on_submit,
            P.PROC_JOB_STATUS: self._on_job_status,
            P.PROC_FETCH: self._on_fetch,
            P.PROC_QUEUE_STATS: self._on_queue_stats,
        }.get(procedure)
        if handler is None:
            conn.enqueue(encode_reply(xid, ACCEPT_PROC_UNAVAIL))
            return
        try:
            document = P.decode_json(dec)
            reply = handler(document)
        except XdrError:
            conn.enqueue(encode_reply(xid, ACCEPT_GARBAGE_ARGS))
        except Exception:  # noqa: BLE001 - isolate the event loop
            conn.enqueue(encode_reply(xid, ACCEPT_SYSTEM_ERR))
        else:
            conn.enqueue(
                encode_reply(xid, ACCEPT_SUCCESS, P.encode_json(reply))
            )

    # ------------------------------------------------------------------
    # v2 procedure handlers (network thread)
    # ------------------------------------------------------------------

    @staticmethod
    def _error(message: str) -> dict:
        return {"ok": False, "error": message}

    def _on_submit(self, document: dict) -> dict:
        if self._draining.is_set():
            return self._error("service is draining; resubmit after restart")
        try:
            spec = JobSpec.from_dict(document)
        except ValueError as exc:
            return self._error(str(exc))
        if not spec.variants:
            return self._error("job must name at least one variant")
        from repro import ALL_VARIANTS

        known = {p.key for p in ALL_VARIANTS}
        unknown = [v for v in spec.variants if v not in known]
        if unknown:
            return self._error(f"unknown variants: {unknown}")
        if len(set(spec.variants)) != len(spec.variants):
            return self._error("duplicate variants in job spec")
        if spec.cap < 1:
            return self._error(f"cap must be >= 1, got {spec.cap}")
        if spec.shards < 1:
            return self._error(f"shards must be >= 1, got {spec.shards}")
        record, created = self.queue.submit(spec)
        # Wake the scheduler now instead of at its next poll tick.
        self._pool.post(("wake", ""))
        if created:
            self._emit(
                obs_events.JobSubmitted(
                    record.job_id, spec.tenant, spec.variants, spec.cap
                )
            )
        return {"ok": True, "job_id": record.job_id, "created": created}

    def _on_job_status(self, document: dict) -> dict:
        record = self.queue.get(str(document.get("job_id", "")))
        if record is None:
            return self._error(f"unknown job {document.get('job_id')!r}")
        shards = {}
        with self._lock:
            for variant in record.spec.variants:
                tokens = record.spec.shard_tokens(variant)
                done = sum(1 for t in tokens if t in record.shards_done)
                leased = False
                attempt = 0
                progress = None
                for index, token in enumerate(tokens):
                    holder = self.leases.holder(
                        record.job_id, variant, index
                    )
                    leased = leased or holder is not None
                    attempt += self.leases.attempts(
                        record.job_id, variant, index
                    )
                    # The *latest* beacon only: a slow or reconnecting
                    # client gets a coalesced snapshot, never a backlog.
                    # Slices run chained, so at most one is in flight.
                    beacon = self._progress.get((record.job_id, token))
                    if beacon is not None:
                        progress = beacon
                status = {
                    "done": done == len(tokens),
                    "leased": leased,
                    "attempt": attempt,
                    "progress": progress,
                }
                if record.spec.shards > 1:
                    status["slices"] = {"done": done, "total": len(tokens)}
                shards[variant] = status
        return {
            "ok": True,
            "job_id": record.job_id,
            "state": record.state,
            "error": record.error,
            "shards": shards,
        }

    def _on_fetch(self, document: dict) -> dict:
        job_id = str(document.get("job_id", ""))
        variant = str(document.get("variant", ""))
        record = self.queue.get(job_id)
        if record is None:
            return self._error(f"unknown job {job_id!r}")
        if variant not in record.spec.variants:
            return self._error(f"job {job_id} has no shard {variant!r}")
        try:
            cursor = int(document.get("cursor", 0))
            max_rows = int(document.get("max_rows", P.MAX_FETCH_ROWS))
        except (TypeError, ValueError):
            return self._error("cursor and max_rows must be integers")
        if cursor < 0:
            return self._error(f"cursor must be >= 0, got {cursor}")
        max_rows = max(1, min(max_rows, P.MAX_FETCH_ROWS))
        # Done-ness first, rows second: a slice is marked done only after
        # its final checkpoint is on disk, so rows read afterwards are
        # complete.  The other order can pair a shard that finished
        # meanwhile with rows read just before its last save.
        finished = all(
            token in record.shards_done
            for token in record.spec.shard_tokens(variant)
        )
        rows = self._shard_rows(record, variant)
        page = rows[cursor : cursor + max_rows]
        next_cursor = cursor + len(page)
        done = finished and next_cursor >= len(rows)
        if done:
            # A streamed-out shard is not polled again: drop its cached
            # rows, or a long-lived service would hold every job's
            # results.  A late re-FETCH reads the checkpoint again.
            for token in record.spec.shard_tokens(variant):
                self._row_cache.pop((job_id, token), None)
        return {"ok": True, "rows": page, "cursor": next_cursor, "done": done}

    def _on_queue_stats(self, document: dict) -> dict:
        states: dict[str, int] = {}
        for record in self.queue.jobs():
            states[record.state] = states.get(record.state, 0) + 1
        with self._lock:
            lease_stats = {
                "active": len(self.leases),
                "granted": self.leases.stats.granted,
                "expired": self.leases.stats.expired,
                "reassigned": self.leases.stats.reassignments,
                "double_grants_refused": (
                    self.leases.stats.double_grants_refused
                ),
            }
            workers = len(self._pool)
        return {
            "ok": True,
            "jobs": states,
            "leases": lease_stats,
            "workers": workers,
            "draining": self._draining.is_set(),
        }

    # ------------------------------------------------------------------
    # Plan-ordered row pages
    # ------------------------------------------------------------------

    def _plan_keys(self, variant: str, muts: tuple[str, ...] | None) -> list:
        """``"api:mut"`` keys in deterministic plan order for one shard.

        Checkpoint rows serialise *sorted by key*, not in execution
        order; re-sorting them by plan position recovers an append-only
        sequence (a checkpoint always holds a prefix of the plan, since
        shards checkpoint only at MuT boundaries) -- which is what makes
        FETCH cursors stable across retransmission, reconnection, and
        even a shard's reassignment to a new worker."""
        cache_key = (variant, muts)
        # Reached from both service threads: the network thread pages
        # FETCH rows while the scheduler builds worker specs.  The
        # cache dict must not be mutated unlocked from either side
        # (RLock, so the already-locked scheduler path just re-enters).
        with self._lock:
            cached = self._plan_cache.get(cache_key)
            if cached is not None:
                return cached
            from repro import ALL_VARIANTS

            personality = next(p for p in ALL_VARIANTS if p.key == variant)
            plan = default_registry().for_variant(personality)
            if muts is not None:
                wanted = set(muts)
                plan = [m for m in plan if m.name in wanted]
            keys = [f"{m.api}:{m.name}" for m in plan]
            self._plan_cache[cache_key] = keys
            return keys

    def _shard_rows(self, record: JobRecord, variant: str) -> list:
        """The variant's result rows in plan order, concatenated across
        its slice checkpoints.  Slices run chained (slice k+1 is only
        leased after slice k is done) and cover contiguous plan spans,
        so concatenating per-slice rows in slice order yields the full
        plan order and grows append-only -- FETCH cursors stay stable
        across polls, reconnection, and worker reassignment."""
        rows: list = []
        for token in record.spec.shard_tokens(variant):
            rows.extend(self._token_rows(record, variant, token))
        return rows

    def _token_rows(
        self, record: JobRecord, variant: str, token: str
    ) -> list:
        """One slice's rows in plan order, from its checkpoint file on
        disk (cached by mtime+size)."""
        shard = (record.job_id, token)
        path = self.queue.shard_file(record.job_id, token)
        try:
            stat = path.stat()
        except OSError:
            return []  # no checkpoint yet
        cached = self._row_cache.get(shard)
        if cached is not None and cached[:2] == (stat.st_mtime_ns, stat.st_size):
            return cached[2]
        try:
            checkpoint = load_checkpoint(path)
        except (OSError, ResultFormatError):
            # Mid-replace race or a torn shard: serve the previous page
            # set; the next poll sees the settled file.
            return cached[2] if cached is not None else []
        by_key = {
            f"{row['api']}:{row['mut']}": row
            for row in results_to_dict(checkpoint.results)["results"]
            if row["variant"] == variant
        }
        keys = self._plan_keys(variant, record.spec.muts)
        rows = [by_key[key] for key in keys if key in by_key]
        self._row_cache[shard] = (stat.st_mtime_ns, stat.st_size, rows)
        return rows

    # ------------------------------------------------------------------
    # Scheduler thread: leases, workers, finalisation
    # ------------------------------------------------------------------

    def _scheduler_loop(self) -> None:
        try:
            while not self._draining.is_set():
                try:
                    message = self._pool.get(timeout=0.05)
                except _queue.Empty:
                    message = None
                with self._lock:
                    while message is not None:
                        self._handle_message(message)
                        try:
                            message = self._pool.get(timeout=0)
                        except _queue.Empty:
                            message = None
                    self._reap_silent_deaths()
                    self._expire_leases()
                    self._grant_leases()
        finally:
            self._teardown()

    def _teardown(self) -> None:
        with self._lock:
            pending = sum(
                1
                for record in self.queue.jobs()
                if record.state not in (JOB_DONE, JOB_FAILED)
            )
            self._emit(obs_events.DrainStarted(pending))
            # Shard checkpoints on disk keep the in-flight progress.
            for tag in self._pool.pids():
                job_id, _, token = tag.partition("/")
                variant, index = split_token(token)
                self.leases.release(job_id, variant, index)
            self._pool.close()
            self.queue.close()
        self._net_stop.set()

    def _handle_message(self, message: tuple) -> None:
        kind, tag = message[0], message[1]
        if kind == "wake":
            return  # _on_submit's nudge; the grant pass follows
        job_id, _, token = tag.partition("/")
        variant, index = split_token(token)
        shard = (job_id, token)
        if kind == "heartbeat":
            self.leases.renew(job_id, variant, index)
        elif kind == "progress":
            self._progress[shard] = {
                "mut": message[2],
                "position": message[3],
                "total": message[4],
            }
        elif kind == "obs":
            if self.recorder is not None:
                self.recorder.record(message[2])
        elif kind == "done":
            self.leases.release(job_id, variant, index)
            self._pool.release(tag)
            self._progress.pop(shard, None)
            if self.queue.mark_shard_done(job_id, token):
                self._finalize_job(job_id)
        elif kind == "error":
            self.leases.release(job_id, variant, index)
            self._pool.release(tag)
            self._emit(
                obs_events.WorkerDied(token, "crashed", message[2])
            )
            if (
                self.leases.attempts(job_id, variant, index)
                >= self.max_attempts
            ):
                self._fail_job(
                    job_id,
                    f"shard {token} failed {self.max_attempts} times: "
                    f"{message[2]}",
                )

    def _reap_silent_deaths(self) -> None:
        """A SIGKILLed worker posts nothing; the pool's sentinel reap is
        the fast path to reassignment (heartbeat-loss expiry is the slow
        path, for workers that are alive but wedged)."""
        for tag, exitcode in self._pool.reap():
            job_id, _, token = tag.partition("/")
            if exitcode != 0:
                self._emit(
                    obs_events.WorkerDied(
                        token,
                        "killed",
                        "exited without reporting a result",
                        exitcode=exitcode,
                    )
                )
            # Release the lease so the grant pass reassigns the shard.
            variant, index = split_token(token)
            self.leases.release(job_id, variant, index)

    def _token_of(self, lease) -> str:
        """The shard token a lease maps to: bare variant for unsharded
        jobs, ``variant#k`` when the job slices variants."""
        record = self.queue.get(lease.job_id)
        if record is not None and record.spec.shards > 1:
            return f"{lease.variant}#{lease.shard_index}"
        return lease.variant

    def _expire_leases(self) -> None:
        for lease in self.leases.expire_stale():
            # Wedged, not dead: make it dead; a fresh worker takes over.
            self._pool.kill(f"{lease.job_id}/{self._token_of(lease)}")

    def _grant_leases(self) -> None:
        if self._draining.is_set():
            return
        for job_id, token in self.queue.pending_shards():
            if self._pool.full():
                return
            variant, index = split_token(token)
            tag = f"{job_id}/{token}"
            if tag in self._pool:
                continue
            if self.leases.holder(job_id, variant, index) is not None:
                continue  # pragma: no cover - lease without worker
            if (
                self.leases.attempts(job_id, variant, index)
                >= self.max_attempts
            ):
                # Silent deaths do not travel the "error" message path,
                # so an endlessly-killed shard must be failed here or
                # its job would hang unleasable forever.
                self._fail_job(
                    job_id,
                    f"shard {token} exhausted its "
                    f"{self.max_attempts} lease grants",
                )
                continue
            record = self.queue.get(job_id)
            if record is None or record.state in (JOB_DONE, JOB_FAILED):
                continue
            try:
                spec = self._worker_spec(record, token)
            except (OSError, ResultFormatError) as exc:
                # The predecessor slice's checkpoint must supply this
                # slice's base wear; without it the slice cannot run
                # byte-identically, so the job fails loudly instead of
                # guessing.
                self._fail_job(
                    job_id,
                    f"shard {token} has no usable base wear: {exc}",
                )
                continue
            try:
                lease = self.leases.grant(job_id, variant, index)
            except LeaseError:  # pragma: no cover - guarded above
                continue
            pid = self._pool.run(tag, spec)
            self.queue.mark_running(job_id)
            self._emit(obs_events.WorkerSpawned(token, pid, lease.attempt))

    def _worker_spec(self, record: JobRecord, token: str) -> dict:
        variant, index = split_token(token)
        spec = {
            "variant": variant,
            "tag": f"{record.job_id}/{token}",
            "muts": (
                None if record.spec.muts is None else list(record.spec.muts)
            ),
            "config": {"cap": record.spec.cap},
            "shard_path": str(self.queue.shard_file(record.job_id, token)),
            "checkpoint_every": record.spec.checkpoint_every,
            "resume": None,  # the shard file on disk wins anyway
            "quarantine": {},
            # Beacons must outpace the lease horizon comfortably.
            "heartbeat_interval": max(0.01, min(1.0, self.lease_s / 5)),
            "events": self.recorder is not None,
        }
        if record.spec.shards > 1:
            # Chained slice execution: pending_shards() only yields a
            # slice once its predecessor is done, so the predecessor's
            # checkpoint on disk is complete and its end wear is the
            # byte-exact serial wear at this slice's first case.
            keys = self._plan_keys(variant, record.spec.muts)
            bounds = shard_bounds(len(keys), record.spec.shards)
            if index < len(bounds):
                start, stop = bounds[index]
            else:
                # More slices than plan positions: the surplus slices
                # are empty (their workers finish instantly) so the
                # token accounting still closes out.
                start = stop = len(keys)
            base_wear = None
            if index > 0 and start > 0:
                prev = record.spec.shard_tokens(variant)[index - 1]
                prev_path = self.queue.shard_file(record.job_id, prev)
                base_wear = load_checkpoint(prev_path).machine_wear.get(
                    variant
                )
            spec["shard"] = {
                "variant": variant,
                "index": index,
                "start": start,
                "stop": stop,
                "resumed": False,
                "base_wear": base_wear,
            }
        return spec

    def _finalize_job(self, job_id: str) -> None:
        record = self.queue.get(job_id)
        if record is None or record.state in (JOB_DONE, JOB_FAILED):
            return
        # Variant order, then slice order within each variant: the
        # chain-aware merge validates each variant's slice seams and
        # reassembles the byte-identical serial document.
        shards = [
            self.queue.shard_file(job_id, token)
            for variant in record.spec.variants
            for token in record.spec.shard_tokens(variant)
        ]
        try:
            merged = merge_checkpoints(
                shards,
                cap=record.spec.cap,
                variants=list(record.spec.variants),
            )
            save_results(merged.results, self.queue.results_file(job_id))
        except (OSError, ResultFormatError, ValueError) as exc:
            self._fail_job(job_id, f"finalise failed: {exc}")
            return
        self.queue.mark_job_done(job_id)
        self._emit(
            obs_events.JobFinished(job_id, merged.results.total_cases())
        )

    def _fail_job(self, job_id: str, why: str) -> None:
        self.queue.mark_job_failed(job_id, why)
        self._emit(obs_events.JobFailed(job_id, why))
