"""One pool of warm worker processes under every orchestrator.

The parallel runner, the supervisor and the campaign service all run
the per-spec body :func:`repro.core.parallel._variant_worker` (one
variant slice, or one service job shard) in ``spawn``-started processes.
A cold spawn re-imports :mod:`repro`, rebuilds the registries and boots
a machine before it runs anything; on small specs that start-up dwarfs
the cases.  :class:`WorkerPool` starts workers lazily, up to its size,
and keeps each alive on its own inbox, so the next spec finds a warm
interpreter.  A worker keeps only process-wide state: imports,
registries, boot templates, and one case generator with its memoised
plan and value pools (a one-entry memo, replaced when a spec's cap or
MuT-name filter differs, so it holds at most one plan set -- about
18 MB at cap 300 for every MuT).  Each spec's ``Machine``,
``ResultSet``, recorder and fault injector die with the call, so a
warm worker's output is byte-identical to a cold one's.

Every spec ends in one ``("done", tag, ...)`` or ``("error", tag,
...)`` message; the owner then calls :meth:`WorkerPool.release`.  Each
worker writes its messages synchronously to a pipe of its own, so a
worker SIGKILLed mid-write cuts only its own pipe short: a shared queue
would keep its write lock, or half a message, and wedge every worker.
"""

from __future__ import annotations

import collections
import multiprocessing
import multiprocessing.connection
import queue
import time
import types


def _pool_worker(inbox, outbox) -> None:
    """Child-process entry point: run every spec sent down ``inbox``
    until the parent sends ``None``."""
    from repro.core.parallel import _GeneratorMemo, _variant_worker

    events = types.SimpleNamespace(put=outbox.send)
    generators = _GeneratorMemo()
    for spec in iter(inbox.recv, None):
        _variant_worker(spec, events, generators)


class _Worker:
    """One pooled process, the write end of its inbox pipe, and the
    read end of its outbox pipe (``None`` once it hit end-of-file)."""

    __slots__ = ("process", "inbox", "outbox")

    def __init__(self, process, inbox, outbox) -> None:
        self.process = process
        self.inbox = inbox
        self.outbox = outbox

    def close_outbox(self) -> None:
        if self.outbox is not None:
            self.outbox.close()
            self.outbox = None

    def discard(self) -> None:
        self.close_outbox()
        self.inbox.close()


class WorkerPool:
    """Warm ``spawn`` workers keyed by the tag of the spec they run.

    :param size: the most workers alive at once (the caller's ``jobs``
        or ``max_workers``).  None start until :meth:`run` needs one.

    Driven from one thread (a campaign's pump loop, the service's
    scheduler); only :meth:`post` may be called from another.
    """

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        self.size = size
        self._ctx = multiprocessing.get_context("spawn")
        self._idle: list[_Worker] = []
        self._busy: dict[str, _Worker] = {}
        self._inbound: collections.deque = collections.deque()
        self._posts, self._poster = self._ctx.Pipe(duplex=False)

    def __len__(self) -> int:
        """Specs in flight."""
        return len(self._busy)

    def __contains__(self, key: str) -> bool:
        return key in self._busy

    def full(self) -> bool:
        return len(self._busy) >= self.size

    def pids(self) -> dict[str, int]:
        """Spec tag -> pid of the worker running it."""
        return {key: w.process.pid for key, w in self._busy.items()}

    # -- specs ---------------------------------------------------------

    def run(self, key: str, spec: dict) -> int:
        """Start ``spec`` under ``key`` on an idle worker, or on a new
        one while the pool is below its size; returns the worker's
        pid."""
        if key in self._busy or self.full():
            raise RuntimeError(f"pool cannot take spec {key!r}")
        while self._idle:
            worker = self._idle.pop()
            try:
                worker.inbox.send(spec)
                break
            except OSError:  # it died idle, since its last spec
                self._drop(worker)
        else:
            worker = self._start()
            worker.inbox.send(spec)
        self._busy[key] = worker
        return worker.process.pid

    def _start(self) -> _Worker:
        inbox, sender = self._ctx.Pipe(duplex=False)
        outbox, writer = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_pool_worker, args=(inbox, writer), daemon=True
        )
        process.start()
        inbox.close()  # only the worker reads it: a send to a dead one fails
        writer.close()  # the worker holds the only write end: EOF = exit
        return _Worker(process, sender, outbox)

    def release(self, key: str) -> None:
        """The spec under ``key`` posted its ``done``/``error``: its
        worker turns idle."""
        worker = self._busy.pop(key, None)
        if worker is not None:
            self._idle.append(worker)

    # -- messages ------------------------------------------------------

    def post(self, message: tuple) -> None:
        """Queue a parent-side message for :meth:`get` (safe from any
        thread of the owning process)."""
        self._poster.send(message)

    def get(self, timeout: float) -> tuple:
        """The next worker (or :meth:`post`) message; raises
        :class:`queue.Empty` after ``timeout`` seconds without one."""
        if not self._inbound:
            readers = {
                w.outbox: w
                for w in [*self._busy.values(), *self._idle]
                if w.outbox is not None
            }
            readers[self._posts] = None
            for conn in multiprocessing.connection.wait(list(readers), timeout):
                self._receive(conn, readers[conn])
        if not self._inbound:
            raise queue.Empty
        return self._inbound.popleft()

    def _receive(self, conn, worker: _Worker | None) -> None:
        try:
            self._inbound.append(conn.recv())
        except (EOFError, OSError):
            # The worker is gone, perhaps mid-message: no more will come.
            worker.close_outbox()

    def _drop(self, worker: _Worker) -> None:
        """Keep what a dead worker sent before it died, then forget it."""
        while worker.outbox is not None and worker.outbox.poll():
            self._receive(worker.outbox, worker)
        worker.discard()

    # -- liveness ------------------------------------------------------

    def kill(self, key: str) -> None:
        """SIGKILL the worker running ``key`` (watchdog, lease expiry);
        the next :meth:`run` starts a replacement."""
        worker = self._busy.pop(key, None)
        if worker is not None:
            worker.process.kill()
            worker.process.join(timeout=5)
            self._drop(worker)

    def reap(self) -> list[tuple[str, int | None]]:
        """``(key, exitcode)`` for every worker that died mid-spec
        without a word (OOM, outside SIGKILL) once :meth:`get` has read
        all it sent, so its last heartbeat is known; dead idle workers
        are dropped quietly.  One sentinel poll gates the scan, so a
        healthy pool pays no per-worker liveness check."""
        owners = {w.process.sentinel: (k, w) for k, w in self._busy.items()}
        owners.update({w.process.sentinel: (None, w) for w in self._idle})
        if not owners:
            return []
        try:
            ready = multiprocessing.connection.wait(list(owners), timeout=0)
        except OSError:  # pragma: no cover - sentinel closed under us
            ready = [s for s, (_, w) in owners.items() if not w.process.is_alive()]
        deaths = []
        for sentinel in ready:
            key, worker = owners[sentinel]
            if key is not None and worker.outbox is not None:
                continue  # until get() reads its pipe to end-of-file
            worker.process.join(timeout=1.0)  # let the exit code settle
            if worker.process.is_alive():  # pragma: no cover - settling
                continue
            if key is None:
                self._idle.remove(worker)
            else:
                del self._busy[key]
                deaths.append((key, worker.process.exitcode))
            self._drop(worker)
        return deaths

    def close(self, grace: float = 5.0) -> None:
        """Stop every worker without deadlocking on a full pipe.

        A worker blocked writing to a pipe nobody reads cannot exit, and
        one ignoring SIGTERM (a hung MuT, the ``BALLISTA_FAULT_HANG``
        injector) outlives a plain join: so terminate, keep reading
        until the workers are gone or ``grace`` runs out, then SIGKILL
        what is left."""
        workers = [*self._busy.values(), *self._idle]
        for worker in workers:
            worker.process.terminate()
        deadline = time.monotonic() + grace
        while any(w.process.is_alive() for w in workers):
            if time.monotonic() >= deadline:
                break
            try:
                self.get(timeout=0.05)
            except queue.Empty:
                pass
        self._busy.clear()
        self._idle = []
        for worker in workers:
            worker.process.join(timeout=0.5)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=5)
            worker.discard()
        self._inbound.clear()
