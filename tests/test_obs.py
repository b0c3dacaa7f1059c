"""Structured run telemetry (repro.obs): event shapes, recorders, the
metrics aggregator and ``repro stats`` CLI, the per-variant progress
renderer, the service-layer hooks, and the pump-loop regressions the
telemetry made visible (queue-drain shutdown, sentinel-gated reaping)."""

import io
import json
import multiprocessing
import os
import pathlib
import signal
import time

import pytest

from repro.core.campaign import CampaignConfig
from repro.core.parallel import ParallelCampaign, SlicePlanner
from repro.core.pool import WorkerPool, _Worker
from repro.core.supervisor import SupervisorPolicy
from repro.obs import (
    DETERMINISTIC_KINDS,
    CaseExecuted,
    ChaosFault,
    JsonlRecorder,
    MemoryRecorder,
    MetricsAggregator,
    MutFinished,
    ProgressRenderer,
    RpcRetry,
    TeeRecorder,
    VariantFinished,
    VariantStarted,
    WorkerDied,
    WorkerRestarted,
    WorkerSpawned,
    read_events,
    render_stats,
    strip_wall,
    variant_stream,
)
from repro.obs.stats_cli import main as stats_main
from repro.service.chaos import ChaosConfig, ChaosTransport
from repro.service.rpc import (
    ACCEPT_SUCCESS,
    LoopbackTransport,
    RetryPolicy,
    RpcClient,
    encode_reply,
)
from repro.win32.variants import WIN98

# ----------------------------------------------------------------------
# Events and the canonical deterministic stream
# ----------------------------------------------------------------------


class TestEvents:
    def test_as_dict_shapes_are_json_plain(self):
        events = [
            VariantStarted("win98", 12),
            CaseExecuted("win98", "libc:strcpy", 3, 2, True, 480),
            MutFinished(
                "win98", "libc:strcpy", "C string", 20,
                {"ABORT": 12, "PASS_NO_ERROR": 8}, False, False, 999,
            ),
            VariantFinished("win98", 60, 4242),
            WorkerDied("winnt", "killed", "gone", exitcode=-9),
        ]
        for event in events:
            data = event.as_dict()
            assert data["kind"] == event.kind
            json.dumps(data)  # must already be wire-shaped

    def test_deterministic_kinds_cover_campaign_events(self):
        assert VariantStarted.kind in DETERMINISTIC_KINDS
        assert CaseExecuted.kind in DETERMINISTIC_KINDS
        assert MutFinished.kind in DETERMINISTIC_KINDS
        assert WorkerSpawned.kind not in DETERMINISTIC_KINDS
        assert WorkerDied.kind not in DETERMINISTIC_KINDS

    def test_strip_wall_removes_only_the_timestamp(self):
        record = {"t": 1.25, "kind": "case_executed", "case": 0}
        assert strip_wall(record) == {"kind": "case_executed", "case": 0}

    def test_variant_stream_collapses_restart_replay(self):
        """A worker killed at case 2 replays its MuT from case 0 after
        restart; the canonical stream contains each case exactly once,
        in serial order."""

        def case(mut, index):
            return CaseExecuted("win98", mut, index, 1, False, index).as_dict()

        def finished(mut):
            return MutFinished(
                "win98", mut, "g", 3, {"PASS_ERROR": 3}, False, False, 9
            ).as_dict()

        records = [
            VariantStarted("win98", 2).as_dict(),
            case("libc:strcpy", 0),
            case("libc:strcpy", 1),
            case("libc:strcpy", 2),  # ...worker dies here, no mut_finished
            WorkerDied("win98", "killed", "gone").as_dict(),
            VariantStarted("win98", 2).as_dict(),  # restarted worker
            case("libc:strcpy", 0),  # replay from scratch
            case("libc:strcpy", 1),
            case("libc:strcpy", 2),
            finished("libc:strcpy"),
            case("libc:fclose", 0),
            finished("libc:fclose"),
            VariantFinished("win98", 6, 99).as_dict(),
        ]
        stream = variant_stream(records, "win98")
        serial = [
            VariantStarted("win98", 2).as_dict(),
            case("libc:strcpy", 0),
            case("libc:strcpy", 1),
            case("libc:strcpy", 2),
            finished("libc:strcpy"),
            case("libc:fclose", 0),
            finished("libc:fclose"),
            VariantFinished("win98", 6, 99).as_dict(),
        ]
        assert stream == serial

    def test_variant_stream_filters_other_variants_and_ops(self):
        records = [
            VariantStarted("win98", 1).as_dict(),
            VariantStarted("winnt", 1).as_dict(),
            WorkerSpawned("win98", 123, 1).as_dict(),
        ]
        assert variant_stream(records, "winnt") == [
            VariantStarted("winnt", 1).as_dict()
        ]


# ----------------------------------------------------------------------
# Recorders
# ----------------------------------------------------------------------


class TestRecorders:
    def test_memory_recorder_keeps_unstamped_records(self):
        rec = MemoryRecorder()
        rec.emit(VariantStarted("win98", 3))
        assert rec.records == [
            {"kind": "variant_started", "variant": "win98", "planned_muts": 3}
        ]

    def test_jsonl_recorder_stamps_injected_clock(self, tmp_path):
        ticks = iter([0.5, 1.25])
        path = tmp_path / "events.jsonl"
        with JsonlRecorder(path, clock=lambda: next(ticks)) as rec:
            rec.emit(VariantStarted("win98", 3))
            rec.emit(VariantFinished("win98", 60, 7))
        records, malformed = read_events(path)
        assert malformed == 0
        assert [r["t"] for r in records] == [0.5, 1.25]
        assert rec.count == 2
        assert strip_wall(records[0]) == VariantStarted("win98", 3).as_dict()

    def test_jsonl_recorder_accepts_open_stream(self):
        buf = io.StringIO()
        rec = JsonlRecorder(buf, clock=lambda: 0.0)
        rec.emit(WorkerSpawned("linux", 42, 1))
        rec.close()
        assert json.loads(buf.getvalue()) == {
            "t": 0.0, "kind": "worker_spawned", "variant": "linux",
            "pid": 42, "attempt": 1,
        }

    def test_read_events_tolerates_torn_final_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(
            '{"kind":"worker_finished","variant":"win98"}\n'
            '{"kind":"worker_fin',  # killed mid-write
            encoding="utf-8",
        )
        records, malformed = read_events(path)
        assert len(records) == 1 and malformed == 1

    def test_tee_recorder_fans_out_copies(self):
        a, b = MemoryRecorder(), MemoryRecorder()
        tee = TeeRecorder(a, b)
        tee.emit(WorkerSpawned("win98", 1, 1))
        assert a.records == b.records
        a.records[0]["pid"] = 999  # copies, not shared dicts
        assert b.records[0]["pid"] == 1


# ----------------------------------------------------------------------
# Aggregation and the stats CLI
# ----------------------------------------------------------------------


def _drill_records():
    """A tiny supervised-run stream: one restart, one quarantine."""
    return [
        {"t": 1.0, "kind": "campaign_started", "schema": 1,
         "variants": ["win98", "winnt"], "cap": 20},
        {"t": 1.1, **WorkerSpawned("win98", 11, 1).as_dict()},
        {"t": 1.1, **WorkerSpawned("winnt", 12, 1).as_dict()},
        {"t": 1.2, **VariantStarted("win98", 2).as_dict()},
        {"t": 1.2, **VariantStarted("winnt", 2).as_dict()},
        {"t": 1.3, **CaseExecuted("win98", "libc:strcpy", 0, 2, False, 5).as_dict()},
        {"t": 1.4, **WorkerDied("winnt", "killed", "SIGKILL", exitcode=-9).as_dict()},
        {"t": 1.4, **WorkerRestarted("winnt", 2, 0.25, "killed").as_dict()},
        {"t": 1.5, **WorkerSpawned("winnt", 13, 2).as_dict()},
        {"t": 1.6, **MutFinished("win98", "libc:strcpy", "C string", 20,
                                 {"ABORT": 12, "PASS_NO_ERROR": 8},
                                 False, False, 80).as_dict()},
        {"t": 1.7, **MutFinished("winnt", "libc:strcpy", "C string", 20,
                                 {"ABORT": 9, "PASS_ERROR": 11},
                                 False, False, 81).as_dict()},
        {"t": 1.8, "kind": "mut_quarantined", "variant": "winnt",
         "mut": "win32:GetThreadContext", "reason": "poison"},
        {"t": 1.9, **VariantFinished("win98", 20, 90).as_dict()},
        {"t": 2.0, **VariantFinished("winnt", 20, 91).as_dict()},
        {"t": 2.0, "kind": "campaign_finished", "cases": 40},
    ]


class TestAggregator:
    def test_snapshot_counts(self):
        agg = MetricsAggregator()
        for record in _drill_records():
            agg.record(record)
        snap = agg.snapshot()
        assert snap["events"] == len(_drill_records())
        assert snap["campaign"] == {
            "variants": ["win98", "winnt"], "cap": 20, "cases": 40,
        }
        assert snap["wall_s"] == 1.0
        assert snap["ops"]["worker_spawns"] == 3
        assert snap["ops"]["worker_deaths"] == 1
        assert snap["ops"]["worker_restarts"] == 1
        assert snap["ops"]["quarantines"] == 1
        assert snap["ops"]["deaths_by_kind"] == {"killed": 1}
        winnt = snap["variants"]["winnt"]
        assert winnt["workers"] == {"spawned": 2, "died": 1, "restarted": 1}
        assert winnt["outcomes"] == {"ABORT": 9, "PASS_ERROR": 11}
        assert winnt["quarantined_muts"] == 1
        assert snap["groups"]["C string"] == {"muts": 2, "cases": 40}

    def test_unknown_kind_counts_as_malformed(self):
        agg = MetricsAggregator()
        agg.record({"kind": "mystery"})
        assert agg.snapshot()["malformed"] == 1

    def test_render_stats_reports_restart_and_counters(self):
        agg = MetricsAggregator()
        for record in _drill_records():
            agg.record(record)
        report = render_stats(agg.snapshot())
        assert "1 restarted" in report
        assert "killed: 1" in report
        assert "1 MuTs quarantined" in report
        assert "winnt" in report and "win98" in report


class TestStatsCli:
    def test_text_and_json_reports(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        with path.open("w", encoding="utf-8") as fh:
            for record in _drill_records():
                fh.write(json.dumps(record) + "\n")
        assert stats_main([str(path)]) == 0
        text = capsys.readouterr().out
        assert "Campaign telemetry" in text
        assert "1 restarted" in text
        assert stats_main([str(path), "--json"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["ops"]["worker_restarts"] == 1

    def test_empty_file_warns(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        assert stats_main([str(path)]) == 0
        assert "no events" in capsys.readouterr().err

    def test_cli_dispatch(self, tmp_path, capsys):
        from repro.cli import main as repro_main

        path = tmp_path / "events.jsonl"
        path.write_text(
            json.dumps(_drill_records()[0]) + "\n", encoding="utf-8"
        )
        assert repro_main(["stats", str(path)]) == 0
        assert "Campaign telemetry" in capsys.readouterr().out

    def test_broken_stdout_pipe_exits_quietly(self, tmp_path):
        """`repro stats events.jsonl | head` must not traceback when
        head closes the pipe early -- exit with the SIGPIPE convention
        instead."""
        import subprocess
        import sys

        path = tmp_path / "events.jsonl"
        with path.open("w", encoding="utf-8") as fh:
            for record in _drill_records():
                fh.write(json.dumps(record) + "\n")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "stats", str(path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=str(pathlib.Path(__file__).resolve().parent.parent),
        )
        proc.stdout.close()  # the impatient reader
        _, stderr = proc.communicate(timeout=30)
        assert b"Traceback" not in stderr, stderr.decode()
        assert b"BrokenPipeError" not in stderr, stderr.decode()
        assert proc.returncode in (0, 141)  # raced flush vs. EPIPE


# ----------------------------------------------------------------------
# Progress rendering: one line per variant (the --jobs>1 garble fix)
# ----------------------------------------------------------------------


class TestProgressRenderer:
    def test_interleaved_variants_keep_their_own_tty_rows(self):
        """Two variants reporting alternately must each own one row of
        the redrawn block -- the old single \\r line interleaved them
        into garbage."""
        stream = io.StringIO()
        renderer = ProgressRenderer(stream=stream, tty=True)
        renderer.update("win98", "libc:strcpy", 0, 10)
        renderer.update("winnt", "libc:fclose", 0, 10)
        renderer.update("win98", "libc:strcpy", 1, 10)
        renderer.update("winnt", "libc:fclose", 1, 10)
        final_frame = stream.getvalue().split("\x1b[2A")[-1]
        rows = [
            line.replace("\x1b[2K", "")
            for line in final_frame.split("\n")
            if line
        ]
        assert rows == [
            "[win98   ]   2/10 libc:strcpy",
            "[winnt   ]   2/10 libc:fclose",
        ]

    def test_non_tty_degrades_to_line_per_update(self):
        stream = io.StringIO()
        renderer = ProgressRenderer(stream=stream, tty=False)
        renderer.update("win98", "libc:strcpy", 0, 10)
        renderer.update("winnt", "libc:fclose", 0, 10)
        out = stream.getvalue()
        assert "\x1b" not in out and "\r" not in out
        assert out.splitlines() == [
            "[win98   ]   1/10 libc:strcpy",
            "[winnt   ]   1/10 libc:fclose",
        ]

    def test_tty_lines_are_clamped_to_width(self):
        stream = io.StringIO()
        renderer = ProgressRenderer(stream=stream, tty=True, width=20)
        renderer.update("win98", "m" * 100, 0, 10)
        last = stream.getvalue().split("\x1b[2K")[-1]
        assert len(last.rstrip("\n")) == 20

    def test_close_erases_tty_block_and_resets(self):
        stream = io.StringIO()
        renderer = ProgressRenderer(stream=stream, tty=True)
        renderer.update("win98", "libc:strcpy", 0, 10)
        renderer.close()
        assert stream.getvalue().endswith("\x1b[1A" + "\x1b[2K\n" + "\x1b[1A")
        renderer.close()  # idempotent on an empty block


# ----------------------------------------------------------------------
# Service-layer hooks
# ----------------------------------------------------------------------


class _DropFirstSend(LoopbackTransport):
    """Swallows the first send so the client must retransmit."""

    def __init__(self, inbox, outbox, server):
        super().__init__(inbox, outbox, default_timeout=1.0)
        self._server = server
        self._dropped = False

    def send_record(self, payload):
        if not self._dropped:
            self._dropped = True
            return
        from repro.service.rpc import decode_call

        xid, _, _ = decode_call(payload)
        self._server.put(encode_reply(xid, ACCEPT_SUCCESS))


class TestServiceHooks:
    def test_rpc_retry_emits_event(self):
        import queue as q

        inbox, server = q.Queue(), None
        transport = _DropFirstSend(inbox, inbox, inbox)
        rec = MemoryRecorder()
        client = RpcClient(
            transport,
            retry=RetryPolicy(
                attempts=3, call_timeout=0.05, backoff_base=0.001,
                jitter=0.0, sleep=lambda s: None,
            ),
            recorder=rec,
        )
        client.call(procedure=7)
        retries = [r for r in rec.records if r["kind"] == "rpc_retry"]
        assert retries == [{"kind": "rpc_retry", "attempt": 1, "xid": 1}]
        assert client.stats.retries == 1

    def test_chaos_faults_emit_events_with_direction(self):
        a, b = LoopbackTransport.pair(default_timeout=0.5)
        rec = MemoryRecorder()
        chaotic = ChaosTransport(
            a, ChaosConfig(seed=7, drop_rate=1.0), recorder=rec
        )
        for _ in range(3):
            chaotic.send_record(b"x")
        faults = [r for r in rec.records if r["kind"] == "chaos_fault"]
        assert faults == [
            {"kind": "chaos_fault", "fault": "drop", "direction": "send"}
        ] * 3
        assert chaotic.stats.drops == 3

    def test_chaos_recv_direction(self):
        a, b = LoopbackTransport.pair(default_timeout=0.5)
        rec = MemoryRecorder()
        chaotic = ChaosTransport(
            a, ChaosConfig(seed=3, dup_rate=1.0), recorder=rec
        )
        b.send_record(b"hello")
        assert chaotic.recv_record(timeout=0.5) == b"hello"
        faults = [r for r in rec.records if r["kind"] == "chaos_fault"]
        assert {"kind": "chaos_fault", "fault": "dup",
                "direction": "recv"} in faults


# ----------------------------------------------------------------------
# Pump-loop regressions
# ----------------------------------------------------------------------


def _flood_and_ignore_sigterm(outbox):
    """A worst-case worker for shutdown: it is wedged writing to a full
    pipe (the parent stopped pumping) and it ignores SIGTERM, the exact
    shape of a hung MuT loop under BALLISTA_FAULT_HANG."""
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    payload = "x" * 65536
    for index in range(256):
        outbox.send(("progress", "flood", payload, index, 256))
    while True:
        time.sleep(0.05)


class TestStopWorkers:
    def test_drains_queue_and_escalates_to_kill(self):
        """Regression: the pump loop's shutdown used to terminate/join
        without draining the event queue; a worker with a blocked feeder
        thread that also ignored SIGTERM leaked past the join timeout.
        ``WorkerPool.close`` must drain and then SIGKILL."""
        pool = WorkerPool(1)
        ctx = multiprocessing.get_context("spawn")
        outbox, writer = ctx.Pipe(duplex=False)
        worker = ctx.Process(
            target=_flood_and_ignore_sigterm, args=(writer,), daemon=True
        )
        worker.start()
        writer.close()
        pool._busy["flood"] = _Worker(worker, ctx.Queue(), outbox)
        # Wait for the flood to begin so the pipe is full.
        first = pool.get(timeout=30)
        assert first[1] == "flood"
        pool.close(grace=1.0)
        assert not worker.is_alive(), "hung worker leaked past shutdown"
        assert worker.exitcode == -signal.SIGKILL
        assert len(pool) == 0

    def test_noop_on_empty_fleet(self):
        pool = WorkerPool(2)
        pool.close()  # no worker ever started: must not raise
        assert pool.pids() == {}


class _FakeWorker:
    """Just enough Process surface for the reap-gating unit tests."""

    def __init__(self, alive: bool, exitcode=None):
        self._alive = alive
        self.exitcode = exitcode
        read, write = multiprocessing.Pipe(duplex=False)
        self._read, self._write = read, write
        if not alive:
            write.close()  # a closed pipe end polls ready, like a real
            # process sentinel after exit

    @property
    def sentinel(self):
        return self._read

    def is_alive(self):
        return self._alive

    def join(self, timeout=None):
        pass


def _pool_of(busy=None, idle=()):
    """A pool holding fake workers, for the reap-gating tests."""
    ctx = multiprocessing.get_context("spawn")
    pool = WorkerPool(4)
    for key, fake in (busy or {}).items():
        pool._busy[key] = _Worker(fake, ctx.Queue(), None)
    pool._idle = [_Worker(fake, ctx.Queue(), None) for fake in idle]
    return pool


class TestReapGating:
    def test_dead_workers_empty_for_healthy_fleet(self):
        pool = _pool_of(
            {"a": _FakeWorker(alive=True), "b": _FakeWorker(alive=True)}
        )
        assert pool.reap() == []
        assert "a" in pool and "b" in pool

    def test_dead_workers_flags_exited_sentinel(self):
        pool = _pool_of(
            {
                "a": _FakeWorker(alive=True),
                "b": _FakeWorker(alive=False, exitcode=-9),
            }
        )
        assert pool.reap() == [("b", -9)]
        assert "a" in pool and "b" not in pool

    def test_reap_emits_worker_died_only_for_real_deaths(self):
        """The pump loop turns a reaped death into one ``worker_died``
        (with no restart budget, then ``budget_exhausted`` and a loud
        failure), and emits nothing for healthy workers."""
        rec = MemoryRecorder()
        pool = _pool_of(
            {"b": _FakeWorker(alive=False, exitcode=-9)},
            idle=[_FakeWorker(alive=True)],
        )
        runner = ParallelCampaign(
            [WIN98], jobs=2,
            policy=SupervisorPolicy(mut_deadline=None, max_restarts=0),
        )
        nothing = SlicePlanner([], CampaignConfig(), None, 1, "unused", {})
        with pytest.raises(RuntimeError, match="exited with code -9"):
            runner._run_workers(pool, nothing, None, rec)
        kinds = [r["kind"] for r in rec.records]
        assert kinds == ["worker_died", "budget_exhausted"]
        assert rec.records[0]["death"] == "killed"
        assert rec.records[0]["exitcode"] == -9

    def test_clean_exit_is_not_reaped(self):
        """An idle worker that exits (nothing in flight) is dropped from
        the pool quietly, never reported as a death."""
        pool = _pool_of(idle=[_FakeWorker(alive=False, exitcode=0)])
        assert pool.reap() == []
        assert pool._idle == []

    def test_pump_timeout_floor(self):
        """Regression: a 0.2s MuT deadline used to drive the pump poll
        down to 10ms (a busy loop); the floor is now 50ms."""
        tight = ParallelCampaign(
            [WIN98], jobs=2,
            policy=SupervisorPolicy(mut_deadline=0.2, max_restarts=1),
        )
        assert tight._pump_timeout() == pytest.approx(0.05)
        roomy = ParallelCampaign(
            [WIN98], jobs=2,
            policy=SupervisorPolicy(mut_deadline=300.0, max_restarts=1),
        )
        assert roomy._pump_timeout() == pytest.approx(0.2)
        off = ParallelCampaign(
            [WIN98], jobs=2,
            policy=SupervisorPolicy(mut_deadline=None, max_restarts=1),
        )
        assert off._pump_timeout() == pytest.approx(0.2)
