"""The multi-tenant campaign service, end to end.

Small campaigns (a handful of MuTs, tiny caps) keep each test fast
while still exercising the real machinery: spawn-context workers,
shard checkpoints, lease expiry and reassignment, chaos transports,
disconnect/reconnect streaming, and the graceful drain.
"""

import json
import os
import signal
import socket
import struct
import threading
import time

import pytest

from repro import ALL_VARIANTS
from repro.core.campaign import Campaign, CampaignConfig
from repro.core.parallel import ParallelCampaign
from repro.core.results import ResultSet
from repro.core.results_io import (
    CampaignCheckpoint,
    save_checkpoint,
    save_results,
)
from repro.core.supervisor import SupervisorPolicy
from repro.obs.recorder import MemoryRecorder
from repro.service.chaos import ChaosConfig, ChaosTransport
from repro.service.client import ServiceClient, ServiceError
from repro.service.rpc import (
    LAST_FRAGMENT,
    ProtocolError,
    RetryPolicy,
    RpcClient,
    SocketTransport,
)
from repro.service.server import CampaignService

SUBSET = ["GetThreadContext", "CloseHandle", "strcpy", "isalpha", "fclose"]
CAP = 25


def serial_bytes(tmp_path, variants, cap=CAP, muts=SUBSET):
    """The reference document: the same campaign run serially."""
    personalities = [p for p in ALL_VARIANTS if p.key in variants]
    results = Campaign(
        personalities, config=CampaignConfig(cap=cap), muts=list(muts)
    ).run()
    path = tmp_path / f"serial-{'-'.join(variants)}.json"
    save_results(results, path)
    return path.read_bytes()


def streamed_bytes(tmp_path, results, label):
    path = tmp_path / f"streamed-{label}.json"
    save_results(results, path)
    return path.read_bytes()


@pytest.fixture
def service(tmp_path):
    recorder = MemoryRecorder()
    svc = CampaignService(
        tmp_path / "data", max_workers=2, lease_s=4.0, recorder=recorder
    )
    svc.recorded = recorder
    svc.address = svc.listen()
    yield svc
    svc.close()


def event_kinds(recorder):
    counts = {}
    for record in recorder.records:
        counts[record["kind"]] = counts.get(record["kind"], 0) + 1
    return counts


class TestSingleTenant:
    def test_streamed_results_are_byte_identical_to_serial(
        self, tmp_path, service
    ):
        host, port = service.address
        client = ServiceClient.connect(host, port)
        job_id, created = client.submit(["winnt"], cap=CAP, muts=SUBSET)
        assert created
        results = client.stream(job_id, timeout=120)
        client.close()
        assert streamed_bytes(tmp_path, results, "one") == serial_bytes(
            tmp_path, ["winnt"]
        )
        # The service's own merged document matches too.
        assert (
            service.queue.results_file(job_id).read_bytes()
            == serial_bytes(tmp_path, ["winnt"])
        )

    def test_resubmission_deduplicates(self, service):
        host, port = service.address
        client = ServiceClient.connect(host, port)
        job_id, created = client.submit(["winnt"], cap=CAP, muts=SUBSET)
        again, created_again = client.submit(["winnt"], cap=CAP, muts=SUBSET)
        client.close()
        assert created and not created_again
        assert again == job_id

    def test_submit_rejects_unknown_variants(self, service):
        host, port = service.address
        client = ServiceClient.connect(host, port)
        with pytest.raises(ServiceError, match="unknown variants"):
            client.submit(["os2warp"], cap=CAP, muts=SUBSET)
        client.close()

    def test_status_and_queue_stats_snapshot(self, service):
        host, port = service.address
        client = ServiceClient.connect(host, port)
        job_id, _ = client.submit(["winnt"], cap=CAP, muts=SUBSET)
        client.stream(job_id, timeout=120)
        status = client.status(job_id)
        assert status["state"] == "done"
        assert status["shards"]["winnt"]["done"]
        stats = client.queue_stats()
        client.close()
        assert stats["jobs"].get("done") == 1
        assert stats["leases"]["double_grants_refused"] == 0


class TestConcurrentTenants:
    def test_four_chaotic_tenants_complete_byte_identical(
        self, tmp_path, service
    ):
        host, port = service.address
        tenants = {
            "t0": ["winnt"],
            "t1": ["win98"],
            "t2": ["linux"],
            "t3": ["wince"],
        }
        streamed: dict[str, object] = {}
        failures: list[str] = []

        def run_tenant(index, tenant, variants):
            # Drop+dup chaos on every connection, distinct schedules.
            chaos = ChaosConfig(
                seed=1000 + index, drop_rate=0.05, dup_rate=0.05
            )
            client = ServiceClient.connect(
                host, port, wrap=lambda t: ChaosTransport(t, chaos)
            )
            try:
                job_id, _ = client.submit(
                    variants, cap=CAP, muts=SUBSET, tenant=tenant
                )
                streamed[tenant] = client.stream(job_id, timeout=180)
            except Exception as exc:  # noqa: BLE001 - report in-test
                failures.append(f"{tenant}: {exc!r}")
            finally:
                client.close()

        threads = [
            threading.Thread(target=run_tenant, args=(i, tenant, variants))
            for i, (tenant, variants) in enumerate(tenants.items())
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=240)
        assert not failures
        assert all(not thread.is_alive() for thread in threads)
        for tenant, variants in tenants.items():
            assert streamed_bytes(
                tmp_path, streamed[tenant], tenant
            ) == serial_bytes(tmp_path, variants), tenant
        stats = event_kinds(service.recorded)
        assert stats["job_submitted"] == 4
        assert stats["job_finished"] == 4


def wait_for_worker(service, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        pids = service.worker_pids()
        if pids:
            return sorted(pids.items())[0]
        time.sleep(0.02)
    raise AssertionError("no worker ever spawned")


class TestWorkerLoss:
    def test_sigkilled_worker_is_reassigned_and_job_completes(
        self, tmp_path, service
    ):
        host, port = service.address
        client = ServiceClient.connect(host, port)
        job_id, _ = client.submit(["winnt"], cap=CAP, muts=SUBSET)
        tag, pid = wait_for_worker(service)
        os.kill(pid, signal.SIGKILL)
        results = client.stream(job_id, timeout=180)
        status = client.status(job_id)
        stats = client.queue_stats()
        client.close()
        assert streamed_bytes(tmp_path, results, "killed") == serial_bytes(
            tmp_path, ["winnt"]
        )
        assert status["shards"]["winnt"]["attempt"] >= 2
        assert stats["leases"]["reassigned"] >= 1
        assert stats["leases"]["double_grants_refused"] == 0
        kinds = event_kinds(service.recorded)
        assert kinds.get("lease_reassigned", 0) >= 1

    def test_lease_expires_while_client_is_streaming(self, tmp_path, service):
        # The satellite edge: the worker goes silent (SIGSTOP -- alive
        # but wedged, so only heartbeat loss can catch it) while the
        # client is mid-stream.  The lease must expire, the shard must
        # be reassigned, and the stream must still complete with no
        # duplicate rows.
        host, port = service.address
        client = ServiceClient.connect(host, port)
        job_id, _ = client.submit(["win98"], cap=CAP, muts=SUBSET)
        state: dict = {}
        stopped: list[int] = []

        def stream():
            state["results"] = client.stream(job_id, state=state, timeout=180)

        thread = threading.Thread(target=stream)
        thread.start()
        tag, pid = wait_for_worker(service)
        os.kill(pid, signal.SIGSTOP)
        stopped.append(pid)
        try:
            thread.join(timeout=240)
        finally:
            for pid in stopped:
                try:
                    os.kill(pid, signal.SIGCONT)  # unstick for cleanup
                except ProcessLookupError:
                    pass
        assert not thread.is_alive()
        client.close()
        assert streamed_bytes(
            tmp_path, state["results"], "stalled"
        ) == serial_bytes(tmp_path, ["win98"])
        kinds = event_kinds(service.recorded)
        assert kinds.get("lease_expired", 0) >= 1
        assert kinds.get("lease_reassigned", 0) >= 1
        rows = state["rows"]
        keys = [(row["api"], row["mut"]) for row in rows]
        assert len(keys) == len(set(keys)), "duplicate rows streamed"


class TestShardedJobs:
    def test_sharded_submit_streams_byte_identical(self, tmp_path, service):
        """A shards=3 job runs each variant as three chained slices and
        still streams (and finalises) the serial bytes."""
        host, port = service.address
        client = ServiceClient.connect(host, port)
        job_id, created = client.submit(
            ["winnt"], cap=CAP, muts=SUBSET, shards=3
        )
        assert created
        results = client.stream(job_id, timeout=180)
        status = client.status(job_id)
        client.close()
        assert streamed_bytes(tmp_path, results, "sliced") == serial_bytes(
            tmp_path, ["winnt"]
        )
        assert (
            service.queue.results_file(job_id).read_bytes()
            == serial_bytes(tmp_path, ["winnt"])
        )
        record = service.queue.get(job_id)
        assert sorted(record.shards_done) == [
            "winnt#0", "winnt#1", "winnt#2"
        ]
        assert status["shards"]["winnt"]["done"]
        assert status["shards"]["winnt"]["slices"] == {
            "done": 3, "total": 3,
        }

    def test_sigkilled_slice_worker_is_reassigned(self, tmp_path, service):
        host, port = service.address
        client = ServiceClient.connect(host, port)
        job_id, _ = client.submit(
            ["win98"], cap=CAP, muts=SUBSET, shards=2
        )
        tag, pid = wait_for_worker(service)
        assert "#" in tag  # a slice worker, not a whole-variant one
        os.kill(pid, signal.SIGKILL)
        results = client.stream(job_id, timeout=240)
        stats = client.queue_stats()
        client.close()
        assert streamed_bytes(
            tmp_path, results, "sliced-killed"
        ) == serial_bytes(tmp_path, ["win98"])
        assert stats["leases"]["reassigned"] >= 1
        assert stats["leases"]["double_grants_refused"] == 0


def held_by_supervisor(service, tag):
    """Whether any per-tag table of the service's supervisor has ``tag``."""
    return any(
        isinstance(table, dict) and tag in table
        for table in vars(service._supervisor).values()
    )


class TestOneSupervisor:
    """The service heals worker deaths through the parallel runner's
    death policy: strikes, quarantine, backoff and fail-fast."""

    @pytest.mark.parametrize("shards", [1, 2])
    def test_poison_mut_is_quarantined_as_by_the_parallel_runner(
        self, tmp_path, service, monkeypatch, shards
    ):
        """A MuT that kills its worker on every attempt (no marker)
        costs the service job its quarantine row, not the job: the
        streamed document and ``results.json`` equal the parallel
        runner's under the same budget, quarantine row included."""
        monkeypatch.setenv("BALLISTA_FAULT_KILL", "winnt|libc:strcpy|3")
        runner = ParallelCampaign(
            [p for p in ALL_VARIANTS if p.key == "winnt"],
            CampaignConfig(cap=CAP),
            muts=SUBSET,
            jobs=2,
            shards=shards,
            policy=SupervisorPolicy(mut_deadline=None, max_restarts=4),
        )
        expected = streamed_bytes(tmp_path, runner.run(), f"local-{shards}")
        # Both deaths are blamed on strcpy's heartbeat: two strikes.
        assert [e["event"] for e in runner.supervision_log] == [
            "restart", "quarantine", "restart"
        ]
        assert b'"quarantined"' in expected
        assert b"libc" in expected and b"strcpy" in expected
        host, port = service.address
        client = ServiceClient.connect(host, port)
        job_id, _ = client.submit(
            ["winnt"], cap=CAP, muts=SUBSET, shards=shards
        )
        results = client.stream(job_id, timeout=180)
        client.close()
        assert [
            (r.variant, r.api, r.mut_name)
            for r in results.quarantined_records()
        ] == [("winnt", "libc", "strcpy")]
        streamed = streamed_bytes(tmp_path, results, f"svc-{shards}")
        assert json.loads(streamed) == json.loads(expected)  # readable diff
        assert streamed == expected
        assert service.queue.results_file(job_id).read_bytes() == expected
        kinds = event_kinds(service.recorded)
        assert kinds.get("mut_quarantined") == 1
        assert kinds.get("worker_restarted") == kinds.get("worker_died") == 2

    def test_setup_error_fails_the_job_without_a_second_grant(
        self, service
    ):
        """A worker that raises before its first unit -- here on a
        stale shard checkpoint from another cap -- fails its job at
        once: one grant, one death, no restart, no reassignment."""
        stale = CampaignCheckpoint(
            ResultSet(), cap=99, variants=["winnt"], complete=False
        )
        save_checkpoint(stale, service.queue.shard_file("job-0001", "winnt"))
        host, port = service.address
        client = ServiceClient.connect(host, port)
        job_id, _ = client.submit(["winnt"], cap=CAP, muts=SUBSET)
        assert job_id == "job-0001"
        with pytest.raises(ServiceError, match="cap=99"):
            client.stream(job_id, timeout=120)
        client.close()
        kinds = event_kinds(service.recorded)
        assert kinds.get("lease_granted") == 1
        assert kinds.get("worker_died") == 1
        assert "worker_restarted" not in kinds
        assert "lease_reassigned" not in kinds
        assert not held_by_supervisor(service, f"{job_id}/winnt")

    def test_supervisor_keeps_nothing_for_finished_jobs(
        self, tmp_path, service, monkeypatch
    ):
        """Once a shard is done its tag's strikes, verdicts and backoff
        go -- also for a job that healed from a SIGKILL."""
        marker = tmp_path / "killed-once"
        monkeypatch.setenv(
            "BALLISTA_FAULT_KILL", f"win98|libc:strcpy|3|{marker}"
        )
        host, port = service.address
        client = ServiceClient.connect(host, port)
        tags = []
        for variants, shards in ((["winnt"], 1), (["win98", "linux"], 2)):
            job_id, _ = client.submit(
                variants, cap=CAP, muts=SUBSET, shards=shards
            )
            client.stream(job_id, timeout=180)
            tags += [
                f"{job_id}/{token}"
                for token in service.queue.get(job_id).spec.all_tokens()
            ]
        client.close()
        assert marker.exists(), "the fault never fired"
        assert event_kinds(service.recorded).get("worker_restarted") == 1
        assert [tag for tag in tags if held_by_supervisor(service, tag)] == []


class TestReconnect:
    def test_reconnecting_client_resumes_without_duplicates(
        self, tmp_path, service
    ):
        host, port = service.address
        client = ServiceClient.connect(host, port)
        job_id, _ = client.submit(["winnt"], cap=CAP, muts=SUBSET)
        state: dict = {}
        # Pin the worker (SIGSTOP) so the job cannot finish while the
        # first client is connected, stream until the short timeout
        # fires mid-job, then vanish.  The timeout plays the part of
        # the disconnect; the pin makes it deterministic.
        tag, pid = wait_for_worker(service)
        os.kill(pid, signal.SIGSTOP)
        try:
            with pytest.raises(Exception):  # noqa: B017 - RpcTimeout
                client.stream(job_id, state=state, timeout=0.5)
        finally:
            try:
                os.kill(pid, signal.SIGCONT)
            except ProcessLookupError:
                pass
        client.close()
        rows_before = len(state.get("rows", []))
        reconnected = ServiceClient.connect(host, port)
        results = reconnected.stream(job_id, state=state, timeout=180)
        reconnected.close()
        assert streamed_bytes(
            tmp_path, results, "reconnect"
        ) == serial_bytes(tmp_path, ["winnt"])
        keys = [(row["api"], row["mut"]) for row in state["rows"]]
        assert len(keys) == len(set(keys)), "duplicate rows after reconnect"
        assert len(keys) >= rows_before
        kinds = event_kinds(service.recorded)
        assert kinds.get("client_disconnected", 0) >= 1


class TestDrain:
    def test_drain_with_nonempty_queue_persists_and_restart_finishes(
        self, tmp_path
    ):
        data = tmp_path / "data"
        svc = CampaignService(data, max_workers=1, lease_s=4.0)
        host, port = svc.listen()
        client = ServiceClient.connect(host, port)
        job_a, _ = client.submit(
            ["winnt"], cap=CAP, muts=SUBSET, tenant="a"
        )
        job_b, _ = client.submit(
            ["win98"], cap=CAP, muts=SUBSET, tenant="b"
        )
        client.close()
        svc.close()  # drain mid-run: job_b never even started
        assert (data / "queue.json").exists()

        svc2 = CampaignService(data, max_workers=2, lease_s=4.0)
        host, port = svc2.listen()
        client = ServiceClient.connect(host, port)
        for job_id, variants in ((job_a, ["winnt"]), (job_b, ["win98"])):
            results = client.stream(job_id, timeout=180)
            assert streamed_bytes(
                tmp_path, results, job_id
            ) == serial_bytes(tmp_path, variants)
        client.close()
        svc2.close()

    def test_draining_service_refuses_new_submissions(self, service):
        host, port = service.address
        service.drain()
        time.sleep(0.1)
        # Depending on how far the drain has progressed, either the
        # submit is refused (ServiceError) or the listener is already
        # gone (OSError/RpcError).  Both are correct refusals.
        with pytest.raises(Exception):  # noqa: B017 - any refusal is fine
            client = ServiceClient.connect(host, port)
            try:
                client.submit(["winnt"], cap=CAP, muts=SUBSET)
            finally:
                client.close()


class TestProtocolRobustness:
    def test_framing_garbage_closes_the_connection_with_typed_events(
        self, service
    ):
        host, port = service.address
        raw = socket.create_connection((host, port), timeout=5)
        # A length prefix far beyond MAX_RECORD: unresynchronisable
        # stream damage, not a retryable record fault.
        raw.sendall(struct.pack(">I", 0x7FFF_FFFF) + b"junk")
        deadline = time.monotonic() + 10
        closed = False
        raw.settimeout(0.2)
        while time.monotonic() < deadline:
            try:
                if raw.recv(4096) == b"":
                    closed = True
                    break
            except socket.timeout:
                continue
            except OSError:
                closed = True
                break
        raw.close()
        assert closed, "server kept a damaged stream open"
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            kinds = event_kinds(service.recorded)
            if kinds.get("protocol_error"):
                break
            time.sleep(0.02)
        kinds = event_kinds(service.recorded)
        assert kinds.get("protocol_error", 0) >= 1
        assert kinds.get("client_disconnected", 0) >= 1

    def test_mid_record_eof_is_a_protocol_error_event(self, service):
        host, port = service.address
        raw = socket.create_connection((host, port), timeout=5)
        # A plausible header promising 100 bytes, then hang up.
        raw.sendall(struct.pack(">I", LAST_FRAGMENT | 100) + b"short")
        raw.close()
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            if event_kinds(service.recorded).get("protocol_error"):
                break
            time.sleep(0.02)
        kinds = event_kinds(service.recorded)
        assert kinds.get("protocol_error", 0) >= 1

    def test_rpc_client_surfaces_typed_protocol_error(self):
        # Satellite: a malformed length prefix mid-stream must raise
        # ProtocolError (and close), not a raw struct/OS error.
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen()
        host, port = listener.getsockname()

        def evil_server():
            conn, _ = listener.accept()
            conn.recv(4096)  # swallow the call
            # Reply header promises an implausibly huge record.
            conn.sendall(struct.pack(">I", 0x7FFF_FFFF))
            conn.close()

        thread = threading.Thread(target=evil_server, daemon=True)
        thread.start()
        sock = socket.create_connection((host, port), timeout=5)
        client = RpcClient(SocketTransport(sock), retry=None)
        with pytest.raises(ProtocolError, match="implausible"):
            client.call(1, b"")
        listener.close()

    def test_retrying_rpc_client_does_not_retry_stream_damage(self):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen()
        host, port = listener.getsockname()
        accepted: list[int] = []

        def evil_server():
            conn, _ = listener.accept()
            accepted.append(1)
            conn.recv(4096)
            conn.sendall(struct.pack(">I", LAST_FRAGMENT | 64) + b"trunc")
            conn.close()

        thread = threading.Thread(target=evil_server, daemon=True)
        thread.start()
        sock = socket.create_connection((host, port), timeout=5)
        recorder = MemoryRecorder()
        client = RpcClient(
            SocketTransport(sock),
            retry=RetryPolicy(attempts=5, call_timeout=2.0),
            recorder=recorder,
        )
        with pytest.raises(ProtocolError, match="mid-record"):
            client.call(1, b"")
        # One transmission only: framing damage is not retryable.
        assert sum(accepted) == 1
        assert [r["kind"] for r in recorder.records] == ["protocol_error"]
        assert recorder.records[0]["where"] == "client"
        listener.close()


class TestSatelliteKnobs:
    def test_connect_timeout_env_default(self, monkeypatch):
        from repro.service.client import default_connect_timeout

        monkeypatch.delenv("BALLISTA_CONNECT_TIMEOUT", raising=False)
        assert default_connect_timeout() == 30.0
        monkeypatch.setenv("BALLISTA_CONNECT_TIMEOUT", "2.5")
        assert default_connect_timeout() == 2.5

    @pytest.mark.parametrize("raw", ["soon", "", "0", "-3"])
    def test_connect_timeout_env_rejects_junk(self, monkeypatch, raw):
        from repro.service.client import default_connect_timeout

        monkeypatch.setenv("BALLISTA_CONNECT_TIMEOUT", raw)
        with pytest.raises(ValueError, match="BALLISTA_CONNECT_TIMEOUT"):
            default_connect_timeout()

    def test_connect_passes_timeout_to_socket(self, monkeypatch, service):
        seen = {}
        real = socket.create_connection

        def spy(address, timeout=None, **kwargs):
            seen["timeout"] = timeout
            return real(address, timeout=timeout, **kwargs)

        monkeypatch.setattr(socket, "create_connection", spy)
        host, port = service.address
        client = ServiceClient.connect(host, port, timeout=7.5)
        client.close()
        assert seen["timeout"] == 7.5
        monkeypatch.setenv("BALLISTA_CONNECT_TIMEOUT", "11")
        client = ServiceClient.connect(host, port)
        client.close()
        assert seen["timeout"] == 11.0

    @pytest.mark.parametrize("raw", ["lots", "-0.1", "1.5"])
    def test_chaos_rate_env_rejects_junk(self, monkeypatch, raw):
        from repro.service.chaos import chaos_rate_from_env

        monkeypatch.setenv("BALLISTA_CHAOS_RATE", raw)
        with pytest.raises(ValueError, match="BALLISTA_CHAOS_RATE"):
            chaos_rate_from_env()

    def test_chaos_config_from_env(self, monkeypatch):
        monkeypatch.setenv("BALLISTA_CHAOS_RATE", "0.05")
        monkeypatch.setenv("BALLISTA_CHAOS_SEED", "2024")
        config = ChaosConfig.from_env()
        assert config.drop_rate == 0.05
        assert config.dup_rate == 0.05
        assert config.seed == 2024

    def test_chaos_config_validates_rates(self):
        with pytest.raises(ValueError, match="drop_rate"):
            ChaosConfig(drop_rate=1.5)
        with pytest.raises(ValueError, match="dup_rate"):
            ChaosConfig(dup_rate=-0.1)
        with pytest.raises(ValueError, match="corrupt_rate"):
            ChaosConfig(corrupt_rate="high")
