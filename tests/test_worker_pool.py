"""The warm worker pool under the campaign runners and the service.

A pooled worker runs spec after spec in one interpreter; its output
must stay byte-identical to a cold worker's, a fault-free run must not
start more workers than it has slots, a killed or hung worker must be
replaced, and nothing may outlive the run (or service) that owns it.
"""

import json
import multiprocessing
import os
import signal
import time

import pytest

from repro import ALL_VARIANTS
from repro.core.campaign import Campaign, CampaignConfig
from repro.core.parallel import (
    ParallelCampaign,
    config_spec_fields,
    shard_bounds,
)
from repro.core.pool import WorkerPool
from repro.core.results_io import checkpoint_from_dict, results_to_dict
from repro.core.supervisor import SupervisedCampaign, SupervisorPolicy
from repro.obs.recorder import MemoryRecorder
from repro.posix.linux import LINUX
from repro.service.client import ServiceClient
from repro.service.server import CampaignService
from repro.win32.variants import WIN98, WINNT

SUBSET = ["GetThreadContext", "CloseHandle", "strcpy", "isalpha", "fclose"]
CAP = 25
DEADLINE = float(os.environ.get("BALLISTA_TEST_DEADLINE", "5.0"))
FAST = dict(backoff_base=0.05, backoff_max=0.2)


def dumps(results) -> str:
    return json.dumps(results_to_dict(results), separators=(",", ":"))


def slice_spec(personality, index, shards, base_wear=None):
    """A worker spec for slice ``index`` of ``shards`` of the variant's
    SUBSET plan, built the way the parallel runner builds one."""
    config = CampaignConfig(cap=CAP)
    plan = Campaign([personality], config=config, muts=SUBSET).plan_identities(
        personality
    )
    start, stop = shard_bounds(len(plan), shards)[index]
    return {
        "variant": personality.key,
        "tag": f"{personality.key}#{index}",
        "muts": SUBSET,
        "config": config_spec_fields(config),
        "shard_path": None,
        "checkpoint_every": 25,
        "resume": None,
        "quarantine": {},
        "heartbeat_interval": 1.0,
        "events": False,
        "shard": {
            "variant": personality.key,
            "index": index,
            "start": start,
            "stop": stop,
            "resumed": False,
            "base_wear": base_wear,
        },
    }


def run_spec(pool, spec):
    """Run one spec on ``pool``; return (pid, final checkpoint dict)."""
    pid = pool.run(spec["tag"], spec)
    while True:
        message = pool.get(timeout=60)
        if message[0] in ("done", "error") and message[1] == spec["tag"]:
            break
    pool.release(spec["tag"])
    assert message[0] == "done", message[2]
    return pid, message[2]


def spawned(recorder):
    return [r for r in recorder.records if r["kind"] == "worker_spawned"]


class TestReuse:
    def test_warm_worker_slices_match_cold_workers(self):
        """One pooled worker runs a winnt slice, a linux slice, then the
        next winnt slice (from the first one's end wear); each
        checkpoint equals the one a fresh process writes."""
        first = slice_spec(WINNT, 0, 2)
        other = slice_spec(LINUX, 0, 2)
        warm = WorkerPool(1)
        try:
            pids = []
            documents = []
            for spec in (first, other):
                pid, document = run_spec(warm, spec)
                pids.append(pid)
                documents.append(document)
            end_wear = checkpoint_from_dict(documents[0]).machine_wear["winnt"]
            second = slice_spec(WINNT, 1, 2, base_wear=end_wear)
            pid, document = run_spec(warm, second)
            pids.append(pid)
            documents.append(document)
        finally:
            warm.close()
        assert len(set(pids)) == 1, "the pool did not reuse its worker"
        for spec, document in zip((first, other, second), documents):
            cold = WorkerPool(1)
            try:
                cold_pid, cold_document = run_spec(cold, spec)
            finally:
                cold.close()
            assert cold_pid not in pids
            assert json.dumps(document, sort_keys=True) == json.dumps(
                cold_document, sort_keys=True
            ), spec["tag"]

    def test_fault_free_sharded_run_uses_at_most_jobs_workers(self):
        variants = [WIN98, WINNT, LINUX]
        serial = Campaign(
            variants, config=CampaignConfig(cap=CAP), muts=SUBSET
        ).run()
        recorder = MemoryRecorder()
        runner = SupervisedCampaign(
            variants,
            config=CampaignConfig(cap=CAP),
            muts=SUBSET,
            jobs=2,
            shards=4,
            policy=SupervisorPolicy(mut_deadline=DEADLINE, **FAST),
        )
        results = runner.run(recorder=recorder)
        assert dumps(results) == dumps(serial)
        spawns = spawned(recorder)
        # One WorkerSpawned per slice started, each naming its worker.
        plans = Campaign(variants, muts=SUBSET)
        slices = sum(
            len(shard_bounds(len(plans.plan_identities(p)), 4)) for p in variants
        )
        assert len(spawns) == slices
        assert len({r["pid"] for r in spawns}) <= 2


class TestReplacement:
    def test_sigkilled_pooled_worker_is_replaced(self, tmp_path, monkeypatch):
        variants = [WIN98, LINUX]
        serial = Campaign(
            variants, config=CampaignConfig(cap=CAP), muts=SUBSET
        ).run()
        marker = tmp_path / "killed-once"
        monkeypatch.setenv(
            "BALLISTA_FAULT_KILL", f"linux|libc:strcpy|2|{marker}"
        )
        recorder = MemoryRecorder()
        runner = SupervisedCampaign(
            variants,
            config=CampaignConfig(cap=CAP),
            muts=SUBSET,
            jobs=2,
            shards=2,
            policy=SupervisorPolicy(mut_deadline=DEADLINE, **FAST),
        )
        results = runner.run(recorder=recorder)
        assert marker.exists(), "the fault never fired"
        assert dumps(results) == dumps(serial)
        assert [e["event"] for e in runner.supervision_log] == ["restart"]
        # The killed worker never runs another spec; its slice's second
        # attempt lands on a live worker (a warm one, or a replacement).
        spawns = spawned(recorder)
        (restarted,) = [r for r in spawns if r["attempt"] == 2]
        assert restarted["variant"].startswith("linux#")
        (first,) = [
            r
            for r in spawns
            if r["variant"] == restarted["variant"] and r["attempt"] == 1
        ]
        later = spawns[spawns.index(first) + 1 :]
        assert first["pid"] not in {r["pid"] for r in later}

    def test_hung_pooled_worker_is_replaced(self, monkeypatch):
        monkeypatch.setenv("BALLISTA_FAULT_HANG", "win98|libc:strcpy|2")
        recorder = MemoryRecorder()
        runner = SupervisedCampaign(
            [WIN98, LINUX],
            config=CampaignConfig(cap=CAP),
            muts=SUBSET,
            jobs=2,
            policy=SupervisorPolicy(mut_deadline=1.5, **FAST),
        )
        results = runner.run(recorder=recorder)
        assert "watchdog_kill" in [e["event"] for e in runner.supervision_log]
        assert results.is_quarantined("win98", "libc", "strcpy")
        attempts = [r for r in spawned(recorder) if r["variant"] == "win98"]
        assert len(attempts) >= 2
        for killed, relaunched in zip(attempts, attempts[1:]):
            assert relaunched["pid"] != killed["pid"]


class TestNoLeaks:
    def test_no_children_after_run_returns(self):
        before = set(multiprocessing.active_children())
        ParallelCampaign(
            [WIN98, LINUX], config=CampaignConfig(cap=CAP), muts=SUBSET, jobs=2
        ).run()
        assert set(multiprocessing.active_children()) <= before

    def test_no_children_after_run_raises(self, monkeypatch):
        before = set(multiprocessing.active_children())
        monkeypatch.setenv("BALLISTA_FAULT_KILL", "linux|libc:strcpy|2")
        runner = SupervisedCampaign(
            [WIN98, LINUX],
            config=CampaignConfig(cap=CAP),
            muts=SUBSET,
            jobs=2,
            policy=SupervisorPolicy(
                mut_deadline=DEADLINE,
                max_restarts=1,
                max_mut_retries=5,
                **FAST,
            ),
        )
        with pytest.raises(RuntimeError, match="restart budget exhausted"):
            runner.run()
        assert set(multiprocessing.active_children()) <= before


def _serial_document(variant, muts):
    personality = next(p for p in ALL_VARIANTS if p.key == variant)
    return results_to_dict(
        Campaign(
            [personality], config=CampaignConfig(cap=CAP), muts=muts
        ).run()
    )


class TestServicePool:
    def test_back_to_back_jobs_share_a_worker(self, tmp_path):
        before = set(multiprocessing.active_children())
        recorder = MemoryRecorder()
        service = CampaignService(
            tmp_path / "data", max_workers=2, lease_s=4.0, recorder=recorder
        )
        host, port = service.listen()
        client = ServiceClient.connect(host, port)
        try:
            for variant in ("winnt", "linux"):
                job_id, _ = client.submit([variant], cap=CAP, muts=SUBSET)
                results = client.stream(job_id, timeout=120)
                assert results_to_dict(results) == _serial_document(
                    variant, SUBSET
                )
            pids = {r["pid"] for r in spawned(recorder)}
            assert len(spawned(recorder)) == 2
            assert len(pids) == 1, "the second job did not reuse the worker"
            assert service.worker_pids() == {}  # idle workers hold no shard

            # The SIGKILL drill's aim: a third job's shard maps to the
            # warm worker that runs it, and killing that pid costs the
            # shard an attempt.
            job_id, _ = client.submit(["winnt"], cap=CAP)
            tag = f"{job_id}/winnt"
            deadline = time.monotonic() + 30
            pid = None
            while pid is None:
                assert time.monotonic() < deadline, "no worker took the job"
                pid = service.worker_pids().get(tag)
            assert pid in pids
            os.kill(pid, signal.SIGKILL)
            results = client.stream(job_id, timeout=180)
            status = client.status(job_id)
        finally:
            client.close()
            service.close()
        assert results_to_dict(results) == _serial_document("winnt", None)
        assert status["shards"]["winnt"]["attempt"] >= 2
        assert set(multiprocessing.active_children()) <= before
