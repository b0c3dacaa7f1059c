"""The telemetry equivalence guarantee: at the same seed and cap, the
deterministic per-variant event stream (wall timestamps stripped,
worker-restart replays collapsed) is identical whether the campaign ran
serial, parallel, or supervised-and-healed -- the observability mirror
of the result-set byte-identity guarantee."""

import json
import os

import pytest

from repro.core.campaign import Campaign, CampaignConfig
from repro.core.parallel import ParallelCampaign
from repro.core.supervisor import SupervisorPolicy
from repro.obs import (
    DETERMINISTIC_KINDS,
    JsonlRecorder,
    MemoryRecorder,
    MetricsAggregator,
    render_stats,
    strip_wall,
    variant_stream,
)
from repro.obs.stats_cli import main as stats_main
from repro.posix.linux import LINUX
from repro.win32.variants import WIN98, WINNT

SUBSET = ["GetThreadContext", "CloseHandle", "strcpy", "isalpha", "fclose"]
JOBS = int(os.environ.get("BALLISTA_JOBS", "2"))
DEADLINE = float(os.environ.get("BALLISTA_TEST_DEADLINE", "5.0"))
FAST = dict(backoff_base=0.05, backoff_max=0.2)


def serial_stream(variants, cap):
    recorder = MemoryRecorder()
    Campaign(variants, config=CampaignConfig(cap=cap), muts=SUBSET).run(
        recorder=recorder
    )
    return recorder.records


def streams_by_variant(records, variants):
    return {
        p.key: [strip_wall(r) for r in variant_stream(records, p.key)]
        for p in variants
    }


class TestSerialParallelEquivalence:
    def test_parallel_event_stream_matches_serial(self):
        variants = [WIN98, WINNT, LINUX]
        serial = serial_stream(variants, 30)
        recorder = MemoryRecorder()
        ParallelCampaign(
            variants, config=CampaignConfig(cap=30), muts=SUBSET, jobs=JOBS
        ).run(recorder=recorder)
        assert streams_by_variant(recorder.records, variants) == (
            streams_by_variant(serial, variants)
        )

    def test_healthy_parallel_run_emits_no_death_telemetry(self):
        """The reap scan is sentinel-gated: a fault-free fleet must
        finish with zero worker_died/worker_restarted events, only
        spawn/finish bookkeeping."""
        variants = [WIN98, LINUX]
        recorder = MemoryRecorder()
        ParallelCampaign(
            variants, config=CampaignConfig(cap=20), muts=SUBSET, jobs=JOBS
        ).run(recorder=recorder)
        kinds = [r["kind"] for r in recorder.records]
        assert "worker_died" not in kinds
        assert "worker_restarted" not in kinds
        assert kinds.count("worker_spawned") == len(variants)
        assert kinds.count("worker_finished") == len(variants)

    def test_serial_events_carry_sim_ticks_not_wall_time(self):
        records = serial_stream([WIN98], 20)
        for record in records:
            assert "t" not in record  # MemoryRecorder without a clock
            if record["kind"] in ("case_executed", "mut_finished",
                                  "variant_finished"):
                assert record["sim_ticks"] >= 0


class TestSupervisedKillDrill:
    def test_healed_run_stream_matches_serial_and_stats_report(
        self, tmp_path, monkeypatch, capsys
    ):
        """The acceptance drill: SIGKILL one worker mid-MuT under the
        supervisor with --events streaming to disk.  The deterministic
        stream (timestamps stripped, replays collapsed) must equal the
        serial run's, and `repro stats` must report the restart and the
        per-variant outcome counters."""
        variants = [WIN98, WINNT, LINUX]
        serial = serial_stream(variants, 30)

        marker = tmp_path / "killed-once"
        monkeypatch.setenv(
            "BALLISTA_FAULT_KILL", f"winnt|libc:strcpy|3|{marker}"
        )
        events_path = tmp_path / "events.jsonl"
        recorder = JsonlRecorder(events_path)
        sup = ParallelCampaign(
            variants,
            config=CampaignConfig(cap=30),
            muts=SUBSET,
            jobs=JOBS,
            policy=SupervisorPolicy(mut_deadline=DEADLINE, **FAST),
        )
        try:
            sup.run(recorder=recorder)
        finally:
            recorder.close()
        assert marker.exists(), "the fault never fired"
        assert any(e["event"] == "restart" for e in sup.supervision_log)

        from repro.obs.recorder import read_events

        records, malformed = read_events(events_path)
        assert malformed == 0
        for record in records:
            assert isinstance(record["t"], float)  # every record stamped

        # Deterministic stream: identical to serial despite the heal.
        assert streams_by_variant(records, variants) == (
            streams_by_variant(serial, variants)
        )

        # Operational stream: the death and restart are visible.
        kinds = [r["kind"] for r in records]
        assert "worker_died" in kinds
        assert "worker_restarted" in kinds
        restarted = next(
            r for r in records if r["kind"] == "worker_restarted"
        )
        assert restarted["variant"] == "winnt"
        assert restarted["attempt"] == 1  # first restart...
        assert restarted["death"] == "killed"
        spawns = [
            r["attempt"] for r in records
            if r["kind"] == "worker_spawned" and r["variant"] == "winnt"
        ]
        assert spawns == [1, 2]  # ...producing launch attempt 2

        # The stats report surfaces the restart and outcome counters.
        assert stats_main([str(events_path)]) == 0
        report = capsys.readouterr().out
        assert "1 restarted" in report
        assert "killed: 1" in report
        for p in variants:
            assert p.key in report

        agg = MetricsAggregator()
        for record in records:
            agg.record(record)
        snap = agg.snapshot()
        assert snap["ops"]["worker_restarts"] == 1
        assert snap["variants"]["winnt"]["workers"]["died"] == 1
        assert snap["variants"]["winnt"]["workers"]["spawned"] == 2
        # The killed attempt's partial cases were re-executed; the
        # aggregator accounts for the replay without double-counting.
        assert snap["variants"]["winnt"]["replayed_cases"] > 0
        assert sum(
            snap["variants"][p.key]["outcomes"].get(name, 0)
            for p in variants
            for name in snap["variants"][p.key]["outcomes"]
        ) == sum(v["cases"] for v in snap["variants"].values())

    def test_stats_json_round_trips(self, tmp_path, capsys):
        """`repro stats --json` output is a loadable snapshot."""
        events_path = tmp_path / "events.jsonl"
        recorder = JsonlRecorder(events_path)
        Campaign(
            [WIN98], config=CampaignConfig(cap=20), muts=SUBSET
        ).run(recorder=recorder)
        recorder.close()
        assert stats_main([str(events_path), "--json"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["variants"]["win98"]["muts"] == len(SUBSET)
        assert snap["malformed"] == 0
