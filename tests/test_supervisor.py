"""Self-healing supervision: a SIGKILLed worker restarts from its shard
into byte-identical output, a worker hung in *real* time (invisible to
the simulated watchdog) is killed and its poison MuT quarantined,
budget exhaustion fails loudly instead of hanging the campaign, and a
setup error fails its variant without a restart."""

import json
import os

import pytest

from repro.analysis.tables import render_table1
from repro.core.campaign import Campaign, CampaignConfig, run_single_case
from repro.core.crash_scale import CaseCode
from repro.core.parallel import ParallelCampaign
from repro.core.results import ResultSet
from repro.core.results_io import (
    CampaignCheckpoint,
    checkpoint_from_dict,
    checkpoint_to_dict,
    load_checkpoint,
    merge_checkpoints,
    results_from_dict,
    results_to_dict,
    save_checkpoint,
    shard_path,
)
from repro.core.supervisor import (
    SupervisorPolicy,
    default_max_mut_retries,
    default_max_restarts,
    default_mut_deadline,
)
from repro.obs import MemoryRecorder
from repro.posix.linux import LINUX
from repro.win32.variants import WIN98, WINNT

SUBSET = ["GetThreadContext", "CloseHandle", "strcpy", "isalpha", "fclose"]
JOBS = int(os.environ.get("BALLISTA_JOBS", "2"))

#: Deadline generous enough that spawn + registry rebuild never trips
#: the watchdog on a loaded CI box, short enough to keep tests quick.
DEADLINE = float(os.environ.get("BALLISTA_TEST_DEADLINE", "5.0"))

FAST = dict(backoff_base=0.05, backoff_max=0.2)


def serial_campaign(variants, cap):
    return Campaign(variants, config=CampaignConfig(cap=cap), muts=SUBSET)


def supervised_campaign(variants, cap, policy=None, muts=SUBSET):
    return ParallelCampaign(
        variants,
        config=CampaignConfig(cap=cap),
        muts=muts,
        jobs=JOBS,
        policy=policy or SupervisorPolicy(mut_deadline=DEADLINE, **FAST),
    )


def dumps(results: ResultSet) -> str:
    return json.dumps(results_to_dict(results), separators=(",", ":"))


# ----------------------------------------------------------------------
# Fault-free supervision: byte-identity and overhead-free pass-through
# ----------------------------------------------------------------------


class TestNoFault:
    def test_supervised_run_byte_identical_to_serial(self):
        variants = [WIN98, WINNT, LINUX]
        serial = serial_campaign(variants, 40).run()
        sup = supervised_campaign(variants, 40)
        supervised = sup.run()
        assert dumps(supervised) == dumps(serial)
        assert render_table1(supervised) == render_table1(serial)
        assert sup.supervision_log == []

    def test_supervised_checkpoint_byte_identical(self, tmp_path):
        variants = [WIN98, LINUX]
        serial_ckpt = tmp_path / "serial.json"
        sup_ckpt = tmp_path / "supervised.json"
        serial_campaign(variants, 30).run(checkpoint_path=serial_ckpt)
        supervised_campaign(variants, 30).run(checkpoint_path=sup_ckpt)
        assert sup_ckpt.read_bytes() == serial_ckpt.read_bytes()

    def test_jobs_one_falls_back_to_serial(self):
        sup = ParallelCampaign(
            [LINUX], config=CampaignConfig(cap=20), muts=SUBSET, jobs=1
        )
        serial = serial_campaign([LINUX], 20).run()
        assert dumps(sup.run()) == dumps(serial)


# ----------------------------------------------------------------------
# Automatic restart: the CI resilience drill, in-process
# ----------------------------------------------------------------------


class TestWorkerRestart:
    def test_sigkilled_worker_restarts_byte_identical(
        self, tmp_path, monkeypatch
    ):
        """The acceptance bar: SIGKILL one worker mid-variant; the
        supervisor relaunches it from its shard and the final results,
        rendered table, and checkpoint document are byte-for-byte what
        an uninterrupted run produces."""
        variants = [WIN98, WINNT, LINUX]
        serial_ckpt = tmp_path / "serial.json"
        serial = serial_campaign(variants, 40).run(
            checkpoint_path=serial_ckpt
        )
        marker = tmp_path / "killed-once"
        monkeypatch.setenv(
            "BALLISTA_FAULT_KILL", f"winnt|libc:strcpy|3|{marker}"
        )
        sup_ckpt = tmp_path / "supervised.json"
        sup = supervised_campaign(variants, 40)
        supervised = sup.run(checkpoint_path=sup_ckpt)
        assert marker.exists(), "the fault never fired"
        assert dumps(supervised) == dumps(serial)
        assert render_table1(supervised) == render_table1(serial)
        assert sup_ckpt.read_bytes() == serial_ckpt.read_bytes()
        events = [e["event"] for e in sup.supervision_log]
        assert "restart" in events
        assert "quarantine" not in events  # one strike is within budget

    def test_restart_budget_exhaustion_fails_loudly(self, monkeypatch):
        """A kill spec without a marker fires on every attempt; with the
        MuT retry budget out of reach, the variant burns its restart
        budget and the campaign raises instead of looping forever."""
        monkeypatch.setenv("BALLISTA_FAULT_KILL", "linux|libc:strcpy|2")
        policy = SupervisorPolicy(
            mut_deadline=DEADLINE,
            max_restarts=1,
            max_mut_retries=5,
            **FAST,
        )
        sup = supervised_campaign([WIN98, LINUX], 20, policy=policy)
        with pytest.raises(RuntimeError, match="restart budget exhausted"):
            sup.run()
        events = [e["event"] for e in sup.supervision_log]
        assert "budget_exhausted" in events


class TestSetupErrors:
    def test_stale_shard_fails_fast_without_restarts(self, tmp_path):
        """A worker that raises before its first unit -- here on a
        leftover shard from another cap -- fails its spec at once: one
        ``worker_died``, no restart, no backoff."""
        path = tmp_path / "campaign.ckpt"
        stale = CampaignCheckpoint(
            ResultSet(), cap=99, variants=["win98"], complete=False
        )
        save_checkpoint(stale, shard_path(path, "win98"))
        runner = ParallelCampaign(
            [WIN98, WINNT], config=CampaignConfig(cap=20), muts=SUBSET,
            jobs=JOBS, policy=SupervisorPolicy(),
        )
        recorder = MemoryRecorder()
        with pytest.raises(RuntimeError, match="win98") as failure:
            runner.run(checkpoint_path=path, recorder=recorder)
        assert "cap=99" in str(failure.value)  # the worker's traceback
        kinds = [r["kind"] for r in recorder.records]
        assert "worker_restarted" not in kinds
        deaths = [r for r in recorder.records if r["kind"] == "worker_died"]
        assert [(d["variant"], d["death"]) for d in deaths] == [
            ("win98", "crashed")
        ]
        assert deaths[0]["why"].startswith("Traceback")


# ----------------------------------------------------------------------
# Watchdog + quarantine: the poison-MuT path
# ----------------------------------------------------------------------


class TestQuarantine:
    def test_hung_mut_is_quarantined_and_campaign_completes(
        self, tmp_path, monkeypatch
    ):
        """A MuT that hangs its worker in real time on every attempt is
        watchdog-killed, retried, then quarantined; the campaign
        completes with every other MuT's row intact and the quarantined
        MuT footnoted in Table 1."""
        variants = [WIN98, LINUX]
        serial = serial_campaign(variants, 30).run()
        monkeypatch.setenv("BALLISTA_FAULT_HANG", "win98|libc:strcpy|2")
        policy = SupervisorPolicy(mut_deadline=1.5, **FAST)
        sup = supervised_campaign(variants, 30, policy=policy)
        results = sup.run()

        records = results.quarantined_records()
        assert [(r.variant, r.api, r.mut_name) for r in records] == [
            ("win98", "libc", "strcpy")
        ]
        assert results.is_quarantined("win98", "libc", "strcpy")
        assert not results.has("win98", "strcpy", api="libc")
        # Every other row matches the serial run exactly.
        for row in serial:
            if (row.variant, row.api, row.mut_name) == (
                "win98", "libc", "strcpy",
            ):
                continue
            got = results.get(row.variant, row.mut_name, api=row.api)
            assert bytes(got.codes) == bytes(row.codes)
        events = [e["event"] for e in sup.supervision_log]
        assert "watchdog_kill" in events
        assert "quarantine" in events

        table = render_table1(results)
        assert "~Windows 98" in table
        assert "libc:strcpy [win98]" in table
        assert "quarantined MuTs excluded from rates" in table
        # The undisturbed variant is unmarked.
        assert "~Linux" not in table

    def test_quarantine_spec_honoured_by_run_variant(self):
        """The serial loop records a pre-declared quarantine verdict
        without executing the MuT -- the mechanism a restarted worker
        uses to skip its poison MuT."""
        campaign = Campaign(
            [LINUX], config=CampaignConfig(cap=15), muts=SUBSET
        )
        results = campaign.run(
            quarantine={"libc:strcpy": "killed its worker twice"}
        )
        assert results.is_quarantined("linux", "libc", "strcpy")
        assert not results.has("linux", "strcpy", api="libc")
        # The other MuTs ran normally.
        assert results.has("linux", "isalpha", api="libc")
        record = results.quarantined_records()[0]
        assert record.reason == "killed its worker twice"

    def test_quarantine_survives_serialisation_round_trip(self):
        results = ResultSet()
        results.quarantine("win98", "libc", "strcpy", "hung twice")
        document = results_to_dict(results)
        assert document["version"] == 3  # optional key, same format
        restored = results_from_dict(document)
        record = restored.quarantined_records()[0]
        assert (record.variant, record.api, record.mut_name, record.reason) == (
            "win98", "libc", "strcpy", "hung twice",
        )
        # No quarantine -> no key: old documents stay byte-identical.
        assert "quarantined" not in results_to_dict(ResultSet())

    def test_quarantine_is_idempotent_and_merges(self):
        a = ResultSet()
        a.quarantine("win98", "libc", "strcpy", "first reason")
        a.quarantine("win98", "libc", "strcpy", "second reason")
        assert a.quarantined_records()[0].reason == "first reason"
        b = ResultSet()
        b.quarantine("winnt", "win32", "CloseHandle", "other")
        a.merge(b)
        assert [(r.variant, r.mut_name) for r in a.quarantined_records()] == [
            ("win98", "strcpy"), ("winnt", "CloseHandle"),
        ]


# ----------------------------------------------------------------------
# Simulated-hang path: Clock.watchdog_ticks -> TaskHang -> RESTART
# ----------------------------------------------------------------------


class TestSimulatedHang:
    def test_infinite_sleep_classified_restart_in_single_case(self):
        """A MuT that exhausts the *simulated* watchdog budget is a
        Restart failure inside one worker -- no supervisor involved."""
        outcome = run_single_case(WINNT, "win32:Sleep", ["TO_INFINITE"])
        assert outcome.code is CaseCode.RESTART

    def test_simulated_hangs_match_serial_under_supervision(self):
        """TaskHang cases flow through the supervised parallel path as
        ordinary RESTART codes: the wall-clock watchdog must never fire
        for hangs the simulation already catches."""
        muts = ["Sleep", "CloseHandle"]
        variants = [WIN98, WINNT]
        serial = Campaign(
            variants, config=CampaignConfig(cap=25), muts=muts
        ).run()
        sup = ParallelCampaign(
            variants,
            config=CampaignConfig(cap=25),
            muts=muts,
            jobs=JOBS,
            policy=SupervisorPolicy(mut_deadline=DEADLINE, **FAST),
        )
        supervised = sup.run()
        assert dumps(supervised) == dumps(serial)
        restarts = sum(
            row.count(CaseCode.RESTART) for row in supervised
        )
        assert restarts > 0, "Sleep(TO_INFINITE) should hang the task"
        assert sup.supervision_log == []


# ----------------------------------------------------------------------
# Corrupt-shard quarantine in merge_checkpoints
# ----------------------------------------------------------------------


class TestCorruptShard:
    def _shard(self, variant: str, cap: int):
        campaign = Campaign(
            [LINUX if variant == "linux" else WIN98],
            config=CampaignConfig(cap=cap),
            muts=SUBSET,
        )
        results = campaign.run()
        return CampaignCheckpoint(
            results, cap=cap, variants=[variant], complete=True
        )

    def test_truncated_shard_is_quarantined_with_warning(self, tmp_path):
        good = self._shard("linux", 15)
        bad_path = tmp_path / "campaign.json.win98.shard"
        bad_path.write_text('{"version": 1, "results"')  # truncated
        with pytest.warns(UserWarning, match=str(bad_path)):
            merged = merge_checkpoints(
                [good, str(bad_path)], cap=15, variants=["linux", "win98"]
            )
        assert not merged.complete
        assert merged.results.variants() == ["linux"]
        assert (tmp_path / "campaign.json.win98.shard.corrupt").exists()
        assert not bad_path.exists()

    def test_missing_shard_path_is_quarantined(self, tmp_path):
        good = self._shard("linux", 15)
        gone = tmp_path / "never-written.shard"
        with pytest.warns(UserWarning, match="never-written"):
            merged = merge_checkpoints([good, gone], cap=15)
        assert not merged.complete
        assert merged.results.variants() == ["linux"]

    def test_healthy_paths_still_merge_complete(self, tmp_path):
        good = self._shard("linux", 15)
        path = tmp_path / "linux.shard"
        save_checkpoint(good, path)
        merged = merge_checkpoints([str(path)], cap=15, variants=["linux"])
        assert merged.complete
        assert merged.results.variants() == ["linux"]


# ----------------------------------------------------------------------
# Supervision log on in-flight checkpoints
# ----------------------------------------------------------------------


class TestSupervisionLog:
    def test_supervision_round_trips_through_checkpoint(self):
        ckpt = CampaignCheckpoint(
            ResultSet(),
            cap=10,
            supervision=[{"event": "restart", "variant": "win98"}],
        )
        document = checkpoint_to_dict(ckpt)
        assert document["version"] == 3  # optional key, same format
        restored = checkpoint_from_dict(document)
        assert restored.supervision == [
            {"event": "restart", "variant": "win98"}
        ]
        # Empty log -> no key: undisturbed documents stay byte-identical.
        clean = checkpoint_to_dict(CampaignCheckpoint(ResultSet(), cap=10))
        assert "supervision" not in clean

    def test_final_checkpoint_carries_no_supervision_after_faults(
        self, tmp_path, monkeypatch
    ):
        """Mid-run checkpoints record the fault history; the *final*
        document must not, or a healed run would differ from a clean
        one."""
        marker = tmp_path / "killed-once"
        monkeypatch.setenv(
            "BALLISTA_FAULT_KILL", f"linux|libc:strcpy|2|{marker}"
        )
        path = tmp_path / "campaign.json"
        sup = supervised_campaign([WIN98, LINUX], 25)
        sup.run(checkpoint_path=path)
        assert [e["event"] for e in sup.supervision_log] == ["restart"]
        final = load_checkpoint(path)
        assert final.supervision == []
        assert final.complete


# ----------------------------------------------------------------------
# Policy knobs and env-var defaults
# ----------------------------------------------------------------------


class TestPolicy:
    def test_backoff_doubles_and_caps(self):
        policy = SupervisorPolicy(
            mut_deadline=None, backoff_base=0.25, backoff_max=1.0
        )
        assert [policy.backoff(i) for i in range(4)] == [0.25, 0.5, 1.0, 1.0]

    def test_env_defaults(self, monkeypatch):
        monkeypatch.delenv("BALLISTA_MUT_DEADLINE", raising=False)
        monkeypatch.delenv("BALLISTA_MAX_RESTARTS", raising=False)
        monkeypatch.delenv("BALLISTA_MAX_MUT_RETRIES", raising=False)
        assert default_mut_deadline() == 300.0
        assert default_max_restarts() == 5
        assert default_max_mut_retries() == 1
        monkeypatch.setenv("BALLISTA_MUT_DEADLINE", "0")
        assert default_mut_deadline() is None  # 0 = watchdog off
        monkeypatch.setenv("BALLISTA_MUT_DEADLINE", "12.5")
        assert default_mut_deadline() == 12.5

    @pytest.mark.parametrize(
        "name,reader",
        [
            ("BALLISTA_MUT_DEADLINE", default_mut_deadline),
            ("BALLISTA_MAX_RESTARTS", default_max_restarts),
            ("BALLISTA_MAX_MUT_RETRIES", default_max_mut_retries),
        ],
    )
    def test_env_junk_raises_naming_the_variable(
        self, name, reader, monkeypatch
    ):
        monkeypatch.setenv(name, "soon")
        with pytest.raises(ValueError, match=name):
            reader()
        monkeypatch.setenv(name, "-1")
        with pytest.raises(ValueError, match=name):
            reader()


class TestCliFlags:
    def test_negative_deadline_rejected(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["--mut-deadline", "-1", "--variants", "linux"])
        assert "--mut-deadline" in capsys.readouterr().err

    def test_negative_restarts_rejected(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["--max-restarts", "-2", "--variants", "linux"])
        assert "--max-restarts" in capsys.readouterr().err

    def test_env_junk_reported_not_raised(self, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("BALLISTA_MAX_MUT_RETRIES", "plenty")
        with pytest.raises(SystemExit):
            main(["--variants", "linux"])
        assert "BALLISTA_MAX_MUT_RETRIES" in capsys.readouterr().err
