"""Parallel campaign runner: variant-level fan-out must be provably
deterministic -- byte-identical result sets, rendered tables, and
checkpoint documents versus the serial run -- and per-variant checkpoint
shards must resume independently after a killed worker."""

import json
import os
import tempfile

import pytest

import repro
from repro.analysis.tables import render_table1
from repro.core.campaign import Campaign, CampaignConfig
from repro.core.parallel import ParallelCampaign, default_jobs
from repro.core.results import ResultSet
from repro.core.results_io import (
    CampaignCheckpoint,
    load_checkpoint,
    results_to_dict,
    save_checkpoint,
    save_results,
    shard_path,
)
from repro.core.supervisor import SupervisorPolicy
from repro.posix.linux import LINUX
from repro.win32.variants import WIN98, WINNT

SUBSET = ["GetThreadContext", "CloseHandle", "strcpy", "isalpha", "fclose"]

#: Worker count for the suite; CI runs it at BALLISTA_JOBS=2 explicitly.
JOBS = int(os.environ.get("BALLISTA_JOBS", "2"))


def serial_campaign(variants, cap):
    return Campaign(variants, config=CampaignConfig(cap=cap), muts=SUBSET)


def parallel_campaign(variants, cap, jobs=JOBS):
    return ParallelCampaign(
        variants, config=CampaignConfig(cap=cap), muts=SUBSET, jobs=jobs
    )


def dumps(results: ResultSet) -> str:
    return json.dumps(results_to_dict(results), separators=(",", ":"))


class _Interrupt(Exception):
    pass


# ----------------------------------------------------------------------
# Determinism: parallel output is byte-identical to serial
# ----------------------------------------------------------------------


class TestDeterminism:
    @pytest.mark.parametrize("cap", [20, 45])
    def test_result_set_byte_identical_at_cap(self, cap, tmp_path):
        """The acceptance bar, at two caps: the saved result-set
        document from a parallel run is byte-for-byte the serial one."""
        variants = [WIN98, WINNT, LINUX]
        serial = serial_campaign(variants, cap).run()
        parallel = parallel_campaign(variants, cap).run()
        ser_path = tmp_path / "serial.json"
        par_path = tmp_path / "parallel.json"
        save_results(serial, ser_path)
        save_results(parallel, par_path)
        assert ser_path.read_bytes() == par_path.read_bytes()

    def test_rendered_table1_identical(self):
        variants = [WIN98, WINNT, LINUX]
        serial = serial_campaign(variants, 30).run()
        parallel = parallel_campaign(variants, 30).run()
        assert render_table1(parallel) == render_table1(serial)

    def test_checkpoint_document_byte_identical(self, tmp_path):
        """Merged shards serialise to the exact checkpoint the serial
        runner writes: same rows, cursors, machine wear, completeness."""
        variants = [WIN98, WINNT]
        ser_path = tmp_path / "ser.ckpt"
        par_path = tmp_path / "par.ckpt"
        serial_campaign(variants, 30).run(checkpoint_path=ser_path)
        parallel_campaign(variants, 30).run(checkpoint_path=par_path)
        assert ser_path.read_bytes() == par_path.read_bytes()

    def test_shards_removed_after_successful_merge(self, tmp_path):
        path = tmp_path / "par.ckpt"
        parallel_campaign([WIN98, WINNT], 20).run(checkpoint_path=path)
        assert path.exists()
        assert not list(tmp_path.glob("*.shard"))

    def test_progress_events_cover_the_serial_plan(self):
        variants = [WIN98, WINNT]
        serial_events: list[tuple] = []
        serial_campaign(variants, 20).run(
            progress=lambda *a: serial_events.append(a)
        )
        parallel_events: list[tuple] = []
        parallel_campaign(variants, 20).run(
            progress=lambda *a: parallel_events.append(a)
        )
        # Arrival order interleaves across workers, but every
        # (variant, mut, position, total) event happens exactly once.
        assert sorted(parallel_events) == sorted(serial_events)


# ----------------------------------------------------------------------
# Checkpoint shards: resume after killed workers
# ----------------------------------------------------------------------


class TestShardResume:
    def test_killed_worker_shard_resumes_independently(self, tmp_path):
        """A worker killed mid-variant leaves its shard behind; the next
        parallel run picks the shard up, skips its completed MuTs, and
        still matches the uninterrupted run exactly."""
        variants = [WIN98, WINNT]
        cap = 30
        clean = serial_campaign(variants, cap).run()

        path = tmp_path / "campaign.ckpt"
        completed: list[tuple[str, str]] = []

        def die_mid_variant(variant, mut, position, total):
            if len(completed) == 2:
                raise _Interrupt()
            completed.append((variant, mut))

        # Fabricate the killed win98 worker: a lone serial run against
        # that variant's shard path dies two MuTs in.
        with pytest.raises(_Interrupt):
            serial_campaign([WIN98], cap).run(
                progress=die_mid_variant,
                checkpoint_path=shard_path(path, "win98"),
                checkpoint_every=1,
            )
        assert shard_path(path, "win98").exists()

        executed: list[tuple[str, str]] = []
        resumed = parallel_campaign(variants, cap).run(
            progress=lambda v, m, p, t: executed.append((v, m)),
            checkpoint_path=path,
        )
        assert dumps(resumed) == dumps(clean)
        assert not (set(executed) & set(completed)), (
            "MuTs recorded in the shard must not run again"
        )
        final = load_checkpoint(path)
        assert final.complete is True
        assert not shard_path(path, "win98").exists()

    def test_parallel_resumes_a_serial_combined_checkpoint(self, tmp_path):
        """Interrupt a serial run, then finish it in parallel: the
        combined checkpoint is split into per-variant slices."""
        variants = [WIN98, WINNT]
        cap = 30
        clean = serial_campaign(variants, cap).run()

        path = tmp_path / "campaign.ckpt"
        seen = {"muts": 0}

        def die_late(variant, mut, position, total):
            if seen["muts"] == 6:
                raise _Interrupt()
            seen["muts"] += 1

        with pytest.raises(_Interrupt):
            serial_campaign(variants, cap).run(
                progress=die_late, checkpoint_path=path, checkpoint_every=1
            )
        resumed = parallel_campaign(variants, cap).run(
            checkpoint_path=path, resume=path
        )
        assert dumps(resumed) == dumps(clean)
        assert load_checkpoint(path).complete is True

    def test_resume_under_different_cap_refused(self, tmp_path):
        path = tmp_path / "campaign.ckpt"
        parallel_campaign([WINNT], 20, jobs=1).run(checkpoint_path=path)
        with pytest.raises(ValueError, match="cap"):
            parallel_campaign([WINNT], 40).run(resume=path)

    def test_resume_with_different_variants_refused(self, tmp_path):
        path = tmp_path / "campaign.ckpt"
        parallel_campaign([WINNT], 20, jobs=1).run(checkpoint_path=path)
        with pytest.raises(ValueError, match="variants"):
            parallel_campaign([WIN98, WINNT], 20).run(resume=path)

    def test_stale_shard_with_wrong_cap_fails_the_worker(self, tmp_path):
        """A leftover shard from a run at another cap must not be
        silently spliced in: the worker refuses it and the parent
        surfaces the failure."""
        path = tmp_path / "campaign.ckpt"
        stale = CampaignCheckpoint(
            ResultSet(), cap=99, variants=["win98"], complete=False
        )
        save_checkpoint(stale, shard_path(path, "win98"))
        with pytest.raises(RuntimeError, match="win98"):
            parallel_campaign([WIN98, WINNT], 20).run(checkpoint_path=path)
        # Even a run that dies before any shard merges leaves a loadable
        # combined document recording cap + variants, so ``--resume``
        # works against it.
        skeleton = load_checkpoint(path)
        assert skeleton.cap == 20
        assert skeleton.variants == ["win98", "winnt"]
        assert skeleton.complete is False


class TestTemporaryShards:
    """Without a checkpoint path, the shards that restarts resume from
    live in a private temporary directory, removed however the run
    ends."""

    def _run(self, tmp_path, monkeypatch, policy=None):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        during: list[list] = []

        def look(*_):
            during.append(list(tmp_path.glob("ballista-supervised-*")))

        runner = ParallelCampaign(
            [WIN98, LINUX], config=CampaignConfig(cap=20), muts=SUBSET,
            jobs=2, policy=policy,
        )
        try:
            return runner.run(progress=look)
        finally:
            assert any(during), "the run never used a temporary directory"
            assert not list(tmp_path.glob("ballista-supervised-*"))

    def test_successful_run_removes_its_temporary_shards(
        self, tmp_path, monkeypatch
    ):
        results = self._run(tmp_path, monkeypatch)
        assert dumps(results) == dumps(
            serial_campaign([WIN98, LINUX], 20).run()
        )

    def test_failed_run_removes_its_temporary_shards(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("BALLISTA_FAULT_KILL", "linux|libc:strcpy|2")
        with pytest.raises(RuntimeError, match="restart budget exhausted"):
            self._run(
                tmp_path,
                monkeypatch,
                SupervisorPolicy(mut_deadline=None, max_restarts=0),
            )


# ----------------------------------------------------------------------
# Knobs
# ----------------------------------------------------------------------


class TestJobs:
    def test_default_jobs_bounded_by_variants_and_cores(self):
        cores = os.cpu_count() or 1
        assert default_jobs(7) == min(7, cores)
        assert default_jobs(1) == 1
        assert default_jobs(0) == 1

    def test_jobs_below_one_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            ParallelCampaign([WINNT], jobs=0)

    def test_supervised_campaign_is_the_one_runner(self):
        """The old supervised subclass's name still builds the runner
        (benchmark scripts use it)."""
        runner = repro.SupervisedCampaign(
            [WIN98], config=CampaignConfig(cap=20), jobs=2, shards=4
        )
        assert type(runner) is ParallelCampaign
        assert runner.shards == 4 and runner.jobs == 2

    def test_single_job_runs_serially_in_process(self):
        campaign = parallel_campaign([WIN98, WINNT], 20, jobs=1)
        results = campaign.run()
        assert dumps(results) == dumps(serial_campaign([WIN98, WINNT], 20).run())
        assert campaign.last_checkpoint is not None
        assert campaign.last_checkpoint.complete is True


# ----------------------------------------------------------------------
# Server-side local fallback
# ----------------------------------------------------------------------


class TestServerLocalFallback:
    def test_run_local_parallel_matches_campaign(self, winnt, win98):
        from repro.service import BallistaServer

        server = BallistaServer([win98, winnt], cap=20)
        results = server.run_local(jobs=JOBS)
        expected = Campaign(
            [win98, winnt], config=CampaignConfig(cap=20)
        ).run()
        assert dumps(results) == dumps(expected)
        assert server.completed_variants() == {"win98", "winnt"}
        server.join({"win98", "winnt"}, timeout=1.0)  # returns immediately

    def test_run_local_with_custom_registry_falls_back_to_serial(
        self, winnt, registry
    ):
        from repro.core.mut import MuTRegistry
        from repro.service import BallistaServer

        sub = MuTRegistry()
        for mut in registry.all():
            if mut.name in SUBSET:
                sub.register(mut)
        server = BallistaServer([winnt], registry=sub, cap=20)
        results = server.run_local(jobs=JOBS)
        expected = Campaign(
            [winnt], registry=sub, config=CampaignConfig(cap=20)
        ).run()
        assert dumps(results) == dumps(expected)


# ----------------------------------------------------------------------
# ResultSet merge building blocks
# ----------------------------------------------------------------------


class TestResultSetMerge:
    def test_merge_unions_rows_and_partial_flags(self):
        left = serial_campaign([WIN98], 20).run()
        right = serial_campaign([WINNT], 20).run()
        right.mark_partial("winnt")
        merged = ResultSet()
        merged.merge(left)
        merged.merge(right)
        assert merged.variants() == ["win98", "winnt"]
        assert len(merged) == len(left) + len(right)
        assert merged.is_partial("winnt") and not merged.is_partial("win98")

    def test_merge_rejects_overlapping_rows(self):
        results = serial_campaign([WINNT], 20).run()
        with pytest.raises(ValueError, match="duplicate"):
            results.merge(serial_campaign([WINNT], 20).run())
