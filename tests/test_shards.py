"""Intra-variant case sharding: slicing one variant's plan across many
workers must stay provably deterministic -- byte-identical result sets,
rendered tables, checkpoints, and per-variant event streams versus the
serial run -- across dirty seam wear, killed slice workers, resumed
runs, and stale wear-atlas speculation."""

import io
import json
import os
import threading

import pytest

from repro.analysis.tables import render_table1
from repro.core.campaign import Campaign, CampaignConfig
from repro.core.parallel import (
    ParallelCampaign,
    default_jobs,
    default_shards,
    shard_bounds,
    shard_tag,
)
from repro.core.results import ResultSet
from repro.core.results_io import (
    CampaignCheckpoint,
    checkpoint_from_dict,
    checkpoint_to_dict,
    load_checkpoint,
    results_to_dict,
    save_checkpoint,
    save_results,
    shard_path,
    wear_fingerprint,
)
from repro.core.supervisor import SupervisorPolicy
from repro.obs import MemoryRecorder, strip_wall, variant_stream
from repro.obs.progress import ProgressRenderer
from repro.posix.linux import LINUX
from repro.win32.variants import WIN98, WINNT

SUBSET = ["GetThreadContext", "CloseHandle", "strcpy", "isalpha", "fclose"]
JOBS = int(os.environ.get("BALLISTA_JOBS", "2"))
DEADLINE = float(os.environ.get("BALLISTA_TEST_DEADLINE", "5.0"))
FAST = dict(backoff_base=0.05, backoff_max=0.2)


def serial_campaign(variants, cap, muts=SUBSET):
    return Campaign(variants, config=CampaignConfig(cap=cap), muts=muts)


def sharded_campaign(variants, cap, shards=3, muts=SUBSET, **kwargs):
    return ParallelCampaign(
        variants,
        config=CampaignConfig(cap=cap),
        muts=muts,
        jobs=JOBS,
        shards=shards,
        **kwargs,
    )


def dumps(results: ResultSet) -> str:
    return json.dumps(results_to_dict(results), separators=(",", ":"))


def plan_keys(variant_obj, cap, muts=SUBSET):
    campaign = Campaign(
        [variant_obj], config=CampaignConfig(cap=cap), muts=muts
    )
    return [f"{m.api}:{m.name}" for m in campaign.muts_for(variant_obj)]


class _Interrupt(Exception):
    pass


# ----------------------------------------------------------------------
# Slice enumeration
# ----------------------------------------------------------------------


class TestShardBounds:
    def test_bounds_cover_plan_contiguously(self):
        for total in (1, 5, 7, 100):
            for shards in (1, 2, 3, 7, 100):
                bounds = shard_bounds(total, shards)
                assert bounds[0][0] == 0
                assert bounds[-1][1] == total
                for (_, stop), (start, _) in zip(bounds, bounds[1:]):
                    assert stop == start
                sizes = [stop - start for start, stop in bounds]
                assert max(sizes) - min(sizes) <= 1
                assert all(size >= 1 for size in sizes)

    def test_more_shards_than_positions_clamps(self):
        assert shard_bounds(3, 100) == [(0, 1), (1, 2), (2, 3)]

    def test_empty_plan_is_one_empty_slice(self):
        assert shard_bounds(0, 4) == [(0, 0)]

    def test_shard_tag(self):
        assert shard_tag("linux", 0) == "linux#0"
        assert shard_tag("winnt", 3) == "winnt#3"

    def test_default_jobs_scales_with_total_shards(self):
        cores = os.cpu_count() or 1
        assert default_jobs(28) == min(28, cores)
        assert default_jobs(0) == 1

    def test_default_shards_env(self, monkeypatch):
        monkeypatch.delenv("BALLISTA_SHARDS", raising=False)
        assert default_shards() == 1
        monkeypatch.setenv("BALLISTA_SHARDS", "4")
        assert default_shards() == 4
        monkeypatch.setenv("BALLISTA_SHARDS", "0")
        with pytest.raises(ValueError, match="BALLISTA_SHARDS"):
            default_shards()
        monkeypatch.setenv("BALLISTA_SHARDS", "many")
        with pytest.raises(ValueError, match="BALLISTA_SHARDS"):
            default_shards()


# ----------------------------------------------------------------------
# Determinism: sharded output is byte-identical to serial
# ----------------------------------------------------------------------


class TestShardedDeterminism:
    @pytest.mark.parametrize("cap", [20, 45])
    def test_result_set_byte_identical_at_cap(self, cap, tmp_path):
        """The acceptance bar, at two seeds (cap doubles as the seed of
        the deterministic generator): a sharded run's saved result-set
        document is byte-for-byte the serial one."""
        variants = [WIN98, WINNT, LINUX]
        serial = serial_campaign(variants, cap).run()
        sharded = sharded_campaign(variants, cap, shards=3).run()
        ser_path = tmp_path / "serial.json"
        shd_path = tmp_path / "sharded.json"
        save_results(serial, ser_path)
        save_results(sharded, shd_path)
        assert ser_path.read_bytes() == shd_path.read_bytes()

    def test_rendered_table1_identical(self):
        variants = [WIN98, WINNT, LINUX]
        serial = serial_campaign(variants, 30).run()
        sharded = sharded_campaign(variants, 30, shards=3).run()
        assert render_table1(sharded) == render_table1(serial)

    def test_merged_checkpoint_byte_identical(self, tmp_path):
        """Slice shards merge back into the exact checkpoint the serial
        runner writes, and the per-slice files are cleaned up."""
        variants = [WIN98, LINUX]
        ser_path = tmp_path / "ser.ckpt"
        shd_path = tmp_path / "shd.ckpt"
        serial_campaign(variants, 30).run(checkpoint_path=ser_path)
        sharded_campaign(variants, 30, shards=3).run(
            checkpoint_path=shd_path
        )
        assert ser_path.read_bytes() == shd_path.read_bytes()
        assert not shard_path(shd_path, "win98#0").exists()

    def test_event_streams_identical_to_serial(self):
        """The telemetry mirror: per-variant deterministic event
        streams, canonicalised by plan order with per-slice
        variant_finished markers collapsed, match the serial streams."""
        variants = [WIN98, LINUX]
        cap = 25
        serial_rec = MemoryRecorder()
        serial_campaign(variants, cap).run(recorder=serial_rec)
        sharded_rec = MemoryRecorder()
        sharded_campaign(variants, cap, shards=3).run(recorder=sharded_rec)
        for personality in variants:
            plan = plan_keys(personality, cap)
            serial_stream = [
                strip_wall(r)
                for r in variant_stream(serial_rec.records, personality.key)
            ]
            sharded_stream = [
                strip_wall(r)
                for r in variant_stream(
                    sharded_rec.records, personality.key, plan=plan
                )
            ]
            assert sharded_stream == serial_stream

    def test_single_shard_keeps_bare_filenames(self, tmp_path):
        """shards=1 must stay on the per-variant path: bare shard file
        names, no slice blocks -- full back compatibility."""
        path = tmp_path / "c.ckpt"
        completed = []

        def die_soon(variant, mut, position, total):
            if len(completed) == 2:
                raise _Interrupt()
            completed.append(mut)

        with pytest.raises(_Interrupt):
            sharded_campaign([WIN98], 20, shards=1).run(
                progress=die_soon,
                checkpoint_path=path,
                checkpoint_every=1,
            )
        assert shard_path(path, "win98").exists()
        assert load_checkpoint(shard_path(path, "win98")).shard is None


# ----------------------------------------------------------------------
# Seam wear: a file leaked at the end of slice k must influence the
# first MuT of slice k+1 exactly as it does serially
# ----------------------------------------------------------------------


class TestShardBoundaryWearLeak:
    #: ``creat`` leaks files into the simulated filesystem; ``unlink``'s
    #: very first cases then hit those leftovers, so its classification
    #: depends on the machine wear crossing the slice boundary.
    MUTS = ["creat", "unlink"]

    def test_boundary_seam_is_actually_dirty(self):
        """Sanity for the regression test below: running the second
        slice cold from boot must *change* its first MuT's row --
        otherwise the byte-identity assertion would be vacuous."""
        cap = 20
        serial = serial_campaign([LINUX], cap, muts=self.MUTS)
        rows = {
            f"{r['api']}:{r['mut']}": r
            for r in results_to_dict(serial.run())["results"]
        }
        seam = serial.last_checkpoint.machine_wear.get("linux")
        assert seam is not None
        assert wear_fingerprint(seam) != wear_fingerprint(None)
        cold = Campaign(
            [LINUX],
            config=CampaignConfig(cap=cap),
            muts=self.MUTS,
            shard={
                "variant": "linux",
                "index": 1,
                "start": 1,
                "stop": 2,
                "resumed": False,
                "base_wear": None,  # deliberately wrong: boot, not seam
            },
        )
        cold_rows = {
            f"{r['api']}:{r['mut']}": r
            for r in results_to_dict(cold.run())["results"]
        }
        assert cold_rows["posix:unlink"] != rows["posix:unlink"]

    def test_leaked_files_cross_boundary_byte_identically(self, tmp_path):
        """The regression: with the boundary seam demonstrably dirty,
        the sharded run still reproduces the serial classification of
        the first MuT of slice k+1 -- and everything else."""
        cap = 20
        serial = serial_campaign([LINUX], cap, muts=self.MUTS).run()
        sharded = sharded_campaign(
            [LINUX], cap, shards=2, muts=self.MUTS
        ).run()
        assert dumps(sharded) == dumps(serial)


# ----------------------------------------------------------------------
# Supervision: kill one slice's worker, heal, stay byte-identical
# ----------------------------------------------------------------------


class TestShardWorkerKill:
    def test_sigkilled_slice_worker_restarts_byte_identical(
        self, tmp_path, monkeypatch
    ):
        variants = [WIN98, LINUX]
        cap = 30
        ser_path = tmp_path / "serial.ckpt"
        serial = serial_campaign(variants, cap).run(checkpoint_path=ser_path)
        marker = tmp_path / "killed-once"
        monkeypatch.setenv(
            "BALLISTA_FAULT_KILL", f"linux|libc:strcpy|2|{marker}"
        )
        shd_path = tmp_path / "sharded.ckpt"
        sup = ParallelCampaign(
            variants,
            config=CampaignConfig(cap=cap),
            muts=SUBSET,
            jobs=JOBS,
            shards=2,
            policy=SupervisorPolicy(mut_deadline=DEADLINE, **FAST),
        )
        healed = sup.run(checkpoint_path=shd_path)
        assert marker.exists(), "the fault never fired"
        assert dumps(healed) == dumps(serial)
        assert render_table1(healed) == render_table1(serial)
        assert shd_path.read_bytes() == ser_path.read_bytes()
        restarts = [
            e for e in sup.supervision_log if e["event"] == "restart"
        ]
        assert restarts, "the supervisor never logged the slice restart"
        # The restart is attributed to the (variant, slice) worker.
        assert any("#" in e["variant"] for e in restarts)

    def test_exhausted_slice_fails_the_run_instead_of_stalling(
        self, monkeypatch
    ):
        """Regression: a slice that spent its restart budget left the
        slice chained behind it waiting for a seam that never came, and
        the pump loop polled forever.  The run must fail, naming it."""
        # win98's plan is fclose, isalpha | strcpy, CloseHandle |
        # GetThreadContext: slice 1 dies on every attempt, slice 2
        # needs its end wear.
        monkeypatch.setenv("BALLISTA_FAULT_KILL", "win98|libc:strcpy|2")
        runner = sharded_campaign(
            [WIN98], 20, shards=3,
            policy=SupervisorPolicy(mut_deadline=None, max_restarts=0),
        )
        failure: list[str] = []

        def run() -> None:
            try:
                runner.run()
            except RuntimeError as exc:
                failure.append(str(exc))

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive(), "the pump loop stalled"
        assert failure and "gave up on ['win98#1']" in failure[0]


# ----------------------------------------------------------------------
# Resume: a killed sharded run picks its slice files back up
# ----------------------------------------------------------------------


class TestShardedResume:
    def test_interrupted_slice_resumes_byte_identical(self, tmp_path):
        """Fabricate a slice worker killed mid-slice (its shard file
        survives on disk), rerun the sharded campaign, and require
        byte-identity plus no re-execution of the slice's completed
        MuTs."""
        cap = 30
        clean = serial_campaign([WIN98], cap).run()
        path = tmp_path / "campaign.ckpt"
        keys = plan_keys(WIN98, cap)
        start, stop = shard_bounds(len(keys), 2)[0]
        completed = []

        def die_mid_slice(variant, mut, position, total):
            if len(completed) == 1:
                raise _Interrupt()
            completed.append(mut)

        with pytest.raises(_Interrupt):
            Campaign(
                [WIN98],
                config=CampaignConfig(cap=cap),
                muts=SUBSET,
                shard={
                    "variant": "win98",
                    "index": 0,
                    "start": start,
                    "stop": stop,
                    "resumed": False,
                    "base_wear": None,
                },
            ).run(
                progress=die_mid_slice,
                checkpoint_path=shard_path(path, "win98#0"),
                checkpoint_every=1,
            )
        assert shard_path(path, "win98#0").exists()

        executed = []
        resumed = sharded_campaign([WIN98], cap, shards=2).run(
            progress=lambda v, m, p, t: executed.append(m),
            checkpoint_path=path,
        )
        assert dumps(resumed) == dumps(clean)
        assert not (set(executed) & set(completed)), (
            "MuTs recorded in the slice shard must not run again"
        )
        assert load_checkpoint(path).complete is True
        assert not shard_path(path, "win98#0").exists()

    def test_sharded_run_resumes_old_per_variant_checkpoint(self, tmp_path):
        """Version-1 combined checkpoints (written before slicing
        existed) still load and resume under a sharded run."""
        cap = 30
        clean = serial_campaign([WIN98, WINNT], cap).run()
        path = tmp_path / "campaign.ckpt"
        seen = {"muts": 0}

        def die_late(variant, mut, position, total):
            if seen["muts"] == 6:
                raise _Interrupt()
            seen["muts"] += 1

        with pytest.raises(_Interrupt):
            serial_campaign([WIN98, WINNT], cap).run(
                progress=die_late, checkpoint_path=path, checkpoint_every=1
            )
        # Rewrite the interrupted checkpoint as the version-1 format:
        # same fields minus the (absent anyway) shard block.
        document = checkpoint_to_dict(load_checkpoint(path))
        assert document["version"] == 3
        document["version"] = 1
        document.pop("shard", None)
        path.write_text(json.dumps(document), encoding="utf-8")

        resumed = sharded_campaign([WIN98, WINNT], cap, shards=2).run(
            checkpoint_path=path, resume=path
        )
        assert dumps(resumed) == dumps(clean)
        assert load_checkpoint(path).complete is True

    def test_version_1_document_loads(self):
        checkpoint = CampaignCheckpoint(ResultSet(), cap=10)
        document = checkpoint_to_dict(checkpoint)
        document["version"] = 1
        restored = checkpoint_from_dict(document)
        assert restored.cap == 10
        assert restored.shard is None

    def test_unknown_version_refused(self):
        document = checkpoint_to_dict(CampaignCheckpoint(ResultSet(), cap=10))
        document["version"] = 99
        with pytest.raises(Exception, match="version"):
            checkpoint_from_dict(document)

    def test_stale_slice_file_from_other_grid_discarded(
        self, tmp_path, capfd
    ):
        """A shard file recorded under a different slice assignment
        (here: a different span) must be discarded, not resumed -- its
        rows would splice a foreign wear trajectory into the slice."""
        cap = 20
        clean = serial_campaign([WIN98], cap).run()
        path = tmp_path / "campaign.ckpt"
        stale = CampaignCheckpoint(
            ResultSet(),
            cap=cap,
            variants=["win98"],
            complete=False,
            shard={
                "variant": "win98",
                "index": 0,
                "start": 0,
                "stop": 99,  # some other grid
                "resumed": False,
                "base_wear": None,
            },
        )
        save_checkpoint(stale, shard_path(path, "win98#0"))
        resumed = sharded_campaign([WIN98], cap, shards=2).run(
            checkpoint_path=path
        )
        # The discard warning fires inside the spawned worker.
        assert "different slice assignment" in capfd.readouterr().err
        assert dumps(resumed) == dumps(clean)


# ----------------------------------------------------------------------
# Wear atlas: warm seams launch speculatively; stale seams replay
# ----------------------------------------------------------------------


class TestWearAtlas:
    def test_atlas_warms_and_replays_nothing_when_fresh(self, tmp_path):
        cap = 25
        atlas_path = tmp_path / "atlas.json"
        serial = serial_campaign([WIN98, LINUX], cap).run()
        first = sharded_campaign(
            [WIN98, LINUX], cap, shards=3, atlas_path=atlas_path
        ).run()
        assert atlas_path.exists()
        recorder = MemoryRecorder()
        second = sharded_campaign(
            [WIN98, LINUX], cap, shards=3, atlas_path=atlas_path
        ).run(recorder=recorder)
        assert dumps(first) == dumps(serial)
        assert dumps(second) == dumps(serial)
        kinds = [r["kind"] for r in recorder.records]
        assert "shard_replayed" not in kinds, (
            "a fresh atlas must launch every slice on a settled seam"
        )

    def test_poisoned_atlas_replays_and_heals(self, tmp_path):
        """Corrupt one memoized seam wear: the settlement cascade must
        detect the stale base, replay the slice from the true frontier,
        and still produce serial bytes."""
        import warnings as _warnings

        from repro.core.atlas import load_atlas, save_atlas

        cap = 25
        atlas_path = tmp_path / "atlas.json"
        serial = serial_campaign([LINUX], cap).run()
        sharded_campaign(
            [LINUX], cap, shards=3, atlas_path=atlas_path
        ).run()
        atlas = load_atlas(atlas_path)
        positions = sorted(atlas.seams["linux"])
        assert positions, "the run memoized no seams"
        atlas.seams["linux"][positions[0]] = {"clock_ticks": 10**9}
        save_atlas(atlas, atlas_path)

        recorder = MemoryRecorder()
        with _warnings.catch_warnings():
            # Replay workers rightly discard the speculative files.
            _warnings.simplefilter("ignore")
            poisoned = sharded_campaign(
                [LINUX], cap, shards=3, atlas_path=atlas_path
            ).run(recorder=recorder)
        assert dumps(poisoned) == dumps(serial)
        kinds = [r["kind"] for r in recorder.records]
        assert "shard_replayed" in kinds
        # The atlas healed: the poisoned seam was re-memoized.
        healed = load_atlas(atlas_path)
        assert healed.seams["linux"][positions[0]] != {"clock_ticks": 10**9}


# ----------------------------------------------------------------------
# Progress rendering: slices collapse to one line per variant
# ----------------------------------------------------------------------


class TestProgressAggregation:
    def test_sharded_progress_reports_whole_variants(self):
        """Callers see per-variant aggregate progress -- no '#' slice
        tags, totals covering the whole plan -- so the renderer keeps
        one line per variant regardless of --shards."""
        cap = 20
        events = []
        sharded_campaign([WIN98], cap, shards=3).run(
            progress=lambda v, m, p, t: events.append((v, p, t))
        )
        assert events, "no progress forwarded"
        plan_total = len(plan_keys(WIN98, cap))
        assert all(v == "win98" for v, _, _ in events)
        assert all(t == plan_total for _, _, t in events)
        positions = [p for _, p, _ in events]
        assert max(positions) == plan_total - 1

    def test_renderer_off_tty_emits_plain_lines(self):
        """Off-TTY regression: one plain newline-terminated line per
        update, no carriage returns or cursor escapes (CI logs must
        stay grep-able)."""
        stream = io.StringIO()
        renderer = ProgressRenderer(stream=stream, tty=False)
        renderer.update("win98", "strcpy", 0, 10)
        renderer.update("win98", "strcpy", 5, 10)
        renderer.close()
        out = stream.getvalue()
        lines = out.splitlines()
        assert len(lines) == 2
        assert out.endswith("\n")
        assert "\r" not in out
        assert "\x1b" not in out
        assert all("win98" in line for line in lines)
