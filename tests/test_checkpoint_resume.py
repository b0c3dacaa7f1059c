"""Checkpoint/resume: interrupted campaigns (local or distributed) must
restart without re-executing completed MuTs and still produce the exact
result set of an uninterrupted run."""

import json

import pytest

from repro.core.campaign import Campaign, CampaignConfig, run_single_case
from repro.core.generator import CaseGenerator
from repro.core.mut import MuTRegistry
from repro.core.results import ResultSet
from repro.core.results_io import (
    CampaignCheckpoint,
    ResultFormatError,
    checkpoint_from_dict,
    checkpoint_to_dict,
    load_checkpoint,
    load_results,
    results_from_dict,
    results_to_dict,
    save_checkpoint,
    save_results,
)
from repro.service import (
    BallistaClient,
    BallistaServer,
    ChaosConfig,
    ChaosTransport,
    LoopbackTransport,
    RetryPolicy,
    RpcError,
)

SUBSET = ["GetThreadContext", "CloseHandle", "strcpy", "isalpha", "fclose"]


@pytest.fixture()
def subset_registry(registry):
    sub = MuTRegistry()
    for mut in registry.all():
        if mut.name in SUBSET:
            sub.register(mut)
    return sub


def assert_same_results(actual: ResultSet, expected: ResultSet) -> None:
    assert len(actual) == len(expected)
    for row in expected:
        mirrored = actual.get(row.variant, row.mut_name, api=row.api)
        context = (row.variant, row.mut_name)
        assert bytes(mirrored.codes) == bytes(row.codes), context
        assert bytes(mirrored.exceptional) == bytes(row.exceptional), context
        assert mirrored.error_codes == row.error_codes, context
        assert mirrored.details == row.details, context
        assert mirrored.failing_cases == row.failing_cases, context
        assert mirrored.catastrophic == row.catastrophic, context
        assert mirrored.interference_crash == row.interference_crash, context
        assert mirrored.planned_cases == row.planned_cases, context
        assert mirrored.capped == row.capped, context


def small_campaign(subset_registry, variants, cap=60):
    return Campaign(
        variants, registry=subset_registry, config=CampaignConfig(cap=cap)
    )


# ----------------------------------------------------------------------
# results_io: format v2 + checkpoint documents
# ----------------------------------------------------------------------


class TestResultsFormatV2:
    def test_partial_flag_roundtrips(self, subset_registry, winnt):
        results = small_campaign(subset_registry, [winnt], cap=20).run()
        results.mark_partial("winnt")
        document = results_to_dict(results)
        assert document["version"] == 3
        assert document["partial"] == ["winnt"]
        reloaded = results_from_dict(document)
        assert reloaded.is_partial("winnt")
        assert_same_results(reloaded, results)

    def test_v1_document_without_new_fields_still_loads(
        self, subset_registry, winnt, tmp_path
    ):
        """Regression: documents saved before the dependability layer
        (version 1, no partial/checkpoint fields) must keep loading."""
        results = small_campaign(subset_registry, [winnt], cap=20).run()
        document = results_to_dict(results)
        document["version"] = 1
        document.pop("partial", None)
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        reloaded = load_results(path)
        assert_same_results(reloaded, results)
        assert reloaded.partial_variants() == set()

    def test_future_version_rejected(self):
        with pytest.raises(ResultFormatError, match="unsupported version"):
            results_from_dict(
                {"format": "ballista-results", "version": 99, "results": []}
            )


class TestCheckpointDocument:
    def make_checkpoint(self, subset_registry, winnt):
        results = small_campaign(subset_registry, [winnt], cap=20).run()
        return CampaignCheckpoint(
            results=results,
            cursors={"winnt": 3},
            machine_wear={
                "winnt": {
                    "corruption": 2,
                    "reboot_count": 1,
                    "clock_ticks": 90210,
                    "next_pid": 250,
                }
            },
            cap=20,
            complete=False,
        )

    def test_checkpoint_roundtrips(self, subset_registry, winnt, tmp_path):
        checkpoint = self.make_checkpoint(subset_registry, winnt)
        path = tmp_path / "campaign.ckpt"
        save_checkpoint(checkpoint, path)
        reloaded = load_checkpoint(path)
        assert reloaded.cursors == checkpoint.cursors
        assert reloaded.machine_wear == checkpoint.machine_wear
        assert reloaded.cap == 20
        assert reloaded.complete is False
        assert_same_results(reloaded.results, checkpoint.results)

    def test_dict_roundtrip(self, subset_registry, winnt):
        checkpoint = self.make_checkpoint(subset_registry, winnt)
        reloaded = checkpoint_from_dict(checkpoint_to_dict(checkpoint))
        assert reloaded.cursors == checkpoint.cursors

    def test_load_results_accepts_checkpoint_documents(
        self, subset_registry, winnt, tmp_path
    ):
        """``--load`` (and any analysis) can point straight at a
        checkpoint from an interrupted run."""
        checkpoint = self.make_checkpoint(subset_registry, winnt)
        path = tmp_path / "campaign.ckpt"
        save_checkpoint(checkpoint, path)
        results = load_results(path)
        assert_same_results(results, checkpoint.results)

    def test_not_a_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"format": "something-else"}', encoding="utf-8")
        with pytest.raises(ResultFormatError, match="not a ballista-checkpoint"):
            load_checkpoint(path)

    def test_write_is_atomic(self, subset_registry, winnt, tmp_path):
        checkpoint = self.make_checkpoint(subset_registry, winnt)
        path = tmp_path / "campaign.ckpt"
        save_checkpoint(checkpoint, path)
        save_checkpoint(checkpoint, path)  # overwrite goes via rename
        assert not (tmp_path / "campaign.ckpt.tmp").exists()
        assert load_checkpoint(path).cap == 20

    def test_save_results_is_atomic_too(self, subset_registry, winnt, tmp_path):
        results = small_campaign(subset_registry, [winnt], cap=10).run()
        path = tmp_path / "results.json"
        save_results(results, path)
        assert not (tmp_path / "results.json.tmp").exists()
        assert_same_results(load_results(path), results)


# ----------------------------------------------------------------------
# Campaign checkpoint / resume
# ----------------------------------------------------------------------


class _Interrupt(Exception):
    pass


class TestCampaignResume:
    def test_killed_and_resumed_run_matches_uninterrupted(
        self, subset_registry, win98, winnt, tmp_path
    ):
        """The acceptance bar: kill a campaign mid-run, relaunch with the
        checkpoint, and the final ResultSet is identical -- without
        re-executing the MuTs completed before the kill."""
        uninterrupted = small_campaign(subset_registry, [win98, winnt]).run()

        path = tmp_path / "campaign.ckpt"
        executed_first: list[tuple[str, str]] = []

        def die_mid_campaign(variant, mut, position, total):
            # Kill the run partway through the second variant's plan.
            if len(executed_first) == 7:
                raise _Interrupt()
            executed_first.append((variant, mut))

        with pytest.raises(_Interrupt):
            small_campaign(subset_registry, [win98, winnt]).run(
                progress=die_mid_campaign,
                checkpoint_path=path,
                checkpoint_every=1,
            )
        assert path.exists()
        completed_before_kill = {
            (v, m) for v, m in executed_first
        }

        executed_second: list[tuple[str, str]] = []

        def record(variant, mut, position, total):
            executed_second.append((variant, mut))

        resumed = small_campaign(subset_registry, [win98, winnt]).run(
            progress=record,
            checkpoint_path=path,
            checkpoint_every=1,
            resume=path,
        )

        assert_same_results(resumed, uninterrupted)
        # Nothing that finished before the kill ran again.
        assert not (set(executed_second) & completed_before_kill)
        assert executed_second, "the resumed run must finish the plan"
        # The final checkpoint is marked complete.
        assert load_checkpoint(path).complete is True

    def test_resume_restores_machine_wear(
        self, registry, win98, tmp_path
    ):
        """Accumulated shared-arena corruption survives the restart, so
        interference (*) crashes classify as in the uninterrupted run.

        At cap 5 on win98, ``fwrite`` completes with corruption level 3
        (one short of the crash tolerance) and the very next corrupting
        access from ``strncpy`` tips the arena over: a Catastrophic
        interference crash that only happens because of fwrite's residue.
        A resume that forgot the wear would classify strncpy as clean.
        """
        wear_registry = MuTRegistry()
        for mut in registry.all():
            if mut.name in ("fwrite", "strncpy"):
                wear_registry.register(mut)
        uninterrupted = small_campaign(wear_registry, [win98], cap=5).run()
        crashed = uninterrupted.get("win98", "strncpy")
        assert crashed.catastrophic and crashed.interference_crash

        path = tmp_path / "campaign.ckpt"
        count = {"muts": 0}

        def die_after_fwrite(variant, mut, position, total):
            if count["muts"] == 1:
                raise _Interrupt()
            count["muts"] += 1

        with pytest.raises(_Interrupt):
            small_campaign(wear_registry, [win98], cap=5).run(
                progress=die_after_fwrite,
                checkpoint_path=path,
                checkpoint_every=1,
            )
        wear = load_checkpoint(path).machine_wear["win98"]
        assert set(wear) >= {"corruption", "reboot_count", "clock_ticks"}
        assert wear["corruption"] == 3, "fwrite must leave residue behind"
        resumed = small_campaign(wear_registry, [win98], cap=5).run(
            resume=path
        )
        assert_same_results(resumed, uninterrupted)

    def test_resume_restores_filesystem_wear(self, registry, winnt, tmp_path):
        """The filesystem is machine wear too.  At cap 60 one of
        ``fopen``'s write-mode cases creates a file at a hostile path
        string, and ``remove`` draws the same string from the shared
        pool: on the worn machine ``remove()`` finds and deletes the
        residue (returns 0), on a fresh boot it returns -1.  A resume
        that rebooted to a pristine tree misclassified those cases
        until the wear state grew a filesystem image -- this pins the
        fix.
        """
        fs_registry = MuTRegistry()
        for mut in registry.all():
            if mut.name in ("fopen", "remove"):
                fs_registry.register(mut)
        uninterrupted = small_campaign(fs_registry, [winnt], cap=60).run()

        path = tmp_path / "campaign.ckpt"
        count = {"muts": 0}

        def die_after_fopen(variant, mut, position, total):
            if count["muts"] == 1:
                raise _Interrupt()
            count["muts"] += 1

        with pytest.raises(_Interrupt):
            small_campaign(fs_registry, [winnt], cap=60).run(
                progress=die_after_fopen,
                checkpoint_path=path,
                checkpoint_every=1,
            )
        checkpoint = load_checkpoint(path)
        assert checkpoint.cursors == {"winnt": 1}, "must die before remove"
        wear = checkpoint.machine_wear["winnt"]
        leaked = [
            entry["path"]
            for entry in wear["fs"]["nodes"]
            if entry["type"] == "file" and entry["path"] != "/etc_passwd"
        ]
        assert leaked, "fopen must leave residue files for remove to find"
        resumed = small_campaign(fs_registry, [winnt], cap=60).run(
            resume=path
        )
        assert_same_results(resumed, uninterrupted)

    def test_resume_under_different_cap_refused(
        self, subset_registry, winnt, tmp_path
    ):
        path = tmp_path / "campaign.ckpt"
        small_campaign(subset_registry, [winnt], cap=20).run(
            checkpoint_path=path
        )
        with pytest.raises(ValueError, match="cap"):
            small_campaign(subset_registry, [winnt], cap=40).run(resume=path)

    def test_resume_without_recorded_cap_warns(self, subset_registry, winnt):
        """Regression: a falsy checkpoint cap used to pass the ``resume.cap
        and ...`` guard silently, resuming under *any* cap; it must warn."""
        checkpoint = CampaignCheckpoint(
            ResultSet(), cap=0, variants=["winnt"]
        )
        with pytest.warns(UserWarning, match="does not record its cap"):
            small_campaign(subset_registry, [winnt], cap=20).run(
                resume=checkpoint
            )

    def test_machine_per_case_checkpoint_records_no_wear(
        self, subset_registry, winnt, tmp_path
    ):
        """Regression: machine_per_case mode used to capture wear from
        the throwaway per-case machine into the checkpoint."""
        path = tmp_path / "campaign.ckpt"
        Campaign(
            [winnt],
            registry=subset_registry,
            config=CampaignConfig(cap=20, machine_per_case=True),
        ).run(checkpoint_path=path)
        assert load_checkpoint(path).machine_wear == {}

    def test_machine_per_case_resume_ignores_poisoned_wear(
        self, subset_registry, win98
    ):
        """In machine_per_case mode every case gets a pristine machine;
        wear smuggled in via a checkpoint must not be restored."""
        config = CampaignConfig(cap=20, machine_per_case=True)
        clean = Campaign(
            [win98], registry=subset_registry, config=config
        ).run()
        poisoned = CampaignCheckpoint(
            ResultSet(),
            machine_wear={
                "win98": {
                    "corruption": 3,
                    "reboot_count": 9,
                    "clock_ticks": 1_000_000,
                    "next_pid": 4000,
                }
            },
            cap=20,
            variants=["win98"],
        )
        resumed = Campaign(
            [win98], registry=subset_registry, config=config
        ).run(resume=poisoned)
        assert_same_results(resumed, clean)

    def test_resume_with_different_variants_refused(
        self, subset_registry, winnt, win98, tmp_path
    ):
        """A checkpoint records its variant set: resuming with another
        would silently drop or re-run whole variants."""
        path = tmp_path / "campaign.ckpt"
        small_campaign(subset_registry, [winnt], cap=20).run(
            checkpoint_path=path
        )
        assert load_checkpoint(path).variants == ["winnt"]
        with pytest.raises(ValueError, match="variants"):
            small_campaign(subset_registry, [win98, winnt], cap=20).run(
                resume=path
            )

    def test_resume_of_complete_checkpoint_is_a_no_op(
        self, subset_registry, winnt, tmp_path
    ):
        path = tmp_path / "campaign.ckpt"
        first = small_campaign(subset_registry, [winnt], cap=20).run(
            checkpoint_path=path
        )
        executed = []
        again = small_campaign(subset_registry, [winnt], cap=20).run(
            progress=lambda *a: executed.append(a), resume=path
        )
        assert executed == []
        assert_same_results(again, first)


# ----------------------------------------------------------------------
# Client-side checkpoint / resume
# ----------------------------------------------------------------------


class TestClientResume:
    def test_relaunched_client_resumes_and_matches_clean_run(
        self, subset_registry, winnt, tmp_path
    ):
        cap = 40
        clean_server = BallistaServer(
            [winnt], registry=subset_registry, cap=cap
        )
        server_end, client_end = LoopbackTransport.pair()
        clean_server.attach(server_end)
        BallistaClient(winnt, client_end, registry=subset_registry).run()
        clean_server.join({"winnt"})

        server = BallistaServer([winnt], registry=subset_registry, cap=cap)
        ckpt = tmp_path / "client.ckpt"

        # First launch dies when chaos severs the link mid-campaign.
        server_end, client_end = LoopbackTransport.pair()
        server.attach(server_end)
        doomed = BallistaClient(
            winnt,
            ChaosTransport(client_end, ChaosConfig(seed=0, disconnect_after=9)),
            registry=subset_registry,
            retry=RetryPolicy(attempts=2, call_timeout=0.05, backoff_base=0.001),
            checkpoint_path=ckpt,
            checkpoint_every=1,
        )
        with pytest.raises(RpcError):
            doomed.run()
        assert len(load_checkpoint(ckpt).results), (
            "the checkpoint must hold the acknowledged MuTs"
        )

        # Relaunch against the same server with the same checkpoint.
        server_end, client_end = LoopbackTransport.pair()
        server.attach(server_end)
        resumed = BallistaClient(
            winnt,
            client_end,
            registry=subset_registry,
            checkpoint_path=ckpt,
            checkpoint_every=1,
        )
        resumed.run()
        server.join({"winnt"})

        assert_same_results(server.results, clean_server.results)

    def run_client(self, registry, personality, cap, **kwargs):
        """One client run against a fresh server; returns the server."""
        server = BallistaServer([personality], registry=registry, cap=cap)
        server_end, client_end = LoopbackTransport.pair()
        server.attach(server_end)
        BallistaClient(personality, client_end, registry=registry, **kwargs).run()
        server.join({personality.key})
        return server

    def test_checkpoint_for_wrong_variant_rejected(
        self, subset_registry, winnt, win98, tmp_path
    ):
        ckpt = tmp_path / "client.ckpt"
        self.run_client(subset_registry, winnt, 10, checkpoint_path=ckpt)
        _, other_end = LoopbackTransport.pair()
        with pytest.raises(ValueError, match="variant"):
            BallistaClient(
                win98, other_end, registry=subset_registry, checkpoint_path=ckpt
            )

    def test_final_checkpoint_equals_local_campaigns(
        self, subset_registry, winnt, tmp_path
    ):
        """The client's resume file is a campaign checkpoint: at the end
        it holds what a local campaign's final checkpoint holds."""
        ckpt, local = tmp_path / "client.ckpt", tmp_path / "local.ckpt"
        self.run_client(
            subset_registry, winnt, 40, checkpoint_path=ckpt, checkpoint_every=2
        )
        small_campaign(subset_registry, [winnt], cap=40).run(
            checkpoint_path=local
        )
        assert checkpoint_to_dict(load_checkpoint(ckpt)) == checkpoint_to_dict(
            load_checkpoint(local)
        )

    def test_checkpoint_from_another_cap_refused(
        self, subset_registry, winnt, tmp_path
    ):
        """Case sequences are a function of the cap: a client must not
        splice a checkpoint taken at one cap into a server's other cap."""
        ckpt = tmp_path / "client.ckpt"
        self.run_client(subset_registry, winnt, 10, checkpoint_path=ckpt)
        with pytest.raises(ValueError, match="cap=10"):
            self.run_client(subset_registry, winnt, 20, checkpoint_path=ckpt)


# ----------------------------------------------------------------------
# run_single_case config threading (replay fidelity)
# ----------------------------------------------------------------------


class TestRunSingleCaseConfig:
    def first_case(self, registry, types, api, name):
        mut = registry.get(api, name)
        return mut, next(iter(CaseGenerator(types, cap=5).cases(mut)))

    def test_watchdog_budget_reaches_the_machine(
        self, registry, types, winnt, monkeypatch
    ):
        import repro.core.campaign as campaign_mod

        captured = {}
        real_machine = campaign_mod.Machine

        def spy(personality, watchdog_ticks=30_000, **kwargs):
            captured["watchdog_ticks"] = watchdog_ticks
            return real_machine(
                personality, watchdog_ticks=watchdog_ticks, **kwargs
            )

        monkeypatch.setattr(campaign_mod, "Machine", spy)
        mut, case = self.first_case(registry, types, "win32", "CloseHandle")
        run_single_case(
            winnt,
            "win32:CloseHandle",
            case.value_names,
            config=CampaignConfig(watchdog_ticks=1234),
        )
        assert captured["watchdog_ticks"] == 1234

    def test_default_watchdog_budget_unchanged(
        self, registry, types, winnt, monkeypatch
    ):
        import repro.core.campaign as campaign_mod

        captured = {}
        real_machine = campaign_mod.Machine

        def spy(personality, watchdog_ticks=30_000, **kwargs):
            captured["watchdog_ticks"] = watchdog_ticks
            return real_machine(
                personality, watchdog_ticks=watchdog_ticks, **kwargs
            )

        monkeypatch.setattr(campaign_mod, "Machine", spy)
        mut, case = self.first_case(registry, types, "win32", "CloseHandle")
        run_single_case(winnt, "win32:CloseHandle", case.value_names)
        assert captured["watchdog_ticks"] == 30_000


# ----------------------------------------------------------------------
# CLI --checkpoint / --resume
# ----------------------------------------------------------------------


class TestCliResume:
    def test_cli_resumes_interrupted_checkpoint(self, tmp_path, capsys):
        from repro.cli import main
        from repro.win32.variants import WINNT

        path = tmp_path / "cli.ckpt"
        seen = {"muts": 0}

        def die_after_five(variant, mut, position, total):
            if seen["muts"] == 5:
                raise _Interrupt()
            seen["muts"] += 1

        campaign = Campaign([WINNT], config=CampaignConfig(cap=40))
        with pytest.raises(_Interrupt):
            campaign.run(
                progress=die_after_five,
                checkpoint_path=path,
                checkpoint_every=1,
            )
        assert not load_checkpoint(path).complete

        # Resume via the CLI; --cap is adopted from the checkpoint.
        rc = main(
            [
                "--variants",
                "winnt",
                "--resume",
                str(path),
                "--tables",
                "table1",
                "--quiet",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        final = load_checkpoint(path)
        assert final.complete is True
        assert final.cap == 40
        assert final.variants == ["winnt"]

    def test_cli_resume_adopts_checkpoint_variants(self, tmp_path, capsys):
        """Without --variants, a resumed CLI run must finish the
        checkpoint's variants -- not silently restart all seven."""
        from repro.cli import main
        from repro.win32.variants import WIN98, WINNT

        path = tmp_path / "cli.ckpt"
        seen = {"muts": 0}

        def die_late(variant, mut, position, total):
            if seen["muts"] == 8:
                raise _Interrupt()
            seen["muts"] += 1

        campaign = Campaign([WIN98, WINNT], config=CampaignConfig(cap=40))
        with pytest.raises(_Interrupt):
            campaign.run(
                progress=die_late, checkpoint_path=path, checkpoint_every=1
            )

        rc = main(["--resume", str(path), "--tables", "table1", "--quiet"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Windows 98" in out and "Windows NT" in out
        assert "Linux" not in out, "resume must not re-run extra variants"
        final = load_checkpoint(path)
        assert final.complete is True
        assert final.variants == ["win98", "winnt"]


class TestZeroTailWear:
    """``truncate`` grows files with a zero tail that the wear image
    records as a length, so a checkpoint costs what was written, and
    sharded and resumed runs still reproduce the serial bytes."""

    #: ``truncate`` leaves 16 MiB files that live until ``unlink``.
    MUTS = ["open", "truncate", "umask", "uname", "unlink"]

    def test_five_mut_job_checkpoint_is_small(self, tmp_path):
        """Four Linux MuTs then ``truncate``, checkpointed every five
        MuTs: the wear holds the truncated files' tails as lengths (the
        dense image was about 128 MB)."""
        from repro.posix.linux import LINUX

        path = tmp_path / "five.ckpt"
        campaign = Campaign(
            [LINUX],
            config=CampaignConfig(cap=300),
            muts=["clearerr", "isprint", "open", "signal", "truncate"],
        )
        campaign.run(checkpoint_path=path, checkpoint_every=5)
        assert path.stat().st_size < 64 * 1024
        tails = [
            entry["zero_tail"]
            for entry in load_checkpoint(path).machine_wear["linux"]["fs"]["nodes"]
            if "zero_tail" in entry
        ]
        assert tails and max(tails) == 1 << 24

    def test_sharded_run_equals_serial_across_a_tail_seam(
        self, tmp_path, monkeypatch
    ):
        from repro.core.parallel import ParallelCampaign, SlicePlanner
        from repro.posix.linux import LINUX

        config = CampaignConfig(cap=300)
        serial_path = tmp_path / "serial.ckpt"
        sharded_path = tmp_path / "sharded.ckpt"
        serial = Campaign([LINUX], config=config, muts=self.MUTS).run(
            checkpoint_path=serial_path
        )
        slices: dict[str, dict] = {}
        on_done = SlicePlanner.on_done

        def record_slice(self, tag, checkpoint):
            slices[tag] = checkpoint.shard
            return on_done(self, tag, checkpoint)

        monkeypatch.setattr(SlicePlanner, "on_done", record_slice)
        sharded = ParallelCampaign(
            [LINUX], config=config, muts=self.MUTS, jobs=2, shards=2
        ).run(checkpoint_path=sharded_path)
        assert json.dumps(results_to_dict(sharded)) == json.dumps(
            results_to_dict(serial)
        )
        assert sharded_path.read_bytes() == serial_path.read_bytes()
        # Slice 2 starts after ``truncate`` (and ``umask``), on a machine
        # whose truncated files carry their tails as lengths.
        assert (slices["linux#1"]["start"], slices["linux#1"]["stop"]) == (3, 5)
        base_nodes = slices["linux#1"]["base_wear"]["fs"]["nodes"]
        assert any("zero_tail" in entry for entry in base_nodes)

    def test_resume_after_truncate_equals_uninterrupted(self, tmp_path):
        from repro.posix.linux import LINUX

        config = CampaignConfig(cap=300)
        full_path = tmp_path / "full.ckpt"
        uninterrupted = Campaign([LINUX], config=config, muts=self.MUTS).run(
            checkpoint_path=full_path, checkpoint_every=1
        )
        path = tmp_path / "resumed.ckpt"

        def stop_after_truncate(variant, mut, position, total):
            if mut == "umask":
                raise _Interrupt()

        with pytest.raises(_Interrupt):
            Campaign([LINUX], config=config, muts=self.MUTS).run(
                progress=stop_after_truncate,
                checkpoint_path=path,
                checkpoint_every=1,
            )
        interrupted = load_checkpoint(path)
        assert interrupted.cursors["linux"] == 2
        assert any(
            "zero_tail" in entry
            for entry in interrupted.machine_wear["linux"]["fs"]["nodes"]
        )
        resumed = Campaign([LINUX], config=config, muts=self.MUTS).run(
            checkpoint_path=path, checkpoint_every=1, resume=interrupted
        )
        assert json.dumps(results_to_dict(resumed)) == json.dumps(
            results_to_dict(uninterrupted)
        )
        assert path.read_bytes() == full_path.read_bytes()
