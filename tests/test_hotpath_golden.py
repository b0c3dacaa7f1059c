"""Byte-identity proofs for the hot-path optimizations.

The committed references under ``tests/golden/hotpath/`` were generated
by ``benchmarks/make_hotpath_refs.py`` *before* the copy-on-write
snapshot / memoized-pool optimizations landed.  These tests regenerate
every reference in-process and compare bytes: the optimized hot path
must produce exactly what the unoptimized code did -- result sets,
checkpoints, the rendered Table 1, and the wall-clock-stripped telemetry
event stream, in case mode and sequence mode, serial and parallel and
sharded.

The second half proves the copy-on-write claims directly at the
lifecycle level: ``Machine.revert()`` (the ``machine_per_case``
ablation's per-case isolation) is byte-equivalent to a cold
``Machine()`` rebuild across every outcome class, including
CRASH-scale machine crashes, FAULT_ATOMICITY residue snapshots under
injected faults, and dirty-machine sequence campaigns.
"""

import gzip
import importlib.util
import json
import pathlib

import pytest

from repro.core.campaign import Campaign, CampaignConfig
from repro.core.context import TestContext
from repro.core.crash_scale import CaseCode
from repro.core.executor import Executor
from repro.core.generator import CaseGenerator, TestCase
from repro.core.mut import default_registry
from repro.core.parallel import ParallelCampaign
from repro.core.results_io import results_to_dict
from repro.core.types import default_types
from repro.obs import MemoryRecorder, strip_wall, variant_stream
from repro.sim.machine import Machine
from repro.win32.variants import WIN98, WINNT

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_DIR = pathlib.Path(__file__).parent / "golden" / "hotpath"

#: Spans both APIs and, on win98, every paper failure class the case
#: campaign can produce (GetThreadContext crashes the machine).
SUBSET = ["GetThreadContext", "CloseHandle", "strcpy", "isalpha", "fclose"]

#: Under an armed "handles" fault CreateFileA creates the file node and
#: then fails inserting the handle: a failed call that left durable wear
#: -- the FAULT_ATOMICITY residue case.
ATOMIC_VALUES = (
    "FN_MISSING",
    "AM_WRITE",
    "SM_ZERO",
    "SA_NULL",
    "CD_CREATE_NEW",
    "FA_NORMAL",
    "H_NULL",
)


def _load_refs_module():
    """Import ``benchmarks/make_hotpath_refs.py`` (not a package)."""
    path = REPO_ROOT / "benchmarks" / "make_hotpath_refs.py"
    spec = importlib.util.spec_from_file_location("make_hotpath_refs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def golden_bytes(name: str) -> bytes:
    """The committed reference, transparently gunzipping the large ones."""
    gz = GOLDEN_DIR / (name + ".gz")
    if gz.exists():
        return gzip.decompress(gz.read_bytes())
    return (GOLDEN_DIR / name).read_bytes()


def dumps(payload) -> str:
    return json.dumps(payload, separators=(",", ":"))


# ----------------------------------------------------------------------
# Full regeneration against the committed pre-optimization references
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def regenerated(tmp_path_factory) -> pathlib.Path:
    refs = _load_refs_module()
    outdir = tmp_path_factory.mktemp("hotpath_refs")
    refs.generate(outdir)
    return outdir


@pytest.mark.parametrize(
    "name",
    [
        "results.json",
        "checkpoint.json",
        "table1.txt",
        "events.jsonl",
        "seq_results.json",
        "seq_table.txt",
        "seq_arena_results.json",
    ],
)
def test_fast_path_reproduces_committed_reference(regenerated, name):
    assert (regenerated / name).read_bytes() == golden_bytes(name), (
        f"{name} drifted from the pre-optimization reference; the hot "
        "path is no longer byte-identical (regenerate deliberately with "
        "benchmarks/make_hotpath_refs.py only if the format itself "
        "changed)"
    )


def test_parallel_run_matches_reference_results():
    refs = _load_refs_module()
    results = ParallelCampaign(
        refs.VARIANTS, config=CampaignConfig(cap=refs.CAP), jobs=2
    ).run()
    golden = json.loads(golden_bytes("results.json"))
    assert dumps(results_to_dict(results)) == dumps(golden)


def test_sharded_run_matches_reference_results():
    refs = _load_refs_module()
    results = ParallelCampaign(
        refs.VARIANTS, config=CampaignConfig(cap=refs.CAP), jobs=2, shards=2
    ).run()
    golden = json.loads(golden_bytes("results.json"))
    assert dumps(results_to_dict(results)) == dumps(golden)


# ----------------------------------------------------------------------
# COW revert == cold rebuild
# ----------------------------------------------------------------------


def _cold_revert(self: Machine) -> None:
    """Oracle: a genuine cold rebuild, in place.  Re-running ``__init__``
    on the machine object is exactly the ``Machine(personality, ...)``
    construction ``revert()`` claims to be equivalent to (the global
    kernel-object id counter advances identically either way)."""
    Machine.__init__(self, self.personality, self.watchdog_ticks, self.fs_max_files)


class TestRevertEqualsColdRebuild:
    def _run(self, config: CampaignConfig):
        recorder = MemoryRecorder()
        results = Campaign([WIN98, WINNT], config=config, muts=SUBSET).run(
            recorder=recorder
        )
        streams = {
            variant: [
                strip_wall(record)
                for record in variant_stream(recorder.records, variant)
            ]
            for variant in ("win98", "winnt")
        }
        return dumps(results_to_dict(results)), streams

    def test_machine_per_case_ablation(self, monkeypatch):
        """The per-case isolation ablation through ``revert()`` is
        byte-identical -- results *and* telemetry streams, simulated
        ticks included -- to rebuilding the machine for every case."""
        config = CampaignConfig(cap=60, machine_per_case=True)
        fast_results, fast_streams = self._run(config)
        monkeypatch.setattr(Machine, "revert", _cold_revert)
        cold_results, cold_streams = self._run(config)
        assert fast_results == cold_results
        assert fast_streams == cold_streams
        # The subset genuinely exercises the crash class: a campaign
        # that never crashes proves nothing about post-crash reverts.
        assert f'"code":{int(CaseCode.CATASTROPHIC)}' in dumps(
            fast_streams["win98"]
        )

    def test_crash_scale_reboot_equals_fresh_boot(self):
        """After a CRASH-scale outcome the campaign reboots the machine
        through the snapshot restore; the durable wear it leaves must be
        what a factory-fresh machine has."""
        machine = Machine(WIN98)
        registry = default_registry()
        executor = Executor(machine, CaseGenerator(default_types(), cap=60))
        mut = registry.get("win32", "GetThreadContext")
        crashed = None
        for case in executor.generator.cases(mut):
            outcome = executor.run_case(mut, case)
            if outcome.code is CaseCode.CATASTROPHIC:
                crashed = outcome
                break
        assert crashed is not None, "GetThreadContext must crash win98"
        assert machine.crashed
        machine.reboot()
        fresh = Machine(WIN98)
        assert machine.wear_residue() == fresh.wear_residue()
        assert not machine.crashed
        # Reboot carries the monotone clock and reboot count; revert
        # resets both -- full equivalence with a cold construction.
        assert machine.reboot_count == 1
        machine.revert()
        assert machine.reboot_count == fresh.reboot_count == 0
        assert machine.clock.ticks == fresh.clock.ticks == 0
        assert machine.wear_residue() == fresh.wear_residue()

    def test_fault_atomicity_residue_on_reverted_machine(self):
        """The FAULT_ATOMICITY residue snapshot (a wear-fingerprint
        comparison around the injected call) classifies identically on a
        cold machine and on a machine that ran a case and was reverted:
        the memoized fingerprint must not survive the revert."""
        registry = default_registry()
        mut = registry.get("win32", "CreateFileA")
        case = TestCase(mut.name, 0, ATOMIC_VALUES)

        def run_atomic(machine: Machine):
            ctx = TestContext(machine, machine.spawn_process())
            executor = Executor(machine, CaseGenerator(default_types(), cap=40))
            machine.faults.arm("handles")
            try:
                return executor.run_step(ctx, mut, case, inject_fault=True)
            finally:
                machine.faults.disarm()

        cold = Machine(WIN98)
        first = run_atomic(cold)
        assert first.code is CaseCode.FAULT_ATOMICITY
        assert "wear residue" in first.detail

        reverted = Machine(WIN98)
        run_atomic(reverted)  # dirty the machine (residue stays behind)
        reverted.revert()
        again = run_atomic(reverted)
        assert (again.code, again.detail, again.error_code) == (
            first.code,
            first.detail,
            first.error_code,
        )

    def test_dirty_machine_sequences_are_reproducible(self):
        """Dirty-machine sequence campaigns (no between-sequence reboot:
        maximum accumulated wear flowing through the memoized paths)
        reproduce byte-identically run over run, and identically under
        the parallel runner."""
        config = CampaignConfig(
            cap=40,
            mode="sequence",
            sequences=12,
            sequence_length=5,
            sequence_seed=7,
            dirty_machine=True,
        )
        first = Campaign([WIN98], config=config).run()
        second = Campaign([WIN98], config=config).run()
        assert dumps(results_to_dict(first)) == dumps(results_to_dict(second))
        parallel = ParallelCampaign([WIN98], config=config, jobs=2).run()
        assert dumps(results_to_dict(first)) == dumps(results_to_dict(parallel))
        # The wear the dirty run accumulates is observable (sequences
        # see predecessors' residue); assert the campaign recorded more
        # than the pass class so the equivalence is over real wear.
        codes = {
            int(code) for row in first.for_variant("win98") for code in row.codes
        }
        assert codes - {int(CaseCode.PASS_NO_ERROR)}
