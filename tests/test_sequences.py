"""Sequence-campaign tests: seeded stateful call-sequence plans, the
``--mode sequence`` campaign loop with sequence-level crash attribution,
deterministic fault-injection families with failure-atomicity checking,
and the triage path from a crashed sequence row back to a minimal
standalone reproducer."""

import base64
import json
import os

import pytest

from repro.analysis.tables import render_sequence_table, render_table1
from repro.core.campaign import Campaign, CampaignConfig
from repro.core.crash_scale import CaseCode
from repro.core.executor import Executor
from repro.core.generator import CaseGenerator
from repro.core.mut import default_registry
from repro.core.parallel import ParallelCampaign
from repro.core.results import ResultSet
from repro.core.results_io import (
    CampaignCheckpoint,
    checkpoint_from_dict,
    checkpoint_plan,
    checkpoint_to_dict,
    load_checkpoint,
    load_results,
    results_from_dict,
    results_to_dict,
    save_results,
)
from repro.core.sequences import (
    SEQUENCE_API,
    SequencePlan,
    SequencePlanner,
    SequenceStep,
    run_variant_sequences,
    sequence_name,
)
from repro.core.supervisor import SupervisedCampaign, SupervisorPolicy
from repro.core.types import default_types
from repro.obs import (
    MemoryRecorder,
    MetricsAggregator,
    render_stats,
    strip_wall,
    variant_stream,
)
from repro.sim.faults import FAULT_FAMILIES
from repro.sim.machine import Machine
from repro.triage import (
    minimize_crash_sequence,
    minimize_from_sequence_record,
    render_repro_program,
    replay_sequence,
    steps_from_sequence_record,
)
from repro.win32.variants import WIN95, WIN98, WINCE, WINDOWS_VARIANTS, WINNT

SUBSET = ["GetThreadContext", "CloseHandle", "strcpy", "isalpha", "fclose"]
JOBS = int(os.environ.get("BALLISTA_JOBS", "2"))
DEADLINE = float(os.environ.get("BALLISTA_TEST_DEADLINE", "5.0"))
FAST = dict(backoff_base=0.05, backoff_max=0.2)

#: Silently corrupts the shared arena on win98 (PASS_NO_ERROR); the
#: fourth cumulative hit exceeds win98's corruption tolerance of 3.
CORRUPTING = SequenceStep("libc", "strncpy", ("PTR_FREED", "STR_SHORT", "SIZE_16"))
#: Same MuT, harmless values.
BENIGN = SequenceStep("libc", "strncpy", ("PTR_PAGE", "STR_SHORT", "SIZE_16"))
#: Crashes win98 immediately, in any state.
IMMEDIATE = SequenceStep("win32", "GetThreadContext", ("TH_CURRENT", "PTR_NULL"))
#: Under an armed "handles" fault the call creates the file node, then
#: fails inserting the handle -- a failed call that left wear residue.
ATOMIC = SequenceStep(
    "win32",
    "CreateFileA",
    (
        "FN_MISSING",
        "AM_WRITE",
        "SM_ZERO",
        "SA_NULL",
        "CD_CREATE_NEW",
        "FA_NORMAL",
        "H_NULL",
    ),
)


def json_fingerprint(machine: Machine) -> str:
    """The residue fingerprint ``Machine.wear_residue`` used to return:
    sorted-key JSON of corruption, the filesystem image without access
    times, and the base64 arena while it is not all zero.  Kept here as
    the oracle the structural snapshot must agree with."""
    fs = machine._fs_wear()
    for node in fs["nodes"]:
        node.pop("accessed_at", None)
    parts: dict = {"corruption": machine._corruption, "fs": fs}
    if machine.shared_region is not None and any(machine.shared_region.data):
        parts["shared_arena"] = base64.b64encode(
            bytes(machine.shared_region.data)
        ).decode("ascii")
    return json.dumps(parts, sort_keys=True, separators=(",", ":"))


def seq_config(**overrides):
    base = dict(
        cap=40, mode="sequence", sequences=12, sequence_length=5, sequence_seed=7
    )
    base.update(overrides)
    return CampaignConfig(**base)


def dumps(results: ResultSet) -> str:
    return json.dumps(results_to_dict(results), separators=(",", ":"))


def make_plan(steps, index=0, fault_family=None, fault_step=None, registry=None):
    registry = registry or default_registry()
    muts = tuple(registry.get(s.api, s.mut_name) for s in steps)
    return SequencePlan(
        sequence_name(index), index, tuple(steps), muts, fault_family, fault_step
    )


def run_plans(personality, plans, config=None, recorder=None):
    """Drive hand-built plans through the real sequence-campaign loop."""
    config = config or CampaignConfig(cap=40, mode="sequence")
    generator = CaseGenerator(default_types(), cap=config.cap)
    checkpoint = CampaignCheckpoint(
        ResultSet(), cap=config.cap, variants=[personality.key]
    )
    run_variant_sequences(
        personality,
        list(plans),
        generator,
        config,
        checkpoint.results,
        None,
        checkpoint,
        None,
        1,
        recorder=recorder,
    )
    return checkpoint.results


def subset_pool(personality):
    return [
        m
        for m in default_registry().for_variant(personality)
        if m.name in SUBSET
    ]


# ----------------------------------------------------------------------
# The planner: seeded, pure, and order-independent
# ----------------------------------------------------------------------


class TestPlanner:
    def _planner(self, count=20, length=5, seed=7, pool=None):
        return SequencePlanner(
            pool if pool is not None else subset_pool(WIN98),
            CaseGenerator(default_types(), cap=40),
            count,
            length,
            seed=seed,
        )

    def test_same_seed_plans_identical(self):
        assert self._planner().plans() == self._planner().plans()

    def test_plan_is_pure_and_order_free(self):
        planner = self._planner()
        plans = planner.plans()
        # Any index, any order, any number of times: same plan.
        assert planner.plan(13) == plans[13]
        assert planner.plan(0) == plans[0]
        # Pool construction order cannot perturb the plans.
        reversed_pool = list(reversed(subset_pool(WIN98)))
        assert self._planner(pool=reversed_pool).plans() == plans

    def test_seed_changes_plans(self):
        assert self._planner(seed=7).plans() != self._planner(seed=8).plans()

    def test_fault_decisions_are_well_formed(self):
        plans = self._planner(count=60).plans()
        armed = [p for p in plans if p.fault_family is not None]
        # Roughly 2/3 of sequences arm a fault.
        assert 0.4 < len(armed) / len(plans) < 0.9
        for plan in armed:
            assert plan.fault_family in FAULT_FAMILIES
            assert 0 <= plan.fault_step < len(plan.steps)
        assert any(p.fault_family is None for p in plans)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="empty MuT pool"):
            self._planner(pool=[]).plan(0)
        with pytest.raises(ValueError, match="unknown fault family"):
            SequencePlanner(
                subset_pool(WIN98),
                CaseGenerator(default_types(), cap=40),
                1,
                3,
                fault_families=("cosmic-rays",),
            )
        with pytest.raises(ValueError, match="length must be >= 1"):
            self._planner(length=0)


# ----------------------------------------------------------------------
# The campaign loop: determinism, parallel byte-identity, resume
# ----------------------------------------------------------------------


class TestSequenceCampaign:
    def test_serial_runs_are_deterministic(self):
        first = Campaign([WIN98, WINNT], config=seq_config(), muts=SUBSET).run()
        second = Campaign([WIN98, WINNT], config=seq_config(), muts=SUBSET).run()
        assert dumps(first) == dumps(second)
        rows = first.for_variant("win98")
        assert len(rows) == seq_config().sequences
        assert all(r.api == SEQUENCE_API for r in rows)
        assert all(r.sequence is not None for r in rows)
        for row in rows:
            assert 1 <= len(row.codes) <= seq_config().sequence_length
            assert row.sequence["step_ticks"] == sorted(row.sequence["step_ticks"])

    def test_sequence_rows_stay_out_of_table1(self):
        results = Campaign([WIN98], config=seq_config(), muts=SUBSET).run()
        assert "seq0" not in render_table1(results)
        assert "seq00000" in render_sequence_table(results)

    def test_parallel_and_sharded_byte_identical(self):
        config = seq_config(sequences=10, sequence_length=4)
        serial = Campaign([WIN98, WINNT], config=config, muts=SUBSET).run()
        jobs = ParallelCampaign(
            [WIN98, WINNT], config=config, muts=SUBSET, jobs=JOBS
        ).run()
        sharded = ParallelCampaign(
            [WIN98, WINNT], config=config, muts=SUBSET, jobs=JOBS, shards=2
        ).run()
        assert dumps(jobs) == dumps(serial)
        assert dumps(sharded) == dumps(serial)
        assert render_sequence_table(sharded) == render_sequence_table(serial)

    def test_interrupted_run_resumes_byte_identical(self, tmp_path):
        class _Interrupt(Exception):
            pass

        config = seq_config()
        uninterrupted = Campaign([WIN98, WINNT], config=config, muts=SUBSET).run()

        path = tmp_path / "sequence.ckpt"
        executed_first = []

        def die_mid_campaign(variant, mut, position, total):
            if len(executed_first) == 15:
                raise _Interrupt()
            executed_first.append((variant, mut))

        with pytest.raises(_Interrupt):
            Campaign([WIN98, WINNT], config=config, muts=SUBSET).run(
                progress=die_mid_campaign,
                checkpoint_path=path,
                checkpoint_every=1,
            )
        assert path.exists()

        executed_second = []
        resumed = Campaign([WIN98, WINNT], config=config, muts=SUBSET).run(
            progress=lambda v, m, p, t: executed_second.append((v, m)),
            checkpoint_path=path,
            checkpoint_every=1,
            resume=path,
        )
        assert dumps(resumed) == dumps(uninterrupted)
        assert not (set(executed_second) & set(executed_first))
        assert executed_second, "the resumed run must finish the plan"
        assert load_checkpoint(path).complete is True

    def test_variants_sharing_a_pool_share_plans(self, monkeypatch):
        """One run builds one plan list per distinct MuT pool (the four
        desktop Win32 variants share one), and every variant's plans
        equal those a single-variant campaign builds for itself."""
        import repro.core.sequences as sequences

        config = seq_config(sequences=30)
        seen: list = []
        builds = []
        run_variant = sequences.run_variant_sequences
        build = Campaign.sequence_plans

        def spy_run(personality, plans, *args, **kwargs):
            seen.append((personality.key, plans))
            return run_variant(personality, plans, *args, **kwargs)

        def spy_build(campaign, personality):
            builds.append(personality.key)
            return build(campaign, personality)

        monkeypatch.setattr(sequences, "run_variant_sequences", spy_run)
        monkeypatch.setattr(Campaign, "sequence_plans", spy_build)
        campaign = Campaign(WINDOWS_VARIANTS, config=config)
        campaign.run()
        assert builds == ["win95", "win98", "wince"]
        shared = dict(seen)
        desktop = [
            shared[key] for key in ("win98", "win98se", "winnt", "win2000")
        ]
        assert all(plans is desktop[0] for plans in desktop)
        campaign.run()  # the memo does not outlive a run
        assert builds == ["win95", "win98", "wince"] * 2

        for personality in WINDOWS_VARIANTS:
            seen.clear()
            Campaign([personality], config=config).run()
            [(key, alone)] = seen
            assert key == personality.key
            assert len(alone) == len(shared[key]) == config.sequences
            for mine, theirs in zip(shared[key], alone):
                assert mine == theirs

    def test_muts_subset_restricts_sequence_pool(self):
        results = Campaign([WIN98], config=seq_config(), muts=SUBSET).run()
        called = {
            step["mut"]
            for row in results.for_variant("win98")
            for step in row.sequence["steps"]
        }
        assert called <= set(SUBSET)


# ----------------------------------------------------------------------
# Fault injection and failure atomicity
# ----------------------------------------------------------------------


class TestFaultAtomicity:
    def test_run_step_reclassifies_residue_under_fault(self):
        from repro.core.context import TestContext
        from repro.core.executor import Executor
        from repro.core.generator import TestCase

        registry = default_registry()
        machine = Machine(WIN98)
        ctx = TestContext(machine, machine.spawn_process())
        executor = Executor(machine, CaseGenerator(default_types(), cap=40))
        mut = registry.get("win32", "CreateFileA")
        case = TestCase(mut.name, 0, ATOMIC.value_names)
        machine.faults.arm("handles")
        try:
            outcome = executor.run_step(ctx, mut, case, inject_fault=True)
        finally:
            machine.faults.disarm()
        assert outcome.code is CaseCode.FAULT_ATOMICITY
        assert outcome.code.is_failure
        assert "wear residue" in outcome.detail
        assert "handles exhaustion" in outcome.detail

    @pytest.mark.parametrize(
        "index, step, family, mut_name",
        [(603, 0, "handles", "HeapCreate"), (1627, 2, "alloc", "VirtualAlloc")],
    )
    def test_arena_residue_is_fault_atomicity(
        self, monkeypatch, index, step, family, mut_name
    ):
        """A failed call whose only residue is in the win9x shared arena
        (no corruption count, no filesystem change) still breaks failure
        atomicity."""
        generator = CaseGenerator(default_types(), cap=40)
        plan = SequencePlanner(
            default_registry().for_variant(WIN98), generator, index + 1, 6, seed=0
        ).plan(index)
        assert (plan.fault_family, plan.fault_step) == (family, step)
        assert plan.steps[step].mut_name == mut_name

        probes = []
        probe = Machine.wear_residue

        def recording_probe(machine):
            probes.append(probe(machine))
            return probes[-1]

        monkeypatch.setattr(Machine, "wear_residue", recording_probe)
        results = run_plans(WIN98, [plan])
        row = results.get("win98", plan.name, api=SEQUENCE_API)
        assert len(row.codes) == step + 1
        assert row.codes[step] == CaseCode.FAULT_ATOMICITY
        assert f"{family} exhaustion" in row.details[step]
        (corruption, nodes, files, arena), after = probes
        assert arena is None and after[3] is not None
        assert after[:3] == (corruption, nodes, files)

    def test_residue_probe_matches_json_oracle(self, monkeypatch):
        """At every armed step of a fault-injected run, the structural
        probe sees a change exactly when the old JSON fingerprint did --
        clean and dirty arenas alike."""
        call_under_test = Executor._call_under_test
        verdicts = []
        dirty_probes = 0

        def both_probes(self, ctx, mut, args, *rest, inject_fault=False):
            nonlocal dirty_probes
            if not inject_fault:
                return call_under_test(self, ctx, mut, args, *rest)
            machine = self.machine
            before = (machine.wear_residue(), json_fingerprint(machine))
            outcome = call_under_test(
                self, ctx, mut, args, *rest, inject_fault=True
            )
            after = (machine.wear_residue(), json_fingerprint(machine))
            verdicts.append((before[0] != after[0], before[1] != after[1]))
            dirty_probes += sum(
                '"shared_arena"' in oracle for _, oracle in (before, after)
            )
            return outcome

        monkeypatch.setattr(Executor, "_call_under_test", both_probes)
        results = Campaign(
            [WIN95, WIN98, WINCE, WINNT],
            config=seq_config(
                sequences=400, sequence_length=6, sequence_seed=0
            ),
        ).run()
        assert all(probe == oracle for probe, oracle in verdicts)
        assert dirty_probes > 0
        assert any(oracle for _, oracle in verdicts)
        assert len(verdicts) == sum(
            1
            for variant in ("win95", "win98", "wince", "winnt")
            for row in results.for_variant(variant)
            if row.sequence["fault"] is not None
            and row.sequence["fault"]["step"] < len(row.codes)
        )

    def test_violation_ends_sequence_and_is_observable(self):
        recorder = MemoryRecorder()
        plan = make_plan([ATOMIC, BENIGN], fault_family="handles", fault_step=0)
        results = run_plans(WIN98, [plan], recorder=recorder)
        row = results.get("win98", "seq00000", api=SEQUENCE_API)
        assert row.codes[0] == CaseCode.FAULT_ATOMICITY
        # A failure-atomicity violation is a failure: the sequence ends
        # there, the second step never runs.
        assert len(row.codes) == 1
        seq = row.sequence
        assert seq["fault"] == {"family": "handles", "step": 0, "fired": 1}
        assert seq["first_failure"] == 0
        assert seq["crash_step"] is None

        # The typed sequence events keep the wire shape (keys, order and
        # values) of the plain records they replaced.
        by_kind = {r["kind"]: list(r.items()) for r in recorder.records}
        where = [("variant", "win98"), ("sequence", "seq00000")]
        assert by_kind["sequence_started"] == [
            ("kind", "sequence_started"),
            *where,
            ("length", 2),
            ("fault_family", "handles"),
            ("fault_step", 0),
        ]
        assert by_kind["fault_injected"] == [
            ("kind", "fault_injected"),
            *where,
            ("step", 0),
            ("family", "handles"),
            ("fired", 1),
        ]
        assert by_kind["atomicity_violation"] == [
            ("kind", "atomicity_violation"),
            *where,
            ("step", 0),
            ("family", "handles"),
        ]
        finished = dict(by_kind["sequence_finished"])
        assert by_kind["sequence_finished"] == [
            ("kind", "sequence_finished"),
            *where,
            ("steps_run", 1),
            ("crash_step", None),
            ("classification", None),
            ("sim_ticks", finished["sim_ticks"]),
        ]
        assert finished["sim_ticks"] == row.sequence["step_ticks"][-1]

        agg = MetricsAggregator()
        for record in recorder.records:
            agg.record(record)
        snap = agg.snapshot()
        assert snap["sequences"]["win98"]["atomicity_violations"] == 1
        assert snap["sequences"]["win98"]["faults_injected"] == 1
        assert snap["faults_by_family"] == {"handles": 1}
        assert "atomic" in render_stats(snap)

        table = render_sequence_table(results)
        assert "Atomicity" in table

    def test_unfired_fault_is_recorded_unfired(self):
        # An armed "disk" fault never fires inside an isalpha call --
        # the window wraps a call that allocates nothing on disk.
        step = SequenceStep("libc", "isalpha", ("CHAR_A",))
        registry = default_registry()
        mut = registry.get("libc", "isalpha")
        values = tuple(
            pool[0].name
            for pool in CaseGenerator(default_types(), cap=40).pools(mut)
        )
        step = SequenceStep("libc", "isalpha", values)
        plan = make_plan([step, step], fault_family="disk", fault_step=1)
        results = run_plans(WIN98, [plan])
        row = results.get("win98", "seq00000", api=SEQUENCE_API)
        assert len(row.codes) == 2
        assert row.sequence["fault"]["fired"] == 0


# ----------------------------------------------------------------------
# Crash attribution
# ----------------------------------------------------------------------


class TestAttribution:
    def test_immediate_crash_classifies_as_origin(self):
        plan = make_plan([BENIGN, BENIGN, IMMEDIATE, BENIGN])
        results = run_plans(WIN98, [plan])
        row = results.get("win98", "seq00000", api=SEQUENCE_API)
        assert row.codes[2] == CaseCode.CATASTROPHIC
        assert len(row.codes) == 3  # the trailing step never ran
        seq = row.sequence
        assert seq["crash_step"] == 2
        assert seq["first_failure"] == 2
        assert seq["classification"] == "origin"
        assert seq["origin_step"] == 2
        assert len(seq["step_ticks"]) == len(row.codes)
        assert not row.interference_crash

    def test_accumulated_corruption_classifies_as_propagated(self):
        plan = make_plan([CORRUPTING] * 5)
        results = run_plans(WIN98, [plan])
        row = results.get("win98", "seq00000", api=SEQUENCE_API)
        seq = row.sequence
        # Corrupting calls pass silently; the fourth exceeds win98's
        # tolerance of 3 and the machine goes down.
        assert seq["crash_step"] == 3
        assert seq["classification"] == "propagated"
        assert seq["origin_step"] == 0
        assert row.interference_crash

    def test_clean_mode_reboots_between_sequences(self):
        # Two sequences of two corrupting calls each: 2 + 2 would crash
        # on one machine (tolerance 3), but each sequence starts from a
        # fresh boot, so neither does.
        plans = [
            make_plan([CORRUPTING, CORRUPTING], index=i) for i in range(2)
        ]
        results = run_plans(WIN98, plans)
        for row in results.for_variant("win98"):
            assert CaseCode.CATASTROPHIC not in row.codes

    def test_dirty_machine_accumulates_wear_across_sequences(self):
        config = CampaignConfig(cap=40, mode="sequence", dirty_machine=True)
        plans = [
            make_plan([CORRUPTING] * 3, index=0),
            make_plan([CORRUPTING, BENIGN], index=1),
        ]
        results = run_plans(WIN98, plans, config=config)
        first = results.get("win98", "seq00000", api=SEQUENCE_API)
        second = results.get("win98", "seq00001", api=SEQUENCE_API)
        assert CaseCode.CATASTROPHIC not in first.codes
        # The same step that passed three times in sequence 0 crashes at
        # step 0 of sequence 1, on the wear sequence 0 left behind.
        assert second.sequence["crash_step"] == 0
        assert second.sequence["classification"] == "propagated"
        # Crashed dirty rows record their starting wear for replay.
        assert "base_wear" not in (first.sequence or {})
        assert second.sequence["base_wear"]


# ----------------------------------------------------------------------
# Triage satellites: minimisation and step timestamps
# ----------------------------------------------------------------------


class TestMinimize:
    def test_multiple_independent_crashes_minimize_to_one(self):
        steps = [BENIGN, IMMEDIATE, BENIGN, IMMEDIATE, BENIGN]
        minimal = minimize_crash_sequence(WIN98, steps, shared_process=True)
        assert minimal == [IMMEDIATE]
        # The historical per-step isolation regime agrees.
        assert minimize_crash_sequence(WIN98, steps) == [IMMEDIATE]

    def test_dirty_wear_only_crash_needs_base_wear(self):
        worn = Machine(WIN98)
        for _ in range(3):
            worn.note_corruption("strncpy")
        base = worn.wear_state()
        steps = [CORRUPTING, BENIGN]
        clean = replay_sequence(WIN98, steps, shared_process=True)
        assert not clean.crashed
        dirty = replay_sequence(
            WIN98, steps, shared_process=True, base_wear=base
        )
        assert dirty.crashed and dirty.crash_step == 0
        minimal = minimize_crash_sequence(
            WIN98, steps, shared_process=True, base_wear=base
        )
        assert minimal == [CORRUPTING]

    def test_minimize_from_campaign_record(self):
        plan = make_plan([BENIGN, IMMEDIATE, BENIGN])
        results = run_plans(WIN98, [plan])
        record = results.get("win98", "seq00000", api=SEQUENCE_API).sequence
        minimal = minimize_from_sequence_record(WIN98, record)
        assert len(minimal) == 1
        assert minimal[0].mut_name == "GetThreadContext"
        program = render_repro_program(WIN98, minimal)
        assert "GetThreadContext(GetCurrentThread()" in program

    def test_record_round_trip_keeps_fault_on_its_step(self):
        plan = make_plan([BENIGN, ATOMIC], fault_family="alloc", fault_step=1)
        results = run_plans(WIN98, [plan])
        record = results.get("win98", "seq00000", api=SEQUENCE_API).sequence
        steps = steps_from_sequence_record(record)
        assert steps[0].fault_family is None
        assert steps[1].fault_family == "alloc"

    def test_minimize_refuses_crash_free_record(self):
        plan = make_plan([BENIGN, BENIGN])
        results = run_plans(WIN98, [plan])
        record = results.get("win98", "seq00000", api=SEQUENCE_API).sequence
        with pytest.raises(ValueError, match="no Catastrophic step"):
            minimize_from_sequence_record(WIN98, record)

    def test_step_ticks_recorded_per_executed_step(self):
        for shared in (False, True):
            outcome = replay_sequence(
                WIN98, [BENIGN, BENIGN, BENIGN], shared_process=shared
            )
            assert len(outcome.step_ticks) == 3
            assert all(t > 0 for t in outcome.step_ticks)
            assert outcome.step_ticks == sorted(outcome.step_ticks)


# ----------------------------------------------------------------------
# Supervised resilience: SIGKILL a worker mid-sequence
# ----------------------------------------------------------------------


class TestResilienceDrill:
    def test_sigkilled_worker_resumes_byte_identical(
        self, tmp_path, monkeypatch
    ):
        """The acceptance bar: SIGKILL a worker in the middle of a
        sequence; the supervisor relaunches it and results, attribution
        table, checkpoint bytes, and stripped event streams all match a
        serial run -- while the restart stays visible in repro stats."""
        variants = [WIN98, WINNT]
        serial_ckpt = tmp_path / "serial.json"
        serial_recorder = MemoryRecorder()
        serial = Campaign(variants, config=seq_config(), muts=SUBSET).run(
            checkpoint_path=serial_ckpt, recorder=serial_recorder
        )

        marker = tmp_path / "killed-once"
        monkeypatch.setenv(
            "BALLISTA_FAULT_KILL", f"win98|seq:seq00002|0|{marker}"
        )
        sup_ckpt = tmp_path / "supervised.json"
        recorder = MemoryRecorder()
        sup = SupervisedCampaign(
            variants,
            config=seq_config(),
            muts=SUBSET,
            jobs=JOBS,
            policy=SupervisorPolicy(mut_deadline=DEADLINE, **FAST),
        )
        supervised = sup.run(checkpoint_path=sup_ckpt, recorder=recorder)

        assert marker.exists(), "the fault never fired"
        assert dumps(supervised) == dumps(serial)
        assert render_sequence_table(supervised) == render_sequence_table(serial)
        assert sup_ckpt.read_bytes() == serial_ckpt.read_bytes()
        assert "restart" in [e["event"] for e in sup.supervision_log]

        # The healed deterministic event streams match the serial ones.
        for personality in variants:
            key = personality.key
            healed = [
                strip_wall(r) for r in variant_stream(recorder.records, key)
            ]
            reference = [
                strip_wall(r)
                for r in variant_stream(serial_recorder.records, key)
            ]
            assert healed == reference

        # repro stats sees both the restart and the sequence campaign.
        agg = MetricsAggregator()
        for record in recorder.records:
            agg.record(record)
        snap = agg.snapshot()
        assert snap["ops"]["worker_restarts"] >= 1
        assert snap["sequences"]["win98"]["sequences"] == seq_config().sequences
        report = render_stats(snap)
        assert "seqs" in report
        assert "restarted" in report


# ----------------------------------------------------------------------
# Persistence and aggregation
# ----------------------------------------------------------------------


class TestPersistence:
    def test_results_v3_round_trip_preserves_sequence_rows(self, tmp_path):
        results = Campaign(
            [WIN98], config=seq_config(sequences=6), muts=SUBSET
        ).run()
        document = results_to_dict(results)
        assert document["version"] == 3
        assert dumps(results_from_dict(document)) == dumps(results)
        path = tmp_path / "seq.json"
        save_results(results, path)
        loaded = load_results(path)
        assert dumps(loaded) == dumps(results)
        row = loaded.for_variant("win98")[0]
        assert row.sequence["length"] == seq_config().sequence_length

    def test_aggregator_dedupes_restart_replays(self):
        finished = {
            "kind": "sequence_finished",
            "variant": "win98",
            "sequence": "seq00004",
            "crash_step": 2,
            "classification": "origin",
        }
        fault = {
            "kind": "fault_injected",
            "variant": "win98",
            "sequence": "seq00004",
            "step": 1,
            "family": "alloc",
        }
        agg = MetricsAggregator()
        for record in (finished, fault, finished, fault):
            agg.record(dict(record))
        snap = agg.snapshot()
        assert snap["sequences"]["win98"]["sequences"] == 1
        assert snap["sequences"]["win98"]["crashed"] == 1
        assert snap["sequences"]["win98"]["origin"] == 1
        assert snap["sequences"]["win98"]["faults_injected"] == 1
        assert snap["faults_by_family"] == {"alloc": 1}

    def test_checkpoint_v3_records_the_sequence_plan(self, tmp_path):
        path = tmp_path / "seq.ckpt"
        config = seq_config(sequences=4)
        Campaign([WIN98], config=config, muts=SUBSET).run(
            checkpoint_path=path, checkpoint_every=1
        )
        document = json.loads(path.read_text(encoding="utf-8"))
        assert document["version"] == 3
        assert document["plan"] == {
            "mode": "sequence",
            "sequences": 4,
            "sequence_length": config.sequence_length,
            "sequence_seed": config.sequence_seed,
            "dirty_machine": False,
            "fault_families": list(FAULT_FAMILIES),
        }
        assert checkpoint_from_dict(document).plan == document["plan"]
        # Per-case documents stay plan-free: for them the v3 bump only
        # changes the version number.
        case = checkpoint_to_dict(CampaignCheckpoint(ResultSet(), cap=10))
        assert "plan" not in case
        assert checkpoint_plan(CampaignConfig(cap=10)) is None

    def test_resume_refuses_plan_mismatch(self, tmp_path):
        path = tmp_path / "seq.ckpt"
        Campaign([WIN98], config=seq_config(sequences=4), muts=SUBSET).run(
            checkpoint_path=path, checkpoint_every=1
        )
        other = Campaign(
            [WIN98],
            config=seq_config(sequences=4, sequence_seed=99),
            muts=SUBSET,
        )
        with pytest.raises(ValueError, match="campaign plan"):
            other.run(resume=path)


# ----------------------------------------------------------------------
# CLI entry points
# ----------------------------------------------------------------------


class TestCli:
    def test_sequence_mode_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "seq-results.json"
        code = main(
            [
                "--mode",
                "sequence",
                "--sequences",
                "4",
                "--sequence-length",
                "3",
                "--variants",
                "win98",
                "--jobs",
                "1",
                "--quiet",
                "--save",
                str(path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Sequence" in out
        loaded = load_results(path)
        rows = loaded.for_variant("win98")
        assert len(rows) == 4
        assert all(r.api == SEQUENCE_API for r in rows)

    def test_leaks_subcommand(self, capsys):
        from repro.cli import main

        code = main(
            [
                "leaks",
                "--variant",
                "win98",
                "--muts",
                "CreateFileA,fopen",
                "--cap",
                "40",
            ]
        )
        assert code == 0
        assert "Resource-leak audit" in capsys.readouterr().out

    def test_minimize_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        plan = make_plan([BENIGN, IMMEDIATE])
        results = run_plans(WIN98, [plan])
        path = tmp_path / "crashed.json"
        save_results(results, path)
        code = main(["minimize", str(path), "--variant", "win98", "--quiet"])
        assert code == 0
        out = capsys.readouterr().out
        assert "minimal step" in out
        assert "GetThreadContext" in out

    def test_bare_resume_adopts_sequence_plan(self, tmp_path, capsys):
        from repro.cli import main

        ckpt = tmp_path / "seq.ckpt"
        argv = [
            "--mode",
            "sequence",
            "--sequences",
            "4",
            "--sequence-length",
            "3",
            "--variants",
            "win98",
            "--quiet",
            "--checkpoint",
            str(ckpt),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        # No mode flags at all: the resumed run must adopt the
        # checkpoint's plan and render the sequence tables instead of
        # reinterpreting the document as a per-case campaign.
        assert main(["--resume", str(ckpt), "--quiet"]) == 0
        assert capsys.readouterr().out == first

    def test_sequence_mode_refuses_case_checkpoint(self, tmp_path, capsys):
        from repro.cli import main

        ckpt = tmp_path / "case.ckpt"
        argv = [
            "--variants",
            "win98",
            "--cap",
            "5",
            "--tables",
            "table1",
            "--quiet",
            "--checkpoint",
            str(ckpt),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as err:
            main(["--resume", str(ckpt), "--mode", "sequence"])
        assert err.value.code == 2
