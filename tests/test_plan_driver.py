"""The plan driver (``repro.core.campaign.drive_plan``): one per-variant
loop for both campaign modes.

What the driver owns -- booting and wear, skips, quarantine, cursors and
checkpoint cadence -- is covered by the mode suites
(``test_sequences.py``, ``test_checkpoint_resume.py``, ``test_shards.py``)
and the hot-path goldens.  These tests pin the rules the two modes now
share: one wear rule, one sequence plan list alive at a time, the
thrown-as-Abort policy on sequence steps, and dirty-machine wear carried
across shard seams.
"""

import json
import os
import weakref

import pytest

from repro.core.campaign import Campaign, CampaignConfig
from repro.core.crash_scale import CaseCode
from repro.core.generator import CaseGenerator
from repro.core.mut import default_registry
from repro.core.parallel import ParallelCampaign
from repro.core.results import ResultSet
from repro.core.results_io import CampaignCheckpoint, results_to_dict
from repro.core.sequences import (
    SEQUENCE_API,
    SequencePlan,
    SequenceStep,
    run_variant_sequences,
    sequence_name,
)
from repro.core.types import default_types
from repro.win32.variants import WIN98, WINCE, WINDOWS_VARIANTS, WINNT

JOBS = int(os.environ.get("BALLISTA_JOBS", "2"))

#: A valid heap asked for ``SIZE_MAX`` bytes with ``DW_MAX`` flags: NT
#: throws STATUS_NO_MEMORY (3221225495), which the paper's policy counts
#: as an error report (PASS_ERROR) and the ablation as an Abort.
THROWN = SequenceStep("win32", "HeapAlloc", ("HH_VALID", "DW_MAX", "SIZE_MAX"))
BENIGN = SequenceStep("libc", "strncpy", ("PTR_PAGE", "STR_SHORT", "SIZE_16"))


def dumps(results: ResultSet) -> str:
    return json.dumps(results_to_dict(results), separators=(",", ":"))


def test_sequence_mode_rejects_machine_per_case():
    with pytest.raises(ValueError, match="machine_per_case"):
        CampaignConfig(mode="sequence", machine_per_case=True)
    assert CampaignConfig(mode="case", machine_per_case=True).machine_per_case


class PlanList(list):
    """A plan list that can be watched through a weak reference."""


def test_one_sequence_plan_list_is_alive_at_a_time(monkeypatch):
    """A six-variant Win32 run builds three plan lists (the desktop
    variants share one), and each is released before the next is
    built."""
    build = Campaign.sequence_plans
    built: list[weakref.ref] = []
    alive_at_build: list[int] = []

    def spy_build(campaign, personality):
        alive_at_build.append(sum(ref() is not None for ref in built))
        plans = PlanList(build(campaign, personality))
        built.append(weakref.ref(plans))
        return plans

    monkeypatch.setattr(Campaign, "sequence_plans", spy_build)
    config = CampaignConfig(cap=40, mode="sequence", sequences=30)
    Campaign(WINDOWS_VARIANTS, config=config).run()
    assert len(built) == 3
    assert alive_at_build == [0, 0, 0]


def run_winnt_plan(config: CampaignConfig):
    """Run one hand-built winnt plan, ``THROWN`` then ``BENIGN``,
    through the sequence loop; return its row."""
    steps = (THROWN, BENIGN)
    registry = default_registry()
    plan = SequencePlan(
        sequence_name(0),
        0,
        steps,
        tuple(registry.get(step.api, step.mut_name) for step in steps),
    )
    checkpoint = CampaignCheckpoint(
        ResultSet(), cap=config.cap, variants=[WINNT.key]
    )
    run_variant_sequences(
        WINNT,
        [plan],
        CaseGenerator(default_types(), cap=config.cap),
        config,
        checkpoint.results,
        None,
        checkpoint,
        None,
        1,
    )
    return checkpoint.results.get(WINNT.key, plan.name, api=SEQUENCE_API)


def test_thrown_as_abort_ablation_applies_to_sequence_steps():
    default = run_winnt_plan(CampaignConfig(cap=40, mode="sequence"))
    assert len(default.codes) == 2
    assert default.codes[0] == CaseCode.PASS_ERROR
    assert default.details[0] == "thrown 3221225495"
    assert default.sequence["first_failure"] is None

    ablated = run_winnt_plan(
        CampaignConfig(
            cap=40, mode="sequence", count_thrown_exceptions_as_abort=True
        )
    )
    assert list(ablated.codes) == [CaseCode.ABORT]
    assert ablated.details[0] == "thrown 3221225495"
    assert ablated.sequence["first_failure"] == 0


def test_sharded_dirty_machine_sequences_match_serial(tmp_path):
    """Slice seams carry the wear earlier sequences left: a sharded
    dirty-machine run reproduces the serial bytes, including crashes
    propagated from that wear."""
    config = CampaignConfig(
        cap=40,
        mode="sequence",
        sequences=100,
        sequence_seed=2,
        dirty_machine=True,
    )
    serial_ckpt = tmp_path / "serial.ckpt"
    sharded_ckpt = tmp_path / "sharded.ckpt"
    serial = Campaign([WIN98, WINCE], config=config).run(
        checkpoint_path=serial_ckpt
    )
    sharded = ParallelCampaign(
        [WIN98, WINCE], config=config, jobs=JOBS, shards=3
    ).run(checkpoint_path=sharded_ckpt)
    assert dumps(sharded) == dumps(serial)
    assert sharded_ckpt.read_bytes() == serial_ckpt.read_bytes()
    propagated = [
        row.mut_name
        for variant in (WIN98.key, WINCE.key)
        for row in serial.for_variant(variant)
        if row.sequence["classification"] == "propagated"
    ]
    assert propagated
