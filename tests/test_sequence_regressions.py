"""Sequence-mode inputs that used to raise out of the campaign instead
of recording an outcome: Linux ``time()`` once the simulated clock
passes 2**32 s, and ``rewind`` on a stream a failed ``freopen`` closed.
"""

import pytest

from repro import ALL_VARIANTS
from repro.core.campaign import Campaign, CampaignConfig
from repro.core.crash_scale import CaseCode
from repro.core.results import ResultSet
from repro.core.results_io import CampaignCheckpoint
from repro.core.sequences import SequencePlanner, run_variant_sequences

LENGTH = 6


def _personality(key):
    return next(p for p in ALL_VARIANTS if p.key == key)


def run_planned_sequence(key, seed, index):
    """Plan sequence ``index`` exactly as a ``--sequence-seed seed``
    campaign would, and run it alone through the sequence loop."""
    personality = _personality(key)
    config = CampaignConfig(
        mode="sequence",
        sequences=index + 1,
        sequence_length=LENGTH,
        sequence_seed=seed,
    )
    campaign = Campaign([personality], config=config)
    plan = SequencePlanner(
        campaign.muts_for(personality),
        campaign.generator,
        count=index + 1,
        length=LENGTH,
        seed=seed,
        fault_families=config.fault_families,
    ).plan(index)
    checkpoint = CampaignCheckpoint(
        ResultSet(), cap=config.cap, variants=[key]
    )
    run_variant_sequences(
        personality,
        [plan],
        campaign.generator,
        config,
        checkpoint.results,
        None,
        checkpoint,
        None,
        1,
    )
    (row,) = checkpoint.results.for_variant(key)
    return plan, row


@pytest.mark.parametrize(
    "key,seed,index",
    [
        ("win98", 28, 1257),
        ("win98se", 28, 1257),
        ("winnt", 28, 1257),
        ("win2000", 28, 1257),
        ("wince", 50, 1653),
    ],
)
def test_rewind_after_failed_freopen_records_an_outcome(key, seed, index):
    plan, row = run_planned_sequence(key, seed, index)
    names = [step.mut_name for step in plan.steps]
    assert "freopen" in names and names[-1] == "rewind"
    # Every step ran: rewind on the stream whose file the failed
    # freopen closed reports EBADF, like fseek/fread/fwrite do.
    assert len(row.codes) == LENGTH
    assert row.codes[-1] in (CaseCode.PASS_NO_ERROR, CaseCode.PASS_ERROR)


def test_linux_sequence_campaign_completes(capsys):
    from repro.cli import main

    code = main(
        [
            "--mode",
            "sequence",
            "--sequences",
            "100",
            "--variants",
            "linux",
            "--jobs",
            "1",
            "--quiet",
        ]
    )
    assert code == 0
    assert "Linux" in capsys.readouterr().out
