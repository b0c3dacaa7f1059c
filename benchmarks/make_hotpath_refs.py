"""Regenerate the hot-path reference outputs.

Usage::

    PYTHONPATH=src python benchmarks/make_hotpath_refs.py [OUTDIR]

``OUTDIR`` defaults to ``tests/golden/hotpath`` -- the committed
reference copies, generated once *before* the hot-path optimizations.
CI's perf-smoke job regenerates into a scratch directory and
byte-compares (``cmp``) against the committed copies, and
``tests/test_hotpath_golden.py`` does the same in-process: together they
prove the optimized hot path still produces the exact bytes the
unoptimized code did -- result sets, checkpoints, the rendered Table 1,
and the (wall-clock-stripped) telemetry event stream, in both case and
sequence mode.  ``seq_arena_results.json`` covers the shared-arena
variants (win98, wince) under fault injection: its plan reaches the
dirty-arena branch of the failure-atomicity probe and records a
FAULT_ATOMICITY row, which the winnt-only sequence reference cannot.
It was generated with the sorted-key JSON residue fingerprint that the
structural snapshot replaced, so it pins that both classify alike.

Everything here is deterministic: fixed variants, fixed cap, fixed
sequence seed, and no absolute paths or timestamps in any output.
"""

from __future__ import annotations

import json
import pathlib
import sys
import tempfile

from repro import Campaign, CampaignConfig
from repro.analysis.tables import render_sequence_table, render_table1
from repro.core.results_io import checkpoint_to_dict, results_to_dict
from repro.obs.recorder import JsonlRecorder
from repro.posix.linux import LINUX
from repro.win32.variants import WIN98, WINCE, WINNT

CAP = 40
VARIANTS = [WIN98, WINNT, WINCE, LINUX]
SEQUENCES = 20
#: The shared-arena sequence reference: win9x/CE machines whose arena
#: the fault-injected probes see dirty, at sequence seed 0.
ARENA_VARIANTS = [WIN98, WINCE]
ARENA_SEQUENCES = 700


def _strip_wallclock(jsonl_text: str) -> str:
    """Drop the wall-clock ``t`` stamp from each event record, keeping
    every simulated-time field; the result is deterministic."""
    lines = []
    for line in jsonl_text.splitlines():
        if not line:
            continue
        record = json.loads(line)
        record.pop("t", None)
        lines.append(json.dumps(record, separators=(",", ":")))
    return "\n".join(lines) + "\n"


#: Reference files whose committed copy is gzip-compressed (they are
#: megabytes raw; ``gzip.compress(..., mtime=0)`` is deterministic).
#: The rendered tables stay raw -- they are small and review-friendly.
COMPRESSED = (
    "results.json",
    "checkpoint.json",
    "events.jsonl",
    "seq_results.json",
    "seq_arena_results.json",
)


def generate(outdir: pathlib.Path, compress: bool = False) -> list[str]:
    outdir.mkdir(parents=True, exist_ok=True)

    with tempfile.TemporaryDirectory() as tmp:
        events_tmp = pathlib.Path(tmp) / "events.jsonl"
        recorder = JsonlRecorder(events_tmp)
        campaign = Campaign(VARIANTS, config=CampaignConfig(cap=CAP))
        try:
            results = campaign.run(recorder=recorder)
        finally:
            recorder.close()
        events = _strip_wallclock(events_tmp.read_text(encoding="utf-8"))

    (outdir / "results.json").write_text(
        json.dumps(results_to_dict(results), separators=(",", ":")) + "\n",
        encoding="utf-8",
    )
    (outdir / "checkpoint.json").write_text(
        json.dumps(
            checkpoint_to_dict(campaign.last_checkpoint),
            separators=(",", ":"),
        )
        + "\n",
        encoding="utf-8",
    )
    (outdir / "table1.txt").write_text(
        render_table1(results) + "\n", encoding="utf-8"
    )
    (outdir / "events.jsonl").write_text(events, encoding="utf-8")

    seq_campaign = Campaign(
        [WINNT],
        config=CampaignConfig(cap=CAP, mode="sequence", sequences=SEQUENCES),
    )
    seq_results = seq_campaign.run()
    (outdir / "seq_results.json").write_text(
        json.dumps(results_to_dict(seq_results), separators=(",", ":"))
        + "\n",
        encoding="utf-8",
    )
    (outdir / "seq_table.txt").write_text(
        render_sequence_table(seq_results) + "\n", encoding="utf-8"
    )
    arena_results = Campaign(
        ARENA_VARIANTS,
        config=CampaignConfig(
            cap=CAP,
            mode="sequence",
            sequences=ARENA_SEQUENCES,
            sequence_seed=0,
        ),
    ).run()
    (outdir / "seq_arena_results.json").write_text(
        json.dumps(results_to_dict(arena_results), separators=(",", ":"))
        + "\n",
        encoding="utf-8",
    )
    names = [
        "results.json",
        "checkpoint.json",
        "table1.txt",
        "events.jsonl",
        "seq_results.json",
        "seq_table.txt",
        "seq_arena_results.json",
    ]
    if compress:
        import gzip

        for name in COMPRESSED:
            raw = outdir / name
            (outdir / (name + ".gz")).write_bytes(
                gzip.compress(raw.read_bytes(), 9, mtime=0)
            )
            raw.unlink()
        names = [
            name + ".gz" if name in COMPRESSED else name for name in names
        ]
    return names


def main(argv: list[str]) -> int:
    """No argument: refresh the committed (compressed) references.
    With ``OUTDIR``: write raw outputs there for comparison."""
    default = pathlib.Path(__file__).parent.parent / "tests/golden/hotpath"
    outdir = pathlib.Path(argv[0]) if argv else default
    for name in generate(outdir, compress=not argv):
        sys.stderr.write(f"wrote {outdir / name}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
