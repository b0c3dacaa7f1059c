"""Command-line interface: regenerate the paper's tables and figures.

Usage::

    python -m repro [--cap N] [--jobs N] [--variants win98,winnt,...]
                    [--tables table1,table2,figure1,table3,figure2]
    python -m repro --mode sequence [--sequences N] [--sequence-length K]
                    [--dirty-machine] [--fault-families alloc,handles,disk]
    python -m repro lint [...]        # static analysis (repro.lint.cli)
    python -m repro stats EVENTS      # telemetry report (repro.obs)
    python -m repro serve [...]       # multi-tenant campaign service
    python -m repro submit [...]      # submit a campaign to a service
    python -m repro leaks [...]       # resource-leakage audit
    python -m repro minimize [...]    # ddmin a crashed sequence row

With no arguments this runs the full seven-variant campaign at the
``BALLISTA_CAP`` cap (default 300) and prints every table and figure the
paper reports.  ``--cap 5000`` reproduces the paper's full scale (slow);
variants fan out across ``--jobs`` worker processes (default: one per
variant, capped at the core count) with output byte-identical to
``--jobs 1``.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro import ALL_VARIANTS, Campaign, CampaignConfig, ParallelCampaign
from repro.analysis.hindering import render_hindering
from repro.analysis.tables import (
    render_figure1,
    render_figure2,
    render_sequence_table,
    render_table1,
    render_table2,
    render_table3,
)
from repro.core.campaign import default_cap
from repro.core.parallel import default_jobs, default_shards
from repro.core.supervisor import (
    SupervisorPolicy,
    default_max_mut_retries,
    default_max_restarts,
    default_mut_deadline,
)

RENDERERS = {
    "table1": render_table1,
    "table2": render_table2,
    "figure1": render_figure1,
    "table3": render_table3,
    "figure2": render_figure2,
    "hindering": render_hindering,
    "sequences": render_sequence_table,
}

#: Default outputs per campaign mode: the paper's tables for per-case
#: campaigns, the attribution table for sequence campaigns (whose rows
#: the per-MuT tables deliberately exclude).
_DEFAULT_TABLES = {
    "case": "table1,table2,figure1,table3,figure2,hindering",
    "sequence": "sequences",
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["lint"]:
        # `python -m repro lint ...`: the static-analysis subcommand.
        from repro.lint.cli import main as lint_main

        return lint_main(argv[1:])
    if argv[:1] == ["stats"]:
        # `python -m repro stats events.jsonl`: telemetry report.
        from repro.obs.stats_cli import main as stats_main

        return stats_main(argv[1:])
    if argv[:1] == ["serve"]:
        # `python -m repro serve --data DIR`: the campaign service.
        from repro.service.service_cli import serve_main

        return serve_main(argv[1:])
    if argv[:1] == ["submit"]:
        # `python -m repro submit --port P --variants ...`.
        from repro.service.service_cli import submit_main

        return submit_main(argv[1:])
    if argv[:1] == ["leaks"]:
        # `python -m repro leaks [--variant V]`: resource-leak audit.
        return _leaks_main(argv[1:])
    if argv[:1] == ["minimize"]:
        # `python -m repro minimize RESULTS --variant V --sequence S`.
        return _minimize_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce 'Robustness Testing of the Microsoft Win32 API' "
            "(DSN 2000): run the Ballista campaign over the simulated OS "
            "variants and print the paper's tables and figures."
        ),
    )
    parser.add_argument(
        "--cap",
        type=int,
        default=None,
        help="test cases per MuT (paper: 5000; default: BALLISTA_CAP or 300)",
    )
    parser.add_argument(
        "--mode",
        choices=("case", "sequence"),
        default="case",
        help=(
            "campaign unit of work: 'case' (the paper's one call per "
            "fresh process) or 'sequence' (k-call sequences sharing one "
            "process, with fault injection and crash attribution)"
        ),
    )
    parser.add_argument(
        "--sequences",
        type=int,
        default=50,
        metavar="N",
        help="sequences per variant in --mode sequence (default: 50)",
    )
    parser.add_argument(
        "--sequence-length",
        type=int,
        default=6,
        metavar="K",
        help="calls per sequence in --mode sequence (default: 6)",
    )
    parser.add_argument(
        "--sequence-seed",
        type=int,
        default=0,
        metavar="SEED",
        help=(
            "campaign-level sequence seed; equal seeds plan identical "
            "sequences (default: 0)"
        ),
    )
    parser.add_argument(
        "--dirty-machine",
        action="store_true",
        help=(
            "skip the between-sequence reboot so sequences start on "
            "accumulated wear (the long-uptime regime)"
        ),
    )
    parser.add_argument(
        "--fault-families",
        default=None,
        metavar="FAMILIES",
        help=(
            "comma-separated exhaustion families eligible for injection "
            "in --mode sequence (default: alloc,handles,disk; empty "
            "disables injection)"
        ),
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "concurrent worker processes (default: one per variant "
            "shard slice -- variants x --shards -- capped at the core "
            "count; 1 = serial)"
        ),
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help=(
            "contiguous plan slices per variant feeding one work-"
            "stealing pool, so parallelism is no longer capped at the "
            "variant count (default: BALLISTA_SHARDS or 1; output is "
            "byte-identical to --shards 1)"
        ),
    )
    parser.add_argument(
        "--wear-atlas",
        metavar="PATH",
        help=(
            "wear-atlas file memoizing shard seam wear between runs: "
            "read for speculative slice bases, updated after a "
            "successful run (purely an accelerator; a stale atlas is "
            "detected and replayed, never wrong)"
        ),
    )
    parser.add_argument(
        "--variants",
        default=",".join(p.key for p in ALL_VARIANTS),
        help="comma-separated variant keys (default: all seven)",
    )
    parser.add_argument(
        "--tables",
        default=None,
        help=(
            "comma-separated outputs to print (default: the paper "
            "tables in --mode case, 'sequences' in --mode sequence)"
        ),
    )
    parser.add_argument(
        "--save",
        metavar="PATH",
        help="save the campaign result set to a JSON file",
    )
    parser.add_argument(
        "--load",
        metavar="PATH",
        help="load a previously saved result set instead of running",
    )
    parser.add_argument(
        "--checkpoint",
        metavar="PATH",
        help=(
            "periodically write a restartable campaign checkpoint to PATH "
            "(atomic; safe to kill the run at any point)"
        ),
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=25,
        metavar="N",
        help="checkpoint after every N completed MuTs (default: 25)",
    )
    parser.add_argument(
        "--resume",
        metavar="PATH",
        help=(
            "resume an interrupted campaign from the checkpoint at PATH, "
            "skipping already-completed MuTs (keeps checkpointing to the "
            "same file unless --checkpoint overrides it)"
        ),
    )
    parser.add_argument(
        "--csv",
        metavar="DIR",
        help="also write table1.csv / table2.csv into DIR",
    )
    parser.add_argument(
        "--mut-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "wall-clock heartbeat deadline before the supervisor kills "
            "and restarts a hung worker (0 disables the watchdog; "
            "default: BALLISTA_MUT_DEADLINE or 300)"
        ),
    )
    parser.add_argument(
        "--max-restarts",
        type=int,
        default=None,
        metavar="N",
        help=(
            "worker restarts allowed per variant before the campaign "
            "fails (default: BALLISTA_MAX_RESTARTS or 5)"
        ),
    )
    parser.add_argument(
        "--max-mut-retries",
        type=int,
        default=None,
        metavar="N",
        help=(
            "worker deaths one MuT may cause before it is quarantined "
            "(default: BALLISTA_MAX_MUT_RETRIES or 1)"
        ),
    )
    parser.add_argument(
        "--events",
        metavar="PATH",
        help=(
            "stream structured run telemetry (JSON lines) to PATH; "
            "render it later with `python -m repro stats PATH`"
        ),
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress output"
    )
    args = parser.parse_args(argv)

    if args.cap is None:
        try:
            args.cap = default_cap()
        except ValueError as exc:
            # A malformed BALLISTA_CAP must not escape as a traceback.
            parser.error(str(exc))
    if args.jobs is not None and args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.shards is None:
        try:
            args.shards = default_shards()
        except ValueError as exc:
            parser.error(str(exc))
    elif args.shards < 1:
        parser.error(f"--shards must be >= 1, got {args.shards}")
    if args.mut_deadline is None:
        try:
            args.mut_deadline = default_mut_deadline()
        except ValueError as exc:
            parser.error(str(exc))
    elif args.mut_deadline < 0:
        parser.error(f"--mut-deadline must be >= 0, got {args.mut_deadline}")
    elif args.mut_deadline == 0:
        args.mut_deadline = None  # 0 = watchdog off, as in the env var
    if args.max_restarts is None:
        try:
            args.max_restarts = default_max_restarts()
        except ValueError as exc:
            parser.error(str(exc))
    elif args.max_restarts < 0:
        parser.error(f"--max-restarts must be >= 0, got {args.max_restarts}")
    if args.max_mut_retries is None:
        try:
            args.max_mut_retries = default_max_mut_retries()
        except ValueError as exc:
            parser.error(str(exc))
    elif args.max_mut_retries < 0:
        parser.error(
            f"--max-mut-retries must be >= 0, got {args.max_mut_retries}"
        )

    if args.sequences < 1:
        parser.error(f"--sequences must be >= 1, got {args.sequences}")
    if args.sequence_length < 1:
        parser.error(
            f"--sequence-length must be >= 1, got {args.sequence_length}"
        )
    from repro.sim.faults import FAULT_FAMILIES

    if args.fault_families is None:
        fault_families = FAULT_FAMILIES
    else:
        fault_families = tuple(
            name.strip()
            for name in args.fault_families.split(",")
            if name.strip()
        )
        unknown_families = [
            f for f in fault_families if f not in FAULT_FAMILIES
        ]
        if unknown_families:
            parser.error(
                f"unknown fault families: {unknown_families}; choose "
                f"from {sorted(FAULT_FAMILIES)}"
            )

    tables_defaulted = args.tables is None
    if args.tables is None:
        args.tables = _DEFAULT_TABLES[args.mode]
    wanted = [name.strip() for name in args.tables.split(",") if name.strip()]
    unknown = [name for name in wanted if name not in RENDERERS]
    if unknown:
        parser.error(f"unknown tables: {unknown}; choose from {sorted(RENDERERS)}")

    by_key = {p.key: p for p in ALL_VARIANTS}
    keys = [key.strip() for key in args.variants.split(",") if key.strip()]
    missing = [key for key in keys if key not in by_key]
    if missing:
        parser.error(f"unknown variants: {missing}; choose from {sorted(by_key)}")
    variants = [by_key[key] for key in keys]

    if "figure2" in wanted or "hindering" in wanted:
        desktop = {"win95", "win98", "win98se", "winnt", "win2000"}
        if len(desktop & set(keys)) < 2:
            parser.error(
                "figure2 (Silent voting) needs at least two desktop "
                "Windows variants"
            )

    # One status line per variant: a single \r-rewritten line garbles as
    # soon as --jobs > 1 interleaves updates from several variants.
    from repro.obs.progress import ProgressRenderer

    renderer = ProgressRenderer() if not args.quiet else None
    progress = renderer.update if renderer is not None else None

    if args.load:
        from repro.core.results_io import ResultFormatError, load_results

        try:
            results = load_results(args.load)
        except (OSError, ResultFormatError) as exc:
            parser.error(f"--load {args.load}: {exc}")
    else:
        resume = None
        if args.resume:
            from repro.core.results_io import ResultFormatError, load_checkpoint

            try:
                resume = load_checkpoint(args.resume)
            except (OSError, ResultFormatError) as exc:
                parser.error(f"--resume {args.resume}: {exc}")
            if resume.cap and resume.cap != args.cap:
                # The case sequences are a function of the cap: resuming
                # under a different cap would splice incompatible plans.
                if not args.quiet:
                    sys.stderr.write(
                        f"resuming at the checkpoint's cap "
                        f"({resume.cap}), not {args.cap}\n"
                    )
                args.cap = resume.cap
            if resume.variants is not None and set(resume.variants) != {
                p.key for p in variants
            }:
                # The checkpoint knows which variants its run covered;
                # adopting them beats silently re-running all seven.
                if not args.quiet:
                    sys.stderr.write(
                        "resuming the checkpoint's variants "
                        f"({','.join(resume.variants)})\n"
                    )
                unknown_keys = [k for k in resume.variants if k not in by_key]
                if unknown_keys:
                    parser.error(
                        f"checkpoint names unknown variants: {unknown_keys}"
                    )
                variants = [by_key[key] for key in resume.variants]
                keys = [p.key for p in variants]
            if resume.plan is not None:
                # The checkpoint records the plan-defining sequence
                # parameters; like the cap, the resumed run adopts them
                # (resuming under different ones would splice
                # incompatible plans).
                plan = resume.plan
                if args.mode != plan.get("mode") and not args.quiet:
                    sys.stderr.write(
                        f"resuming the checkpoint's campaign mode "
                        f"({plan.get('mode')})\n"
                    )
                args.mode = str(plan.get("mode", args.mode))
                args.sequences = int(plan.get("sequences", args.sequences))
                args.sequence_length = int(
                    plan.get("sequence_length", args.sequence_length)
                )
                args.sequence_seed = int(
                    plan.get("sequence_seed", args.sequence_seed)
                )
                args.dirty_machine = bool(
                    plan.get("dirty_machine", args.dirty_machine)
                )
                fault_families = tuple(
                    str(f) for f in plan.get("fault_families", fault_families)
                )
                if tables_defaulted:
                    args.tables = _DEFAULT_TABLES[args.mode]
                    wanted = [
                        name.strip()
                        for name in args.tables.split(",")
                        if name.strip()
                    ]
            elif args.mode == "sequence":
                parser.error(
                    f"--resume {args.resume}: the checkpoint records a "
                    "per-case campaign; it cannot resume under "
                    "--mode sequence"
                )
        checkpoint_path = args.checkpoint or args.resume
        started = time.monotonic()
        # Default parallelism covers every schedulable slice, not just
        # every variant: the old min(variants, cores) silently idled
        # all cores past seven.
        total_shards = len(variants) * args.shards
        jobs = (
            args.jobs
            if args.jobs is not None
            else default_jobs(total_shards)
        )
        if args.jobs is not None and args.jobs > total_shards and not args.quiet:
            sys.stderr.write(
                f"--jobs {args.jobs} exceeds the {total_shards} "
                f"schedulable slice(s) ({len(variants)} variant(s) x "
                f"{args.shards} shard(s)); extra workers will idle -- "
                f"raise --shards to use them\n"
            )
        config = CampaignConfig(
            cap=args.cap,
            mode=args.mode,
            sequences=args.sequences,
            sequence_length=args.sequence_length,
            sequence_seed=args.sequence_seed,
            dirty_machine=args.dirty_machine,
            fault_families=fault_families,
        )
        if jobs > 1:
            campaign = ParallelCampaign(
                variants,
                config=config,
                jobs=jobs,
                shards=args.shards,
                atlas_path=args.wear_atlas,
                policy=SupervisorPolicy(
                    mut_deadline=args.mut_deadline,
                    max_restarts=args.max_restarts,
                    max_mut_retries=args.max_mut_retries,
                ),
            )
        else:
            campaign = Campaign(variants, config=config)
        recorder = None
        if args.events:
            from repro.obs.recorder import JsonlRecorder

            try:
                recorder = JsonlRecorder(args.events)
            except OSError as exc:
                parser.error(f"--events {args.events}: {exc}")
        try:
            results = campaign.run(
                progress=progress,
                checkpoint_path=checkpoint_path,
                checkpoint_every=args.checkpoint_every,
                resume=resume,
                recorder=recorder,
            )
        finally:
            if renderer is not None:
                renderer.close()
            if recorder is not None:
                recorder.close()
        if not args.quiet:
            elapsed = time.monotonic() - started
            workers = f", {jobs} workers" if jobs > 1 else ""
            sys.stderr.write(
                f"campaign: {results.total_cases()} test cases across "
                f"{len(variants)} variants in {elapsed:.1f}s{workers}\n\n"
            )
            for entry in getattr(campaign, "supervision_log", []):
                detail = ", ".join(
                    f"{k}={v}"
                    for k, v in entry.items()
                    if k not in ("event", "variant")
                )
                sys.stderr.write(
                    f"supervisor: {entry['event']} [{entry['variant']}]"
                    f"{' ' + detail if detail else ''}\n"
                )
            if getattr(campaign, "supervision_log", []):
                sys.stderr.write("\n")
    if args.save:
        from repro.core.results_io import save_results

        save_results(results, args.save)
    if args.csv:
        from repro.analysis.export import write_csv

        for path in write_csv(results, args.csv):
            if not args.quiet:
                sys.stderr.write(f"wrote {path}\n")

    for name in wanted:
        print(RENDERERS[name](results))
        print()
    return 0


def _leaks_main(argv: list[str]) -> int:
    """``python -m repro leaks [--variant V]``: the resource-leakage
    audit (the failure mode the paper explicitly did not target)."""
    parser = argparse.ArgumentParser(
        prog="repro leaks",
        description=(
            "Audit each MuT for machine-global residue (leaked files, "
            "shared-arena corruption) that survives per-case teardown."
        ),
    )
    by_key = {p.key: p for p in ALL_VARIANTS}
    parser.add_argument(
        "--variant",
        default="win98",
        choices=sorted(by_key),
        help="OS variant to audit (default: win98)",
    )
    parser.add_argument(
        "--cap",
        type=int,
        default=60,
        metavar="N",
        help="test cases per MuT (default: 60)",
    )
    parser.add_argument(
        "--muts",
        default=None,
        metavar="NAMES",
        help="comma-separated MuT names to audit (default: all)",
    )
    args = parser.parse_args(argv)
    if args.cap < 1:
        parser.error(f"--cap must be >= 1, got {args.cap}")
    from repro.triage.leaks import audit_leaks

    mut_names = None
    if args.muts is not None:
        mut_names = [n.strip() for n in args.muts.split(",") if n.strip()]
    report = audit_leaks(by_key[args.variant], mut_names, cap=args.cap)
    print(report.render())
    return 0


def _minimize_main(argv: list[str]) -> int:
    """``python -m repro minimize RESULTS --variant V --sequence S``:
    ddmin a crashed sequence row from saved campaign output down to a
    1-minimal standalone reproducer."""
    parser = argparse.ArgumentParser(
        prog="repro minimize",
        description=(
            "Minimise a Catastrophic sequence from a saved --mode "
            "sequence result set (ddmin under the campaign's own "
            "execution regime) and print the repro program."
        ),
    )
    by_key = {p.key: p for p in ALL_VARIANTS}
    parser.add_argument(
        "results", metavar="RESULTS", help="result set saved with --save"
    )
    parser.add_argument(
        "--variant",
        required=True,
        choices=sorted(by_key),
        help="OS variant the sequence crashed on",
    )
    parser.add_argument(
        "--sequence",
        default=None,
        metavar="NAME",
        help=(
            "sequence row to minimise (e.g. seq00042; default: the "
            "first crashed sequence of the variant)"
        ),
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress output"
    )
    args = parser.parse_args(argv)
    from repro.core.results_io import ResultFormatError, load_results
    from repro.core.sequences import SEQUENCE_API
    from repro.triage.minimize import (
        minimize_from_sequence_record,
        render_repro_program,
    )

    try:
        results = load_results(args.results)
    except (OSError, ResultFormatError) as exc:
        parser.error(f"{args.results}: {exc}")
    if args.sequence is not None:
        try:
            row = results.get(args.variant, args.sequence, api=SEQUENCE_API)
        except KeyError:
            parser.error(
                f"no sequence row {args.sequence!r} for {args.variant}"
            )
    else:
        crashed = [
            r
            for r in results.for_variant(args.variant)
            if r.api == SEQUENCE_API and r.catastrophic
        ]
        if not crashed:
            parser.error(f"no crashed sequences recorded for {args.variant}")
        row = crashed[0]
    if row.sequence is None or row.sequence.get("crash_step") is None:
        parser.error(f"{row.mut_name} on {args.variant} did not crash")

    def progress(replays: int, length: int) -> None:
        sys.stderr.write(f"\rreplay {replays}: {length} step(s)   ")
        sys.stderr.flush()

    minimal = minimize_from_sequence_record(
        by_key[args.variant],
        row.sequence,
        progress=None if args.quiet else progress,
    )
    if not args.quiet:
        sys.stderr.write("\n")
    print(
        f"{row.mut_name} on {args.variant}: "
        f"{row.sequence['crash_step'] + 1} step(s) -> {len(minimal)} "
        "minimal step(s)"
    )
    for step in minimal:
        print(f"  {step.describe()}")
    print()
    print(render_repro_program(by_key[args.variant], minimal))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
