"""The ``repro lint`` subcommand.

Usage::

    python -m repro lint                      # text report, exit 1 on findings
    python -m repro lint --json               # JSON report on stdout
    python -m repro lint --fail-on-new        # fail only on non-baselined findings
    python -m repro lint --report lint.json   # also write the JSON report to a file
    python -m repro lint --write-baseline     # accept current findings
    python -m repro lint --explain <rule>     # print a rule's rationale
    python -m repro lint --list-rules         # enumerate registered rules
    python -m repro lint --diff HEAD~1        # only findings in changed files
    python -m repro lint --graph-json g.json  # dump the call graph (CI artifact)
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

from repro.lint.baseline import (
    DEFAULT_BASELINE,
    BaselineFormatError,
    load_baseline,
    split_new,
    write_baseline,
)
from repro.lint.framework import (
    Project,
    all_checkers,
    checker_names,
    get_checker,
    run_lint,
)
from repro.lint.report import render_text, report_to_dict

#: Default on-disk home of the interprocedural engine's per-file
#: summary cache (content-hash keyed; see repro/lint/graph.py).
DEFAULT_CACHE = ".lint-cache.json"


def _changed_files(base: str) -> set[str] | None:
    """Paths changed since ``base`` (``git diff --name-only``),
    normalized to the finding convention (relative to the source root,
    so ``src/repro/core/x.py`` -> ``repro/core/x.py``).  Returns None
    when git fails."""
    proc = subprocess.run(
        ["git", "diff", "--name-only", base, "--"],
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        return None
    changed: set[str] = set()
    for raw in proc.stdout.splitlines():
        raw = raw.strip()
        if not raw.endswith(".py"):
            continue
        path = pathlib.PurePosixPath(raw).as_posix()
        if "repro/" in path:
            changed.add("repro/" + path.split("repro/", 1)[1])
        else:
            changed.add(path)
    return changed


def _explain(rule: str) -> str:
    if rule == "all":
        chunks = [_explain(name) for name in checker_names()]
        return "\n\n".join(chunks)
    checker = get_checker(rule)
    header = f"{checker.name} -- {checker.title}"
    return f"{header}\n{'=' * len(header)}\n{checker.rationale}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "Static analysis for the Ballista reproduction: registry "
            "contracts, determinism (per-file and propagated through "
            "the call graph), sim isolation, serialization versioning, "
            "exception discipline, cross-thread concurrency contracts, "
            "spawn pickle-safety, machine wear-escape, and windowed "
            "user-memory scans."
        ),
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the machine-readable JSON report instead of text",
    )
    parser.add_argument(
        "--report",
        metavar="PATH",
        help="also write the JSON report to PATH (the CI artifact)",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        default=DEFAULT_BASELINE,
        help=(
            "baseline of accepted finding fingerprints "
            f"(default: {DEFAULT_BASELINE}; a missing file is an empty "
            "baseline)"
        ),
    )
    parser.add_argument(
        "--fail-on-new",
        action="store_true",
        help=(
            "exit nonzero only for findings absent from the baseline "
            "(without this flag, any finding fails the run)"
        ),
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="accept the current findings into the baseline file and exit 0",
    )
    parser.add_argument(
        "--checkers",
        metavar="LIST",
        help="comma-separated rule names to run (default: all)",
    )
    parser.add_argument(
        "--root",
        metavar="DIR",
        help=(
            "source root containing the repro package (default: the "
            "tree the importable repro package lives in)"
        ),
    )
    parser.add_argument(
        "--diff",
        metavar="BASE",
        help=(
            "report only findings in files changed since the git ref "
            "BASE (the call graph is still built whole-project, so "
            "interprocedural findings in changed files stay accurate); "
            "fast pre-commit mode, see `make lint-fast`"
        ),
    )
    parser.add_argument(
        "--graph-json",
        metavar="PATH",
        help="also write the resolved call graph as JSON to PATH "
        "(the CI artifact)",
    )
    parser.add_argument(
        "--cache",
        metavar="PATH",
        default=DEFAULT_CACHE,
        help=(
            "content-hash summary cache for the interprocedural engine "
            f"(default: {DEFAULT_CACHE}); warm runs skip the per-file "
            "summary walk for unchanged files"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="build the call graph in memory without touching the cache",
    )
    parser.add_argument(
        "--explain",
        metavar="RULE",
        help="print the rule's rationale (with the paper requirement it "
        "protects) and exit; 'all' explains every rule",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for checker in all_checkers():
            print(f"{checker.name:24s} {checker.title}")
        return 0
    if args.explain:
        try:
            print(_explain(args.explain))
        except KeyError as exc:
            parser.error(str(exc.args[0]))
        return 0

    checkers = None
    if args.checkers:
        wanted = [n.strip() for n in args.checkers.split(",") if n.strip()]
        try:
            checkers = [get_checker(name) for name in wanted]
        except KeyError as exc:
            parser.error(str(exc.args[0]))

    try:
        baseline = load_baseline(args.baseline)
    except BaselineFormatError as exc:
        parser.error(str(exc))

    changed: set[str] | None = None
    if args.diff:
        changed = _changed_files(args.diff)
        if changed is None:
            parser.error(
                f"--diff {args.diff}: git diff failed (not a git "
                "checkout, or an unknown ref)"
            )

    project = Project(
        root=args.root, cache_path=None if args.no_cache else args.cache
    )
    result = run_lint(project, checkers=checkers)

    if changed is not None:
        # Registry-level findings (path == "") always survive the
        # filter: they have no home file to be "unchanged".
        result.findings = [
            f for f in result.findings if not f.path or f.path in changed
        ]
        result.suppressed = [
            f for f in result.suppressed if not f.path or f.path in changed
        ]

    if args.graph_json:
        with open(args.graph_json, "w", encoding="utf-8") as fh:
            json.dump(project.graph().to_json(), fh, indent=2)
            fh.write("\n")

    if args.write_baseline:
        write_baseline(result.findings, args.baseline)
        print(
            f"baselined {len(result.findings)} finding"
            f"{'s' if len(result.findings) != 1 else ''} "
            f"into {args.baseline}"
        )
        return 0

    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report_to_dict(result, baseline), fh, indent=2)
            fh.write("\n")
    if args.json:
        print(json.dumps(report_to_dict(result, baseline), indent=2))
    else:
        print(render_text(result, baseline))

    new, _ = split_new(result.findings, baseline)
    failing = new if args.fail_on_new else result.findings
    return 1 if failing else 0


if __name__ == "__main__":  # pragma: no cover - exercised via `repro lint`
    sys.exit(main())
