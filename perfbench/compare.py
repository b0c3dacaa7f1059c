"""Compare two sets of untraced runs against the bounds in
``BENCHMARK.json``.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds run records as ``run.py`` writes them to
``perfbench/out/`` (``<workload>_seed<S>.json``, possibly renamed with a
suffix to keep several runs).  For every workload and end-to-end metric
present in both sets, the median over the set's runs is compared, and
the change from BASE to NEW printed as a share of BASE, signed so that
positive means worse.  The exit code is 1 when any change is worse than
the metric's bound.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

import run
import workloads


def worse_share(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    change = (new - base) / base
    return -change if better == "higher" else change


def medians(directory: str, workload: str) -> tuple[int, dict[str, float]]:
    """``(runs, {metric: median over the runs})`` of one workload."""
    values: dict[str, list[float]] = {}
    paths = [
        p
        for p in glob.glob(os.path.join(directory, f"{workload}_seed*.json"))
        if "_trace" not in os.path.basename(p)
    ]
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            for name, value in json.load(fh)["metrics"].items():
                values.setdefault(name, []).append(value)
    return len(paths), {k: statistics.median(v) for k, v in values.items()}


def main(argv: list[str]) -> int:
    base_dir, new_dir = argv[1:3]
    metrics = run.load_benchmark()["end_to_end"]
    regressed = False
    print(
        f"{'workload':<16} {'runs':>5} {'metric':<12} {'base':>12} {'new':>12} "
        f"{'worse':>7} {'bound':>6}"
    )
    for workload in workloads.WORKLOADS:
        base_runs, base = medians(base_dir, workload)
        new_runs, new = medians(new_dir, workload)
        for metric in metrics:
            name = metric["name"]
            if name not in base or name not in new:
                continue
            share = worse_share(base[name], new[name], metric["better"])
            verdict = "" if share <= metric["bound"] else "  REGRESSED"
            regressed = regressed or bool(verdict)
            print(
                f"{workload:<16} {base_runs:>2}/{new_runs:<2} {name:<12} "
                f"{base[name]:>12.6g} {new[name]:>12.6g} {share:>+7.3f} "
                f"{metric['bound']:>6}{verdict}"
            )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
