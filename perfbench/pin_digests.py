"""Regenerate ``digests.json``: the results digest of every campaign
input the benchmark can generate -- each cap the case workloads draw
(``CAP +- CAP_JITTER``) and each sequence seed.

    PYTHONPATH=src python3 perfbench/pin_digests.py

Run it only for a change that is meant to alter campaign results; the
benchmark fails every repetition whose digest differs from its pin.
"""

from __future__ import annotations

import json
import multiprocessing
import os

import workloads
from run import pin_key


def _digest(item: tuple[str, dict]) -> tuple[str, str]:
    name, inputs = item
    return pin_key(inputs), workloads.CLASSES[name](inputs).run(0)["digest"]


def main() -> None:
    case = workloads.inputs("case_serial", 0)
    items = [
        ("case_serial", dict(case, cap=cap))
        for cap in range(
            workloads.CAP - workloads.CAP_JITTER, workloads.CAP + workloads.CAP_JITTER + 1
        )
    ] + [
        ("sequence_serial", workloads.inputs("sequence_serial", seed))
        for seed in range(len(workloads.SEQUENCE_SEEDS))
    ]
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        pins = dict(pool.map(_digest, items, chunksize=1))
    path = os.path.join(workloads.HERE, "digests.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(pins)} digests in {path}")


if __name__ == "__main__":
    main()
