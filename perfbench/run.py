"""One command for the harness benchmark.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace [0|1]] [--smoke]

Without ``--workload`` all four workloads run in turn.  Each repetition
runs in a fresh interpreter (``workloads.py``), so process-wide caches --
the pristine filesystem and boot templates, the generator's memoised
plans -- never carry over from one repetition to the next.  Untraced
runs repeat the workload until ``--seconds`` of measured time have
passed and report the end-to-end metrics of ``BENCHMARK.json``; each
repetition's value is printed with the median and quartiles.  ``--trace
1`` runs the workload once untraced and once traced and reports the
per-layer metrics instead.  Every output is checked; any failure makes
the command exit 1.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

The benchmark needs the repository's ``src/`` and
``benchmarks/bench_throughput.py`` beside it and exits 2 without them.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import workloads
from stats import backed_percentile, percentile, quartiles

HERE = workloads.HERE
ROOT = os.path.dirname(HERE)
OUT = workloads.OUT
SRC = os.path.join(ROOT, "src")
BENCHMARKS = os.path.join(ROOT, "benchmarks")

#: Set-up time is the median of at least this many fresh interpreters.
SETUP_SAMPLES = 9
#: Bounds the repetitions of a tiny (``--smoke``) workload.
MAX_REPS = 10
#: Every run (one workload) must finish well inside 180 s.
RUN_BUDGET_S = 170.0


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------


class Budget:
    """Wall-clock budget of one run; child timeouts come out of it."""

    def __init__(self, seconds: float) -> None:
        self.deadline = time.monotonic() + seconds

    def left(self) -> float:
        return self.deadline - time.monotonic()


def _environment() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # Worker checkpoints and service data go to temporary directories;
    # keep them inside the checkout.
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    return env


def _running_in_group(pgid: int) -> bool:
    """Whether any process of the group is still running.  Exited
    members (zombies) do not count: once orphaned they wait for init to
    reap them, which may take seconds."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited while we looked
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


def _reap_group(pgid: int, grace: float) -> None:
    """Wait up to ``grace`` seconds for a finished child's process group
    (the campaign workers and helpers it spawned) to stop running, then
    SIGKILL what is left and wait, for at most ten more seconds, until
    it has stopped."""
    deadline = time.monotonic() + grace
    give_up = deadline + 10.0
    while _running_in_group(pgid) and time.monotonic() < give_up:
        if time.monotonic() >= deadline:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                return
        time.sleep(0.02)


def run_child(spec: dict, budget: Budget) -> dict:
    """Run one ``workloads.py`` repetition or probe.  Returns its result
    dict (plus ``setup``, seconds from spawn to ready) or
    ``{"error": reason}``."""
    timeout = budget.left()
    if timeout <= 1:
        return {"error": "run budget exhausted"}
    spawned = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "workloads.py"), json.dumps(spec)],
        stdout=subprocess.PIPE,
        text=True,
        env=_environment(),
        cwd=ROOT,
        start_new_session=True,
    )
    out = None
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        pass
    finally:
        finished = proc.poll() is not None
        if not finished:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        _reap_group(proc.pid, grace=2.0 if finished else 0.0)
    if out is None:
        return {"error": f"timed out after {timeout:.0f} s"}
    ready = result = None
    for line in out.splitlines():
        if line.startswith("READY "):
            ready = float(line.split()[1])
        elif line.startswith("RESULT "):
            result = json.loads(line[len("RESULT ") :])
    if proc.returncode != 0 or ready is None:
        return {"error": f"exited with code {proc.returncode}"}
    if spec["mode"] == "run" and result is None:
        return {"error": "printed no result"}
    result = result or {}
    result["setup"] = ready - spawned
    return result


# ----------------------------------------------------------------------
# Measuring
# ----------------------------------------------------------------------


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def load_digests() -> dict:
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        return json.load(fh)


def pin_key(inputs: dict) -> str:
    return json.dumps(inputs, sort_keys=True)


class Report:
    """Operations attempted and failed, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def child(self, label: str, result: dict, expected: str | None = None) -> bool:
        """Account one child; returns whether it produced a result."""
        if "error" in result:
            self.attempted += 1
            self.failed += 1
            self.problems.append(f"{label}: {result['error']}")
            return False
        problems = list(result.get("failures", ()))
        if expected is not None and result.get("digest") not in (None, expected):
            problems.append(
                f"digest {result['digest'][:12]} != expected {expected[:12]}"
            )
        operations = max(1, result.get("operations", 1))
        self.attempted += operations
        self.failed += min(operations, len(problems))
        self.problems += [f"{label}: {p}" for p in problems]
        return True


def _spec(workload, seed, inputs, mode="run", seconds=0.0, trace=False) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "inputs": inputs,
        "mode": mode,
        "seconds": seconds,
        "trace": trace,
    }


def serial_run(seed, inputs, budget, report, expected) -> dict | None:
    """An untimed ``case_serial`` repetition of the sharded workload's
    inputs: its reference where no digest is pinned, and the base of
    ``core.parallel.efficiency``."""
    serial = run_child(_spec("case_serial", seed, inputs), budget)
    return serial if report.child("serial", serial, expected) else None


def measure(workload: str, seed: int, seconds: float, smoke: bool, budget) -> dict:
    """Untraced repetitions until ``seconds`` of measured time."""
    inputs = workloads.inputs(workload, seed, smoke)
    report = Report()
    expected = load_digests().get(pin_key(inputs))
    if expected is None and workload == "case_sharded":
        serial = serial_run(seed, inputs, budget, report, None)
        expected = serial and serial["digest"]
    service = workload == "service_closed2"
    reps: list[dict] = []
    timed = 0.0
    while True:
        rep = run_child(_spec(workload, seed, inputs, seconds=seconds), budget)
        if not report.child(f"rep {len(reps) + 1}", rep, expected):
            break
        expected = expected or rep["digest"]
        reps.append(rep)
        timed += rep["elapsed"]
        # The service workload measures its window in one go.
        if service or timed >= seconds or len(reps) == MAX_REPS:
            break
    setups = [rep["setup"] for rep in reps]
    while reps and len(setups) < SETUP_SAMPLES:
        probe = run_child(_spec(workload, seed, inputs, mode="probe"), budget)
        if not report.child("set-up probe", probe):
            break
        setups.append(probe["setup"])
    samples = {
        "cases_per_s": [r["cases"] / r["elapsed"] for r in reps],
        "jobs_per_s": [r["rows"] / r["elapsed"] for r in reps],
        "setup_s": setups,
        "peak_rss_mb": [r["rss_mb"] for r in reps],
    }
    return {
        "inputs": inputs,
        "report": report,
        "samples": samples,
        "reps": reps,
        "metrics": {k: statistics.median(v) for k, v in samples.items() if v},
    }


def measure_traced(workload, seed, seconds, smoke, budget, per_layer) -> dict:
    """One untraced and one traced repetition; per-layer metrics."""
    inputs = workloads.inputs(workload, seed, smoke)
    report = Report()
    expected = load_digests().get(pin_key(inputs))
    serial = None
    if workload == "case_sharded":
        serial = serial_run(seed, inputs, budget, report, expected)
        expected = expected or (serial and serial["digest"])
    window = seconds / 2  # the service session is split between the two
    plain = run_child(_spec(workload, seed, inputs, seconds=window), budget)
    traced = run_child(
        _spec(workload, seed, inputs, seconds=window, trace=True), budget
    )
    report.child("untraced", plain, expected)
    expected = expected or plain.get("digest")
    report.child("traced", traced, expected)
    layers = {name: 0.0 for name in per_layer}
    layers.update(traced.get("layers", {}))
    if "error" not in plain and "error" not in traced:
        layers["trace.overhead_share"] = 1.0 - (
            traced["cases"] / traced["elapsed"]
        ) / (plain["cases"] / plain["elapsed"])
    if serial is not None and "error" not in plain:
        layers["core.parallel.efficiency"] = (plain["cases"] / plain["elapsed"]) / (
            workloads.JOBS * serial["cases"] / serial["elapsed"]
        )
    return {
        "inputs": inputs,
        "report": report,
        "reps": [plain, traced],
        "metrics": layers,
    }


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_untraced(result: dict, units: dict) -> None:
    for index, rep in enumerate(result["reps"], 1):
        digest = (rep.get("digest") or "-")[:12]
        print(
            f"  rep {index}: {rep['cases']} cases, {rep['rows']} jobs in "
            f"{rep['elapsed']:.3f} s; set-up {rep['setup']:.3f} s; "
            f"peak RSS {rep['rss_mb']:.1f} MB; digest {digest}"
        )
        latencies = rep.get("latencies")
        if latencies:
            tail = backed_percentile(len(latencies))
            line = f"    job done p50 {percentile(latencies, 50):.4f} s"
            if tail is not None and tail > 50:
                line += f", p{tail:g} {percentile(latencies, tail):.4f} s"
            print(line + f" (n={len(latencies)})")
    print(f"  {'metric':<14} {'unit':<8} {'median':>12} {'q1':>12} {'q3':>12}  values")
    for name, values in result["samples"].items():
        if not values:
            continue
        q1, median, q3 = quartiles(values)
        print(
            f"  {name:<14} {units[name]:<8} {_fmt(median):>12} {_fmt(q1):>12} "
            f"{_fmt(q3):>12}  {' '.join(_fmt(v) for v in values)}"
        )


def print_traced(result: dict, units: dict) -> None:
    for name, value in sorted(result["metrics"].items()):
        print(f"  {name:<44} {_fmt(value):>14} {units[name]}")


def run_workload(args, workload: str, benchmark: dict, spin: float) -> dict:
    seconds = args.seconds or benchmark["run_seconds"]
    budget = Budget(RUN_BUDGET_S)
    metrics = benchmark["per_layer"] if args.trace else benchmark["end_to_end"]
    units = {m["name"]: m["unit"] for m in metrics}
    print(
        f"== {workload} seed {args.seed} "
        f"({'traced' if args.trace else f'{seconds:g} s measured'}; "
        f"nproc {os.cpu_count()}, spin {spin:.4f} s)"
    )
    if args.trace:
        result = measure_traced(
            workload, args.seed, seconds, args.smoke, budget, list(units)
        )
    else:
        result = measure(workload, args.seed, seconds, args.smoke, budget)
    print(f"  inputs {json.dumps(result['inputs'])}")
    report = result["report"]
    if args.trace:
        print_traced(result, units)
    elif result["reps"]:
        print_untraced(result, units)
    for problem in report.problems:
        print(f"  FAILED {problem}")
    correct = report.failed == 0 and set(result["metrics"]) >= set(units)
    record = {
        "workload": workload,
        "seed": args.seed,
        "trace": bool(args.trace),
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "spin_s": spin,
        "inputs": result["inputs"],
        "samples": result.get("samples"),
        "metrics": result["metrics"],
        "correct": correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "problems": report.problems,
    }
    os.makedirs(OUT, exist_ok=True)
    suffix = "_trace" if args.trace else ""
    with open(
        os.path.join(OUT, f"{workload}_seed{args.seed}{suffix}.json"), "w"
    ) as fh:
        json.dump(record, fh, indent=1)
    return {
        "correct": correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in result["metrics"].items()
            if name in units
        },
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, help="measured time per run (BENCHMARK.json)"
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1)
    )
    parser.add_argument(
        "--smoke", action="store_true", help="tiny inputs, for the smoke tests"
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (
        os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))
        and os.path.isfile(os.path.join(BENCHMARKS, "bench_throughput.py"))
    ):
        print(
            f"perfbench: {ROOT} is not a repository checkout "
            f"(needs src/repro and benchmarks/bench_throughput.py)",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [SRC, BENCHMARKS]
    from bench_throughput import _calibrate

    benchmark = load_benchmark()
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    results = {}
    for name in names:
        results[name] = run_workload(args, name, benchmark, _calibrate())
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{workload}:{name}": metric
                for workload, r in results.items()
                for name, metric in r["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
