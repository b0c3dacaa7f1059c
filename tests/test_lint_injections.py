"""The acceptance drill for ``repro lint``: inject one violation of each
rule -- the five per-file rules and the four interprocedural ones -- into
a copy of the tree and prove ``repro lint --fail-on-new`` catches every
one.

Each test copies ``src/repro`` into a scratch directory, applies exactly
one doctoring, and runs the real CLI as a subprocess with ``PYTHONPATH``
pointing at the doctored tree -- the same invocation CI uses, against
the same committed (empty) baseline semantics.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys
import textwrap

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


@pytest.fixture()
def doctored_src(tmp_path):
    """A private copy of src/ that a test may freely vandalise."""
    target = tmp_path / "src"
    shutil.copytree(SRC / "repro", target / "repro")
    return target


def run_lint(src_root, *extra):
    env = {**os.environ, "PYTHONPATH": str(src_root)}
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--fail-on-new", *extra],
        env=env,
        cwd=src_root.parent,  # no committed baseline in scope -> empty
        capture_output=True,
        text=True,
        timeout=120,
    )


def edit(src_root, rel, old, new):
    path = src_root / "repro" / rel
    text = path.read_text(encoding="utf-8")
    assert old in text, f"injection anchor missing from {rel}"
    path.write_text(text.replace(old, new), encoding="utf-8")


def append(src_root, rel, code):
    path = src_root / "repro" / rel
    with path.open("a", encoding="utf-8") as fh:
        fh.write("\n\n" + textwrap.dedent(code).strip() + "\n")


def assert_caught(proc, rule, code):
    assert proc.returncode == 1, (
        f"lint should have failed on the injected {code} violation\n"
        f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
    )
    assert rule in proc.stdout
    assert code in proc.stdout


def test_clean_copy_passes(doctored_src):
    proc = run_lint(doctored_src)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 findings" in proc.stdout


def test_unregistered_param_type_is_caught(doctored_src):
    edit(
        doctored_src,
        "win32/registration.py",
        '("VirtualLock", GROUP_MEMORY, ["buffer", "size"]),',
        '("VirtualLock", GROUP_MEMORY, ["buffer_xl", "size"]),',
    )
    proc = run_lint(doctored_src)
    assert_caught(proc, "registry-contract", "RC-TYPE")
    assert "buffer_xl" in proc.stdout


def test_wallclock_in_core_is_caught(doctored_src):
    append(
        doctored_src,
        "core/classify.py",
        """
        def _injected_timestamp():
            import time

            return time.time()
        """,
    )
    proc = run_lint(doctored_src)
    assert_caught(proc, "determinism", "DET-WALLCLOCK")
    assert "repro/core/classify.py" in proc.stdout


def test_real_open_in_mut_impl_is_caught(doctored_src):
    append(
        doctored_src,
        "win32/file_api.py",
        """
        def _injected_escape(path):
            return open(path, "rb").read()
        """,
    )
    proc = run_lint(doctored_src)
    assert_caught(proc, "sim-isolation", "ISO-BUILTIN")
    assert "repro/win32/file_api.py" in proc.stdout


def test_unbumped_serialized_field_is_caught(doctored_src):
    anchor = "supervision: list[dict] = field(default_factory=list)"
    edit(
        doctored_src,
        "core/results_io.py",
        anchor,
        anchor + "\n    injected_field: int = 0",
    )
    proc = run_lint(doctored_src)
    assert_caught(proc, "serialization-version", "SER-DRIFT")
    assert "injected_field" in proc.stdout
    assert "CHECKPOINT_VERSION" in proc.stdout


def test_bare_except_is_caught(doctored_src):
    append(
        doctored_src,
        "core/campaign.py",
        """
        def _injected_swallow(fn):
            try:
                return fn()
            except:
                return None
        """,
    )
    proc = run_lint(doctored_src)
    assert_caught(proc, "exception-discipline", "EXC-BARE")


def test_injection_report_artifact_shape(doctored_src, tmp_path):
    """The CI artifact for a failing run names the injected violation."""
    append(
        doctored_src,
        "core/campaign.py",
        """
        def _injected_swallow(fn):
            try:
                return fn()
            except:
                return None
        """,
    )
    report = tmp_path / "lint-report.json"
    proc = run_lint(doctored_src, "--report", str(report))
    assert proc.returncode == 1
    doc = json.loads(report.read_text())
    assert doc["summary"]["new"] == 1
    (finding,) = doc["findings"]
    assert finding["code"] == "EXC-BARE"
    assert finding["new"] is True


def test_perf_counter_in_core_is_caught(doctored_src):
    """The obs/ allowance must not leak: time.perf_counter anywhere in a
    deterministic package outside obs/ is still a violation."""
    append(
        doctored_src,
        "core/classify.py",
        """
        def _injected_perf_read():
            import time

            return time.perf_counter()
        """,
    )
    proc = run_lint(doctored_src)
    assert_caught(proc, "determinism", "DET-WALLCLOCK")
    assert "repro/core/classify.py" in proc.stdout


def test_perf_counter_in_obs_is_allowed(doctored_src):
    """The WALLCLOCK_ALLOWANCES manifest grants obs/ exactly
    time.perf_counter -- a recorder stamping telemetry records must
    lint clean without a pragma."""
    append(
        doctored_src,
        "obs/recorder.py",
        """
        def _injected_extra_stamp():
            import time

            return time.perf_counter()
        """,
    )
    proc = run_lint(doctored_src)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_absolute_wallclock_in_obs_is_caught(doctored_src):
    """The allowance is per call, not per package: absolute time.time
    in obs/ (a calendar timestamp leaking into event files) still
    fails."""
    append(
        doctored_src,
        "obs/events.py",
        """
        def _injected_calendar_read():
            import time

            return time.time()
        """,
    )
    proc = run_lint(doctored_src)
    assert_caught(proc, "determinism", "DET-WALLCLOCK")
    assert "repro/obs/events.py" in proc.stdout


# ----------------------------------------------------------------------
# Interprocedural rules (the call-graph engine)
# ----------------------------------------------------------------------


def test_propagated_wallclock_is_caught(doctored_src):
    """A clean core/ wrapper around a dirty service/ helper: the per-file
    determinism rule cannot see it, the propagation rule must."""
    append(
        doctored_src,
        "service/serial.py",
        """
        def _injected_wall_helper():
            import time

            return time.time()
        """,
    )
    append(
        doctored_src,
        "core/campaign.py",
        """
        def _injected_label():
            from repro.service.serial import _injected_wall_helper

            return _injected_wall_helper()
        """,
    )
    proc = run_lint(doctored_src)
    assert_caught(proc, "determinism-propagation", "DET-PROPAGATED")
    assert "repro/core/campaign.py" in proc.stdout
    # The finding names the true origin two hops away.
    assert "repro/service/serial.py" in proc.stdout


def test_unlocked_cross_thread_mutation_is_caught(doctored_src):
    """_readable runs on the selector network thread; _plan_cache is also
    written from the scheduler thread (under the lock, via _plan_keys).
    An unlocked mutation from the network side is the exact race class
    the rule exists for."""
    edit(
        doctored_src,
        "service/server.py",
        "    def _readable(self, conn: _ServiceConnection) -> None:\n"
        "        try:",
        "    def _readable(self, conn: _ServiceConnection) -> None:\n"
        "        self._plan_cache.clear()\n"
        "        try:",
    )
    proc = run_lint(doctored_src)
    assert_caught(proc, "concurrency-contract", "CONC-CROSS-THREAD")
    assert "_plan_cache" in proc.stdout
    assert "repro/service/server.py" in proc.stdout


def test_lambda_in_spawn_args_is_caught(doctored_src):
    """The spawn context pickles Process args into the worker; a lambda
    smuggled into the payload dies at spawn time in production."""
    edit(
        doctored_src,
        "core/pool.py",
        "target=_pool_worker, args=(inbox, writer), daemon=True",
        "target=_pool_worker, args=(inbox, writer, (lambda: None)), daemon=True",
    )
    proc = run_lint(doctored_src)
    assert_caught(proc, "pickle-safety", "PICKLE-UNSAFE")
    assert "repro/core/pool.py" in proc.stdout


def test_out_of_band_wear_mutation_is_caught(doctored_src):
    """Rewinding the simulated clock between shard seams falsifies the
    recorded wear fingerprint; only the sanctioned wear API may move
    machine state."""
    append(
        doctored_src,
        "core/sequences.py",
        """
        def _injected_rewind(machine):
            machine.clock.ticks = 0
        """,
    )
    proc = run_lint(doctored_src)
    assert_caught(proc, "wear-escape", "WEAR-ESCAPE")
    assert "machine.clock.ticks" in proc.stdout
    assert "repro/core/sequences.py" in proc.stdout


def test_machine_import_in_pool_layer_is_caught(doctored_src):
    """The memoized plan/value pools are shared across every variant and
    shard; importing the machine layer into them couples the caches to
    per-variant state and is banned by the POOL_PURITY manifest."""
    append(
        doctored_src,
        "core/generator.py",
        """
        from repro.sim.machine import Machine

        def _injected_pool_key(machine: Machine) -> str:
            return machine.personality.key
        """,
    )
    proc = run_lint(doctored_src)
    assert_caught(proc, "determinism", "DET-POOL-IMPORT")
    assert "repro/core/generator.py" in proc.stdout


def test_cow_revert_outside_wear_api_scope_is_sanctioned(doctored_src):
    """machine.revert() is part of the sanctioned lifecycle surface (the
    copy-on-write snapshot verb machine_per_case isolation runs
    through): orchestration code calling it must lint clean."""
    append(
        doctored_src,
        "core/sequences.py",
        """
        def _injected_isolation_reset(machine):
            machine.revert()
        """,
    )
    proc = run_lint(doctored_src)
    assert proc.returncode == 0, proc.stdout + proc.stderr
