"""Unit tests for the repro.lint static-analysis subsystem."""

from __future__ import annotations

import dataclasses
import json
import textwrap

import pytest

from repro.core.mut import MuTRegistry
from repro.lint import (
    Finding,
    Project,
    all_checkers,
    checker_names,
    get_checker,
    run_lint,
)
from repro.lint.baseline import (
    BaselineFormatError,
    load_baseline,
    split_new,
    write_baseline,
)
from repro.lint.cli import main as lint_main
from repro.lint.framework import SourceFile
from repro.lint.report import render_text, report_to_dict

RULES = {
    "registry-contract",
    "determinism",
    "sim-isolation",
    "serialization-version",
    "exception-discipline",
    "user-scan",
}


def write_module(root, rel, text):
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return path


def findings_for(project, rule):
    return [f for f in get_checker(rule).run(project)]


def codes(findings):
    return {f.code for f in findings}


# ----------------------------------------------------------------------
# Framework
# ----------------------------------------------------------------------


class TestFramework:
    def test_all_five_rules_registered(self):
        assert RULES <= set(checker_names())
        assert [c.name for c in all_checkers()] == sorted(checker_names())

    def test_unknown_rule_raises(self):
        with pytest.raises(KeyError, match="unknown lint rule"):
            get_checker("no-such-rule")

    def test_fingerprint_excludes_line_number(self):
        a = Finding("determinism", "DET-WALLCLOCK", "msg", "repro/core/x.py", 3)
        b = Finding("determinism", "DET-WALLCLOCK", "msg", "repro/core/x.py", 99)
        assert a.fingerprint == b.fingerprint
        assert a.location == "repro/core/x.py:3"

    def test_pragma_covers_own_and_next_line(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/core/x.py",
            """
            import time

            def stamp():
                a = time.time()  # lint: allow(determinism)
                # lint: allow(determinism)
                b = time.time()
                c = time.time()
                return a + b + c
            """,
        )
        source = SourceFile(tmp_path, path)
        assert source.allows(5, "determinism")  # inline pragma
        assert source.allows(7, "determinism")  # pragma on preceding line
        assert not source.allows(8, "determinism")
        assert not source.allows(5, "sim-isolation")

    def test_run_lint_moves_pragma_hits_to_suppressed(self, tmp_path):
        write_module(
            tmp_path,
            "repro/core/x.py",
            """
            import time

            def stamp():
                return time.time()  # lint: allow(determinism)
            """,
        )
        result = run_lint(
            Project(root=tmp_path), checkers=[get_checker("determinism")]
        )
        assert result.findings == []
        assert codes(result.suppressed) == {"DET-WALLCLOCK"}


# ----------------------------------------------------------------------
# Checker 1: registry contract
# ----------------------------------------------------------------------


def doctored_registry(mutate):
    """The real registry with one MuT rewritten by ``mutate``."""
    from repro.core.mut import default_registry

    doctored = MuTRegistry()
    for mut in default_registry().all():
        doctored.register(mutate(mut))
    return doctored


class TestRegistryContract:
    def test_clean_on_real_registry(self):
        assert findings_for(Project(), "registry-contract") == []

    def test_unresolved_param_type(self):
        registry = doctored_registry(
            lambda m: dataclasses.replace(m, param_types=("bogus_type",))
            if m.name == "VirtualLock"
            else m
        )
        found = findings_for(Project(registry=registry), "registry-contract")
        assert codes(found) == {"RC-TYPE"}
        assert "bogus_type" in found[0].message

    def test_unknown_group(self):
        registry = doctored_registry(
            lambda m: dataclasses.replace(m, group="Thirteenth Group")
            if m.name == "strcpy"
            else m
        )
        found = findings_for(Project(registry=registry), "registry-contract")
        assert codes(found) == {"RC-GROUP"}

    def test_matrix_mismatch_when_a_call_goes_missing(self):
        registry = MuTRegistry()
        from repro.core.mut import default_registry

        for mut in default_registry().all():
            if mut.name != "VirtualLock":  # drop one NT-family syscall
                registry.register(mut)
        found = findings_for(Project(registry=registry), "registry-contract")
        assert codes(found) == {"RC-MATRIX"}
        # VirtualLock is not in the CE subset: the five desktop variants
        # each lose one syscall, CE and Linux are untouched.
        assert len(found) == 5

    def test_incomplete_twin_set(self):
        registry = MuTRegistry()
        from repro.core.mut import default_registry

        for mut in default_registry().all():
            if mut.name != "wcslen":
                registry.register(mut)
        found = findings_for(Project(registry=registry), "registry-contract")
        assert "RC-TWIN" in codes(found)
        assert any("wcslen" in f.message for f in found)

    def test_registration_failure_becomes_finding(self):
        class Exploding(Project):
            def registry(self):
                raise ValueError("duplicate MuT win32:CreateFileA")

        found = findings_for(Exploding(), "registry-contract")
        assert codes(found) == {"RC-REGISTER"}
        assert "duplicate" in found[0].message


# ----------------------------------------------------------------------
# Checker 2: determinism
# ----------------------------------------------------------------------


class TestDeterminism:
    def test_clean_on_real_tree(self):
        assert findings_for(Project(), "determinism") == []

    def test_wallclock_and_entropy_flagged_in_core(self, tmp_path):
        write_module(
            tmp_path,
            "repro/core/x.py",
            """
            import os
            import time
            from datetime import datetime

            def stamp():
                return time.time(), datetime.now(), os.urandom(4)
            """,
        )
        found = findings_for(Project(root=tmp_path), "determinism")
        assert codes(found) == {"DET-WALLCLOCK"}
        assert len(found) == 3

    def test_monotonic_is_allowed(self, tmp_path):
        write_module(
            tmp_path,
            "repro/core/x.py",
            """
            import time

            def watchdog():
                return time.monotonic()
            """,
        )
        assert findings_for(Project(root=tmp_path), "determinism") == []

    def test_wallclock_allowed_in_service(self, tmp_path):
        write_module(
            tmp_path,
            "repro/service/x.py",
            """
            import time

            def deadline():
                return time.time() + 5
            """,
        )
        assert findings_for(Project(root=tmp_path), "determinism") == []

    def test_unseeded_random_flagged(self, tmp_path):
        write_module(
            tmp_path,
            "repro/analysis/x.py",
            """
            import random

            def jitter():
                a = random.random()
                b = random.Random()
                c = random.Random(None)
                d = random.SystemRandom()
                ok = random.Random(42)
                return a, b, c, d, ok
            """,
        )
        found = findings_for(Project(root=tmp_path), "determinism")
        assert codes(found) == {"DET-RANDOM"}
        assert len(found) == 4

    def test_seed_default_none_flagged_in_service(self, tmp_path):
        write_module(
            tmp_path,
            "repro/service/x.py",
            """
            from dataclasses import dataclass

            @dataclass
            class Policy:
                jitter_seed: int | None = None

            def run(seed=None):
                return seed
            """,
        )
        found = findings_for(Project(root=tmp_path), "determinism")
        assert codes(found) == {"DET-SEED"}
        assert len(found) == 2

    def test_set_iteration_flagged_unless_sorted(self, tmp_path):
        write_module(
            tmp_path,
            "repro/core/x.py",
            """
            def dump(keys):
                rows = [k for k in set(keys)]
                for k in {1, 2}:
                    rows.append(k)
                rows.extend(sorted(set(keys)))
                return rows
            """,
        )
        found = findings_for(Project(root=tmp_path), "determinism")
        assert codes(found) == {"DET-SETITER"}
        assert len(found) == 2


# ----------------------------------------------------------------------
# Checker 3: sim isolation
# ----------------------------------------------------------------------


class TestSimIsolation:
    def test_clean_on_real_tree(self):
        assert findings_for(Project(), "sim-isolation") == []

    def test_real_os_escapes_flagged(self, tmp_path):
        write_module(
            tmp_path,
            "repro/win32/x.py",
            """
            import os
            import socket

            def escape(path):
                handle = open(path)
                os.remove(path)
                return handle, socket.create_connection(("host", 1))
            """,
        )
        found = findings_for(Project(root=tmp_path), "sim-isolation")
        assert codes(found) == {"ISO-IMPORT", "ISO-BUILTIN", "ISO-CALL"}

    def test_method_named_open_is_fine(self, tmp_path):
        write_module(
            tmp_path,
            "repro/sim/x.py",
            """
            def through_the_machine(ctx, path):
                return ctx.fs.open(path, "r")
            """,
        )
        assert findings_for(Project(root=tmp_path), "sim-isolation") == []

    def test_only_sim_packages_scanned(self, tmp_path):
        write_module(
            tmp_path,
            "repro/service/x.py",
            """
            import socket

            def connect(host):
                return socket.create_connection((host, 1))
            """,
        )
        assert findings_for(Project(root=tmp_path), "sim-isolation") == []


# ----------------------------------------------------------------------
# Checker 4: serialization versioning
# ----------------------------------------------------------------------


class TestSerializationVersion:
    def test_clean_on_real_manifest(self):
        assert findings_for(Project(), "serialization-version") == []

    def _patched(self, monkeypatch, **overrides):
        from repro.lint.checkers import serialization
        from repro.lint.manifests import SERIALIZATION_PINS

        pin = next(
            p for p in SERIALIZATION_PINS if p.cls.endswith("CampaignCheckpoint")
        )
        monkeypatch.setattr(
            serialization,
            "SERIALIZATION_PINS",
            (dataclasses.replace(pin, **overrides),),
        )

    def test_field_drift_without_bump_is_error(self, monkeypatch):
        self._patched(
            monkeypatch,
            fields=("results", "cursors", "machine_wear", "cap"),
        )
        found = findings_for(Project(), "serialization-version")
        assert codes(found) == {"SER-DRIFT"}
        assert "without bumping" in found[0].message

    def test_version_bump_requires_repin(self, monkeypatch):
        self._patched(monkeypatch, version=99)
        found = findings_for(Project(), "serialization-version")
        assert codes(found) == {"SER-REPIN"}

    def test_unresolvable_pin_is_reported(self, monkeypatch):
        self._patched(monkeypatch, cls="repro.core.results_io.NoSuchClass")
        found = findings_for(Project(), "serialization-version")
        assert codes(found) == {"SER-MANIFEST"}


# ----------------------------------------------------------------------
# Checker 5: exception discipline
# ----------------------------------------------------------------------


class TestExceptionDiscipline:
    def test_clean_on_real_tree(self):
        assert findings_for(Project(), "exception-discipline") == []

    def test_bare_except_flagged_anywhere(self, tmp_path):
        write_module(
            tmp_path,
            "repro/analysis/x.py",
            """
            def swallow(fn):
                try:
                    return fn()
                except:
                    return None
            """,
        )
        found = findings_for(Project(root=tmp_path), "exception-discipline")
        assert codes(found) == {"EXC-BARE"}

    def test_builtin_raise_flagged_in_mut_impls(self, tmp_path):
        write_module(
            tmp_path,
            "repro/libc/x.py",
            """
            from repro.sim.errors import SoftwareAbort

            def impl(arg):
                if arg is None:
                    raise ValueError("bad arg")
                if arg < 0:
                    raise SoftwareAbort("free(): invalid pointer")
            """,
        )
        found = findings_for(Project(root=tmp_path), "exception-discipline")
        assert codes(found) == {"EXC-FAMILY"}
        assert len(found) == 1

    def test_sim_internals_may_raise_builtins(self, tmp_path):
        write_module(
            tmp_path,
            "repro/sim/x.py",
            """
            def guard(size):
                if size <= 0:
                    raise ValueError("harness bug")
            """,
        )
        assert findings_for(Project(root=tmp_path), "exception-discipline") == []


# ----------------------------------------------------------------------
# Baseline + reports + CLI
# ----------------------------------------------------------------------


def _violating_tree(tmp_path):
    write_module(
        tmp_path,
        "repro/core/x.py",
        """
        import time

        def stamp():
            return time.time()
        """,
    )
    return tmp_path


class TestUserScan:
    def test_clean_on_real_tree(self):
        assert findings_for(Project(), "user-scan") == []

    def test_per_unit_loops_flagged_windowed_and_bulk_loads_not(self, tmp_path):
        write_module(
            tmp_path,
            "repro/libc/x.py",
            """
            def per_byte(self, cursor):
                while True:
                    if self.mem.read(cursor, 1) == b"\\x00":
                        return
                    cursor += 1

            def per_word(self, cursor, word_reads):
                step = 4 if word_reads else 1
                for _ in range(8):
                    self._user_read("f", cursor, step)
                    cursor += step

            def windowed(self, cursor):
                while True:
                    data, found = self.mem.window(cursor, 1, 64)
                    if found:
                        return
                    if not data:
                        self.copy_in("f", cursor, 1)
                    cursor += len(data)

            def bulk(self, cursor, chunk):
                for _ in range(8):
                    self._user_read("f", cursor, 4096)
                    self.mem.read(cursor, chunk)

            def once(self, cursor):
                return self.mem.read(cursor, 4)
            """,
        )
        write_module(
            tmp_path,
            "repro/core/y.py",
            """
            def outside_the_mut_packages(mem, cursor):
                while True:
                    mem.read(cursor, 1)
            """,
        )
        found = findings_for(Project(root=tmp_path), "user-scan")
        assert [(f.code, f.line) for f in found] == [
            ("SCAN-PER-UNIT", 4),
            ("SCAN-PER-UNIT", 11),
        ]


class TestBaseline:
    def test_round_trip(self, tmp_path):
        findings = [
            Finding("determinism", "DET-WALLCLOCK", "m", "repro/core/x.py", 4)
        ]
        path = tmp_path / "baseline.json"
        write_baseline(findings, path)
        assert load_baseline(path) == {findings[0].fingerprint}
        new, accepted = split_new(findings, load_baseline(path))
        assert new == [] and accepted == findings

    def test_missing_file_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") == set()
        assert load_baseline(None) == set()

    def test_malformed_baseline_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text("{}")
        with pytest.raises(BaselineFormatError):
            load_baseline(path)


class TestCli:
    def test_repo_is_clean(self, capsys):
        assert lint_main([]) == 0
        out = capsys.readouterr().out
        assert "0 findings" in out

    def test_findings_fail_without_baseline(self, tmp_path, capsys):
        root = _violating_tree(tmp_path)
        args = [
            "--root", str(root),
            "--checkers", "determinism",
            "--baseline", str(tmp_path / "baseline.json"),
        ]
        assert lint_main(args) == 1
        assert "DET-WALLCLOCK" in capsys.readouterr().out

    def test_write_baseline_then_fail_on_new_passes(self, tmp_path, capsys):
        root = _violating_tree(tmp_path)
        args = [
            "--root", str(root),
            "--checkers", "determinism",
            "--baseline", str(tmp_path / "baseline.json"),
        ]
        assert lint_main(args + ["--write-baseline"]) == 0
        assert lint_main(args + ["--fail-on-new"]) == 0
        # ...but a *new* violation still fails.
        write_module(
            tmp_path,
            "repro/core/y.py",
            """
            import time

            def other():
                return time.time()
            """,
        )
        capsys.readouterr()
        assert lint_main(args + ["--fail-on-new"]) == 1
        out = capsys.readouterr().out
        assert "repro/core/y.py" in out
        assert "(baselined)" in out  # the accepted finding is marked

    def test_json_report_written(self, tmp_path, capsys):
        root = _violating_tree(tmp_path)
        report = tmp_path / "report.json"
        code = lint_main(
            [
                "--root", str(root),
                "--checkers", "determinism",
                "--baseline", str(tmp_path / "nope.json"),
                "--json",
                "--report", str(report),
            ]
        )
        assert code == 1
        on_stdout = json.loads(capsys.readouterr().out)
        on_disk = json.loads(report.read_text())
        assert on_stdout == on_disk
        assert on_disk["format"] == "ballista-lint-report"
        assert on_disk["summary"]["new"] == 1
        assert on_disk["findings"][0]["rule"] == "determinism"

    def test_explain_every_rule(self, capsys):
        for rule in sorted(RULES):
            assert lint_main(["--explain", rule]) == 0
            assert rule in capsys.readouterr().out
        assert lint_main(["--explain", "all"]) == 0
        out = capsys.readouterr().out
        for rule in RULES:
            assert rule in out
        # Rationales quote the paper requirements they protect.
        assert "133 syscalls + 94 C" in out
        assert "faithful executable simulation" in out

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in RULES:
            assert rule in out

    def test_dispatch_through_main_cli(self, capsys):
        from repro.cli import main as repro_main

        assert repro_main(["lint", "--list-rules"]) == 0
        assert "registry-contract" in capsys.readouterr().out


class TestReportRendering:
    def test_text_marks_baselined(self, tmp_path):
        result = run_lint(
            Project(root=_violating_tree(tmp_path)),
            checkers=[get_checker("determinism")],
        )
        fp = result.findings[0].fingerprint
        text = render_text(result, {fp})
        assert "(baselined)" in text
        assert "1 finding (0 new, 1 baselined" in text
        doc = report_to_dict(result, {fp})
        assert doc["summary"] == {
            "total": 1,
            "new": 0,
            "baselined": 1,
            "suppressed": 0,
        }
