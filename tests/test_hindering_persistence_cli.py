"""Tests for Hindering estimation, result persistence, and the CLI."""

import json

import pytest

from repro.analysis.hindering import (
    estimate_hindering_rates,
    render_hindering,
)
from repro.core.campaign import Campaign, CampaignConfig
from repro.core.crash_scale import CaseCode
from repro.core.results import ResultSet
from repro.core.results_io import (
    ResultFormatError,
    load_results,
    results_from_dict,
    results_to_dict,
    save_results,
)


# ----------------------------------------------------------------------
# Hindering
# ----------------------------------------------------------------------


class TestHindering:
    def test_9x_misreports_missing_file_errors(self, session_results):
        estimates = estimate_hindering_rates(session_results)
        key = ("win32", "DeleteFileA")
        for old in ("win95", "win98", "win98se"):
            assert estimates[old].per_mut[key] > 0, old
        assert estimates["winnt"].per_mut[key] == 0.0

    def test_reference_variant_scores_zero(self, session_results):
        estimates = estimate_hindering_rates(session_results)
        assert estimates["win2000"].per_mut == {}

    def test_nt_matches_2000(self, session_results):
        estimates = estimate_hindering_rates(session_results)
        assert estimates["winnt"].overall_rate() == pytest.approx(0.0, abs=0.002)

    def test_9x_overall_above_nt(self, session_results):
        estimates = estimate_hindering_rates(session_results)
        for old in ("win95", "win98", "win98se"):
            assert (
                estimates[old].overall_rate()
                > estimates["winnt"].overall_rate()
            )

    def test_examples_show_the_wrong_code(self, session_results):
        from repro.win32 import errors as W

        estimates = estimate_hindering_rates(session_results)
        delete_examples = [
            e
            for e in estimates["win98"].examples
            if e[0] == ("win32", "DeleteFileA")
        ]
        assert delete_examples
        _key, _index, subject_code, reference_code = delete_examples[0]
        assert subject_code == W.ERROR_PATH_NOT_FOUND
        assert reference_code == W.ERROR_FILE_NOT_FOUND

    def test_unknown_reference_rejected(self, session_results):
        with pytest.raises(ValueError, match="reference"):
            estimate_hindering_rates(session_results, reference="beos")

    def test_render(self, session_results):
        text = render_hindering(session_results)
        assert "Hindering failures" in text
        assert "win98" in text
        assert "common-mode" in text

    def test_alternate_reference(self, session_results):
        estimates = estimate_hindering_rates(session_results, reference="winnt")
        # With NT as the oracle, 2000 agrees perfectly.
        assert estimates["win2000"].overall_rate() == pytest.approx(0.0, abs=1e-9)


# ----------------------------------------------------------------------
# Persistence
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_results(winnt, win98):
    return Campaign(
        [winnt, win98],
        config=CampaignConfig(cap=40),
        muts=["GetThreadContext", "strcpy", "DeleteFileA"],
    ).run()


class TestPersistence:
    def test_roundtrip_preserves_everything(self, small_results, tmp_path):
        path = tmp_path / "results.json"
        save_results(small_results, path)
        loaded = load_results(path)
        assert len(loaded) == len(small_results)
        for row in small_results:
            mirrored = loaded.get(row.variant, row.mut_name, api=row.api)
            assert bytes(mirrored.codes) == bytes(row.codes)
            assert bytes(mirrored.exceptional) == bytes(row.exceptional)
            assert mirrored.error_codes == row.error_codes
            assert mirrored.catastrophic == row.catastrophic
            assert mirrored.interference_crash == row.interference_crash
            assert mirrored.details == row.details
            assert mirrored.failing_cases == row.failing_cases
            assert mirrored.planned_cases == row.planned_cases

    def test_rates_survive_roundtrip(self, small_results, tmp_path):
        path = tmp_path / "results.json"
        save_results(small_results, path)
        loaded = load_results(path)
        assert loaded.uniform_rate("winnt", CaseCode.ABORT) == pytest.approx(
            small_results.uniform_rate("winnt", CaseCode.ABORT)
        )

    def test_dict_roundtrip(self, small_results):
        document = results_to_dict(small_results)
        rebuilt = results_from_dict(document)
        assert rebuilt.variants() == small_results.variants()

    def test_rejects_foreign_documents(self):
        with pytest.raises(ResultFormatError):
            results_from_dict({"format": "something-else"})
        with pytest.raises(ResultFormatError):
            results_from_dict({"format": "ballista-results", "version": 99})

    def test_rejects_malformed_rows(self):
        with pytest.raises(ResultFormatError):
            results_from_dict(
                {
                    "format": "ballista-results",
                    "version": 1,
                    "results": [{"variant": "x"}],
                }
            )

    @staticmethod
    def _one_row_document(**fields) -> dict:
        """A results document holding one ten-case row, with ``fields``
        overriding the row's well-formed defaults."""
        row = {
            "variant": "winnt",
            "mut": "CloseHandle",
            "api": "win32",
            "group": "process",
            "codes": "01" * 10,
            "exceptional": "00" * 10,
            "error_codes": [6] * 10,
        }
        row.update(fields)
        return {"format": "ballista-results", "version": 3, "results": [row]}

    def test_well_formed_row_loads_all_its_cases(self):
        row = results_from_dict(self._one_row_document()).get(
            "winnt", "CloseHandle"
        )
        assert len(row.codes) == 10
        assert row.error_codes == [6] * 10

    def test_rejects_short_error_codes(self):
        """Fewer error codes than cases is a format error, not a bare
        IndexError escaping every caller that sets unreadable shards
        aside on ResultFormatError."""
        with pytest.raises(ResultFormatError, match="error codes"):
            results_from_dict(self._one_row_document(error_codes=[6] * 9))

    def test_rejects_short_exceptional_flags(self):
        """Ten codes with nine exceptional flags must not load as nine
        cases."""
        with pytest.raises(ResultFormatError, match="exceptional"):
            results_from_dict(self._one_row_document(exceptional="00" * 9))

    def test_rejects_long_per_case_arrays(self):
        with pytest.raises(ResultFormatError):
            results_from_dict(self._one_row_document(exceptional="00" * 11))
        with pytest.raises(ResultFormatError):
            results_from_dict(self._one_row_document(error_codes=[6] * 11))

    def test_rejects_unknown_case_code(self):
        with pytest.raises(ResultFormatError, match="case code"):
            results_from_dict(self._one_row_document(codes="01" * 9 + "08"))

    def test_rejects_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ResultFormatError):
            load_results(path)

    def test_empty_resultset_roundtrip(self, tmp_path):
        path = tmp_path / "empty.json"
        save_results(ResultSet(), path)
        assert len(load_results(path)) == 0

    def test_document_is_plain_json(self, small_results, tmp_path):
        path = tmp_path / "results.json"
        save_results(small_results, path)
        document = json.loads(path.read_text())
        assert document["format"] == "ballista-results"


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestCli:
    def run_cli(self, capsys, *argv):
        from repro.cli import main

        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out

    def test_prints_requested_tables(self, capsys):
        code, out = self.run_cli(
            capsys,
            "--cap", "20",
            "--variants", "win98,winnt",
            "--tables", "table1,table3",
            "--quiet",
        )
        assert code == 0
        assert "Table 1" in out
        assert "Table 3" in out
        assert "Figure 2" not in out

    def test_save_and_load(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        self.run_cli(
            capsys,
            "--cap", "20",
            "--variants", "win98,winnt",
            "--tables", "table1",
            "--save", str(path),
            "--quiet",
        )
        assert path.exists()
        code, out = self.run_cli(
            capsys,
            "--load", str(path),
            "--variants", "win98,winnt",
            "--tables", "table1",
            "--quiet",
        )
        assert code == 0
        assert "Windows 98" in out

    def test_unknown_table_rejected(self, capsys):
        with pytest.raises(SystemExit):
            self.run_cli(capsys, "--tables", "tableX", "--quiet")

    def test_unknown_variant_rejected(self, capsys):
        with pytest.raises(SystemExit):
            self.run_cli(capsys, "--variants", "beos", "--quiet")

    def test_figure2_requires_desktop_variants(self, capsys):
        with pytest.raises(SystemExit):
            self.run_cli(
                capsys,
                "--variants", "linux",
                "--tables", "figure2",
                "--quiet",
            )

    @staticmethod
    def assert_non_voting_tables(out: str) -> None:
        assert "Table 1." in out and "Table 3." in out
        assert "Figure 2." not in out
        assert "Hindering failures" not in out

    def test_one_variant_run_defaults_to_non_voting_tables(self, capsys):
        """The voting tables need two desktop Windows variants, so a
        run without them renders the other default tables."""
        code, out = self.run_cli(
            capsys, "--variants", "winnt", "--cap", "5", "--quiet"
        )
        assert code == 0
        self.assert_non_voting_tables(out)

    def test_resume_defaults_tables_to_the_checkpoint_variants(
        self, capsys, tmp_path
    ):
        """A resumed run adopts the checkpoint's variants, and its
        default tables follow them, not ``--variants``."""
        path = tmp_path / "run.ckpt"
        self.run_cli(
            capsys,
            "--variants", "winnt",
            "--cap", "5",
            "--tables", "table1",
            "--checkpoint", str(path),
            "--quiet",
        )
        code, out = self.run_cli(
            capsys, "--resume", str(path), "--cap", "5", "--quiet"
        )
        assert code == 0
        self.assert_non_voting_tables(out)

    def test_load_defaults_tables_to_the_saved_variants(
        self, capsys, tmp_path
    ):
        path = tmp_path / "run.json"
        self.run_cli(
            capsys,
            "--variants", "winnt",
            "--cap", "5",
            "--tables", "table1",
            "--save", str(path),
            "--quiet",
        )
        code, out = self.run_cli(capsys, "--load", str(path), "--quiet")
        assert code == 0
        self.assert_non_voting_tables(out)


class TestCliExtras:
    def test_csv_flag_writes_files(self, capsys, tmp_path):
        from repro.cli import main

        code = main(
            [
                "--cap", "20",
                "--variants", "win98,winnt",
                "--tables", "table1",
                "--csv", str(tmp_path / "csv"),
                "--quiet",
            ]
        )
        capsys.readouterr()
        assert code == 0
        assert (tmp_path / "csv" / "table1.csv").exists()
        assert (tmp_path / "csv" / "table2.csv").exists()

    def test_default_cap_env(self, monkeypatch):
        from repro.core.campaign import default_cap

        monkeypatch.setenv("BALLISTA_CAP", "77")
        assert default_cap() == 77
        monkeypatch.delenv("BALLISTA_CAP")
        assert default_cap() == 300

    @pytest.mark.parametrize("value", ["5k", "", "3.5", "lots"])
    def test_malformed_cap_env_names_the_variable(self, monkeypatch, value):
        from repro.core.campaign import default_cap

        monkeypatch.setenv("BALLISTA_CAP", value)
        with pytest.raises(ValueError, match="BALLISTA_CAP"):
            default_cap()

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_non_positive_cap_env_rejected(self, monkeypatch, value):
        from repro.core.campaign import default_cap

        monkeypatch.setenv("BALLISTA_CAP", value)
        with pytest.raises(ValueError, match="positive"):
            default_cap()

    def test_cli_reports_malformed_cap_env_cleanly(self, monkeypatch, capsys):
        """Regression: ``BALLISTA_CAP=5k`` used to escape the CLI as a
        raw ValueError traceback; it must exit with a clean usage error
        naming the env var."""
        from repro.cli import main

        monkeypatch.setenv("BALLISTA_CAP", "5k")
        with pytest.raises(SystemExit) as excinfo:
            main(["--variants", "winnt", "--tables", "table1", "--quiet"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "BALLISTA_CAP" in err
        assert "Traceback" not in err

    def test_cli_explicit_cap_bypasses_bad_env(self, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv("BALLISTA_CAP", "5k")
        code = main(
            ["--cap", "20", "--variants", "winnt", "--tables", "table1",
             "--quiet", "--jobs", "1"]
        )
        assert code == 0
        assert "Table 1" in capsys.readouterr().out


class TestConcurrentClients:
    def test_three_clients_share_one_server(self, winnt, win98, win95):
        import threading

        from repro.core.mut import MuTRegistry, default_registry
        from repro.service import BallistaClient, BallistaServer

        registry = default_registry()
        subset = MuTRegistry()
        for mut in registry.all():
            if mut.name in ("CloseHandle", "isalpha", "strcpy"):
                subset.register(mut)
        server = BallistaServer(
            [winnt, win98, win95], registry=subset, cap=30
        )
        host, port = server.listen()

        def run(personality):
            client = BallistaClient.connect(personality, host, port)
            try:
                client.run()
            finally:
                client.close()

        threads = [
            threading.Thread(target=run, args=(p,))
            for p in (winnt, win98, win95)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        server.join({"winnt", "win98", "win95"})
        server.shutdown()
        assert len(server.results.variants()) == 3
