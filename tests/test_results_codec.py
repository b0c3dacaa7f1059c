"""The result-row codec and the pool worker's generator memo.

Three mechanisms keep a sharded run's parent and workers from paying
for work the serial path never does:

* the row decoder rebuilds each row's fields directly instead of
  replaying every case through :meth:`MuTResult.record`;
* the encoder caches each row's JSON text behind the row's mutation
  stamp and joins the cached texts into every saved document;
* a pool worker keeps one case generator across the specs it runs.

The per-case replay decoder is kept below, verbatim, as the decoder's
oracle; the encoder's reference is ``json.dumps`` of the document dict
built with every row cache dropped.
"""

from __future__ import annotations

import copy
import gc
import json
import sys
import types
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.campaign import Campaign, CampaignConfig, plan_identities
from repro.core.crash_scale import CaseCode
from repro.core.generator import CaseGenerator
from repro.core.parallel import (
    _GeneratorMemo,
    _variant_worker,
    config_spec_fields,
    shard_bounds,
)
from repro.core.results import ResultSet
from repro.core.results_io import (
    SUPPORTED_VERSIONS,
    CampaignCheckpoint,
    ResultFormatError,
    checkpoint_from_dict,
    checkpoint_to_dict,
    results_from_dict,
    results_to_dict,
    save_checkpoint,
    save_results,
    split_checkpoint,
)
from repro.core.types import ParamType, default_types
from repro.posix.linux import LINUX
from repro.win32.variants import WIN98, WINNT

SUBSET = ["GetThreadContext", "CloseHandle", "strcpy", "isalpha", "fclose"]
CAP = 25


# ----------------------------------------------------------------------
# Oracle: the per-case replay decoder, verbatim
# ----------------------------------------------------------------------


def replay_results_from_dict(document: dict) -> ResultSet:
    """Rebuild a ResultSet from :func:`results_to_dict` output."""
    if document.get("format") != "ballista-results":
        raise ResultFormatError("not a ballista-results document")
    if document.get("version") not in SUPPORTED_VERSIONS:
        raise ResultFormatError(
            f"unsupported version {document.get('version')!r}"
        )
    results = ResultSet()
    for row in document.get("results", []):
        try:
            result = results.new_result(
                row["variant"], row["mut"], row["api"], row["group"]
            )
            codes = bytes.fromhex(row["codes"])
            exceptional = bytes.fromhex(row["exceptional"])
            error_codes = row.get("error_codes") or [0] * len(codes)
            # Detail texts and value names repeat across cases, rows and
            # documents; interning keeps one copy of each in a process
            # that holds many loaded result sets (a service, its clients).
            details = {
                int(k): sys.intern(v) for k, v in row.get("details", {}).items()
            }
            failing = {
                int(k): tuple(map(sys.intern, v))
                for k, v in row.get("failing_cases", {}).items()
            }
            for index, (code, exc) in enumerate(zip(codes, exceptional)):
                result.record(
                    index,
                    CaseCode(code),
                    bool(exc),
                    detail=details.get(index, ""),
                    value_names=failing.get(index),
                    error_code=error_codes[index],
                )
            result.interference_crash = bool(row.get("interference"))
            result.planned_cases = int(row.get("planned", len(codes)))
            result.capped = bool(row.get("capped"))
            if row.get("sequence") is not None:
                result.sequence = dict(row["sequence"])
        except (KeyError, ValueError, TypeError) as exc:
            raise ResultFormatError(f"malformed result row: {exc}") from exc
    for variant in document.get("partial", []):
        results.mark_partial(variant)
    for record in document.get("quarantined", []):
        try:
            results.quarantine(
                record["variant"],
                record["api"],
                record["mut"],
                str(record.get("reason", "")),
            )
        except (KeyError, TypeError) as exc:
            raise ResultFormatError(
                f"malformed quarantine record: {exc}"
            ) from exc
    return results


# ----------------------------------------------------------------------
# Decoder: differential against the replay oracle
# ----------------------------------------------------------------------

_ROW_FIELDS = (
    "variant",
    "mut_name",
    "api",
    "group",
    "codes",
    "exceptional",
    "error_codes",
    "details",
    "failing_cases",
    "catastrophic",
    "interference_crash",
    "planned_cases",
    "capped",
    "sequence",
)


def row_state(row) -> dict:
    """Every field of a row; dicts as item lists, so order counts."""
    state = {name: getattr(row, name) for name in _ROW_FIELDS}
    state["details"] = list(row.details.items())
    state["failing_cases"] = list(row.failing_cases.items())
    state["codes"] = bytes(row.codes)
    state["exceptional"] = bytes(row.exceptional)
    return state


def set_state(results: ResultSet) -> tuple:
    return (
        [row_state(row) for row in results],
        sorted(results.partial_variants()),
        results.quarantined_records(),
    )


_TEXT = st.text(alphabet="abcXYZ_0 ", max_size=4)


@st.composite
def rows(draw, equal_lengths: bool = True) -> dict:
    count = draw(st.integers(0, 10))
    codes = draw(
        st.lists(st.sampled_from(list(CaseCode)), min_size=count, max_size=count)
    )
    if codes and draw(st.integers(0, 9)) == 0:
        # Now and then a byte that is no case code (an error both ways).
        codes[draw(st.integers(0, count - 1))] = draw(
            st.integers(len(CaseCode), 255)
        )
    flags = draw(st.lists(st.integers(0, 255), min_size=count, max_size=count))
    keys = st.integers(-2, count + 2).map(str)
    row = {
        # A few names only, so duplicate rows (an error on both sides)
        # come up too.
        "variant": draw(st.sampled_from(["winnt", "linux"])),
        "mut": draw(st.sampled_from(["m0", "m1", "m2", "m3", "m4", "m5"])),
        "api": draw(st.sampled_from(["win32", "libc"])),
        "group": "g",
        "codes": bytes(codes).hex(),
        "exceptional": bytes(flags).hex(),
        "details": draw(st.dictionaries(keys, _TEXT, max_size=4)),
        "failing_cases": draw(
            st.dictionaries(keys, st.lists(_TEXT, max_size=3), max_size=4)
        ),
    }
    error_codes = draw(
        st.one_of(
            st.none(),
            st.just([]),
            st.lists(
                st.integers(-(2**33), 2**33), min_size=count, max_size=count
            ),
        )
    )
    if error_codes is not None:
        row["error_codes"] = error_codes
    for key, strategy in (
        ("interference", st.booleans()),
        ("planned", st.integers(0, 20)),
        ("capped", st.booleans()),
        (
            "sequence",
            st.one_of(
                st.none(),
                st.fixed_dictionaries(
                    {"steps": st.lists(_TEXT, max_size=3), "fault": _TEXT}
                ),
            ),
        ),
    ):
        if draw(st.booleans()):
            row[key] = draw(strategy)
    if not equal_lengths:
        other = st.integers(0, count + 2).filter(lambda size: size != count)
        if draw(st.booleans()):
            row["exceptional"] = "01" * draw(other)
        else:
            # An empty list means "no error codes recorded", not zero.
            row["error_codes"] = [0] * draw(
                other.filter(lambda size: size > 0)
            )
    return row


@st.composite
def documents(draw) -> dict:
    document = {
        "format": "ballista-results",
        "version": draw(st.sampled_from(sorted(SUPPORTED_VERSIONS))),
        "results": draw(st.lists(rows(), max_size=5)),
    }
    if draw(st.booleans()):
        document["partial"] = draw(
            st.lists(st.sampled_from(["winnt", "linux", "win98"]), max_size=2)
        )
    if draw(st.booleans()):
        document["quarantined"] = draw(
            st.lists(
                st.fixed_dictionaries(
                    {
                        "variant": st.sampled_from(["winnt", "linux"]),
                        "api": st.sampled_from(["win32", "libc"]),
                        "mut": st.sampled_from(["q0", "q1"]),
                        "reason": _TEXT,
                    }
                ),
                max_size=3,
            )
        )
    return document


def decode(decoder, document):
    try:
        return decoder(document)
    except ResultFormatError:
        return ResultFormatError


@settings(max_examples=400, deadline=None)
@given(document=documents())
def test_decoder_matches_the_per_case_replay(document):
    expected = decode(replay_results_from_dict, document)
    actual = decode(results_from_dict, document)
    if expected is ResultFormatError or actual is ResultFormatError:
        assert actual is expected
        return
    assert set_state(actual) == set_state(expected)
    assert json.dumps(results_to_dict(actual)) == json.dumps(
        results_to_dict(expected)
    )


@settings(max_examples=150, deadline=None)
@given(row=rows(equal_lengths=False))
def test_decoder_rejects_per_case_arrays_of_another_length(row):
    """The replay loop raised a bare IndexError on short error codes and
    silently dropped cases on short exceptional flags; both, and longer
    arrays, are format errors now."""
    with pytest.raises(ResultFormatError):
        results_from_dict(
            {"format": "ballista-results", "version": 3, "results": [row]}
        )


def test_decoded_campaign_reserialises_byte_identically():
    results = Campaign(
        [WIN98, LINUX], config=CampaignConfig(cap=CAP), muts=SUBSET
    ).run()
    document = json.loads(json.dumps(results_to_dict(results)))
    loaded = results_from_dict(document)
    assert set_state(loaded) == set_state(replay_results_from_dict(document))
    assert json.dumps(results_to_dict(loaded)) == json.dumps(document)
    assert any(row.catastrophic for row in loaded)


# ----------------------------------------------------------------------
# Encoder: saved bytes equal json.dumps of the document
# ----------------------------------------------------------------------


def fresh_dumps(document_of, obj) -> str:
    """``json.dumps(document_of(obj))``, computed on a deep copy with
    every row cache dropped: a stale cache cannot hide in the reference
    too, and the savers' caches on ``obj`` stay warm."""
    obj = copy.deepcopy(obj)
    for row in obj if isinstance(obj, ResultSet) else obj.results:
        vars(row).pop("_serialized", None)
    return json.dumps(document_of(obj), separators=(",", ":"))


def assert_saves_exactly(checkpoint: CampaignCheckpoint, tmp_path) -> None:
    """Both savers, twice each (cold cache, then warm), write exactly
    the reference bytes."""
    for attempt in range(2):
        path = tmp_path / f"checkpoint{attempt}.json"
        save_checkpoint(checkpoint, path)
        assert path.read_text() == fresh_dumps(checkpoint_to_dict, checkpoint)
        path = tmp_path / f"results{attempt}.json"
        save_results(checkpoint.results, path)
        assert path.read_text() == fresh_dumps(
            results_to_dict, checkpoint.results
        )


@pytest.fixture(scope="module")
def serial_checkpoint() -> CampaignCheckpoint:
    campaign = Campaign(
        [WIN98, WINNT], config=CampaignConfig(cap=CAP), muts=SUBSET
    )
    campaign.run()
    return campaign.last_checkpoint


class TestEncoder:
    def test_serial_checkpoint(self, serial_checkpoint, tmp_path):
        assert serial_checkpoint.machine_wear
        assert_saves_exactly(serial_checkpoint, tmp_path)

    def test_shard_checkpoint_with_base_wear(self, serial_checkpoint, tmp_path):
        plan = plan_identities(WINNT, CampaignConfig(cap=CAP), SUBSET)
        piece = split_checkpoint(
            serial_checkpoint, "winnt", plan=plan, span=(2, len(plan))
        )
        piece.shard = {
            "variant": "winnt",
            "index": 1,
            "start": 2,
            "stop": len(plan),
            "resumed": False,
            "base_wear": dict(serial_checkpoint.machine_wear["win98"]),
        }
        assert len(piece.results) and piece.shard["base_wear"]
        assert_saves_exactly(piece, tmp_path)

    def test_sequence_checkpoint(self, tmp_path):
        campaign = Campaign(
            [WIN98],
            config=CampaignConfig(
                cap=40,
                mode="sequence",
                sequences=6,
                sequence_length=4,
                sequence_seed=7,
            ),
        )
        campaign.run()
        checkpoint = campaign.last_checkpoint
        assert checkpoint.plan is not None
        assert all(row.sequence is not None for row in checkpoint.results)
        assert_saves_exactly(checkpoint, tmp_path)

    def test_supervision_partial_and_quarantine(
        self, serial_checkpoint, tmp_path
    ):
        results = ResultSet()
        results.merge(serial_checkpoint.results)
        results.mark_partial("winnt")
        results.quarantine("win98", "libc", "strcpy", "killed its worker")
        checkpoint = CampaignCheckpoint(
            results,
            cursors=dict(serial_checkpoint.cursors),
            machine_wear=dict(serial_checkpoint.machine_wear),
            cap=CAP,
            variants=["win98", "winnt"],
            supervision=[
                {"event": "restart", "variant": "winnt", "attempt": 1},
                {"event": "quarantine", "variant": "win98", "why": "ü"},
            ],
        )
        assert_saves_exactly(checkpoint, tmp_path)

    def test_empty_documents(self, tmp_path):
        assert_saves_exactly(CampaignCheckpoint(ResultSet()), tmp_path)

    def test_row_that_changes_between_saves(self, tmp_path):
        """The cached text is reused only while the row's stamp holds:
        a row recorded further, or flagged, after a save is re-encoded
        by the next one."""
        results = ResultSet()
        row = results.new_result("winnt", "CloseHandle", "win32", "process")
        row.record(0, CaseCode.PASS_ERROR, True, error_code=6)
        checkpoint = CampaignCheckpoint(results, cap=CAP, variants=["winnt"])
        path = tmp_path / "checkpoint.json"
        for change in (
            lambda: row.record(1, CaseCode.ABORT, False, "boom", ("H",)),
            lambda: setattr(row, "capped", True),
            lambda: setattr(row, "planned_cases", 9),
        ):
            save_checkpoint(checkpoint, path)
            save_results(results, tmp_path / "results.json")
            change()
            save_checkpoint(checkpoint, path)
            assert path.read_text() == fresh_dumps(
                checkpoint_to_dict, checkpoint
            )
            save_results(results, tmp_path / "results.json")
            assert (tmp_path / "results.json").read_text() == fresh_dumps(
                results_to_dict, results
            )


# ----------------------------------------------------------------------
# The pool worker's generator memo
# ----------------------------------------------------------------------


def slice_spec(personality, index, shards, cap=CAP, muts=SUBSET, base_wear=None):
    """A worker spec for slice ``index`` of ``shards``, built the way
    the parallel runner builds one (no shard file: nothing on disk)."""
    config = CampaignConfig(cap=cap)
    plan = plan_identities(personality, config, muts)
    start, stop = shard_bounds(len(plan), shards)[index]
    return {
        "variant": personality.key,
        "tag": f"{personality.key}#{index}",
        "muts": muts,
        "config": config_spec_fields(config),
        "shard_path": None,
        "checkpoint_every": 25,
        "resume": None,
        "quarantine": {},
        "heartbeat_interval": 1.0,
        "events": False,
        "shard": {
            "variant": personality.key,
            "index": index,
            "start": start,
            "stop": stop,
            "resumed": False,
            "base_wear": base_wear,
        },
    }


def run_in_process(spec, generators: _GeneratorMemo) -> dict:
    messages: list = []
    _variant_worker(spec, types.SimpleNamespace(put=messages.append), generators)
    kind, _tag, payload = messages[-1]
    assert kind == "done", payload
    return payload


def run_chain(personality, shards, generators, **kwargs) -> list[dict]:
    """Every slice of one variant, each from its predecessor's end."""
    documents = []
    base = None
    for index in range(shards):
        spec = slice_spec(personality, index, shards, base_wear=base, **kwargs)
        document = run_in_process(spec, generators)
        base = checkpoint_from_dict(document).machine_wear.get(personality.key)
        documents.append(document)
    return documents


class TestWorkerGeneratorMemo:
    @pytest.fixture
    def built(self, monkeypatch):
        """``(generator id, MuT name)`` of every plan built."""
        log: list[tuple[int, str]] = []
        generate = CaseGenerator._generate

        def spy(self, mut):
            log.append((id(self), mut.name))
            return generate(self, mut)

        monkeypatch.setattr(CaseGenerator, "_generate", spy)
        return log

    def test_slices_of_one_run_build_each_plan_once(self, built):
        generators = _GeneratorMemo()
        documents = run_chain(WIN98, 2, generators) + run_chain(
            WINNT, 2, generators
        )
        names = [name for _, name in built]
        assert sorted(names) == sorted(set(names)), "a plan was rebuilt"
        assert set(names) == set(SUBSET)
        assert len({generator for generator, _ in built}) == 1
        # The slices still classify as a serial run does.
        serial = Campaign(
            [WIN98, WINNT], config=CampaignConfig(cap=CAP), muts=SUBSET
        ).run()
        merged = ResultSet()
        for document in documents:
            merged.merge(checkpoint_from_dict(document).results)
        assert json.dumps(results_to_dict(merged)) == json.dumps(
            results_to_dict(serial)
        )

    @pytest.mark.parametrize(
        "change",
        [
            pytest.param(dict(cap=CAP + 1), id="cap"),
            pytest.param(dict(muts=SUBSET[:3]), id="mut-filter"),
            pytest.param(None, id="pool-change"),
        ],
    )
    def test_another_key_gets_a_fresh_generator(self, built, change):
        generators = _GeneratorMemo()
        run_in_process(slice_spec(WINNT, 0, 1), generators)
        first = weakref.ref(generators.get(CAP, SUBSET))
        if change is None:
            ParamType("memo-probe").add("PROBE", lambda ctx: None)
            change = {}
        before = len(built)
        run_in_process(slice_spec(WINNT, 0, 1, **change), generators)
        fresh = generators.get(change.get("cap", CAP), change.get("muts", SUBSET))
        assert fresh is not first()
        assert {generator for generator, _ in built[before:]} == {id(fresh)}
        gc.collect()
        assert first() is None, "the replaced generator is still held"


def test_campaign_refuses_a_generator_for_another_cap():
    with pytest.raises(ValueError, match="cap"):
        Campaign(
            [WINNT],
            config=CampaignConfig(cap=CAP),
            generator=CaseGenerator(default_types(), cap=CAP + 1),
        )
