import importlib.util
import json
import re
from pathlib import Path

import pytest

from ehrqa import pipeline
from ehrqa.core import CaseValidationError, EhrqaError
from ehrqa.dataset import (
    CaseFile,
    few_shot_pool,
    load_cases,
    save_cases,
    toy_dataset_path,
)
from tests.conftest import simple_case

BENCH = Path(__file__).resolve().parent.parent / "bench"
# The fields a shared task ships in its answer key, not with the questions.
KEY_FIELDS = ("clinician_question", "answer_sentences", "answer_paragraph",
              "gold_evidence", "gold_alignments")


def write_jsonl(path, records):
    path.write_text(
        "\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8"
    )


def canonical_record(case_id="c1", **overrides):
    record = {
        "case_id": case_id,
        "patient_question": "Why the urgent stent?",
        "clinician_question": "Why was the stent placed urgently?",
        "note": [
            {"id": "1", "text": "Chest pain on arrival."},
            {"id": "2", "text": "Stent placed emergently."},
        ],
        "answer_sentences": [{"answer_id": "1", "text": "A stent was placed."}],
        "answer_paragraph": "A stent was placed.",
        "gold_evidence": ["2"],
        "gold_alignments": [{"answer_id": "1", "evidence_ids": ["2"]}],
    }
    record.update(overrides)
    return record


class TestLoadCases:
    def test_loads_two_valid_cases(self, tmp_path):
        path = tmp_path / "cases.jsonl"
        write_jsonl(path, [canonical_record("a"), canonical_record("b")])
        loaded = load_cases(path)
        assert [c.case_id for c in loaded.cases] == ["a", "b"]

    def test_duplicate_sentence_id_names_case(self, tmp_path):
        path = tmp_path / "cases.jsonl"
        bad = canonical_record(
            "broken",
            note=[{"id": "3", "text": "x"}, {"id": "3", "text": "y"}],
        )
        write_jsonl(path, [bad])
        with pytest.raises(CaseValidationError, match="broken"):
            load_cases(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(EhrqaError, match="not found"):
            load_cases(tmp_path / "nope.jsonl")

    def test_malformed_line_reports_locus(self, tmp_path):
        path = tmp_path / "cases.jsonl"
        path.write_text('{"case_id": "a"\n', encoding="utf-8")
        with pytest.raises(EhrqaError, match=":1"):
            load_cases(path)

    def test_roundtrip_save_load_byte_stable(self, tmp_path):
        src = tmp_path / "src.jsonl"
        write_jsonl(src, [canonical_record("a", gold_evidence=["2"])])
        first = load_cases(src)
        out1 = tmp_path / "out1.jsonl"
        save_cases(first, out1)
        second = load_cases(out1)
        out2 = tmp_path / "out2.jsonl"
        save_cases(second, out2)
        assert out1.read_bytes() == out2.read_bytes()
        assert second.cases[0].case_id == "a"
        assert second.cases[0].gold_evidence == frozenset({"2"})

    def test_failed_save_keeps_previous_file(self, tmp_path):
        # A lone surrogate loads from JSON but cannot be written as UTF-8.
        src = tmp_path / "src.jsonl"
        write_jsonl(src, [canonical_record("a", patient_question="Why \ud800?")])
        out = tmp_path / "out.jsonl"
        out.write_text("previous\n", encoding="utf-8")
        with pytest.raises(UnicodeEncodeError):
            save_cases(load_cases(src), out)
        assert out.read_text(encoding="utf-8") == "previous\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.jsonl", "src.jsonl"]

    def test_key_overlay_merges_gold_fields(self, tmp_path):
        questions = tmp_path / "questions.jsonl"
        key = tmp_path / "key.jsonl"
        bare = canonical_record(
            "a",
            clinician_question=None,
            answer_sentences=[],
            answer_paragraph=None,
            gold_evidence=None,
            gold_alignments=None,
        )
        write_jsonl(questions, [bare])
        write_jsonl(
            key,
            [
                {
                    "case_id": "a",
                    "clinician_question": "Why was the stent placed urgently?",
                    "answer_paragraph": "A stent was placed.",
                    "gold_evidence": ["2"],
                }
            ],
        )
        loaded = load_cases(questions, key_path=key)
        (case,) = loaded.cases
        assert case.case_id == "a"
        assert case.clinician_question == "Why was the stent placed urgently?"
        assert case.gold_evidence == frozenset({"2"})
        assert case.clinician_answer_paragraph == "A stent was placed."

    def test_key_overlay_rejects_a_second_record_for_a_case(self, tmp_path):
        """The second record would silently replace the first one's gold."""
        questions, key = tmp_path / "questions.jsonl", tmp_path / "key.jsonl"
        write_jsonl(questions, [canonical_record(c, gold_evidence=None) for c in "ab"])
        write_jsonl(key, [{"case_id": "a", "gold_evidence": ["1", "2"]},
                          {"case_id": "b", "gold_evidence": ["2"]},
                          {"case_id": "a", "gold_evidence": ["1"]}])
        with pytest.raises(EhrqaError) as raised:
            load_cases(questions, key_path=key)
        assert str(raised.value) == f"{key}:3: case_id 'a' has more than one answer-key record"

    def test_key_overlay_rejects_a_repeated_record_even_when_it_agrees(self, tmp_path):
        questions, key = tmp_path / "questions.jsonl", tmp_path / "key.jsonl"
        write_jsonl(questions, [canonical_record("a", gold_evidence=None)])
        write_jsonl(key, [{"case_id": "a", "gold_evidence": ["2"]}] * 2)
        with pytest.raises(EhrqaError) as raised:
            load_cases(questions, key_path=key)
        assert str(raised.value) == f"{key}:2: case_id 'a' has more than one answer-key record"

    def test_key_overlay_rejects_a_record_for_no_case(self, tmp_path):
        """A mistyped case_id would leave the case it meant without gold."""
        questions, key = tmp_path / "questions.jsonl", tmp_path / "key.jsonl"
        write_jsonl(questions, [canonical_record(c, gold_evidence=None) for c in "ab"])
        write_jsonl(key, [{"case_id": "a", "gold_evidence": ["2"]},
                          {"case_id": "z", "gold_evidence": ["1"]}])
        with pytest.raises(EhrqaError) as raised:
            load_cases(questions, key_path=key)
        assert str(raised.value) == f"{key}:2: case_id 'z' is in no case of {questions}"

    def test_key_overlay_rejects_a_question_with_an_empty_note(self, tmp_path):
        questions, key = tmp_path / "questions.jsonl", tmp_path / "key.jsonl"
        write_jsonl(questions, [canonical_record("a", note=[], gold_evidence=None,
                                                 gold_alignments=None)])
        write_jsonl(key, [{"case_id": "a", "answer_paragraph": "A stent was placed."}])
        with pytest.raises(CaseValidationError) as raised:
            load_cases(questions, key_path=key)
        assert str(raised.value) == f"{questions}:1: case a: note has no sentences"

    def test_a_named_key_file_that_is_missing_is_an_error(self, tmp_path):
        path = tmp_path / "cases.jsonl"
        write_jsonl(path, [canonical_record("a")])
        with pytest.raises(EhrqaError) as raised:
            load_cases(path, key_path=tmp_path / "key.jsonl")
        assert str(raised.value) == f"key file not found: {tmp_path / 'key.jsonl'}"

    def test_a_key_replaces_only_the_non_null_gold_of_the_cases_it_lists(self, tmp_path):
        questions, key = tmp_path / "questions.jsonl", tmp_path / "key.jsonl"
        write_jsonl(questions, [canonical_record("a", gold_evidence=["1"]),
                                canonical_record("b", gold_evidence=["1"])])
        write_jsonl(key, [{"case_id": "b", "gold_evidence": ["2"], "answer_paragraph": None}])
        a, b = load_cases(questions, key_path=key).cases
        assert (a.gold_evidence, b.gold_evidence) == ({"1"}, {"2"})
        assert b.clinician_answer_paragraph == "A stent was placed."

    def test_duplicate_case_ids_rejected(self, tmp_path):
        path = tmp_path / "cases.jsonl"
        write_jsonl(path, [canonical_record("a"), canonical_record("a")])
        with pytest.raises(CaseValidationError, match="duplicate case_ids"):
            load_cases(path)


class TestMalformedRecords:
    """Each error names the file, the record's line and, for a case, the field."""

    def test_a_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "cases.jsonl"
        path.write_bytes(json.dumps(canonical_record("a")).encode("utf-8") + b"\n\xff\n")
        with pytest.raises(EhrqaError, match=rf"^{re.escape(str(path))}: cannot read cases"):
            load_cases(path)

    def test_a_line_that_is_not_an_object(self, tmp_path):
        path = tmp_path / "cases.jsonl"
        write_jsonl(path, [canonical_record("a"), ["b"]])
        with pytest.raises(EhrqaError, match=rf"^{re.escape(str(path))}:2: not a JSON object"):
            load_cases(path)

    @pytest.mark.parametrize(
        "field, value",
        [("note", "1. Chest pain."), ("gold_evidence", 2), ("patient_question", 7)],
    )
    def test_a_field_of_the_wrong_type(self, tmp_path, field, value):
        path = tmp_path / "cases.jsonl"
        write_jsonl(path, [canonical_record("a"), canonical_record("b", **{field: value})])
        with pytest.raises(CaseValidationError, match=rf"^{re.escape(str(path))}:2: case b: malformed '{field}'"):
            load_cases(path)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            # before its gold evidence, now outside the note
            ({"note": []}, "case b: note has no sentences"),
            ({"note": [{"id": "x", "text": "Chest pain."}]}, "case b: invalid note sentence id 'x'"),
            ({"gold_evidence": ["999"]}, "case b: gold_evidence ids ['999'] not in note"),
            (
                {"note": [{"id": "2", "text": "Stent placed."}, {"id": "1", "text": "Pain."}]},
                "case b: note sentence ids must be strictly increasing",
            ),
        ],
        ids=["empty-note", "note-id", "gold-evidence", "note-order"],
    )
    def test_a_broken_case_names_its_line_once(self, tmp_path, overrides, message):
        path = tmp_path / "cases.jsonl"
        write_jsonl(path, [canonical_record("a"), canonical_record("b", **overrides)])
        with pytest.raises(CaseValidationError) as raised:
            load_cases(path)
        assert str(raised.value) == f"{path}:2: {message}"

    @pytest.mark.parametrize("note", [[{"id": "1", "text": "Chest pain."}], "bad"],
                             ids=["valid-note", "malformed-note"])
    def test_an_empty_case_id_is_the_error_whatever_else_is_wrong(self, tmp_path, note):
        path = tmp_path / "cases.jsonl"
        write_jsonl(path, [{"case_id": "", "patient_question": "q", "note": note}])
        with pytest.raises(CaseValidationError) as raised:
            load_cases(path)
        assert str(raised.value) == f"{path}:1: case_id must be non-empty"

    def test_a_repeated_case_id_names_the_file_once(self, tmp_path):
        path = tmp_path / "cases.jsonl"
        write_jsonl(path, [canonical_record("1"), canonical_record("1")])
        with pytest.raises(CaseValidationError) as raised:
            load_cases(path)
        assert str(raised.value) == f"{path}: duplicate case_ids: ['1']"


class TestFewShotPool:
    def make_file(self, n=20):
        cases = tuple(
            simple_case(case_id=str(i), n_sentences=3, gold_evidence={"1"}) for i in range(1, n + 1)
        )
        return CaseFile(cases=cases)

    def test_leave_one_out_of_twenty(self):
        pool = few_shot_pool(self.make_file(20), exclude_case_id="7")
        assert len(pool) == 19
        assert "7" not in [c.case_id for c in pool]

    def test_absent_exclusion_returns_full_pool(self):
        pool = few_shot_pool(self.make_file(5), exclude_case_id="zzz")
        assert len(pool) == 5

    def test_order_is_deterministic_by_case_id(self):
        pool = few_shot_pool(self.make_file(12))
        assert [c.case_id for c in pool] == [str(i) for i in range(1, 13)]

    def test_does_not_mutate_file(self):
        file = self.make_file(5)
        before = [c.case_id for c in file.cases]
        few_shot_pool(file, exclude_case_id="1")
        assert [c.case_id for c in file.cases] == before


def test_toy_dataset_loads_and_has_gold():
    file = load_cases(toy_dataset_path())
    assert len(file.cases) == 3
    for case in file.cases:
        assert case.gold_evidence
        assert case.gold_alignments is not None
        assert case.clinician_answer_sentences


def test_a_config_that_names_a_key_reads_it(tmp_path):
    """Cases split into a questions-only file and an answer key load, and
    run, as the one canonical file does, with no other field set."""
    spec = importlib.util.spec_from_file_location("bench_casegen", BENCH / "casegen.py")
    casegen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(casegen)
    full = casegen.write_cases(6, 7, tmp_path / "cases.jsonl")
    records = [json.loads(line) for line in full.read_text(encoding="utf-8").splitlines()]
    questions, key = tmp_path / "questions.jsonl", tmp_path / "key.jsonl"
    write_jsonl(questions, [{f: v for f, v in r.items() if f not in KEY_FIELDS} for r in records])
    write_jsonl(key, [{f: r[f] for f in ("case_id", *KEY_FIELDS)} for r in records])

    def config(cases: dict, out: str) -> dict:
        return pipeline.resolve_config({
            "dataset": cases, "subtasks": ["st2"], "provider_mode": "mock",
            "out_dir": str(tmp_path / out), "workers": 1,
        })

    split = config({"cases": str(questions), "key": str(key)}, "split")
    whole = config({"cases": str(full)}, "whole")
    loaded, pool = pipeline.load_dataset(split)
    expected = load_cases(full).cases
    assert [c.gold_evidence for c in loaded.cases] == [c.gold_evidence for c in expected]
    assert loaded.cases == pool.cases == expected
    pipeline.run_pipeline(split)
    pipeline.run_pipeline(whole)
    assert (tmp_path / "split" / "st2.jsonl").read_bytes() == (
        tmp_path / "whole" / "st2.jsonl"
    ).read_bytes()
