import json
import re

import pytest

from ehrqa.core import CaseValidationError, EhrqaError
from ehrqa.dataset import (
    CaseFile,
    few_shot_pool,
    load_cases,
    save_cases,
    toy_dataset_path,
)
from tests.conftest import simple_case


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
        assert loaded.case_ids() == ["a", "b"]

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
        first = load_cases(src, split_label="dev")
        out1 = tmp_path / "out1.jsonl"
        save_cases(first, out1)
        second = load_cases(out1, split_label="dev")
        out2 = tmp_path / "out2.jsonl"
        save_cases(second, out2)
        assert out1.read_bytes() == out2.read_bytes()
        assert second.case("a").gold_evidence == frozenset({"2"})

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
        loaded = load_cases(questions, format="key_overlay", key_path=key, split_label="dev")
        case = loaded.case("a")
        assert case.clinician_question == "Why was the stent placed urgently?"
        assert case.gold_evidence == frozenset({"2"})
        assert case.clinician_answer_paragraph == "A stent was placed."

    def test_key_overlay_requires_key_path(self, tmp_path):
        path = tmp_path / "cases.jsonl"
        write_jsonl(path, [canonical_record("a")])
        with pytest.raises(EhrqaError, match="key_path"):
            load_cases(path, format="key_overlay")

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
        with pytest.raises(CaseValidationError, match=rf"^{re.escape(str(path))}:2: malformed '{field}'"):
            load_cases(path)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"note": [{"id": "x", "text": "Chest pain."}]}, "invalid note sentence id 'x'"),
            ({"gold_evidence": ["999"]}, "case b: gold_evidence ids ['999'] not in note"),
            (
                {"note": [{"id": "2", "text": "Stent placed."}, {"id": "1", "text": "Pain."}]},
                "case b: note sentence ids must be strictly increasing",
            ),
        ],
        ids=["note-id", "gold-evidence", "note-order"],
    )
    def test_a_broken_case_names_its_line_once(self, tmp_path, overrides, message):
        path = tmp_path / "cases.jsonl"
        write_jsonl(path, [canonical_record("a"), canonical_record("b", **overrides)])
        with pytest.raises(CaseValidationError) as raised:
            load_cases(path)
        assert str(raised.value) == f"{path}:2: {message}"

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
        return CaseFile(cases=cases, split_label="dev")

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
        before = file.case_ids()
        few_shot_pool(file, exclude_case_id="1")
        assert file.case_ids() == before


def test_toy_dataset_loads_and_has_gold():
    file = load_cases(toy_dataset_path(), split_label="dev")
    assert len(file.cases) == 3
    for case in file.cases:
        assert case.gold_evidence
        assert case.gold_alignments is not None
        assert case.clinician_answer_sentences
