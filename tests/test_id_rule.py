"""One ID rule: ``core.as_id`` alone decides what a sentence or answer ID
is. The case-file and prediction-file readers raise on a value it rejects,
naming the file, the line and the field; the model-output parsers drop the
value. So ``2`` and ``"2"`` are one ID everywhere, and ``2.0``, ``true`` and
``[2]`` are an ID nowhere."""

import ast
import inspect
import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ehrqa import cli, dataset, parsing
from ehrqa.cli import main
from ehrqa.core import Case, CaseValidationError, NoteSentence, ParseError, as_id
from ehrqa.dataset import as_alignments, as_ids, load_cases, toy_dataset_path
from ehrqa.parsing import parse_alignment, parse_id_array

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=6,
)
NOT_IDS = [2.0, True, [2]]


def test_as_id_takes_strings_and_integers_only():
    assert [as_id(v) for v in ("2", "x", "", 2, 0, -3)] == ["2", "x", "", "2", "0", "-3"]
    assert [as_id(v) for v in (2.0, True, False, None, [2], {"id": 2})] == [None] * 6


def _parsed_ids(text):
    try:
        return parse_id_array(text)
    except ParseError:
        return None


@given(JSON_VALUES)
def test_the_id_parser_accepts_a_value_exactly_when_the_file_reader_does(value):
    try:
        read = as_ids([value])
    except TypeError:
        read = None
    parsed = _parsed_ids(json.dumps([value]))
    if read is not None:
        assert parsed == read == {as_id(value)}
    elif isinstance(value, list):
        # The outer array is no ID array, so the scan goes on to the arrays
        # inside the value, as it would on the value alone.
        assert parsed == _parsed_ids(json.dumps(value))
    else:
        assert parsed is None


@given(JSON_VALUES)
def test_the_alignment_parser_keeps_a_link_exactly_when_the_st4_reader_does(value):
    element = {"answer_id": value, "evidence_id": [value]}
    try:
        read = [(aid, set(ev)) for aid, ev in as_alignments([element], "evidence_id")]
    except TypeError:
        read = []
    assert parse_alignment(json.dumps([element])) == read


def _source_of(obj) -> ast.AST:
    return ast.parse(inspect.getsource(obj))


def _calls(tree) -> list[str]:
    return [ast.unparse(n) for n in ast.walk(tree) if isinstance(n, ast.Call)]


def test_the_rule_lives_in_core_as_id_alone():
    assert not hasattr(parsing, "_coerce_id")
    for module in (dataset, cli, parsing):
        bool_checks = [c for c in _calls(_source_of(module)) if re.search(r"\bbool\b", c)]
        assert bool_checks == [], module.__name__
    readers = (
        dataset.read_id, dataset.as_ids, dataset._note, dataset._answers,
        dataset.as_alignments, cli._links, parsing.parse_id_array, parsing.parse_alignment,
    )
    for reader in readers:
        tree = _source_of(reader)
        assert not [c for c in _calls(tree) if c.startswith("str(")], reader.__name__
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        assert names & {"as_id", "read_id", "as_ids", "as_alignments"}, reader.__name__


def _case_record(case_id, **overrides):
    record = {
        "case_id": case_id,
        "patient_question": "Why the urgent stent?",
        "note": [
            {"id": "1", "text": "Chest pain on arrival."},
            {"id": "2", "text": "Stent placed emergently."},
        ],
        "answer_sentences": [{"answer_id": "1", "text": "A stent was placed."}],
        "gold_evidence": ["2"],
        "gold_alignments": [{"answer_id": "1", "evidence_ids": ["2"]}],
    }
    record.update(overrides)
    return record


def _bad_case_fields(bad):
    """(field, the second record with ``bad`` in one of that field's IDs)."""
    note = [{"id": "1", "text": "Chest pain on arrival."}, {"id": bad, "text": "Stent placed."}]
    return [
        ("note", _case_record("b", note=note)),
        ("answer_sentences", _case_record(
            "b", answer_sentences=[{"answer_id": bad, "text": "A stent was placed."}])),
        ("gold_evidence", _case_record("b", gold_evidence=[bad])),
        ("gold_alignments", _case_record(
            "b", gold_alignments=[{"answer_id": bad, "evidence_ids": ["2"]}])),
        ("gold_alignments", _case_record(
            "b", gold_alignments=[{"answer_id": "1", "evidence_ids": [bad]}])),
    ]


@pytest.mark.parametrize("bad", NOT_IDS, ids=repr)
@pytest.mark.parametrize("which", range(5), ids=[
    "note-id", "answer_id", "gold_evidence", "alignment-answer_id", "alignment-evidence_ids",
])
def test_a_case_file_id_that_is_no_id_names_the_file_line_and_field(tmp_path, bad, which):
    field, record = _bad_case_fields(bad)[which]
    path = tmp_path / "cases.jsonl"
    path.write_text(json.dumps(_case_record("a")) + "\n" + json.dumps(record) + "\n")
    with pytest.raises(CaseValidationError) as caught:
        load_cases(path)
    message = str(caught.value)
    assert message.startswith(f"{path}:2: case b: malformed {field!r}: ")
    assert f"got {bad!r}" in message


def test_integer_and_string_ids_still_read_as_one():
    record = _case_record(
        "a",
        note=[{"id": 1, "text": "Chest pain on arrival."}, {"id": "2", "text": "Stent placed."}],
        answer_sentences=[{"answer_id": 1, "text": "A stent was placed."}],
        gold_evidence=[2, "2"],
        gold_alignments=[{"answer_id": "1", "evidence_ids": [2]}],
    )
    case = dataset.case_from_record(record, "here:1")
    assert case.note_ids == ("1", "2")
    assert case.answer_ids == ("1",)
    assert case.gold_evidence == frozenset({"2"})
    assert case.gold_alignments == (("1", frozenset({"2"})),)


def test_two_answer_sentences_with_one_id_are_an_error(tmp_path):
    answers = [{"answer_id": "1", "text": "A stent was placed."},
               {"answer_id": 1, "text": "It was urgent."}]
    path = tmp_path / "cases.jsonl"
    path.write_text(json.dumps(_case_record("a", answer_sentences=answers)) + "\n")
    with pytest.raises(CaseValidationError) as caught:
        load_cases(path)
    assert str(caught.value) == f"{path}:1: case a: duplicate answer_sentences ids ['1']"
    with pytest.raises(CaseValidationError, match="case c: duplicate answer_sentences ids"):
        Case(
            case_id="c",
            patient_question="q",
            note=(NoteSentence("1", "a"),),
            clinician_answer_sentences=(("2", "x"), ("1", "y"), ("2", "z")),
        )


def _gold_predictions(subtask):
    """The toy set's exact gold as a prediction file's records, in case order."""
    records = []
    for line in toy_dataset_path().read_text().splitlines():
        case = json.loads(line)
        if subtask == "st2":
            value = {"evidence_ids": case["gold_evidence"]}
        else:
            value = {"alignments": [
                {"answer_id": a["answer_id"], "evidence_id": a["evidence_ids"]}
                for a in case["gold_alignments"]
            ]}
        records.append({"case_id": case["case_id"], **value})
    return records


def _eval_error(tmp_path, capsys, subtask, records):
    pred = tmp_path / f"{subtask}.jsonl"
    pred.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    code = main(["eval", "--pred", str(pred), "--gold", str(toy_dataset_path()),
                 "--subtask", subtask])
    assert code == 1
    return pred, json.loads(capsys.readouterr().err)["error"]


# Put a non-ID value into one ID of a prediction record.
SPOILERS = {
    "evidence_ids": lambda record, bad: record.update(evidence_ids=[bad]),
    "answer_id": lambda record, bad: record["alignments"][0].update(answer_id=bad),
    "evidence_id": lambda record, bad: record["alignments"][0].update(evidence_id=[bad]),
}


@pytest.mark.parametrize("bad", NOT_IDS, ids=repr)
@pytest.mark.parametrize("subtask, where, field", [
    ("st2", "evidence_ids", "evidence_ids"),
    ("st4", "answer_id", "alignments"),
    ("st4", "evidence_id", "alignments"),
])
def test_a_prediction_id_that_is_no_id_names_the_file_line_and_field(
    tmp_path, capsys, subtask, where, field, bad
):
    records = _gold_predictions(subtask)
    SPOILERS[where](records[1], bad)
    pred, message = _eval_error(tmp_path, capsys, subtask, records)
    case_id = records[1]["case_id"]
    assert message.startswith(f"{pred}:2: case_id {case_id!r} has a malformed {field!r}: ")
    assert f"got {bad!r}" in message


@pytest.mark.parametrize("change, line, says", [
    (lambda rs: rs[:2] + [{"case_id": rs[2]["case_id"]}], 3, "has no 'evidence_ids'"),
    (lambda rs: rs + [rs[0]], 4, "has more than one 'evidence_ids' record"),
])
def test_every_prediction_error_names_the_line(tmp_path, capsys, change, line, says):
    records = change(_gold_predictions("st2"))
    pred, message = _eval_error(tmp_path, capsys, "st2", records)
    assert re.match(rf"{re.escape(str(pred))}:{line}: case_id '\w+' {says}$", message)
