import sys
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ehrqa.core import ParseError
from ehrqa.parsing import (
    _balanced_spans,
    format_alignment,
    format_id_array,
    parse_alignment,
    parse_id_array,
    parse_json_object,
    parse_st1_candidates,
)

MULTILINE_ALIGNMENT = (
    '[{"answer_id":"1",\n"evidence_id":["3","7"]},\n'
    ' {"answer_id":"2",\n "evidence_id":["5"]},\n'
    ' {"answer_id":"3",\n "evidence_id":[]}]'
)


class TestParseIdArray:
    def test_plain_array(self):
        assert parse_id_array('["1","3","7"]') == {"1", "3", "7"}

    def test_fenced_array(self):
        assert parse_id_array('Here you go:\n```\n["2"]\n```') == {"2"}

    def test_empty_array(self):
        assert parse_id_array("[]") == set()

    def test_prose_wrapped(self):
        text = 'The minimal evidence set is ["4", "9"].\nHope that helps!'
        assert parse_id_array(text) == {"4", "9"}

    def test_bare_integers_coerced(self):
        assert parse_id_array("[1, 3]") == {"1", "3"}

    def test_trailing_comma_repaired(self):
        assert parse_id_array('["1", "2",]') == {"1", "2"}

    def test_no_array_raises(self):
        with pytest.raises(ParseError, match="no sentence-ID array found"):
            parse_id_array("no evidence sentences apply here")

    def test_skips_non_string_arrays(self):
        text = '[{"a": 1}] then ["5"]'
        assert parse_id_array(text) == {"5"}

    @given(st.sets(st.integers(min_value=1, max_value=400).map(str), max_size=12))
    def test_roundtrip_format_then_parse(self, ids):
        assert parse_id_array(format_id_array(ids)) == ids


class TestParseAlignment:
    def test_multiline_three_answer_block(self):
        parsed = parse_alignment(MULTILINE_ALIGNMENT)
        assert parsed == [("1", {"3", "7"}), ("2", {"5"}), ("3", set())]

    def test_empty(self):
        assert parse_alignment("[]") == []

    def test_duplicate_answer_ids_merge_by_union(self):
        text = '[{"answer_id":"1","evidence_id":["3"]},{"answer_id":"1","evidence_id":["7"]}]'
        assert parse_alignment(text) == [("1", {"3", "7"})]

    def test_missing_key_drops_element(self, caplog):
        text = '[{"answer_id":"1","evidence_id":["3"]},{"answer_id":"2"}]'
        with caplog.at_level("WARNING"):
            parsed = parse_alignment(text)
        assert parsed == [("1", {"3"})]
        assert "dropped 1" in caplog.text

    def test_numeric_answer_order(self):
        text = '[{"answer_id":"10","evidence_id":[]},{"answer_id":"2","evidence_id":[]}]'
        assert [aid for aid, _ in parse_alignment(text)] == ["2", "10"]

    def test_superscript_digit_ids_sort_after_numeric_ones(self):
        # "²".isdigit() holds but int("²") raises: such an ID is kept, as text
        text = '[{"answer_id": "²", "evidence_id": ["1"]}, {"answer_id": "10", "evidence_id": ["³", "2"]}]'
        assert parse_alignment(text) == [("10", {"2", "³"}), ("²", {"1"})]
        assert parse_alignment('[{"answer_id": "²", "evidence_id": ["1"]}]') == [("²", {"1"})]

    def test_an_id_of_more_digits_than_int_converts_sorts_last(self):
        long_id = "1" * 5000
        text = (
            f'[{{"answer_id": "{long_id}", "evidence_id": ["1"]}}, '
            '{"answer_id": "2", "evidence_id": []}]'
        )
        assert parse_alignment(text) == [("2", set()), (long_id, {"1"})]

    def test_scalar_evidence_wrapped(self):
        text = '[{"answer_id":"1","evidence_id":"3"}]'
        assert parse_alignment(text) == [("1", {"3"})]

    def test_unparseable_raises(self):
        with pytest.raises(ParseError):
            parse_alignment("the alignment is unclear")

    def test_fenced_with_prose(self):
        text = f"Sure!\n```json\n{MULTILINE_ALIGNMENT}\n```\nDone."
        assert len(parse_alignment(text)) == 3

    def test_roundtrip_format_then_parse(self):
        alignment = [("1", {"3", "7"}), ("2", set())]
        assert parse_alignment(format_alignment(alignment)) == [
            ("1", {"3", "7"}),
            ("2", set()),
        ]


class TestParseCandidates:
    def test_two_candidates(self):
        text = (
            "CANDIDATE_1: Was the procedure urgent?\n"
            "CANDIDATE_2: Why was surgery emergent?"
        )
        assert parse_st1_candidates(text) == [
            "Was the procedure urgent?",
            "Why was surgery emergent?",
        ]

    def test_prose_before_first_candidate_ignored(self):
        text = "Here are some options.\nCANDIDATE_1: Why was the stent placed?"
        assert parse_st1_candidates(text) == ["Why was the stent placed?"]

    def test_no_candidates_raises(self):
        with pytest.raises(ParseError):
            parse_st1_candidates("no candidates")

    def test_index_order_not_line_order(self):
        text = "CANDIDATE_2: Second?\nCANDIDATE_1: First?"
        assert parse_st1_candidates(text) == ["First?", "Second?"]

    def test_caps_at_five(self):
        text = "\n".join(f"CANDIDATE_{i}: Question {i}?" for i in range(1, 8))
        assert len(parse_st1_candidates(text)) == 5

    def test_bracket_placeholder_stripped(self):
        assert parse_st1_candidates("CANDIDATE_1: [Why was care given?]") == [
            "Why was care given?"
        ]


class TestParseJsonObject:
    def test_plain(self):
        assert parse_json_object('{"a": 1}') == {"a": 1}

    def test_wrapped(self):
        assert parse_json_object('text {"procedures": []} more') == {"procedures": []}

    def test_no_object_raises(self):
        with pytest.raises(ParseError):
            parse_json_object("[1, 2]")


DEEP = sys.getrecursionlimit() + 50


@pytest.mark.parametrize(
    "parse,text,expected",
    [
        (parse_id_array, "[" * DEEP + "x" + "]" * DEEP + ' Answer: ["2"]', {"2"}),
        (
            parse_alignment,
            "[" * DEEP + "x" + "]" * DEEP + ' [{"answer_id": "1", "evidence_id": ["2"]}]',
            [("1", {"2"})],
        ),
        (parse_json_object, '{"a":' * DEEP + "x" + "}" * DEEP + ' {"b": 1}', {"b": 1}),
        (parse_id_array, "[" + "1" * 5000 + '] then ["2"]', {"2"}),
    ],
    ids=["ids-too-deep", "alignment-too-deep", "object-too-deep", "integer-too-long"],
)
def test_an_undecodable_fragment_is_skipped(parse, text, expected):
    """Nesting past the recursion limit, or an integer past the digit
    limit, disqualifies that fragment like any malformed JSON."""
    assert parse(text) == expected


def reference_balanced_spans(text, open_ch, close_ch):
    """One scan per start: the quadratic definition ``_balanced_spans``
    must equal."""
    spans = []
    starts = [i for i, ch in enumerate(text) if ch == open_ch]
    for start in starts:
        depth = 0
        in_string = False
        escaped = False
        for i in range(start, len(text)):
            ch = text[i]
            if in_string:
                if escaped:
                    escaped = False
                elif ch == "\\":
                    escaped = True
                elif ch == '"':
                    in_string = False
                continue
            if ch == '"':
                in_string = True
            elif ch == open_ch:
                depth += 1
            elif ch == close_ch:
                depth -= 1
                if depth == 0:
                    spans.append(text[start : i + 1])
                    break
    return spans


class TestBalancedSpans:
    @given(st.text(alphabet='[]{}"\\ a,1', max_size=60))
    def test_matches_one_scan_per_start(self, text):
        for open_ch, close_ch in (("[", "]"), ("{", "}")):
            assert _balanced_spans(text, open_ch, close_ch) == reference_balanced_spans(
                text, open_ch, close_ch
            )

    def test_unmatched_opens_take_linear_time(self):
        # One scan per start took 1.8 s at 8,000 unmatched "[".
        text = "[" * 16_000 + '["1"]'
        start = time.perf_counter()
        assert parse_id_array(text) == {"1"}
        assert time.perf_counter() - start < 1.0

    def test_starts_inside_strings_take_linear_time(self):
        # A scan of its own for each start inside a string took 3.6 s at
        # 4,000 copies.
        text = "[" + '"[\\""' * 16_000
        start = time.perf_counter()
        assert _balanced_spans(text, "[", "]") == []
        assert time.perf_counter() - start < 1.0
