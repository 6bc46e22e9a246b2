import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ehrqa.core import (
    Case,
    CaseValidationError,
    ConfigError,
    ConstraintConfig,
    MergePolicy,
    NoteSentence,
    PlanMember,
    SamplingPlan,
    contains_first_person,
    count_words,
    id_sort_key,
    is_first_person,
    resolve_threshold,
)


class TestResolveThreshold:
    def test_union_is_one_vote(self):
        assert resolve_threshold(MergePolicy.union(), 5) == 1

    def test_majority_st2_examples(self):
        # ceil(3/2)+1 = 3
        assert resolve_threshold(MergePolicy.majority_st2(), 3) == 3

    def test_majority_st4_examples(self):
        # floor(6/2)+1 = 4
        assert resolve_threshold(MergePolicy.majority_st4(), 6) == 4

    def test_manual_passthrough(self):
        assert resolve_threshold(MergePolicy.manual(2), 5) == 2

    def test_manual_above_total_is_config_error(self):
        with pytest.raises(ConfigError, match="k=7.*total_votes=3"):
            resolve_threshold(MergePolicy.manual(7), 3)

    @pytest.mark.parametrize("n", range(1, 101))
    def test_majority_formulas_match_bruteforce(self, n):
        st2_k = resolve_threshold(MergePolicy.majority_st2(), n)
        st4_k = resolve_threshold(MergePolicy.majority_st4(), n)
        assert st2_k == min(math.ceil(n / 2) + 1, n)
        assert st4_k == min(math.floor(n / 2) + 1, n)
        # the two formulas differ by exactly ceil(n/2) - floor(n/2), pre-clamp
        assert (math.ceil(n / 2) + 1) - (math.floor(n / 2) + 1) in (0, 1)

    @given(
        st.sampled_from(["union", "majority_st2", "majority_st4"]),
        st.integers(min_value=1, max_value=500),
    )
    def test_threshold_always_in_range(self, mode, total):
        k = resolve_threshold(MergePolicy(mode=mode), total)
        assert 1 <= k <= total


class TestCountWords:
    def test_empty(self):
        assert count_words("") == 0

    def test_sentence(self):
        assert count_words("Was the stent placed emergently?") == 5

    def test_whitespace_runs_collapse(self):
        assert count_words("a  b\tc") == 3

    @given(st.lists(st.text(alphabet="abcXYZ.?!,", min_size=1), max_size=20))
    def test_invariant_under_whitespace_normalization(self, tokens):
        text = " ".join(tokens)
        assert count_words("  " + text + "\t\n") == count_words(text)
        assert count_words(text.replace(" ", "   ")) == count_words(text)


class TestDomainTypes:
    @pytest.mark.parametrize("bad", ["0", "01", "", "x1", "-1", "2\n"])
    def test_case_rejects_bad_note_ids_naming_the_case(self, bad):
        NoteSentence(bad, "text")  # a sentence alone is a plain record
        with pytest.raises(CaseValidationError) as raised:
            Case(case_id="b", patient_question="q", note=(NoteSentence(bad, "text"),))
        assert str(raised.value) == f"case b: invalid note sentence id {bad!r}"

    @pytest.mark.parametrize("first", ["2", "1"])
    def test_a_bad_note_id_is_reported_before_order_and_duplicates(self, first):
        # In the order check "x" would fail int() and "01" would read as a second 1.
        for bad in ("x", "01"):
            message = f"^case b: invalid note sentence id {bad!r}$"
            with pytest.raises(CaseValidationError, match=message):
                Case(
                    case_id="b",
                    patient_question="q",
                    note=(NoteSentence(first, "a"), NoteSentence(bad, "b")),
                )

    def test_case_rejects_an_empty_note_before_any_other_problem(self):
        with pytest.raises(CaseValidationError) as raised:
            Case(case_id="b", patient_question="q", note=(), gold_evidence=frozenset({"1"}))
        assert str(raised.value) == "case b: note has no sentences"

    def test_case_rejects_blank_note_text_naming_the_case(self):
        NoteSentence("1", "   ")
        with pytest.raises(CaseValidationError) as raised:
            Case(case_id="b", patient_question="q", note=(NoteSentence("1", " \t\n"),))
        assert str(raised.value) == "case b: note sentence 1 has empty text"

    def test_case_rejects_duplicate_ids(self):
        with pytest.raises(CaseValidationError, match="duplicate"):
            Case(
                case_id="c",
                patient_question="q",
                note=(NoteSentence("3", "a"), NoteSentence("3", "b")),
            )

    def test_case_rejects_decreasing_ids(self):
        with pytest.raises(CaseValidationError, match="increasing"):
            Case(
                case_id="c",
                patient_question="q",
                note=(NoteSentence("5", "a"), NoteSentence("2", "b")),
            )

    def test_case_rejects_gold_outside_note(self):
        with pytest.raises(CaseValidationError, match="gold_evidence"):
            Case(
                case_id="c",
                patient_question="q",
                note=(NoteSentence("1", "a"),),
                gold_evidence=frozenset({"9"}),
            )

    def test_case_rejects_alignment_for_unknown_answer(self):
        with pytest.raises(CaseValidationError, match="answer_id"):
            Case(
                case_id="c",
                patient_question="q",
                note=(NoteSentence("1", "a"),),
                clinician_answer_sentences=(("1", "ans"),),
                gold_alignments=(("2", frozenset({"1"})),),
            )

    def test_case_id_tuples_are_built_once_and_leave_equality_alone(self):
        def make():
            return Case(
                case_id="c",
                patient_question="q",
                note=(NoteSentence("1", "a"), NoteSentence("4", "b")),
                clinician_answer_sentences=(("1", "ans"),),
            )

        case, fresh = make(), make()
        assert case.note_ids is case.note_ids == ("1", "4")
        assert case.answer_ids is case.answer_ids == ("1",)
        assert (case.note_text("4"), case.note_text("1")) == ("b", "a")
        with pytest.raises(KeyError):
            case.note_text("2")
        assert case == fresh and hash(case) == hash(fresh)

    def test_plan_total_votes(self):
        plan = SamplingPlan(
            members=(
                PlanMember("a", 0.3, samples=2),
                PlanMember("b", 0.4, samples=2),
            ),
            extra_zero_temp_run=True,
        )
        assert plan.total_votes() == 2 * 2 + 2
        assert len(plan.runs()) == plan.total_votes()

    def test_plan_rejects_bad_temperature(self):
        with pytest.raises(ConfigError):
            PlanMember("a", temperature=2.5)

    def test_plan_rejects_zero_samples(self):
        with pytest.raises(ConfigError):
            PlanMember("a", samples=0)

    def test_constraints_validate_band(self):
        with pytest.raises(ConfigError):
            ConstraintConfig(st3_max_words=0)

    def test_first_person_detection(self):
        assert contains_first_person("Can I stop my meds?")
        assert contains_first_person("Tell me, why?")
        assert not contains_first_person("Was the stent placed emergently?")

    @pytest.mark.parametrize(
        "token", ["I'm", "I've", "we'd", "we\u2019re", "WE\u2019D,", "myself", "Ourselves?", "'us'"]
    )
    def test_contractions_and_reflexives_are_first_person(self, token):
        assert is_first_person(token)
        assert contains_first_person(f"Why was {token} given insulin?")

    @pytest.mark.parametrize("token", ["patient's", "doctor\u2019s", "patients'", "o'clock", "U.S."])
    def test_possessives_and_other_apostrophes_are_not(self, token):
        assert not is_first_person(token)
        assert not contains_first_person(f"Was the {token} stent urgent?")


# The three filters that ``Case.in_note`` replaced, kept here as references.
def _postprocess_ids_filter(case, ids):  # st2.postprocess_ids
    valid = set(case.note_ids)
    return sorted({i for i in ids if i in valid}, key=id_sort_key)


def _supplied_evidence_filter(case, ids):  # st3.supplied_evidence
    return sorted(set(ids) & set(case.note_ids), key=id_sort_key)


def _evidence_block_filter(case, ids):  # st3.evidence_block_for
    return [i for i in sorted(set(ids), key=id_sort_key) if i in case.note_ids]


@st.composite
def _note_and_ids(draw):
    note_numbers = draw(st.sets(st.integers(min_value=1, max_value=25), min_size=1))
    note_ids = [str(n) for n in sorted(note_numbers)]
    case = Case(
        case_id="c",
        patient_question="q",
        note=tuple(NoteSentence(i, f"sentence {i}") for i in note_ids),
    )
    # "9" against "10" orders by number; "01", "x" and "30" are never note IDs.
    pool = st.sampled_from(note_ids + ["9", "10", "0", "01", "x", "", "30"])
    ids = draw(st.lists(pool, max_size=12))
    return case, draw(st.sampled_from([list, tuple, set, frozenset]))(ids)


class TestInNote:
    @given(_note_and_ids())
    def test_equals_the_filters_it_replaced(self, case_and_ids):
        case, ids = case_and_ids
        got = case.in_note(ids)
        assert got == _postprocess_ids_filter(case, ids)
        assert got == _supplied_evidence_filter(case, ids)
        assert got == _evidence_block_filter(case, ids)

    def test_hand_cases(self):
        case = Case(
            case_id="c",
            patient_question="q",
            note=tuple(NoteSentence(i, "s") for i in ("2", "9", "10")),
        )
        assert case.in_note(["10", "9", "10", "3", "01", "2"]) == ["2", "9", "10"]
        assert case.in_note([]) == []
        assert case.in_note(["3"]) == []
        assert case.note_id_set is case.note_id_set == frozenset({"2", "9", "10"})
