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
    def test_note_sentence_rejects_bad_ids(self):
        for bad in ("0", "01", "", "x1", "-1"):
            with pytest.raises(CaseValidationError):
                NoteSentence(bad, "text")

    def test_note_sentence_rejects_empty_text(self):
        with pytest.raises(CaseValidationError):
            NoteSentence("1", "   ")

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
