import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ehrqa.core import ConfigError, MergePolicy, PlanMember, SamplingPlan, SubtaskError
from ehrqa.st2 import (
    VoteTally,
    default_confidence_floor,
    merge_votes,
    postprocess_ids,
    run_case,
    run_ensemble,
    tally_from_runs,
)
from tests.conftest import ScriptedProvider, simple_case

TRIO_PLAN = SamplingPlan(
    members=(
        PlanMember("m1", 0.0, 1),
        PlanMember("m2", 0.0, 1),
        PlanMember("m3", 0.0, 1),
    )
)


def trace_provider(case_id="c1"):
    """The worked three-run trace: {2,5}, {2,5,9}, {2}."""
    return ScriptedProvider(
        {
            f"{case_id}/st2/m1/0": '["2","5"]',
            f"{case_id}/st2/m2/0": '["2","5","9"]',
            f"{case_id}/st2/m3/0": '["2"]',
        }
    )


class TestTally:
    def test_hand_count(self):
        tally = tally_from_runs([{"2", "5"}, {"2", "5", "9"}, {"2"}])
        assert tally.votes == {"2": 3, "5": 2, "9": 1}
        assert tally.total_votes == 3

    def test_single_empty_run(self):
        tally = tally_from_runs([set()])
        assert tally.votes == {}
        assert tally.total_votes == 1

    def test_invalid_counts_rejected(self):
        with pytest.raises(ConfigError):
            VoteTally(votes={"1": 5}, total_votes=3)


class TestRunEnsemble:
    def test_three_scripted_runs(self):
        case = simple_case("c1")
        tally = run_ensemble(case, [], TRIO_PLAN, trace_provider())
        assert tally.votes == {"2": 3, "5": 2, "9": 1}
        assert tally.total_votes == 3

    def test_prose_run_counts_as_empty(self):
        case = simple_case("c1")
        provider = ScriptedProvider(
            {
                "c1/st2/m1/0": '["2"]',
                "c1/st2/m2/0": "I could not find any relevant sentences, sorry.",
                "c1/st2/m3/0": '["2"]',
            }
        )
        tally = run_ensemble(case, [], TRIO_PLAN, provider)
        assert tally.votes == {"2": 2}
        assert tally.total_votes == 3  # the failed run still counts

    def test_all_unparseable_is_a_subtask_error(self, caplog):
        case = simple_case("c1")
        provider = ScriptedProvider(handler=lambda r: "nothing structured")
        with caplog.at_level("WARNING"), pytest.raises(SubtaskError) as raised:
            run_ensemble(case, [], TRIO_PLAN, provider)
        assert str(raised.value) == "case c1: no st2 member gave a usable reply"
        assert len(provider.calls) == 3  # every run was asked
        assert "st2 run c1/st2/m3/0 unparseable, counting as empty" in caplog.text

    def test_a_parsed_empty_array_is_a_usable_run(self):
        provider = ScriptedProvider(handler=lambda r: "[]")
        tally = run_ensemble(simple_case("c1"), [], TRIO_PLAN, provider)
        assert (tally.votes, tally.total_votes) == ({}, 3)


class TestMergeVotes:
    TALLY = VoteTally(votes={"2": 3, "5": 2, "9": 1}, total_votes=3)

    def test_union(self):
        assert merge_votes(self.TALLY, MergePolicy.union()) == ["2", "5", "9"]

    def test_majority_st2(self):
        # ceil(3/2)+1 = 3: only "2" has three votes
        assert merge_votes(self.TALLY, MergePolicy.majority_st2()) == ["2"]

    def test_empty_tally(self):
        empty = VoteTally(votes={}, total_votes=3)
        assert merge_votes(empty, MergePolicy.union()) == []

    def test_numeric_sort(self):
        tally = VoteTally(votes={"10": 1, "2": 1}, total_votes=1)
        assert merge_votes(tally, MergePolicy.union()) == ["2", "10"]

    def test_superscript_digit_ids_sort_after_numeric_ones(self):
        tally = VoteTally(votes={"²": 1, "10": 1, "3": 1}, total_votes=1)
        assert merge_votes(tally, MergePolicy.union()) == ["3", "10", "²"]

    @given(
        st.dictionaries(
            st.integers(min_value=1, max_value=30).map(str),
            st.integers(min_value=1, max_value=8),
            max_size=12,
        ),
        st.integers(min_value=1, max_value=7),
    )
    def test_monotone_in_threshold(self, votes, k):
        total = max([8] + list(votes.values()))
        tally = VoteTally(votes=votes, total_votes=total)
        at_k = set(merge_votes(tally, MergePolicy.manual(k)))
        at_k1 = set(merge_votes(tally, MergePolicy.manual(min(k + 1, total))))
        assert at_k1 <= at_k

    @given(
        st.lists(
            st.sets(st.integers(min_value=1, max_value=15).map(str), max_size=6),
            min_size=1,
            max_size=8,
        )
    )
    def test_union_equals_run_set_union(self, runs):
        tally = tally_from_runs(runs)
        merged = set(merge_votes(tally, MergePolicy.union()))
        assert merged == set().union(*runs)

    @given(
        st.lists(
            st.sets(st.integers(min_value=1, max_value=15).map(str), max_size=6),
            min_size=1,
            max_size=8,
        )
    )
    def test_majority_subset_of_union(self, runs):
        tally = tally_from_runs(runs)
        union = set(merge_votes(tally, MergePolicy.union()))
        majority = set(merge_votes(tally, MergePolicy.majority_st2()))
        assert majority <= union


class TestPostprocess:
    # The tally of one run that voted for nothing; no floor reads it.
    NO_VOTES = VoteTally(votes={}, total_votes=1)

    def test_invalid_and_duplicates_removed(self):
        case = simple_case("c1", n_sentences=10)
        assert postprocess_ids(["5", "2", "2", "99"], case, self.NO_VOTES) == ["2", "5"]

    def test_confidence_floor(self):
        case = simple_case("c1", n_sentences=10)
        tally = VoteTally(votes={"2": 3, "9": 1}, total_votes=3)
        kept = postprocess_ids(["2", "9"], case, tally=tally, confidence_floor=0.34)
        assert kept == ["2"]  # 1/3 < 0.34

    def test_empty(self):
        assert postprocess_ids([], simple_case("c1"), self.NO_VOTES) == []

    def test_idempotent(self):
        case = simple_case("c1", n_sentences=10)
        rng = random.Random(5)
        for _ in range(25):
            ids = [str(rng.randint(1, 15)) for _ in range(rng.randint(0, 8))]
            once = postprocess_ids(ids, case, self.NO_VOTES)
            assert postprocess_ids(once, case, self.NO_VOTES) == once

    def test_default_floor_rule(self):
        assert default_confidence_floor(2) is None
        floor = default_confidence_floor(3)
        assert floor is not None
        # one vote out of three falls below, two votes stay
        assert 1 / 3 < floor <= 2 / 3


class TestEndToEnd:
    def test_union_postproc_trace(self):
        case = simple_case("c1", n_sentences=10)
        result = run_case(
            case, [], TRIO_PLAN, trace_provider(), MergePolicy.union()
        )
        assert result.evidence_ids == ["2", "5", "9"]

    def test_superscript_digit_ids_are_dropped_not_fatal(self):
        case = simple_case("c1", n_sentences=10)
        provider = ScriptedProvider(handler=lambda request: '["²","3"]')
        result = run_case(case, [], TRIO_PLAN, provider, MergePolicy.union())
        assert result.evidence_ids == ["3"]

    def test_majority_trace(self):
        case = simple_case("c1", n_sentences=10)
        result = run_case(
            case, [], TRIO_PLAN, trace_provider(), MergePolicy.majority_st2()
        )
        assert result.evidence_ids == ["2"]

    def test_enhanced_floor_drops_single_vote(self):
        case = simple_case("c1", n_sentences=10)
        result = run_case(
            case,
            [],
            TRIO_PLAN,
            trace_provider(),
            MergePolicy.union(),
            use_default_floor=True,
        )
        assert result.evidence_ids == ["2", "5"]  # "9" had 1/3 votes
