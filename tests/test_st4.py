import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ehrqa.core import (
    ConfigError,
    EhrqaError,
    MergePolicy,
    PlanMember,
    ProviderError,
    SamplingPlan,
)
from ehrqa.metrics import micro_prf
from ehrqa.providers import HashEmbedder, ScriptedProvider
from ehrqa.st4 import (
    LinkVoteTally,
    RecallConfig,
    links_at_threshold,
    merge_links,
    read_best_threshold,
    recall_augment,
    run_case,
    run_ensemble,
    segment_answer,
    sweep_threshold,
    tally_from_runs,
)
from tests.conftest import FixedEmbedder, simple_case


def align_case(case_id="c1"):
    return simple_case(
        case_id,
        n_sentences=8,
        answers=(("1", "A stent was placed emergently."), ("2", "Recovery went well.")),
        answer_paragraph="A stent was placed emergently. Recovery went well.",
        gold_alignments=[("1", {"3", "7"}), ("2", set())],
        gold_evidence={"3", "7"},
    )


TRIO_PLAN = SamplingPlan(
    members=(PlanMember("m1", 0.0, 1), PlanMember("m2", 0.0, 1), PlanMember("m3", 0.0, 1))
)


class TestTally:
    def test_hand_count(self):
        runs = [
            [("1", {"3", "7"})],
            [("1", {"3"})],
            [("1", {"7"}), ("2", {"5"})],
        ]
        tally = tally_from_runs(runs)
        assert tally.votes == {("1", "3"): 2, ("1", "7"): 2, ("2", "5"): 1}
        assert tally.total_votes == 3

    def test_link_counted_once_per_run(self):
        runs = [[("1", {"3"}), ("1", {"3"})]]  # duplicate within one run
        tally = tally_from_runs(runs)
        assert tally.votes == {("1", "3"): 1}

    def test_unknown_answer_ids_filtered(self):
        runs = [[("1", {"3"}), ("9", {"3"})]]
        tally = tally_from_runs(runs, valid_answer_ids={"1", "2"})
        assert tally.votes == {("1", "3"): 1}

    def test_empty_everywhere(self):
        tally = tally_from_runs([[], [], []])
        assert tally.votes == {}
        assert tally.total_votes == 3


class TestRunEnsemble:
    def scripted(self, case_id="c1"):
        return ScriptedProvider(
            {
                f"{case_id}/st4/m1/0": '[{"answer_id":"1","evidence_id":["3","7"]}]',
                f"{case_id}/st4/m2/0": '[{"answer_id":"1","evidence_id":["3"]}]',
                f"{case_id}/st4/m3/0": (
                    '[{"answer_id":"1","evidence_id":["7"]},'
                    '{"answer_id":"2","evidence_id":["5"]}]'
                ),
            }
        )

    def test_three_scripted_runs(self):
        tally = run_ensemble(align_case(), [], TRIO_PLAN, self.scripted())
        assert tally.votes == {("1", "3"): 2, ("1", "7"): 2, ("2", "5"): 1}
        assert tally.total_votes == 3

    def test_plan_votes_m2_s2_extra(self):
        plan = SamplingPlan(
            members=(PlanMember("a", 0.3, 2), PlanMember("b", 0.4, 2)),
            extra_zero_temp_run=True,
        )
        provider = ScriptedProvider(handler=lambda r: "[]")
        tally = run_ensemble(align_case(), [], plan, provider)
        assert tally.total_votes == 6  # 2*2 + 2

    def test_full_answer_context_included_when_enabled(self):
        seen = {}

        def handler(request):
            seen["prompt"] = request.messages[-1].content
            return "[]"

        run_ensemble(align_case(), [], TRIO_PLAN, ScriptedProvider(handler=handler))
        assert "Full clinician answer (for context):" in seen["prompt"]

    @pytest.mark.parametrize("full_answer_context", [True, False])
    def test_shot_turns_carry_the_full_answer_only_when_the_query_does(
        self, full_answer_context
    ):
        seen = []

        def handler(request):
            seen.append([m.content for m in request.messages if m.role == "user"])
            return "[]"

        run_ensemble(
            align_case("c1"), [align_case("c2")], TRIO_PLAN, ScriptedProvider(handler=handler),
            full_answer_context=full_answer_context,
        )
        turns = seen[0]
        assert len(turns) == 2  # the shot's turn and the query's
        carried = ["Full clinician answer (for context):" in turn for turn in turns]
        assert carried == [full_answer_context] * 2

    def test_no_answer_sentences_is_error(self):
        case = simple_case("c1")
        with pytest.raises(EhrqaError, match="answer sentences"):
            run_ensemble(case, [], TRIO_PLAN, ScriptedProvider(handler=lambda r: "[]"))


class TestMergeLinks:
    TALLY = LinkVoteTally(
        votes={("1", "3"): 2, ("1", "7"): 2, ("2", "5"): 1}, total_votes=3
    )

    def test_majority_st4(self):
        # floor(3/2)+1 = 2
        merged = merge_links(self.TALLY, MergePolicy.majority_st4(), align_case())
        assert merged == [("1", ["3", "7"]), ("2", [])]

    def test_manual_union(self):
        merged = merge_links(self.TALLY, MergePolicy.manual(1), align_case())
        assert merged == [("1", ["3", "7"]), ("2", ["5"])]

    def test_empty_tally_keeps_all_answer_ids(self):
        empty = LinkVoteTally(votes={}, total_votes=3)
        merged = merge_links(empty, MergePolicy.union(), align_case())
        assert merged == [("1", []), ("2", [])]

    def test_invalid_evidence_ids_dropped(self):
        tally = LinkVoteTally(votes={("1", "99"): 3, ("1", "3"): 3}, total_votes=3)
        merged = merge_links(tally, MergePolicy.union(), align_case())
        assert merged == [("1", ["3"]), ("2", [])]

    @given(
        st.dictionaries(
            st.tuples(
                st.sampled_from(["1", "2"]),
                st.integers(min_value=1, max_value=10).map(str),
            ),
            st.integers(min_value=1, max_value=6),
            max_size=16,
        ),
        st.integers(min_value=1, max_value=5),
    )
    def test_monotone_in_theta(self, votes, theta):
        total = max([6] + list(votes.values()))
        tally = LinkVoteTally(votes=votes, total_votes=total)
        case = align_case()
        lower = links_at_threshold(tally, theta, case.note_ids)
        higher = links_at_threshold(tally, theta + 1, case.note_ids)
        assert higher <= lower


class TestSweep:
    def fixture_runs(self):
        """theta=2 scores F1 1.0; theta=1 lets a spurious link in (F1 0.8)."""
        case_a, case_b = align_case("a"), align_case("b")
        tally_a = LinkVoteTally(votes={("1", "3"): 2}, total_votes=2)
        tally_b = LinkVoteTally(votes={("1", "3"): 2, ("1", "7"): 1}, total_votes=2)
        gold_a = [("1", ["3"])]
        gold_b = [("1", ["3"])]
        return [(tally_a, gold_a, case_a), (tally_b, gold_b, case_b)]

    def test_picks_best_theta(self, tmp_path):
        out = tmp_path / "best_vote_threshold.txt"
        best, frontier = sweep_threshold(self.fixture_runs(), out_path=out)
        assert best == 2
        assert frontier[0]["micro_f1"] == pytest.approx(0.8)
        assert frontier[1]["micro_f1"] == pytest.approx(1.0)
        assert out.read_text() == "2\n"
        assert read_best_threshold(out) == 2

    def test_failed_write_keeps_previous_threshold_file(self, tmp_path, monkeypatch):
        out = tmp_path / "best_vote_threshold.txt"
        out.write_text("1\n", encoding="utf-8")

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("os.replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            sweep_threshold(self.fixture_runs(), out_path=out)
        assert out.read_text(encoding="utf-8") == "1\n"
        assert [p.name for p in tmp_path.iterdir()] == [out.name]

    def test_single_vote_plan(self, tmp_path):
        case = align_case()
        runs = [(LinkVoteTally(votes={("1", "3"): 1}, total_votes=1), [("1", ["3"])], case)]
        best, frontier = sweep_threshold(runs)
        assert best == 1
        assert len(frontier) == 1

    def test_all_empty_tie_resolves_to_one(self):
        case = align_case()
        runs = [(LinkVoteTally(votes={}, total_votes=3), [("1", [])], case)]
        best, frontier = sweep_threshold(runs)
        assert best == 1
        assert all(row["micro_f1"] == frontier[0]["micro_f1"] for row in frontier)

    def test_missing_gold_is_error(self):
        case = align_case()
        runs = [(LinkVoteTally(votes={}, total_votes=1), None, case)]
        with pytest.raises(EhrqaError, match="gold"):
            sweep_threshold(runs)

    def test_returned_theta_is_argmax_by_exhaustive_recheck(self):
        rng = random.Random(31)
        for _ in range(30):
            case = align_case()
            total = rng.randint(1, 6)
            runs = []
            for cid in ("a", "b", "c"):
                votes = {}
                for aid in ("1", "2"):
                    for eid in case.note_ids:
                        if rng.random() < 0.3:
                            votes[(aid, eid)] = rng.randint(1, total)
                gold = [
                    ("1", sorted({e for e in case.note_ids if rng.random() < 0.25})),
                    ("2", []),
                ]
                runs.append((LinkVoteTally(votes=votes, total_votes=total), gold, align_case(cid)))
            best, frontier = sweep_threshold(runs)
            # independent recheck
            f1s = []
            for theta in range(1, total + 1):
                pairs = []
                for tally, gold, case_i in runs:
                    pred = {
                        link
                        for link, c in tally.votes.items()
                        if c >= theta and link[1] in set(case_i.note_ids)
                    }
                    pairs.append((pred, {(a, e) for a, ev in gold for e in ev}))
                f1s.append(micro_prf(pairs).f1)
            assert f1s[best - 1] == max(f1s)
            assert all(f1s[best - 1] > f or i >= best - 1 for i, f in enumerate(f1s))


class TestRecallAugment:
    def test_disabled_returns_input(self):
        alignment = [("1", ["3"])]
        out = recall_augment(alignment, align_case(), HashEmbedder(), RecallConfig(enabled=False))
        assert out == alignment

    def test_identical_sentence_added_at_default_tau(self):
        # note sentence 4 textually identical to the answer sentence
        from ehrqa.core import Case, NoteSentence

        case = Case(
            case_id="c1",
            patient_question="q?",
            note=(
                NoteSentence("2", "Unrelated content entirely."),
                NoteSentence("4", "A stent was placed emergently."),
            ),
            clinician_answer_sentences=(("1", "A stent was placed emergently."),),
        )
        out = recall_augment(
            [("1", [])], case, HashEmbedder(), RecallConfig(enabled=True, tau=0.68)
        )
        assert ("1", ["4"]) in out or out == [("1", ["2", "4"])]
        assert "4" in dict(out)["1"]

    def test_hand_built_cosine_070_vs_tau_068(self):
        from ehrqa.core import Case, NoteSentence

        case = Case(
            case_id="c1",
            patient_question="q?",
            note=(NoteSentence("1", "note sentence"),),
            clinician_answer_sentences=(("1", "answer sentence"),),
        )
        table = {
            "answer sentence": [1.0, 0.0],
            "note sentence": [0.7, math.sqrt(1 - 0.49)],  # cosine exactly 0.70
        }
        out = recall_augment(
            [("1", [])], case, FixedEmbedder(table), RecallConfig(enabled=True, tau=0.68)
        )
        assert out == [("1", ["1"])]

    def test_tau_one_with_distinct_vectors_unchanged(self):
        alignment = [("1", []), ("2", [])]
        out = recall_augment(
            alignment, align_case(), HashEmbedder(), RecallConfig(enabled=True, tau=1.0)
        )
        assert out == alignment

    def test_embedding_failure_returns_input(self):
        class Broken:
            def embed(self, texts):
                raise ProviderError("down")

        alignment = [("1", ["3"])]
        out = recall_augment(
            alignment, align_case(), Broken(), RecallConfig(enabled=True, tau=0.5)
        )
        assert out == alignment

    def test_tau_validation(self):
        with pytest.raises(ConfigError):
            RecallConfig(enabled=True, tau=1.2)
        with pytest.raises(ConfigError):
            RecallConfig(enabled=True, tau=0.0)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["1", "2"]),
                st.sets(st.sampled_from(["1", "2", "3", "4", "5", "6", "7", "8"]), max_size=4),
            ),
            max_size=2,
            unique_by=lambda t: t[0],
        ),
        st.floats(min_value=0.05, max_value=1.0),
    )
    def test_output_always_superset(self, raw_alignment, tau):
        case = align_case()
        alignment = [(aid, sorted(ev)) for aid, ev in raw_alignment]
        out = recall_augment(
            alignment, case, HashEmbedder(), RecallConfig(enabled=True, tau=tau)
        )
        before = {(a, e) for a, ev in alignment for e in ev}
        after = {(a, e) for a, ev in out for e in ev}
        assert before <= after


class TestSegmentAnswer:
    def test_splits_on_sentence_boundaries(self):
        parts = segment_answer("The stent was placed. Recovery was good! Follow up?")
        assert parts == [
            ("1", "The stent was placed."),
            ("2", "Recovery was good!"),
            ("3", "Follow up?"),
        ]

    def test_empty(self):
        assert segment_answer("   ") == []


class TestRunCase:
    def test_embedding_only_mode(self):
        from ehrqa.core import Case, NoteSentence

        case = Case(
            case_id="c1",
            patient_question="q?",
            note=(NoteSentence("1", "A stent was placed."),),
            clinician_answer_sentences=(("1", "A stent was placed."),),
        )
        result = run_case(
            case,
            [],
            None,
            None,
            MergePolicy.union(),
            recall=RecallConfig(enabled=True, tau=0.68),
            embedder=HashEmbedder(),
        )
        assert result.alignments == [("1", ["1"])]
        assert result.tally is None

    def test_ensemble_majority_end_to_end(self):
        provider = ScriptedProvider(
            {
                "c1/st4/m1/0": '[{"answer_id":"1","evidence_id":["3","7"]}]',
                "c1/st4/m2/0": '[{"answer_id":"1","evidence_id":["3"]}]',
                "c1/st4/m3/0": '[{"answer_id":"1","evidence_id":["7"]},{"answer_id":"2","evidence_id":["5"]}]',
            }
        )
        result = run_case(
            align_case(), [], TRIO_PLAN, provider, MergePolicy.majority_st4()
        )
        assert result.alignments == [("1", ["3", "7"]), ("2", [])]
