import itertools
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ehrqa.core import ConstraintConfig, ProviderError, SubtaskError, count_words
from ehrqa.providers import (
    FailingProvider,
    FixedEmbedder,
    HashEmbedder,
    ReplayGenerator,
    ResponseCache,
    ScriptedProvider,
    cosine,
    request_cache_key,
)
from ehrqa.st3 import (
    CitedDraft,
    extract_markers,
    rerank_candidates,
    run_case,
    stage1_draft,
    stage2_rewrite,
    strip_markers,
    truncate_words,
)
from tests.conftest import simple_case

CONSTRAINTS = ConstraintConfig()
MARKER_RE = re.compile(r"\[\d+\]")


class TestMarkers:
    def test_extract_in_first_appearance_order(self):
        assert extract_markers("B [5] then [2] then [5] again.") == ["5", "2"]

    def test_strip(self):
        assert strip_markers("Stent placed [2][5].") == "Stent placed."

    def test_strip_collapses_double_spaces(self):
        assert strip_markers("a [2] b") == "a b"

    def test_strip_removes_markers_that_stripping_forms(self):
        assert strip_markers("Done [[4]4].") == "Done."


class TestTruncate:
    def test_eighty_to_seventyfive(self):
        text = " ".join(f"word{i}" for i in range(80))
        out = truncate_words(text, 75)
        assert count_words(out) == 75
        assert out.split() == text.split()[:75]

    def test_short_text_untouched(self):
        assert truncate_words("short answer here.", 75) == "short answer here."

    def test_dangling_conjunction_dropped(self):
        text = "alpha beta gamma and delta"
        assert truncate_words(text, 4) == "alpha beta gamma"

    def test_dangling_comma_stripped(self):
        text = "alpha beta gamma, delta"
        assert truncate_words(text, 3) == "alpha beta gamma"

    def test_never_cuts_mid_word(self):
        text = " ".join(["supercalifragilistic"] * 10)
        out = truncate_words(text, 3)
        assert all(w == "supercalifragilistic" for w in out.split())


class TestStage1:
    def make_case(self):
        return simple_case("c1", n_sentences=6)

    def test_marker_extraction(self):
        provider = ScriptedProvider(
            {"c1/st3s1/d/0": "Stent was placed emergently [2][5]."}
        )
        draft = stage1_draft(self.make_case(), ["2", "5"], [], provider, deployment="d")
        assert draft.cited_ids == ("2", "5")

    def test_marker_outside_evidence_dropped(self, caplog):
        provider = ScriptedProvider(
            {"c1/st3s1/d/0": "Something [99] and [2]."}
        )
        with caplog.at_level("WARNING"):
            draft = stage1_draft(self.make_case(), ["2", "5"], [], provider, deployment="d")
        assert draft.cited_ids == ("2",)
        assert "99" in caplog.text

    def test_zero_citations_fall_back_to_supplied_evidence(self):
        provider = ScriptedProvider({"c1/st3s1/d/0": "No markers at all."})
        draft = stage1_draft(self.make_case(), ["5", "2"], [], provider, deployment="d")
        assert draft.cited_ids == ("2", "5")

    def test_backend_failure_is_one_call_and_a_subtask_error(self):
        provider = FailingProvider("backend down")
        with pytest.raises(SubtaskError, match="case c1: stage-1 draft failed: backend down"):
            stage1_draft(self.make_case(), ["2"], [], provider, deployment="d")
        assert provider.calls == 1  # the backend client retries; the draft does not

    def test_empty_evidence_uses_full_note(self):
        provider = ScriptedProvider({"c1/st3s1/d/0": "Draft [6]."})
        draft = stage1_draft(self.make_case(), [], [], provider, deployment="d")
        # id 6 only exists because the full note became the evidence pool
        assert draft.cited_ids == ("6",)


class TestStage2:
    def make_draft(self):
        return CitedDraft("Stent placed [2].", ("2",))

    def test_normal_rewrite(self):
        provider = ScriptedProvider({"c1/st3s2/d/0": "A stent was placed emergently."})
        out = stage2_rewrite(self.make_draft(), simple_case("c1"), provider, deployment="d")
        assert out == "A stent was placed emergently."

    def test_overlong_output_truncated_to_75(self):
        long_text = " ".join(f"w{i}" for i in range(80))
        provider = ScriptedProvider({"c1/st3s2/d/0": long_text})
        out = stage2_rewrite(self.make_draft(), simple_case("c1"), provider, deployment="d")
        assert count_words(out) == 75

    def test_residual_markers_stripped(self, caplog):
        provider = ScriptedProvider({"c1/st3s2/d/0": "Answer keeps [12] markers [3]."})
        with caplog.at_level("WARNING"):
            out = stage2_rewrite(self.make_draft(), simple_case("c1"), provider, deployment="d")
        assert not MARKER_RE.search(out)
        assert "markers" in caplog.text

    def test_provider_down_falls_back_to_stripped_draft(self):
        out = stage2_rewrite(
            self.make_draft(), simple_case("c1"), ScriptedProvider({}), deployment="d"
        )
        assert out == "Stent placed."

    def test_never_empty(self):
        provider = ScriptedProvider({"c1/st3s2/d/0": ""})
        draft = CitedDraft("[2]", ("2",))  # stripping the draft leaves nothing
        out = stage2_rewrite(draft, simple_case("c1"), provider, deployment="d")
        assert out.strip()


class TestRerank:
    def test_single_candidate(self):
        chosen, _ = rerank_candidates(["only one"], "ref", embedder=HashEmbedder())
        assert chosen == "only one"

    def test_verbatim_note_excerpt_wins(self):
        note_text = "The patient was admitted with chest pain."
        excerpt = note_text  # identical text embeds to an identical vector
        other = "A totally different sentence about discharge."
        chosen, scores = rerank_candidates([other, excerpt], note_text, embedder=HashEmbedder())
        assert chosen == excerpt
        assert scores[1] == pytest.approx(1.0, abs=1e-9)

    def test_tie_keeps_first_candidate(self):
        table = {"a": [1.0, 0.0], "b": [1.0, 0.0], "ref": [1.0, 0.0]}
        chosen, _ = rerank_candidates(["a", "b"], "ref", embedder=FixedEmbedder(table))
        assert chosen == "a"

    def test_one_embed_call_with_reference_first(self):
        calls = []

        class Recording(HashEmbedder):
            def embed(self, texts):
                calls.append(list(texts))
                return super().embed(texts)

        candidates = ["first answer", "second answer", "third answer"]
        _, scores = rerank_candidates(candidates, "note text", embedder=Recording())
        assert calls == [["note text", *candidates]]
        embedder = HashEmbedder()
        expected = [cosine(*embedder.embed([c, "note text"])) for c in candidates]
        assert scores == expected

    def test_embed_failure_keeps_first(self):
        table = {"a": [1.0, 0.0], "b": [0.0, 1.0]}  # no vector for the reference
        chosen, scores = rerank_candidates(["a", "b"], "ref", embedder=FixedEmbedder(table))
        assert chosen == "a"
        assert scores == []


class TestRunCase:
    def scripted_provider(self):
        return ScriptedProvider(
            {
                "c1/st3s1/d1/0": "Emergent catheterization revealed occlusion [2].",
                "c1/st3s2/d1/0": "Emergent catheterization revealed an occlusion.",
                "c1/st3s1/d2/0": "Unrelated text [5].",
                "c1/st3s2/d2/0": "Totally unrelated vocabulary here.",
            }
        )

    def test_single_deployment(self):
        result = run_case(
            simple_case("c1"),
            ["2", "5"],
            [],
            self.scripted_provider(),
            deployments=["d1"],
        )
        assert result.answer_text == "Emergent catheterization revealed an occlusion."
        assert result.cited_ids == ["2"]

    def test_ensemble_rerank_with_embedder(self):
        result = run_case(
            simple_case("c1"),
            ["2", "5"],
            [],
            self.scripted_provider(),
            deployments=["d1", "d2"],
            embedder=HashEmbedder(),
        )
        assert result.answer_text in {
            "Emergent catheterization revealed an occlusion.",
            "Totally unrelated vocabulary here.",
        }
        assert len(result.candidate_scores) == 2

    def test_cited_ids_are_the_chosen_candidates_citations(self):
        case = simple_case("c1")
        reference = " ".join(s.text for s in case.note)
        embedder = FixedEmbedder({
            reference: [1.0, 0.0],
            "Emergent catheterization revealed an occlusion.": [0.0, 1.0],
            "Totally unrelated vocabulary here.": [1.0, 0.0],
        })
        result = run_case(
            case, ["2", "5"], [], self.scripted_provider(), deployments=["d1", "d2"],
            embedder=embedder,
        )
        assert result.answer_text == "Totally unrelated vocabulary here."
        assert result.cited_ids == ["5"]  # d2's citation, not the members' union

    def test_stage2_requests_are_tagged_by_drafting_member(self):
        seen = []

        def respond(request):
            seen.append(request)
            return f"Draft from {request.request_tag.split('/')[2]} [2]."

        result = run_case(
            simple_case("c1"),
            ["2", "5"],
            [],
            ScriptedProvider(handler=respond),
            deployments=["d1", "d2", "d3"],
            stage2_deployment="rewriter",
            rerank=False,
        )
        rewrites = [r for r in seen if "/st3s2/" in r.request_tag]
        assert [r.request_tag for r in rewrites] == [
            "c1/st3s2/d1/0", "c1/st3s2/d2/0", "c1/st3s2/d3/0"
        ]
        assert {(r.deployment_name, r.sample_index) for r in rewrites} == {("rewriter", 0)}
        assert len({request_cache_key(r) for r in rewrites}) == 3
        assert result.answer_text == "Draft from d1."

    def test_members_with_one_draft_share_one_recorded_rewrite(self, tmp_path):
        """Three members that draft the same text ask one stage-2 request:
        it is sent once, for the first member, so recording it is one live
        call and one cache entry, and a replay gives back the recorded result."""
        numbers = itertools.count(1)

        def respond(request):
            if "/st3s1/" in request.request_tag:
                return "Emergent catheterization revealed occlusion [2]."
            return f"Rewrite number {next(numbers)}."

        inner = ScriptedProvider(handler=respond)
        cache = ResponseCache(tmp_path)
        results = []
        for generator in (ReplayGenerator(cache, inner=inner, mode="record"),
                          ReplayGenerator(cache, mode="replay")):
            results.append(run_case(
                simple_case("c1"), ["2", "5"], [], generator,
                deployments=["d1", "d2", "d3"], stage2_deployment="rewriter",
                embedder=HashEmbedder(),
            ))
        recorded, replayed = results
        assert sorted(inner.calls) == [
            "c1/st3s1/d1/0", "c1/st3s1/d2/0", "c1/st3s1/d3/0", "c1/st3s2/d1/0"
        ]
        assert [c["answer"] for c in recorded.candidate_scores] == ["Rewrite number 1."] * 3
        assert replayed == recorded
        assert cache.stats() == {"hits": 4, "misses": 4, "entries": 4}

    def test_a_failed_draft_fails_the_case_at_that_draft(self):
        def respond(request):
            if request.request_tag == "c1/st3s1/d2/0":
                raise ProviderError("d2 down")
            return "Draft [2]."

        provider = ScriptedProvider(handler=respond)
        with pytest.raises(SubtaskError, match="case c1: stage-1 draft failed: d2 down"):
            run_case(
                simple_case("c1"), ["2"], [], provider, deployments=["d1", "d2", "d3"], rerank=False
            )
        assert provider.calls == ["c1/st3s1/d1/0", "c1/st3s1/d2/0"]  # d3 is never asked


def test_grounding_smoke_content_words_stay_in_evidence():
    """With mocks that echo evidence sentences, the final answer's content
    words never leave (cited evidence union stage-1 draft)."""
    case = simple_case("c1", n_sentences=6)
    evidence_ids = ["2", "5"]
    evidence_texts = [case.note_text(i) for i in evidence_ids]
    stage1 = f"{evidence_texts[0]} [2] {evidence_texts[1]} [5]"
    stage2 = " ".join(evidence_texts)
    provider = ScriptedProvider({"c1/st3s1/d/0": stage1, "c1/st3s2/d/0": stage2})
    draft = stage1_draft(case, evidence_ids, [], provider, deployment="d")
    answer = stage2_rewrite(draft, case, provider, deployment="d")
    allowed = set(" ".join(evidence_texts).lower().split()) | set(
        strip_markers(draft.text_with_citations).lower().split()
    )
    assert set(answer.lower().split()) <= allowed


@given(
    st.text(alphabet="abc [123] my I", min_size=1, max_size=600),
    st.text(alphabet="xyz [45]", min_size=0, max_size=600),
)
def test_fuzz_final_answer_constraints(stage1_text, stage2_text):
    """Adversarial overlong, marker-laden outputs still produce a valid answer."""
    case = simple_case("c1", n_sentences=6)
    provider = ScriptedProvider(
        {"c1/st3s1/d/0": stage1_text, "c1/st3s2/d/0": stage2_text}
    )
    draft = stage1_draft(case, ["2", "5"], [], provider, deployment="d")
    out = stage2_rewrite(draft, case, provider, deployment="d")
    assert count_words(out) <= 75
    assert not MARKER_RE.search(out)
    assert out.strip()
