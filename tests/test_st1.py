import json
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ehrqa import st1 as st1_module
from ehrqa.core import ConstraintConfig, SubtaskError, count_words, strip_token_punct
from ehrqa.dataset import CaseFile, save_cases
from ehrqa.pipeline import resolve_config, run_pipeline
from ehrqa.st1 import (
    EMPTY_CONTEXT,
    QUESTION_TYPES,
    CandidateScore,
    ClinicalContext,
    St1Pool,
    check_constraints,
    classify_question_type,
    extract_context,
    generate_candidates,
    repair_candidate,
    retrieve_shots,
    run_case,
    score_candidates,
    select_candidate,
    token_overlap_f1,
)
from tests.conftest import ScriptedProvider, simple_case


def reference_token_f1(a, b):
    """Per-pair reference of the st1 lexical similarity: set-based F1 over
    lowercase punctuation-stripped tokens."""
    tokens_a = {strip_token_punct(t).lower() for t in a.split()} - {""}
    tokens_b = {strip_token_punct(t).lower() for t in b.split()} - {""}
    if not tokens_a or not tokens_b:
        return 0.0
    overlap = len(tokens_a & tokens_b)
    if overlap == 0:
        return 0.0
    p, r = overlap / len(tokens_a), overlap / len(tokens_b)
    return 2 * p * r / (p + r)


def hybrid_score(case, candidate, type_weight=st1_module.TYPE_WEIGHT):
    """Per-pair reference of the similarity ``retrieve_shots`` ranks by."""
    type_match = 1.0 if (
        classify_question_type(case.patient_question)
        == classify_question_type(candidate.patient_question)
    ) else 0.0
    lexical = reference_token_f1(case.patient_question, candidate.patient_question)
    return type_weight * type_match + (1.0 - type_weight) * lexical


CONSTRAINTS = ConstraintConfig()


class TestClassify:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("Why did they do an emergency surgery?", "why"),
            ("What happened with the dose?", "what"),
            ("How long is recovery?", "how"),
            ("When can the meds stop?", "when"),
            ("Was the stent necessary?", "yes_no"),
            ("Did they change anything?", "yes_no"),
            ("Blood pressure meds.", "other"),
            ("", "other"),
            ("Thanks. Why though?", "why"),
        ],
    )
    def test_types(self, text, expected):
        assert classify_question_type(text) == expected


class TestRetrieveShots:
    def test_pool_of_one(self):
        case = simple_case("t")
        pool = [simple_case("p1", patient_question="Anything else?")]
        assert retrieve_shots(case, St1Pool(pool)) == pool

    def test_identical_question_ranks_first(self):
        case = simple_case("t", patient_question="Why was the stent urgent?")
        twin = simple_case("p1", patient_question="Why was the stent urgent?")
        other = simple_case("p2", patient_question="Something unrelated entirely here.")
        assert retrieve_shots(case, St1Pool([other, twin]), max_n=2)[0] is twin

    def test_type_match_breaks_equal_lexical(self):
        # equal lexical overlap with the target; only the question type differs
        case = simple_case("t", patient_question="Why was it done?")
        why_case = simple_case("p1", patient_question="Why did they operate suddenly?")
        what_case = simple_case("p2", patient_question="What was that procedure about?")
        # hand score: one shared token each (sets of 4 vs 5 -> F1 = 2/9 both)
        lex_why = token_overlap_f1(case.patient_question, why_case.patient_question)
        lex_what = token_overlap_f1(case.patient_question, what_case.patient_question)
        assert lex_why == pytest.approx(2 / 9) == lex_what
        shots = retrieve_shots(case, St1Pool([what_case, why_case]), max_n=2)
        assert shots[0] is why_case

    def test_max_n(self):
        case = simple_case("t")
        pool = [simple_case(f"p{i}") for i in range(9)]
        assert len(retrieve_shots(case, St1Pool(pool), max_n=5)) == 5


class TestExtractContext:
    def test_verbatim_span_kept(self):
        case = simple_case("c1", patient_question="Why the emergency stent placement?")
        response = json.dumps(
            {
                "procedures": ["stent placement"],
                "medications": [],
                "diagnoses": [],
                "findings": [],
                "temporal_urgency_cues": ["emergency"],
            }
        )
        provider = ScriptedProvider({"c1/st1ctx/0": response})
        context = extract_context(case, provider)
        assert context.temporal_urgency_cues == ("emergency",)
        assert context.procedures == ("stent placement",)

    def test_non_verbatim_span_dropped(self):
        case = simple_case("c1", patient_question="Why the stent?")
        response = json.dumps(
            {
                "procedures": ["open heart surgery"],
                "medications": [],
                "diagnoses": [],
                "findings": [],
                "temporal_urgency_cues": [],
            }
        )
        provider = ScriptedProvider({"c1/st1ctx/0": response})
        assert extract_context(case, provider) == EMPTY_CONTEXT

    def test_provider_failure_yields_empty_context(self):
        case = simple_case("c1")
        assert extract_context(case, ScriptedProvider({})) == EMPTY_CONTEXT

    def test_empty_question_yields_empty_context(self):
        case = simple_case("c1", patient_question=" ")
        response = json.dumps(
            {"procedures": ["stent"], "medications": [], "diagnoses": [],
             "findings": [], "temporal_urgency_cues": []}
        )
        provider = ScriptedProvider({"c1/st1ctx/0": response})
        assert extract_context(case, provider) == EMPTY_CONTEXT

    def test_unparseable_yields_empty_context(self):
        case = simple_case("c1")
        provider = ScriptedProvider({"c1/st1ctx/0": "not json at all"})
        assert extract_context(case, provider) == EMPTY_CONTEXT

    def test_a_span_found_only_in_the_note_is_dropped(self):
        case = simple_case("c1", patient_question="Why was that done?")
        response = json.dumps(
            {"procedures": [], "medications": [], "diagnoses": [],
             "findings": ["note sentence number 2"], "temporal_urgency_cues": []}
        )
        provider = ScriptedProvider(handler=lambda r: response)
        assert extract_context(case, provider) == EMPTY_CONTEXT

    def test_the_request_carries_the_question_and_no_note(self):
        case = simple_case("c1", patient_question="Why was that done?")
        sent = []
        extract_context(case, ScriptedProvider(handler=lambda r: sent.append(r) or "{}"))
        text = "\n".join(m.content for m in sent[0].messages)
        assert text.endswith("Patient question:\nWhy was that done?\n")
        assert not any(s.text in text for s in case.note)

    @given(st.text(max_size=80))
    def test_fuzz_never_yields_foreign_spans(self, noise):
        case = simple_case("c1", patient_question="Why was the stent placed?")
        provider = ScriptedProvider(
            {"c1/st1ctx/0": json.dumps({"procedures": [noise], "medications": [],
                                        "diagnoses": [], "findings": [],
                                        "temporal_urgency_cues": []})}
        )
        context = extract_context(case, provider)
        for span in context.procedures:
            assert span.lower() in case.patient_question.lower()


class TestGenerateCandidates:
    def make_providers(self, a_text, b_text=None):
        providers = [("a", ScriptedProvider({"c1/st1/a/0": a_text}))]
        if b_text is not None:
            providers.append(("b", ScriptedProvider({"c1/st1/b/0": b_text})))
        return providers

    def test_pooling_across_providers(self):
        a = "\n".join(f"CANDIDATE_{i}: Question a{i}?" for i in range(1, 6))
        b = "\n".join(f"CANDIDATE_{i}: Question b{i}?" for i in range(1, 6))
        case = simple_case("c1")
        out = generate_candidates(case, ClinicalContext(), [], self.make_providers(a, b))
        assert len(out) == 10

    def test_case_insensitive_dedup(self):
        a = "CANDIDATE_1: Why the stent?"
        b = "CANDIDATE_1: WHY THE STENT?"
        out = generate_candidates(
            simple_case("c1"), ClinicalContext(), [], self.make_providers(a, b)
        )
        assert out == ["Why the stent?"]

    def test_a_later_duplicate_keeps_the_first_spelling_and_position(self):
        a = "CANDIDATE_1: Why the stent?\nCANDIDATE_2: When was it placed?"
        b = "CANDIDATE_1: What came next?\nCANDIDATE_2: WHY THE STENT?"
        out = generate_candidates(
            simple_case("c1"), ClinicalContext(), [], self.make_providers(a, b)
        )
        assert out == ["Why the stent?", "When was it placed?", "What came next?"]

    def test_an_unparseable_reply_counts_as_a_failed_provider(self, caplog):
        providers = [
            ("a", ScriptedProvider({"c1/st1/a/0": "no candidates here"})),
            ("b", ScriptedProvider({})),  # raises
        ]
        with caplog.at_level("WARNING"), pytest.raises(SubtaskError, match="every candidate"):
            generate_candidates(simple_case("c1"), ClinicalContext(), [], providers)
        assert "st1 run c1/st1/a/0 unparseable, counting as empty" in caplog.text

    def test_one_provider_failing_is_tolerated(self):
        a = "CANDIDATE_1: Why the stent?"
        providers = [
            ("a", ScriptedProvider({"c1/st1/a/0": a})),
            ("b", ScriptedProvider({})),  # raises
        ]
        out = generate_candidates(simple_case("c1"), ClinicalContext(), [], providers)
        assert out == ["Why the stent?"]

    def test_all_providers_failing_is_error(self):
        providers = [("a", ScriptedProvider({})), ("b", ScriptedProvider({}))]
        with pytest.raises(SubtaskError, match="every candidate provider"):
            generate_candidates(simple_case("c1"), ClinicalContext(), [], providers)


GOLD_TEMPLATES = [
    "Why was emergency stent placement required?",
    "Why was the medication changed?",
    "What determines the discharge timing?",
]


class TestSelectCandidate:
    def test_single_valid_candidate(self):
        chosen, _ = select_candidate(
            ["Why was emergent surgery required?"], GOLD_TEMPLATES, CONSTRAINTS
        )
        assert chosen == "Why was emergent surgery required?"

    def test_first_person_filtered(self):
        chosen, scored = select_candidate(
            ["Why did my surgery happen?", "Why did the surgery happen?"],
            GOLD_TEMPLATES,
            CONSTRAINTS,
        )
        assert chosen == "Why did the surgery happen?"
        by_text = {s.candidate: s for s in scored}
        assert not by_text["Why did my surgery happen?"].constraint_ok

    def test_sixteen_word_sole_candidate_repaired(self):
        words = " ".join(f"w{i}" for i in range(16))
        chosen, _ = select_candidate([words], GOLD_TEMPLATES, CONSTRAINTS)
        assert count_words(chosen) <= 15
        assert chosen.endswith("?")
        assert chosen.split()[:14] == words.split()[:14]

    def test_empty_candidates_error(self):
        with pytest.raises(SubtaskError):
            select_candidate([], GOLD_TEMPLATES, CONSTRAINTS)

    @given(st.permutations(
        [
            "Why was the stent placed?",
            "What was the reason for the stent?",
            "Was the stent urgent?",
            "Why was the emergency stent needed now?",
        ]
    ))
    def test_permutation_invariant(self, ordering):
        baseline, _ = select_candidate(
            [
                "Why was the stent placed?",
                "What was the reason for the stent?",
                "Was the stent urgent?",
                "Why was the emergency stent needed now?",
            ],
            GOLD_TEMPLATES,
            CONSTRAINTS,
        )
        chosen, _ = select_candidate(list(ordering), GOLD_TEMPLATES, CONSTRAINTS)
        assert chosen == baseline

    @given(
        st.lists(
            st.text(alphabet="abc my I we ?.", min_size=1, max_size=120),
            min_size=1,
            max_size=6,
        )
    )
    def test_fuzz_output_always_constraint_valid(self, candidates):
        chosen, _ = select_candidate(candidates, GOLD_TEMPLATES, CONSTRAINTS)
        assert count_words(chosen) <= 15
        assert chosen.endswith("?")
        lowered = {t.strip(".,;:!?").lower() for t in chosen.split()}
        assert lowered.isdisjoint(CONSTRAINTS.forbidden_first_person)


class TestRepair:
    def test_truncates_and_terminates(self):
        text = " ".join(f"w{i}" for i in range(20))
        repaired = repair_candidate(text, CONSTRAINTS)
        assert count_words(repaired) <= 15
        assert repaired.endswith("?")

    def test_drops_first_person(self):
        repaired = repair_candidate("Can I stop my heart meds", CONSTRAINTS)
        assert "I" not in repaired.split()
        assert "my" not in repaired.split()

    @pytest.mark.parametrize("token", ["I'm", "I've", "we'd", "we\u2019re", "myself"])
    def test_contractions_and_reflexives_are_dropped_whole(self, token):
        question = f"Why was {token} given insulin?"
        assert not check_constraints(question, CONSTRAINTS)
        assert repair_candidate(question, CONSTRAINTS) == "Why was given insulin?"

    def test_a_possessive_is_not_first_person(self):
        question = "Why was the patient's insulin held?"
        assert check_constraints(question, CONSTRAINTS)
        assert repair_candidate(question, CONSTRAINTS) == question

    def test_degenerate_all_forbidden(self):
        repaired = repair_candidate("me my mine", CONSTRAINTS)
        assert repaired.endswith("?")
        assert count_words(repaired) >= 1


class TestRunCase:
    def test_end_to_end_with_mocks(self):
        case = simple_case(
            "c1", patient_question="Why did they have to put a stent in so urgently?"
        )
        pool = [
            simple_case("p1", clinician_question="Why was emergency stent placement required?"),
            simple_case("p2", clinician_question="Was the dose adjusted?"),
        ]
        script = {
            "c1/st1ctx/0": json.dumps(
                {"procedures": [], "medications": [], "diagnoses": [], "findings": [],
                 "temporal_urgency_cues": ["urgently"]}
            ),
            "c1/st1/m/0": "CANDIDATE_1: Why was the stent placed so urgently?\n"
                          "CANDIDATE_2: Was this my fault?",
        }
        providers = [("m", ScriptedProvider(script))]
        result = run_case(case, St1Pool(pool), providers)
        assert result.clinician_question == "Why was the stent placed so urgently?"
        assert count_words(result.clinician_question) <= 15


# A small vocabulary, so that token sets repeat and hybrid scores tie.
_WORDS = ["why", "what", "was", "is", "the", "stent", "dose", "it", "my", "done", "How", "."]
_questions = st.lists(st.sampled_from(_WORDS), max_size=6).map(lambda ws: " ".join(ws) + "?")
_templates = st.one_of(
    st.none(),
    st.sampled_from(
        ["Why was the stent placed?", "What changed the dose?", "Was the dose adjusted?"]
    ),
    _questions,
)


class TestPoolFeatures:
    """The per-run feature path against the per-pair reference definitions."""

    @given(
        a=st.one_of(_questions, st.text(max_size=30)),
        b=st.one_of(_questions, st.text(max_size=30)),
    )
    def test_token_overlap_f1_is_the_reference(self, a, b):
        assert token_overlap_f1(a, b) == reference_token_f1(a, b)

    @given(
        pool_spec=st.lists(st.tuples(_questions, _templates), min_size=1, max_size=8),
        query=st.one_of(st.integers(min_value=0, max_value=7), _questions),
        candidates=st.lists(_questions, min_size=1, max_size=4),
        max_n=st.integers(min_value=0, max_value=6),
    )
    def test_matches_per_pair_definitions(self, pool_spec, query, candidates, max_n):
        pool = [
            simple_case(str(i), patient_question=pq, clinician_question=cq)
            for i, (pq, cq) in enumerate(pool_spec)
        ]
        if isinstance(query, int):
            case = pool[query % len(pool)]  # leave-one-out
        else:
            case = simple_case("q", patient_question=query)
        features = St1Pool(pool)

        expected_shots = sorted(
            (c for c in pool if c.case_id != case.case_id),
            key=lambda c: (-hybrid_score(case, c), c.case_id),
        )[:max_n]
        assert retrieve_shots(case, features, max_n=max_n) == expected_shots

        templates = [
            c.clinician_question
            for c in pool
            if c.case_id != case.case_id and c.clinician_question
        ]
        counts = Counter(classify_question_type(t) for t in templates)
        target = "other"
        if counts:
            target = max(
                QUESTION_TYPES, key=lambda t: (counts.get(t, 0), -QUESTION_TYPES.index(t))
            )
        expected_scores = []
        for candidate in candidates:
            type_match = 1.0 if classify_question_type(candidate) == target else 0.0
            lexical = max((reference_token_f1(candidate, t) for t in templates), default=0.0)
            expected_scores.append(
                CandidateScore(
                    candidate=candidate,
                    type_match=type_match,
                    lexical=lexical,
                    total=0.5 * type_match + (1.0 - 0.5) * lexical,
                    constraint_ok=check_constraints(candidate, CONSTRAINTS),
                )
            )
        style = features.gold_style(exclude_case_id=case.case_id)
        assert score_candidates(candidates, style, CONSTRAINTS) == expected_scores
        assert score_candidates(candidates, templates, CONSTRAINTS) == expected_scores


def _st1_work(tmp_path, n: int, monkeypatch) -> tuple[int, int]:
    """Calls to st1's token-punctuation stripper and to its per-pair
    Python scorer ``token_overlap_f1`` in one st1 run over n cases."""
    openers = ["Why was", "What is", "How long was", "Was", "When did"]
    topics = ["the stent", "my dose", "the scan", "it done", "the fever", "the rash"]
    cases = tuple(
        simple_case(
            str(i),
            patient_question=f"{openers[i % 5]} {topics[i % 6]} {i} needed so soon?",
            clinician_question=f"{openers[(i + 2) % 5]} {topics[(i + 1) % 6]} required?",
        )
        for i in range(n)
    )
    path = tmp_path / f"cases-{n}.jsonl"
    save_cases(CaseFile(cases), path)
    config = resolve_config({
        "dataset": {"cases": str(path)},
        "subtasks": ["st1"],
        "provider_mode": "mock",
        "out_dir": str(tmp_path / f"out-{n}"),
        "workers": 1,
    })
    calls = Counter()

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    with monkeypatch.context() as patch:
        for name in ("strip_token_punct", "token_overlap_f1"):
            patch.setattr(st1_module, name, counting(name, getattr(st1_module, name)))
        run_pipeline(config)
    return calls["strip_token_punct"], calls["token_overlap_f1"]


def test_st1_work_grows_linearly_with_cases(tmp_path, monkeypatch):
    # Counts, not timings: per-pair retrieval and scoring would make each
    # ratio about 4 when the case count doubles.
    small_strips, small_pairs = _st1_work(tmp_path, 20, monkeypatch)
    large_strips, large_pairs = _st1_work(tmp_path, 40, monkeypatch)
    assert large_strips <= 2.5 * small_strips
    assert large_pairs <= 2.5 * small_pairs
