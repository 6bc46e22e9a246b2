"""The fast forms of the hot paths, held with ``==`` to the plain forms
they replaced, which are kept here as references: the request cache key
hashed from memoised message JSON and lead states, st4 recall scored by one matrix
product, vector cosine, rendering with per-shot memos, st1 retrieval and
candidate scoring through a token index, the mock backend's prompt sections
found by ``str.find`` in each message, and the mock embedder's batched
normal draws."""

import hashlib
import json
import math
import random
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ehrqa import prompting
from ehrqa.core import Case, ConstraintConfig, EhrqaError, NoteSentence, id_sort_key
from ehrqa.prompting import Message, load_template, make_contrast_example, render_prompt
from ehrqa.providers import (
    GenRequest,
    HashEmbedder,
    PipelineMockProvider,
    cosine,
    request_cache_key,
)
from ehrqa.st1 import (
    TYPE_WEIGHT,
    CandidateScore,
    QuestionFeatures,
    St1Pool,
    _plurality_type,
    check_constraints,
    retrieve_shots,
    score_candidates,
)
from ehrqa.st4 import RecallConfig, recall_augment
from tests.conftest import FixedEmbedder, simple_case
from tests.test_prompting import shot_case, target_case

# -- references -------------------------------------------------------------


def reference_request_cache_key(request: GenRequest) -> str:
    payload = {
        "deployment_name": request.deployment_name,
        "messages": [[m.role, m.content] for m in request.messages],
        "temperature": request.temperature,
        "max_output_tokens": request.max_output_tokens,
        "sample_index": request.sample_index,
    }
    canonical = json.dumps(payload, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def reference_cosine(u, v) -> float:
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise EhrqaError(f"vector dimension mismatch: {u.shape} vs {v.shape}")
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise EhrqaError("cosine similarity undefined for a zero vector")
    return float(np.dot(u, v) / (nu * nv))


def reference_recall_augment(alignment, case, embedder, config, answers=None):
    """The scalar loop: one vector cosine per (answer, note) pair."""
    if not config.enabled:
        return alignment
    answer_sentences = answers if answers is not None else list(case.clinician_answer_sentences)
    if not answer_sentences or not case.note:
        return alignment
    answer_texts = [text for _, text in answer_sentences]
    vectors = embedder.embed(answer_texts + [s.text for s in case.note])
    answer_vecs, note_vecs = vectors[: len(answer_texts)], vectors[len(answer_texts) :]
    existing = {aid: set(ev) for aid, ev in alignment}
    for (aid, _), avec in zip(answer_sentences, answer_vecs):
        for sentence, nvec in zip(case.note, note_vecs):
            if sentence.id in existing.get(aid, set()):
                continue
            if reference_cosine(avec, nvec) >= config.tau:
                existing.setdefault(aid, set()).add(sentence.id)
    return [
        (aid, sorted(ev, key=id_sort_key))
        for aid, ev in sorted(existing.items(), key=lambda kv: id_sort_key(kv[0]))
    ]


def reference_set_f1(tokens_a, tokens_b) -> float:
    if not tokens_a or not tokens_b:
        return 0.0
    overlap = len(tokens_a & tokens_b)
    if overlap == 0:
        return 0.0
    p, r = overlap / len(tokens_a), overlap / len(tokens_b)
    return 2 * p * r / (p + r)


def reference_weighted(type_match: float, lexical: float) -> float:
    return TYPE_WEIGHT * type_match + (1.0 - TYPE_WEIGHT) * lexical


def reference_retrieve_shots(case, cases, max_n):
    """One set F1 per pool case, then a sort by (-score, case_id)."""
    query = QuestionFeatures.of(case.patient_question)

    def key(other):
        features = QuestionFeatures.of(other.patient_question)
        type_match = 1.0 if query.qtype == features.qtype else 0.0
        lexical = reference_set_f1(query.tokens, features.tokens)
        return (-reference_weighted(type_match, lexical), other.case_id)

    return sorted((c for c in cases if c.case_id != case.case_id), key=key)[:max_n]


def reference_gold_style(cases, exclude_case_id):
    """The pool's clinician token sets, copied without the left-out case's,
    and the type histogram less the left-out case's types."""
    features = [
        QuestionFeatures.of(c.clinician_question) if c.clinician_question else None
        for c in cases
    ]
    counts = Counter(f.qtype for f in features if f is not None)
    token_sets = []
    for case, f in zip(cases, features):
        if f is None:
            continue
        if case.case_id == exclude_case_id:
            counts = counts.copy()
            counts[f.qtype] -= 1
        else:
            token_sets.append(f.tokens)
    return token_sets, counts


def reference_score_candidates(candidates, token_sets, type_counts, constraints):
    """The best set F1 over the gold token sets, one pair at a time."""
    target = _plurality_type(type_counts)
    scored = []
    for candidate in candidates:
        features = QuestionFeatures.of(candidate)
        type_match = 1.0 if features.qtype == target else 0.0
        lexical = max((reference_set_f1(features.tokens, t) for t in token_sets), default=0.0)
        scored.append(CandidateScore(
            candidate=candidate,
            type_match=type_match,
            lexical=lexical,
            total=reference_weighted(type_match, lexical),
            constraint_ok=check_constraints(candidate, constraints),
        ))
    return scored


# The mock backend's section regexes, each with the headers that
# ``PipelineMockProvider._section_ids`` is given for that section.
SECTION_REFERENCES = {
    r"(?:Full note|Note sentences):\n(.*?)(?:\n\n|\Z)": ("Full note:\n", "Note sentences:\n"),
    r"Evidence sentences:\n(.*?)(?:\n\n|\Z)": ("Evidence sentences:\n",),
    r"Answer sentences:\n(.*?)(?:\n\n|\Z)": ("Answer sentences:\n",),
}


def reference_section_ids(pattern: str, prompt: str) -> list[str]:
    match = re.search(pattern, prompt, re.DOTALL)
    return re.findall(r"^(\d+)\. ", match.group(1), re.MULTILINE) if match else []


def reference_vector(text: str, dim: int) -> np.ndarray:
    seed = int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")
    rng = random.Random(seed)
    vec = np.array([rng.gauss(0, 1) for _ in range(dim)])
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        vec[0] = 1.0
        norm = 1.0
    return vec / norm


def render_without_memos(*args, **kwargs):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(prompting, "_memo", lambda owner, key, make: make())
        return render_prompt(*args, **kwargs)


# -- request cache key -------------------------------------------------------

# Text the JSON encoder must escape or pass through: quotes, backslashes,
# control characters, newlines and non-ASCII.
TRICKY = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\\n\r\t\x00\x1f\x7f é漢😀 /'),
        st.characters(codec="utf-8"),
    ),
    max_size=40,
)
MESSAGES = st.lists(
    st.builds(Message, st.sampled_from(["system", "user", "assistant"]), TRICKY), max_size=5
).map(lambda ms: (*ms, Message("user", "question")))
TEMPERATURES = st.one_of(
    st.sampled_from([0.0, 0.1, 1e-7, 2.0, 0.3, 1.0 / 3.0]),
    st.floats(min_value=0.0, max_value=2.0),
)


@given(
    TRICKY,
    MESSAGES,
    TEMPERATURES,
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=0, max_value=50),
)
@example("m1", (Message("user", 'say "hi"\\n'),), 1e-7, 256, 1)
def test_cache_key_matches_json_dumps_of_the_payload(
    deployment, messages, temperature, tokens, sample
):
    request = GenRequest(
        deployment_name=deployment,
        messages=messages,
        temperature=temperature,
        max_output_tokens=tokens,
        request_tag="c/st2/m/0",
        sample_index=sample,
    )
    expected = reference_request_cache_key(request)
    assert request_cache_key(request) == expected
    assert request_cache_key(request) == expected  # every message's JSON now memoised


# Values JSON writes apart although some compare equal: the head and tail
# memos must not serve one for another.
SCALARS = st.sampled_from(
    [-0.0, 0.0, 0, False, 1, True, 1.0, math.nan, math.inf, -math.inf, 0.3, 256]
)


@st.composite
def request_sequences(draw):
    """Requests whose leading messages are the same objects, equal but
    distinct objects, the shared lead less one message, a zero-shot lead
    ``(system,)`` or nothing, keyed in the drawn order."""
    system = Message("system", draw(TRICKY))
    shared = (system, *draw(st.lists(
        st.builds(Message, st.sampled_from(["user", "assistant"]), TRICKY),
        min_size=1, max_size=6,
    )))
    requests = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        kind = draw(st.sampled_from(["shared", "equal", "leave-one-out", "zero-shot", "none"]))
        if kind == "shared":
            lead = shared
        elif kind == "equal":
            lead = tuple(Message(m.role, m.content) for m in shared)
        elif kind == "leave-one-out":
            drop = draw(st.integers(min_value=0, max_value=len(shared) - 1))
            lead = shared[:drop] + shared[drop + 1:]
        else:
            lead = (system,) if kind == "zero-shot" else ()
        requests.append(GenRequest(
            deployment_name=draw(st.one_of(st.sampled_from(["m1", "m2"]), TRICKY)),
            messages=(*lead, Message("user", draw(TRICKY))),
            temperature=draw(SCALARS),
            max_output_tokens=draw(SCALARS),
            request_tag="c/st4/m/0",
            sample_index=draw(SCALARS),
        ))
    return requests


@given(request_sequences())
@example([
    GenRequest("m1", (Message("user", "q"),), temperature=t, max_output_tokens=n, sample_index=i)
    for t, n, i in [(0.0, 1, 0), (-0.0, 1.0, 0.0), (0, True, False), (-0.0, True, -0.0)]
])
def test_cache_keys_of_request_sequences_match_json_dumps(requests):
    """Key each request twice in order: the first pass fills the lead,
    head and tail memos, the second is served from them."""
    expected = [reference_request_cache_key(r) for r in requests]
    assert [request_cache_key(r) for r in requests] == expected
    assert [request_cache_key(r) for r in requests] == expected


# -- cosine -------------------------------------------------------------------

VECTORS = st.integers(min_value=1, max_value=12).flatmap(
    lambda d: st.tuples(
        *[st.lists(st.floats(-1e3, 1e3), min_size=d, max_size=d) for _ in range(2)]
    )
)


@given(VECTORS)
def test_vector_cosine_is_the_reference(pair):
    u, v = pair
    try:
        expected = reference_cosine(u, v)
    except EhrqaError as exc:
        with pytest.raises(EhrqaError, match=re.escape(str(exc))):
            cosine(u, v)
        return
    assert cosine(u, v) == expected or (math.isnan(expected) and math.isnan(cosine(u, v)))


# -- st4 recall ----------------------------------------------------------------


def near_tau_vector(answer: np.ndarray, tau: float, offset: float, rng) -> np.ndarray:
    """A vector whose cosine with ``answer`` is ``tau + offset`` up to rounding."""
    unit = answer / np.linalg.norm(answer)
    other = rng.normal(size=answer.shape)
    other -= other.dot(unit) * unit
    other /= np.linalg.norm(other)
    c = tau + offset
    return (c * unit + math.sqrt(1.0 - c * c) * other) * rng.uniform(0.5, 3.0)


@st.composite
def recall_inputs(draw):
    dim = draw(st.integers(min_value=2, max_value=24))
    n_answers = draw(st.integers(min_value=1, max_value=4))
    n_notes = draw(st.integers(min_value=1, max_value=12))
    tau = draw(st.sampled_from([0.68, 0.5, 0.9, 1e-3, 1.0]) | st.floats(0.01, 0.99))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    answers = [rng.normal(size=dim) for _ in range(n_answers)]
    notes = []
    for _ in range(n_notes):
        kind = draw(st.sampled_from(["random", "near", "copy"]))
        if kind == "near" and tau < 1.0:
            answer = answers[draw(st.integers(0, n_answers - 1))]
            offset = draw(st.sampled_from([0.0, 1e-12, -1e-12, 5e-13, -5e-13, 1e-15]))
            notes.append(near_tau_vector(answer, tau, offset, rng))
        elif kind == "copy":
            notes.append(answers[draw(st.integers(0, n_answers - 1))] * rng.uniform(0.5, 3.0))
        else:
            notes.append(rng.normal(size=dim))
    case = Case(
        case_id="c1",
        patient_question="q?",
        note=tuple(NoteSentence(str(j + 1), f"note {j}") for j in range(n_notes)),
        clinician_answer_sentences=tuple((str(i + 1), f"answer {i}") for i in range(n_answers)),
    )
    table = {f"answer {i}": v for i, v in enumerate(answers)}
    table.update({f"note {j}": v for j, v in enumerate(notes)})
    linked = draw(
        st.lists(
            st.tuples(
                st.sampled_from([str(i + 1) for i in range(n_answers)]),
                st.sets(st.sampled_from([str(j + 1) for j in range(n_notes)]), max_size=3),
            ),
            unique_by=lambda t: t[0],
        )
    )
    alignment = [(aid, sorted(ev, key=int)) for aid, ev in linked]
    return alignment, case, FixedEmbedder(table), RecallConfig(enabled=True, tau=tau)


@settings(max_examples=300)
@given(recall_inputs())
def test_recall_matches_the_scalar_loop(inputs):
    assert recall_augment(*inputs) == reference_recall_augment(*inputs)


def test_recall_rescores_a_pair_the_matrix_form_rounds_across_tau():
    """Find a pair whose matrix-form score differs from its vector-form
    score, set tau to the vector-form score, and check that the link the
    scalar loop makes is made."""
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        a, n = rng.normal(size=32), rng.normal(size=32)
        exact, matrix = cosine(a, n), cosine([a], [n])[0, 0]
        if matrix < exact and 0.0 < exact <= 1.0:
            break
    else:
        pytest.fail("no pair found whose matrix-form score rounds below its vector form")
    case = Case(
        case_id="c1", patient_question="q?", note=(NoteSentence("1", "n"),),
        clinician_answer_sentences=(("1", "a"),),
    )
    inputs = ([("1", [])], case, FixedEmbedder({"a": a, "n": n}), RecallConfig(True, exact))
    assert reference_recall_augment(*inputs) == [("1", ["1"])]
    assert recall_augment(*inputs) == [("1", ["1"])]


# -- rendering ---------------------------------------------------------------

WORDS = st.text(alphabet="abc $%{}\\\"\n.é", min_size=1, max_size=12).filter(str.strip)


@st.composite
def pool_case(draw, case_id):
    n = draw(st.integers(min_value=2, max_value=5))
    note = tuple(NoteSentence(str(j + 1), draw(WORDS)) for j in range(n))
    answers = tuple((str(i + 1), draw(WORDS)) for i in range(draw(st.integers(1, 2))))
    ids = st.sampled_from([s.id for s in note])
    evidence = frozenset(draw(st.sets(ids, min_size=1, max_size=n - 1)))
    return Case(
        case_id=case_id,
        patient_question=draw(WORDS),
        clinician_question=draw(st.none() | WORDS),
        note=note,
        clinician_answer_sentences=answers,
        clinician_answer_paragraph=draw(st.none() | WORDS),
        gold_evidence=evidence,
        gold_alignments=tuple((aid, evidence) for aid, _ in answers),
    )


@settings(max_examples=60)
@given(
    st.lists(st.integers(0, 3), max_size=6),
    st.tuples(*[pool_case(f"p{i}") for i in range(4)]),
    st.booleans(),
    st.booleans(),
)
def test_memoised_rendering_matches_unmemoised(picks, pool, full_answer, contrast):
    """Render every subtask that takes shots twice per target, so the
    second render reads the memos, and compare with unmemoised renders."""
    target = target_case()
    shots = [pool[i] for i in picks]
    st2_shots = [make_contrast_example(s) for s in shots] if contrast else shots
    renders = [
        ("st1", shots, {"context_block": "(none)"}),
        ("st2", st2_shots, {"clinician_question": "rewritten?"}),
        ("st3_stage1", shots, {"evidence_block": "1. x"}),
        ("st4", shots, {"answer_block": "1. y", "full_answer_block": "\nctx\n"} if full_answer
         else {"answer_block": "1. y"}),
    ]
    for subtask, shot_list, extra in renders:
        template = load_template(subtask)
        expected = render_without_memos(template, target, shot_list, extra=extra)
        for _ in range(2):
            assert render_prompt(template, target, shot_list, extra=extra) == expected


def test_shot_memos_are_per_template_and_flag():
    """One shot rendered for every subtask and both full-answer flags gives
    the unmemoised text each time, in either order."""
    shot = shot_case()
    for full_answer in (True, False, True):
        extra = {"evidence_block": "1. x"}
        if full_answer:
            extra["full_answer_block"] = "\nctx\n"
        for subtask in ("st1", "st2", "st3_stage1", "st4"):
            args = (load_template(subtask), target_case(), [shot])
            assert render_prompt(*args, extra=extra) == render_without_memos(*args, extra=extra)


# -- st1 token index -----------------------------------------------------------

# A small vocabulary, so that token sets repeat and scores tie; "." and ""
# give empty token sets.
ST1_WORDS = [
    "why", "what", "was", "is", "the", "stent", "dose", "it", "my", "How", ".", "é",
    "scan", "fever", "done", "so", "soon", "needed",
]
QUESTIONS = st.lists(st.sampled_from(ST1_WORDS), max_size=12).map(" ".join)
CANDIDATES = st.lists(st.sampled_from(ST1_WORDS), max_size=12).map(lambda ws: " ".join(ws) + "?")


@st.composite
def st1_pools(draw):
    """Up to 40 cases with ids from a small set, so that ids repeat and
    ties are broken by case_id and then by pool order."""
    n = draw(st.integers(min_value=0, max_value=40))
    return [
        simple_case(
            draw(st.sampled_from([f"c{i}" for i in range(12)])),
            n_sentences=1,
            patient_question=draw(QUESTIONS),
            clinician_question=draw(st.none() | st.just("") | QUESTIONS),
        )
        for _ in range(n)
    ]


@given(
    st1_pools(),
    st.integers(min_value=0, max_value=50),
    st.booleans(),
    st.lists(CANDIDATES, min_size=1, max_size=4),
    st.integers(min_value=-2, max_value=45),
)
@example(  # the left-out case has no clinician question
    [simple_case("a", clinician_question=None), simple_case("b", clinician_question="Why?")],
    0, False, ["Why?"], 5,
)
def test_st1_index_matches_the_per_pair_forms(cases, pick, outside, candidates, max_n):
    """Shots, gold style and candidate scores through the token index equal
    the per-pair forms, leaving out a pool case or a case from outside."""
    if outside or not cases:
        case = simple_case("q", patient_question="Why was the stent done?")
    else:
        case = cases[pick % len(cases)]
    pool = St1Pool(cases)
    expected = reference_retrieve_shots(case, cases, max_n)
    assert [id(c) for c in retrieve_shots(case, pool, max_n=max_n)] == [id(c) for c in expected]

    token_sets, counts = reference_gold_style(cases, case.case_id)
    style = pool.gold_style(exclude_case_id=case.case_id)
    assert style.type_counts == counts
    constraints = ConstraintConfig()
    expected_scores = reference_score_candidates(candidates, token_sets, counts, constraints)
    assert score_candidates(candidates, style, constraints) == expected_scores
    templates = [
        c.clinician_question for c in cases if c.case_id != case.case_id and c.clinician_question
    ]
    assert score_candidates(candidates, templates, constraints) == expected_scores


# -- mock prompt sections ------------------------------------------------------

PROMPT_PARTS = st.sampled_from([
    "Full note:\n", "Note sentences:\n", "Full note:", "Note sentences", "\n\n", "\n",
    "1. ", "12. ", "3.", " 4. ", "text", "é", "Evidence sentences:\n", "Answer sentences:\n",
    "Answer sentences:",
])


@given(st.lists(PROMPT_PARTS, max_size=14).map("".join))
@example("Full note:\n1. a\n2. b\n\nNote sentences:\n3. c")
@example("Note sentences:\n3. c\n\nFull note:\n1. a\n2. b\n\n")
@example("Question\n\nNote sentences:\n1. a\n2. b")  # a section that ends the prompt
@example("Evidence sentences:\n2. b\n\nAnswer sentences:\n1. a")
@example("Full note:\n\n1. a")  # a blank line right after a header
@example("Full note:\n\n\n1. a")
@example("Answer sentences:\n\n\n1. a")
@example("Evidence sentences:\n")  # a header with nothing after it
@example("Note sentences:\n")
@example("1. a\n2. b\n\nno header")
def test_mock_sections_match_their_regexes(prompt):
    for pattern, headers in SECTION_REFERENCES.items():
        expected = reference_section_ids(pattern, prompt)
        assert PipelineMockProvider._section_ids(prompt, *headers) == expected


# A long note section, as in an st4 shot turn.
LONG_SECTION = "".join(f"{i}. Sentence {i} of the note.\n" for i in range(1, 200))


@given(st.lists(st.lists(PROMPT_PARTS, max_size=8).map("".join), min_size=1, max_size=5))
@example(["System.", "Note sentences:\n" + LONG_SECTION + "\nAnswer sentences:\n1. a"] * 21)
@example(["x" * 50_000] * 20 + ["Full note:\n" + LONG_SECTION])  # headers only at the end
@example(["x" * 50_000, "no header\n1. a", "2. b"])  # no header at all
@example(["Question. Full note:", "1. a\n2. b", "3. c"])  # a header split by the join
@example(["Full note:", "\n1. a"])  # ... and a blank line right after it
@example(["Note sentences:", "1. a\n\n2. b"])
@example(["Answer sentences:", ""])
@example(["Evidence sentences:", "1. a", "2. b"])  # a section ended by the join
@example(["Note sentences:\n1. a\n", "2. b"])  # a blank line made by the join
@example(["Full note:\n", "1. a", "Note sentences:\n2. b"])
@example(["a", "Answer sentences:\n3. c\n", "Full note:", "4. d"])
def test_mock_sections_of_messages_match_the_joined_prompt(contents):
    """The mock reads a request's message contents one by one, as the
    prompt they make joined by blank lines."""
    prompt = "\n\n".join(contents)
    for pattern, headers in SECTION_REFERENCES.items():
        expected = reference_section_ids(pattern, prompt)
        assert PipelineMockProvider._section_ids(contents, *headers) == expected


# -- mock embedder --------------------------------------------------------------


@given(
    st.sampled_from([2, 3, 5, 32, 33]),
    st.lists(st.text(max_size=20), min_size=1, max_size=64),
)
@example(32, ["", "é漢😀", "The note documents the findings."])
@example(33, [f"note sentence {i}" for i in range(64)])
@example(2, ["a"])
def test_hash_embedder_matches_gauss_byte_for_byte(dim, texts):
    vectors = HashEmbedder(dim=dim).embed(texts)
    assert [v.tobytes() for v in vectors] == [reference_vector(t, dim).tobytes() for t in texts]


def test_hash_embedder_zero_draws_give_the_first_unit_vector(monkeypatch):
    """Draws that are all zero make a zero vector, which the embedder
    replaces with the first unit vector; the other texts of the call keep
    their own vectors."""
    zero_seed = int.from_bytes(hashlib.sha256(b"zero").digest()[:8], "big")

    class ZeroForOneText(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            self.zero = seed == zero_seed

        def getrandbits(self, k):
            return 0 if self.zero else super().getrandbits(k)

        def random(self):
            return 0.0 if self.zero else super().random()

    monkeypatch.setattr(random, "Random", ZeroForOneText)  # for both forms
    texts = ["a", "zero", "b"]
    vectors = HashEmbedder(dim=5).embed(texts)
    expected = [reference_vector(t, 5) for t in texts]
    assert expected[1].tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]
    assert [v.tobytes() for v in vectors] == [v.tobytes() for v in expected]
