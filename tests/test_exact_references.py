"""The fast forms of the replay path's prompt work, held with ``==`` to the
plain forms they replaced, which are kept here as references: the request
cache key spliced from memoised message JSON, st4 recall scored by one
matrix product, vector cosine, and rendering with per-shot memos."""

import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ehrqa import prompting
from ehrqa.core import Case, EhrqaError, NoteSentence, id_sort_key
from ehrqa.prompting import Message, load_template, make_contrast_example, render_prompt
from ehrqa.providers import FixedEmbedder, GenRequest, cosine, request_cache_key
from ehrqa.st4 import RecallConfig, recall_augment
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
