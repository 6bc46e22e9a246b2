"""Question reformulation: turn a patient's free-text question into a
short clinician-interpreted question.

Pipeline per case: extract explicit clinical context, retrieve few-shot
examples by a hybrid question-type/lexical score, generate candidates from
one or more backends in parallel, then select the candidate that best
matches the style of the gold dev questions under hard constraints
(word limit, terminal "?", no first person).
"""

from __future__ import annotations

import logging
import re
from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

from .core import (
    Case,
    ConstraintConfig,
    ParseError,
    SubtaskError,
    contains_first_person,
    count_words,
    strip_token_punct,
)
from .parsing import parse_json_object, parse_st1_candidates
from .prompting import Message, load_template, render_prompt
from .providers import GenRequest, Generator, gather_multi

logger = logging.getLogger(__name__)

# Share of the question-type match in the hybrid and candidate scores.
TYPE_WEIGHT = 0.5

QUESTION_TYPES = ("why", "what", "how", "when", "where", "who", "yes_no", "other")

_INTERROGATIVES = {"why", "what", "how", "when", "where", "who", "whom", "whose", "which"}
_INTERROGATIVE_TYPE = {"whom": "who", "whose": "who", "which": "what"}
_AUXILIARIES = {
    "is", "are", "was", "were", "am", "be",
    "do", "does", "did",
    "can", "could", "will", "would", "shall", "should", "may", "might", "must",
    "has", "have", "had",
}

CONTEXT_FIELDS = (
    "procedures",
    "medications",
    "diagnoses",
    "findings",
    "temporal_urgency_cues",
)


@dataclass(frozen=True)
class ClinicalContext:
    """Explicitly stated clinical elements, kept as verbatim spans."""

    procedures: tuple[str, ...] = ()
    medications: tuple[str, ...] = ()
    diagnoses: tuple[str, ...] = ()
    findings: tuple[str, ...] = ()
    temporal_urgency_cues: tuple[str, ...] = ()

    def is_empty(self) -> bool:
        return not any(getattr(self, f) for f in CONTEXT_FIELDS)


EMPTY_CONTEXT = ClinicalContext()

_CONTEXT_LABELS = {
    "procedures": "Procedures",
    "medications": "Medications",
    "diagnoses": "Diagnoses",
    "findings": "Findings",
    "temporal_urgency_cues": "Temporal/urgency cues",
}


def context_block(context: ClinicalContext) -> str:
    lines = []
    for fname in CONTEXT_FIELDS:
        spans = getattr(context, fname)
        value = "; ".join(spans) if spans else "(none)"
        lines.append(f"{_CONTEXT_LABELS[fname]}: {value}")
    return "\n".join(lines)


_EXTRACT_INSTRUCTION = """\
Identify key clinical elements explicitly stated in the inputs below.
Copy each element verbatim from the inputs. Do not infer or introduce new clinical facts.
Return a JSON object with exactly these keys, each mapping to a list of strings:
"procedures", "medications", "diagnoses", "findings", "temporal_urgency_cues".
Use [] for a category with no explicit mention.

Patient question:
{question}
{note_section}"""


def extract_context(
    case: Case,
    provider: Generator,
    deployment: str = "default",
    include_note: bool = False,
) -> ClinicalContext:
    """LLM pre-pass listing explicit clinical elements; non-verbatim spans
    are dropped. Any provider or parse failure yields an empty context so
    the pipeline keeps going."""
    sources = [case.patient_question]
    note_section = ""
    if include_note:
        note_text = " ".join(s.text for s in case.note)
        sources.append(note_text)
        note_section = f"\nNote excerpt:\n{note_text}\n"
    prompt = _EXTRACT_INSTRUCTION.format(
        question=case.patient_question, note_section=note_section
    )
    request = GenRequest(
        deployment_name=deployment,
        messages=(Message("user", prompt),),
        temperature=0.0,
        request_tag=f"{case.case_id}/st1ctx/0",
    )
    try:
        response = provider.generate(request)
        raw = parse_json_object(response.text)
    except Exception as exc:
        logger.warning("context extraction failed for %s: %s", case.case_id, exc)
        return EMPTY_CONTEXT

    haystack = "\n".join(sources).lower()
    dropped = 0
    fields: dict[str, tuple[str, ...]] = {}
    for fname in CONTEXT_FIELDS:
        spans = raw.get(fname, [])
        if not isinstance(spans, list):
            spans = []
        kept = []
        for span in spans:
            if isinstance(span, str) and span.strip() and span.strip().lower() in haystack:
                kept.append(span.strip())
            else:
                dropped += 1
        fields[fname] = tuple(kept)
    if dropped:
        logger.warning(
            "context extraction for %s: dropped %d non-verbatim span(s)",
            case.case_id,
            dropped,
        )
    return ClinicalContext(**fields)


def classify_question_type(text: str) -> str:
    """First interrogative keyword at a sentence start wins; an auxiliary
    verb start means yes/no; anything else is other."""
    sentences = [s.strip() for s in _split_rough_sentences(text) if s.strip()]
    saw_aux = False
    for sentence in sentences:
        first = strip_token_punct(sentence.split()[0]).lower() if sentence.split() else ""
        if first in _INTERROGATIVES:
            return _INTERROGATIVE_TYPE.get(first, first)
        if first in _AUXILIARIES:
            saw_aux = True
    return "yes_no" if saw_aux else "other"


def _split_rough_sentences(text: str) -> list[str]:
    return re.split(r"[.!?]+", text)


def token_overlap_f1(a: str, b: str) -> float:
    """Set-based F1 over lowercase punctuation-stripped tokens.

    The per-pair reference definition: the per-run path (``St1Pool``)
    computes the same floats from cached token sets, and tests hold it to
    this function exactly.
    """
    tokens_a = {strip_token_punct(t).lower() for t in a.split()} - {""}
    tokens_b = {strip_token_punct(t).lower() for t in b.split()} - {""}
    if not tokens_a or not tokens_b:
        return 0.0
    overlap = len(tokens_a & tokens_b)
    if overlap == 0:
        return 0.0
    p, r = overlap / len(tokens_a), overlap / len(tokens_b)
    return 2 * p * r / (p + r)


def _token_set(text: str) -> frozenset[str]:
    return frozenset({strip_token_punct(t).lower() for t in text.split()} - {""})


def _set_f1(tokens_a: frozenset[str], tokens_b: frozenset[str]) -> float:
    if not tokens_a or not tokens_b:
        return 0.0
    overlap = len(tokens_a & tokens_b)
    if overlap == 0:
        return 0.0
    p, r = overlap / len(tokens_a), overlap / len(tokens_b)
    return 2 * p * r / (p + r)


def _weighted(type_match: float, lexical: float, type_weight: float) -> float:
    return type_weight * type_match + (1.0 - type_weight) * lexical


def hybrid_score(case: Case, candidate: Case, type_weight: float = TYPE_WEIGHT) -> float:
    type_match = 1.0 if (
        classify_question_type(case.patient_question)
        == classify_question_type(candidate.patient_question)
    ) else 0.0
    lexical = token_overlap_f1(case.patient_question, candidate.patient_question)
    return type_weight * type_match + (1.0 - type_weight) * lexical


@dataclass(frozen=True)
class QuestionFeatures:
    """What every st1 similarity reads of a question: its type and token set."""

    qtype: str
    tokens: frozenset[str]

    @classmethod
    def of(cls, text: str) -> QuestionFeatures:
        return cls(classify_question_type(text), _token_set(text))


@dataclass(frozen=True)
class GoldStyle:
    """The gold clinician questions candidates are scored against: their
    token sets and one histogram of their question types, duplicates
    counted."""

    token_sets: tuple[frozenset[str], ...]
    type_counts: Mapping[str, int]

    @classmethod
    def of(cls, templates: Iterable[str]) -> GoldStyle:
        features = [QuestionFeatures.of(t) for t in templates]
        return cls(tuple(f.tokens for f in features), Counter(f.qtype for f in features))


class St1Pool:
    """Few-shot pool with the question features of every case, built once.

    Per case it holds the features of the patient question and, when the
    case has one, of the clinician question, plus the clinician-question
    type histogram of the whole pool. Leave-one-out is a filter on
    case_id and a decrement of the left-out case's type.
    """

    def __init__(self, cases: Iterable[Case]):
        self.cases = tuple(cases)
        self.patient = tuple(QuestionFeatures.of(c.patient_question) for c in self.cases)
        self.clinician = tuple(
            QuestionFeatures.of(c.clinician_question) if c.clinician_question else None
            for c in self.cases
        )
        self.type_counts = Counter(f.qtype for f in self.clinician if f is not None)

    def gold_style(self, exclude_case_id: str | None = None) -> GoldStyle:
        counts = self.type_counts
        token_sets = []
        for case, features in zip(self.cases, self.clinician):
            if features is None:
                continue
            if case.case_id == exclude_case_id:
                counts = counts.copy()
                counts[features.qtype] -= 1
            else:
                token_sets.append(features.tokens)
        return GoldStyle(tuple(token_sets), counts)


def _as_pool(pool: St1Pool | Iterable[Case]) -> St1Pool:
    return pool if isinstance(pool, St1Pool) else St1Pool(pool)


def retrieve_shots(case: Case, pool: St1Pool | Iterable[Case], max_n: int = 5) -> list[Case]:
    """Top few-shot cases by hybrid question-type + lexical similarity
    (``hybrid_score``), leaving ``case`` itself out."""
    pool = _as_pool(pool)
    query = QuestionFeatures.of(case.patient_question)

    def key(i: int):
        other = pool.patient[i]
        type_match = 1.0 if query.qtype == other.qtype else 0.0
        lexical = _set_f1(query.tokens, other.tokens)
        return (-_weighted(type_match, lexical, TYPE_WEIGHT), pool.cases[i].case_id)

    ranked = sorted(
        (i for i, c in enumerate(pool.cases) if c.case_id != case.case_id), key=key
    )
    return [pool.cases[i] for i in ranked[:max_n]]


@dataclass(frozen=True)
class CandidateScore:
    candidate: str
    type_match: float
    lexical: float
    total: float
    constraint_ok: bool


def _plurality_type(type_counts: Mapping[str, int]) -> str:
    if not any(type_counts.values()):
        return "other"
    return max(
        QUESTION_TYPES, key=lambda t: (type_counts.get(t, 0), -QUESTION_TYPES.index(t))
    )


def check_constraints(candidate: str, constraints: ConstraintConfig) -> bool:
    return (
        count_words(candidate) <= constraints.st1_max_words
        and candidate.rstrip().endswith("?")
        and not contains_first_person(candidate, constraints.forbidden_first_person)
    )


def score_candidates(
    candidates: list[str],
    gold_templates: GoldStyle | Iterable[str],
    constraints: ConstraintConfig,
    type_weight: float = TYPE_WEIGHT,
) -> list[CandidateScore]:
    style = gold_templates
    if not isinstance(style, GoldStyle):
        style = GoldStyle.of(style)
    target_type = _plurality_type(style.type_counts)
    scored = []
    for candidate in candidates:
        features = QuestionFeatures.of(candidate)
        type_match = 1.0 if features.qtype == target_type else 0.0
        lexical = max(
            (_set_f1(features.tokens, t) for t in style.token_sets), default=0.0
        )
        scored.append(
            CandidateScore(
                candidate=candidate,
                type_match=type_match,
                lexical=lexical,
                total=_weighted(type_match, lexical, type_weight),
                constraint_ok=check_constraints(candidate, constraints),
            )
        )
    return scored


def repair_candidate(candidate: str, constraints: ConstraintConfig) -> str:
    """Force a candidate into constraint compliance: drop first-person
    tokens, truncate to the word limit, terminate with '?'."""
    tokens = [
        t
        for t in candidate.split()
        if strip_token_punct(t).lower() not in constraints.forbidden_first_person
    ]
    tokens = tokens[: constraints.st1_max_words]
    text = " ".join(tokens).rstrip(" .,;:!?")
    if not text:
        return "What is the clinical concern?"
    return text + "?"


def _selection_key(score: CandidateScore):
    # Order-free: permuting the candidate list cannot change the winner.
    return (-score.total, count_words(score.candidate), score.candidate)


def select_candidate(
    candidates: list[str],
    gold_templates: GoldStyle | Iterable[str],
    constraints: ConstraintConfig,
) -> tuple[str, list[CandidateScore]]:
    """Pick the best constraint-satisfying candidate, repairing the top raw
    candidate if none survive the filters."""
    if not candidates:
        raise SubtaskError("no candidates to select from")
    candidates = [c.strip() for c in candidates]
    scored = score_candidates(candidates, gold_templates, constraints)
    survivors = [s for s in scored if s.constraint_ok]
    if survivors:
        best = min(survivors, key=_selection_key)
        return best.candidate, scored
    best_raw = min(scored, key=_selection_key)
    repaired = repair_candidate(best_raw.candidate, constraints)
    logger.warning(
        "no constraint-valid candidate; repaired %r -> %r",
        best_raw.candidate,
        repaired,
    )
    return repaired, scored


def generate_candidates(
    case: Case,
    context: ClinicalContext,
    shots: list[Case],
    providers: list[tuple[str, Generator]],
    max_workers: int = 4,
) -> list[str]:
    """Pool candidates from all backends, deduplicated case-insensitively.

    One backend failing is tolerated; all failing is a subtask error.
    """
    if not providers:
        raise SubtaskError(f"case {case.case_id}: no candidate providers configured")
    template = load_template("st1")
    messages = tuple(
        render_prompt(
            template, case, shots, extra={"context_block": context_block(context)}
        )
    )
    pairs = [
        (
            provider,
            GenRequest(
                deployment_name=deployment,
                messages=messages,
                temperature=0.0,
                request_tag=f"{case.case_id}/st1/{deployment}/0",
            ),
        )
        for deployment, provider in providers
    ]
    outcomes = gather_multi(pairs, max_workers=max_workers)
    pooled: list[str] = []
    seen: set[str] = set()
    failures = 0
    for (deployment, _), outcome in zip(providers, outcomes):
        if not outcome.ok:
            failures += 1
            continue
        try:
            parsed = parse_st1_candidates(outcome.response.text)
        except ParseError as exc:
            logger.warning("st1 parse failure from %s: %s", deployment, exc)
            failures += 1
            continue
        for candidate in parsed:
            key = candidate.lower()
            if key not in seen:
                seen.add(key)
                pooled.append(candidate)
    if failures == len(providers):
        raise SubtaskError(
            f"case {case.case_id}: every candidate provider failed"
        )
    return pooled


@dataclass
class St1Result:
    case_id: str
    clinician_question: str
    candidates: list[CandidateScore] = field(default_factory=list)


def run_case(
    case: Case,
    pool: St1Pool | Iterable[Case],
    providers: list[tuple[str, Generator]],
    constraints: ConstraintConfig = ConstraintConfig(),
    max_shots: int = 5,
    note_grounding: bool = False,
    context_provider: Generator | None = None,
    max_workers: int = 4,
) -> St1Result:
    """Full reformulation pipeline for one case; ``case`` itself is left
    out of the few-shot pool and of the gold style."""
    pool = _as_pool(pool)
    ctx_provider = context_provider or (providers[0][1] if providers else None)
    context = EMPTY_CONTEXT
    if ctx_provider is not None:
        context = extract_context(
            case,
            ctx_provider,
            deployment=providers[0][0] if providers else "default",
            include_note=note_grounding,
        )
    shots = retrieve_shots(case, pool, max_n=max_shots)
    candidates = generate_candidates(
        case, context, shots, providers, max_workers=max_workers
    )
    chosen, scored = select_candidate(
        candidates, pool.gold_style(exclude_case_id=case.case_id), constraints
    )
    return St1Result(case_id=case.case_id, clinician_question=chosen, candidates=scored)
