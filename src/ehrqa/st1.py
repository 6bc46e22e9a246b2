"""Question reformulation: turn a patient's free-text question into a
short clinician-interpreted question.

Pipeline per case: extract explicit clinical context, retrieve few-shot
examples by a hybrid question-type/lexical score, generate candidates from
one or more backends, one after another on the case's thread, then select
the candidate that best matches the style of the gold dev questions under
hard constraints (word limit, terminal "?", no first person).
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

import numpy as np

from .core import (
    Case,
    ConstraintConfig,
    ParseError,
    ProviderError,
    SubtaskError,
    contains_first_person,
    count_words,
    degraded,
    is_first_person,
    running_case,
    strip_token_punct,
)
from .parsing import parse_json_object, parse_st1_candidates
from .prompting import load_template, render_prompt
from .providers import GenRequest, Generator, gather_multi

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


def extract_context(
    case: Case, provider: Generator, deployment: str = "default"
) -> ClinicalContext:
    """LLM pre-pass listing the clinical elements the patient question
    states; spans not verbatim in it are dropped. A backend or parse
    failure yields an empty context so the pipeline keeps going."""
    messages = render_prompt(load_template("st1_context"), case)
    request = GenRequest(
        deployment_name=deployment,
        messages=tuple(messages),
        temperature=0.0,
        request_tag=f"{case.case_id}/st1ctx/0",
    )
    try:
        raw = parse_json_object(provider.generate(request))
    except (ProviderError, ParseError) as exc:
        degraded("st1.context_failed", "context extraction failed for %s: %s", case.case_id, exc)
        return EMPTY_CONTEXT

    haystack = case.patient_question.lower()
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
        msg = "context extraction for %s: dropped %d non-verbatim span(s)"
        degraded("st1.spans_dropped", msg, case.case_id, dropped)
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


def _token_set(text: str) -> frozenset[str]:
    return frozenset({strip_token_punct(t).lower() for t in text.split()} - {""})


def _f1(p, r):
    """Harmonic mean of ``p`` and ``r``: two floats, or two arrays taken
    elementwise in the same operation order, so each float is the same."""
    return 2 * p * r / (p + r)


def token_overlap_f1(a: str, b: str) -> float:
    """Set-based F1 over lowercase punctuation-stripped tokens, the
    similarity that ``TokenIndex.f1`` computes for a whole pool at once."""
    tokens_a, tokens_b = _token_set(a), _token_set(b)
    overlap = len(tokens_a & tokens_b)
    if overlap == 0:
        return 0.0
    return _f1(overlap / len(tokens_a), overlap / len(tokens_b))


def _weighted(type_match, lexical):
    return TYPE_WEIGHT * type_match + (1.0 - TYPE_WEIGHT) * lexical


class TokenIndex:
    """Inverted index over a sequence of token sets: each token maps to the
    array of rows that contain it, so one ``np.bincount`` gives the overlap
    of a query set with every row."""

    def __init__(self, token_sets: Iterable[frozenset[str]]):
        rows: dict[str, list[int]] = defaultdict(list)
        sizes = []
        for row, tokens in enumerate(token_sets):
            sizes.append(len(tokens))
            for token in tokens:
                rows[token].append(row)
        self.rows = {token: np.array(r, dtype=np.intp) for token, r in rows.items()}
        self.sizes = np.array(sizes, dtype=np.intp)

    def f1(self, tokens: frozenset[str]) -> np.ndarray:
        """The set F1 of ``tokens`` with every row, as ``token_overlap_f1``
        takes it, equal float for float: the counts are exact integers, and
        ``p``, ``r`` and their F1 are taken in its order on the rows that
        share a token."""
        lexical = np.zeros(len(self.sizes))
        hits = [self.rows[t] for t in tokens if t in self.rows]
        if hits:
            overlap = np.bincount(np.concatenate(hits), minlength=len(self.sizes))
            shared = np.flatnonzero(overlap)
            counts = overlap[shared]
            lexical[shared] = _f1(counts / len(tokens), counts / self.sizes[shared])
        return lexical


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
    """The gold clinician questions candidates are scored against: an index
    of their token sets, the rows of it that are left out, and one
    histogram of the question types of the rest, duplicates counted."""

    index: TokenIndex
    type_counts: Mapping[str, int]
    left_out: tuple[int, ...] = ()

    @classmethod
    def of(cls, templates: Iterable[str]) -> GoldStyle:
        features = [QuestionFeatures.of(t) for t in templates]
        return cls(TokenIndex(f.tokens for f in features), Counter(f.qtype for f in features))

    def lexical(self, tokens: frozenset[str]) -> float:
        """The best set F1 of ``tokens`` with a gold question, 0.0 when
        there is none. F1 is never negative, so a left-out row read as 0.0
        cannot change the maximum."""
        scores = self.index.f1(tokens)
        scores[list(self.left_out)] = 0.0
        return float(scores.max(initial=0.0))


class St1Pool:
    """Few-shot pool with the question features of every case, built once.

    Per case it holds the type of the patient question and, when the case
    has one, of the clinician question, an index of each kind's token sets,
    and the clinician-question type histogram of the whole pool.
    Leave-one-out masks the left-out case's rows and decrements its type.
    """

    def __init__(self, cases: Iterable[Case]):
        self.cases = tuple(cases)
        patient = [QuestionFeatures.of(c.patient_question) for c in self.cases]
        clinician = [
            QuestionFeatures.of(c.clinician_question) if c.clinician_question else None
            for c in self.cases
        ]
        self.patient_index = TokenIndex(f.tokens for f in patient)
        self.patient_types = np.array(
            [QUESTION_TYPES.index(f.qtype) for f in patient], dtype=np.intp
        )
        self.clinician_index = TokenIndex(f.tokens if f else frozenset() for f in clinician)
        self.clinician_types = tuple(f.qtype if f else None for f in clinician)
        self.type_counts = Counter(t for t in self.clinician_types if t is not None)
        self.rows_of: dict[str, list[int]] = defaultdict(list)
        for row, case in enumerate(self.cases):
            self.rows_of[case.case_id].append(row)
        rank = {case_id: r for r, case_id in enumerate(sorted(self.rows_of))}
        self.id_rank = np.array([rank[c.case_id] for c in self.cases], dtype=np.intp)

    def gold_style(self, exclude_case_id: str | None = None) -> GoldStyle:
        left_out = tuple(
            row
            for row in self.rows_of.get(exclude_case_id, ())
            if self.clinician_types[row] is not None
        )
        counts = self.type_counts
        if left_out:
            counts = counts.copy()
            for row in left_out:
                counts[self.clinician_types[row]] -= 1
        return GoldStyle(self.clinician_index, counts, left_out)


def retrieve_shots(case: Case, pool: St1Pool, max_n: int = 5) -> list[Case]:
    """Top few-shot cases by hybrid question-type + lexical similarity of
    the patient questions, leaving ``case`` itself out; ties go to the
    smaller case_id, then to the earlier pool row."""
    query = QuestionFeatures.of(case.patient_question)
    type_match = (pool.patient_types == QUESTION_TYPES.index(query.qtype)).astype(float)
    score = _weighted(type_match, pool.patient_index.f1(query.tokens))
    rows = np.delete(np.arange(len(pool.cases)), pool.rows_of.get(case.case_id, []))
    # A stable sort, so equal case_ids keep their pool order.
    ranked = rows[np.lexsort((pool.id_rank[rows], -score[rows]))]
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
) -> list[CandidateScore]:
    style = gold_templates
    if not isinstance(style, GoldStyle):
        style = GoldStyle.of(style)
    target_type = _plurality_type(style.type_counts)
    scored = []
    for candidate in candidates:
        features = QuestionFeatures.of(candidate)
        type_match = 1.0 if features.qtype == target_type else 0.0
        lexical = style.lexical(features.tokens)
        scored.append(
            CandidateScore(
                candidate=candidate,
                type_match=type_match,
                lexical=lexical,
                total=_weighted(type_match, lexical),
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
        if not is_first_person(t, constraints.forbidden_first_person)
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
    msg = "case %s: no constraint-valid candidate; repaired %r -> %r"
    degraded("st1.repaired", msg, running_case(), best_raw.candidate, repaired)
    return repaired, scored


def generate_candidates(
    case: Case,
    context: ClinicalContext,
    shots: list[Case],
    providers: list[tuple[str, Generator]],
) -> list[str]:
    """Pool candidates from all backends, deduplicated case-insensitively:
    a candidate keeps its first spelling and its first position.

    A backend whose call fails or whose reply holds no candidate adds
    none; a case with no backend left, or none configured, raises
    SubtaskError, as every ensemble step does.
    """
    template = load_template("st1")
    messages = tuple(
        render_prompt(
            template, case, shots, extra={"context_block": context_block(context)}
        )
    )
    requests = [
        GenRequest(
            deployment_name=deployment,
            messages=messages,
            temperature=0.0,
            request_tag=f"{case.case_id}/st1/{deployment}/0",
        )
        for deployment, _ in providers
    ]
    pairs = [(p, r) for (_, p), r in zip(providers, requests)]
    runs = gather_multi(pairs, parse_st1_candidates, case.case_id, "st1")
    pooled: dict[str, str] = {}
    for run in runs:
        for candidate in run:
            pooled.setdefault(candidate.lower(), candidate)
    return list(pooled.values())


@dataclass
class St1Result:
    clinician_question: str
    candidates: list[CandidateScore] = field(default_factory=list)


def run_case(
    case: Case,
    pool: St1Pool,
    providers: list[tuple[str, Generator]],
    constraints: ConstraintConfig = ConstraintConfig(),
    max_shots: int = 5,
) -> St1Result:
    """Full reformulation pipeline for one case; ``case`` itself is left
    out of the few-shot pool and of the gold style. The first provider
    also extracts the clinical context."""
    context = EMPTY_CONTEXT
    if providers:
        deployment, provider = providers[0]
        context = extract_context(case, provider, deployment=deployment)
    shots = retrieve_shots(case, pool, max_n=max_shots)
    candidates = generate_candidates(case, context, shots, providers)
    chosen, scored = select_candidate(
        candidates, pool.gold_style(exclude_case_id=case.case_id), constraints
    )
    return St1Result(clinician_question=chosen, candidates=scored)
