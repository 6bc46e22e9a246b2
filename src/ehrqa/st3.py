"""Answer generation: two-stage faithful scaffold.

Stage 1 drafts an answer with inline [n] citations into the supplied
evidence; stage 2 rewrites using only the cited sentences, with markers
stripped and the result hard-truncated to the word limit. An ensemble
variant runs the scaffold once per member and picks the candidate most
similar to the note text.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field

from .core import Case, ConstraintConfig, ProviderError, SubtaskError, id_sort_key
from .prompting import load_template, render_prompt
from .providers import Embedder, GenRequest, Generator, cosine

logger = logging.getLogger(__name__)

_MARKER_RE = re.compile(r"\[\d+\]")
_CONJUNCTIONS = {"and", "or", "but", "nor", "so", "yet"}


@dataclass(frozen=True)
class CitedDraft:
    text_with_citations: str
    cited_ids: tuple[str, ...]


def extract_markers(text: str) -> list[str]:
    """Citation IDs in order of first appearance, deduplicated."""
    seen: list[str] = []
    for match in _MARKER_RE.finditer(text):
        sentence_id = match.group(0)[1:-1]
        if sentence_id not in seen:
            seen.append(sentence_id)
    return seen


def strip_markers(text: str) -> str:
    stripped, removed = _MARKER_RE.subn("", text)
    while removed:  # a removal can join its neighbours into a new marker: "[[4]4]"
        stripped, removed = _MARKER_RE.subn("", stripped)
    stripped = re.sub(r"[ \t]{2,}", " ", stripped)
    stripped = re.sub(r" +([.,;:!?])", r"\1", stripped)
    return stripped.strip()


def truncate_words(text: str, max_words: int) -> str:
    """Hard word-count cut that never leaves a dangling comma or conjunction."""
    tokens = text.split()
    if len(tokens) <= max_words:
        return text.strip()
    kept = tokens[:max_words]
    while kept:
        last = kept[-1].rstrip(".,;:!?")
        if not last or last.lower() in _CONJUNCTIONS:
            kept.pop()
            continue
        kept[-1] = kept[-1].rstrip(",;:")
        break
    if not kept:  # pathological all-conjunction text: keep the plain cut
        kept = tokens[:max_words]
    return " ".join(kept)


def evidence_block_for(case: Case, evidence_ids) -> str:
    ordered = sorted(set(evidence_ids), key=id_sort_key)
    return "\n".join(f"{i}. {case.note_text(i)}" for i in ordered if i in case.note_ids)


def supplied_evidence(case: Case, evidence_ids) -> list[str]:
    """The upstream evidence that is in the note, in ID order; empty
    evidence falls back to the full note so the prompt always has
    something to cite."""
    supplied = sorted(set(evidence_ids) & set(case.note_ids), key=id_sort_key)
    return supplied or list(case.note_ids)


def stage1_draft(
    case: Case,
    evidence_ids,
    shots,
    provider: Generator,
    deployment: str = "default",
    clinician_question: str | None = None,
) -> CitedDraft:
    """One member's cited draft over the supplied evidence. Citations
    outside it are dropped, and a draft that cites nothing cites all of it."""
    supplied = supplied_evidence(case, evidence_ids)
    extra = {
        "evidence_block": evidence_block_for(case, supplied),
        "clinician_question": clinician_question,
    }
    request = GenRequest(
        deployment_name=deployment,
        messages=tuple(render_prompt(load_template("st3_stage1"), case, shots, extra=extra)),
        temperature=0.0,
        request_tag=f"{case.case_id}/st3s1/{deployment}/0",
    )
    try:
        text = provider.generate(request).text
    except ProviderError as exc:  # the backend client has already retried it
        raise SubtaskError(f"case {case.case_id}: stage-1 draft failed: {exc}") from exc
    markers = extract_markers(text)
    valid = [m for m in markers if m in supplied]
    invalid = [m for m in markers if m not in supplied]
    if invalid:
        logger.warning(
            "case %s: dropped citation(s) outside supplied evidence: %s",
            case.case_id,
            invalid,
        )
    if not valid:
        logger.warning(
            "case %s: draft cited nothing; treating all supplied evidence as cited",
            case.case_id,
        )
        valid = list(supplied)
    return CitedDraft(text_with_citations=text, cited_ids=tuple(valid))


def stage2_rewrite(
    draft: CitedDraft,
    case: Case,
    provider: Generator,
    constraints: ConstraintConfig = ConstraintConfig(),
    deployment: str = "default",
    member: str | None = None,
) -> str:
    """Rewrite ``draft`` on ``deployment`` from its cited sentences only:
    marker-free, truncated, and never empty (falls back to the stripped
    draft). The tag names the ensemble ``member`` that drafted it
    (default: ``deployment``), so every member's tag is unique."""
    extra = {
        "evidence_block": evidence_block_for(case, draft.cited_ids),
        "draft": draft.text_with_citations,
    }
    request = GenRequest(
        deployment_name=deployment,
        messages=tuple(render_prompt(load_template("st3_stage2"), case, (), extra=extra)),
        temperature=0.0,
        request_tag=f"{case.case_id}/st3s2/{member or deployment}/0",
    )
    text = ""
    try:
        text = provider.generate(request).text
    except ProviderError as exc:
        logger.warning(
            "case %s: stage-2 rewrite failed, falling back to stripped draft: %s",
            case.case_id,
            exc,
        )
    if _MARKER_RE.search(text):
        logger.warning("case %s: stage-2 output contained citation markers", case.case_id)
    text = strip_markers(text)
    if not text:
        text = strip_markers(draft.text_with_citations)
    if not text:
        text = " ".join(case.note_text(i) for i in draft.cited_ids if i in case.note_ids)
    return truncate_words(text, constraints.st3_max_words)


def rerank_candidates(
    candidates: list[str],
    reference_text: str,
    embedder: Embedder,
) -> tuple[str, list[float]]:
    """Highest embedding similarity to the reference wins; ties keep the
    earlier candidate (ensemble member order). The reference and every
    candidate are embedded in one call."""
    if not candidates:
        raise SubtaskError("no candidates to rerank")
    try:
        vec_r, *vectors = embedder.embed([reference_text, *candidates])
    except ProviderError as exc:
        logger.warning("rerank embedding failed, keeping first candidate: %s", exc)
        return candidates[0], []
    scores = [cosine(vec_c, vec_r) for vec_c in vectors]
    best_idx = 0
    for i, score in enumerate(scores):
        if score > scores[best_idx]:
            best_idx = i
    return candidates[best_idx], scores


@dataclass
class St3Result:
    case_id: str
    answer_text: str
    cited_ids: list[str] = field(default_factory=list)
    candidate_scores: list[dict] = field(default_factory=list)


def run_case(
    case: Case,
    evidence_ids,
    shots,
    provider: Generator,
    deployments: list[str],
    constraints: ConstraintConfig = ConstraintConfig(),
    clinician_question: str | None = None,
    stage2_deployment: str | None = None,
    rerank: bool = True,
    embedder: Embedder | None = None,
) -> St3Result:
    """Run the two-stage scaffold once per deployment; rerank when asked.

    Every member's draft is made first, in member order, then every
    distinct rewrite, all on the caller's thread; a failed draft fails
    the case at once. Single-deployment runs skip reranking entirely.
    ``cited_ids`` are the chosen candidate's citations.
    """
    if not deployments:
        raise SubtaskError(f"case {case.case_id}: no deployments configured")
    drafts = [
        stage1_draft(case, evidence_ids, shots, provider, d, clinician_question)
        for d in deployments
    ]
    # A rewrite's request depends only on its draft and its deployment, so
    # members with the same draft and rewriter share one rewrite, made for
    # the first of them: a live run would otherwise pay for it per member.
    rewrites: dict[tuple[CitedDraft, str], str] = {}
    candidates = []
    for d, draft in zip(deployments, drafts):
        rewriter = stage2_deployment or d
        if (draft, rewriter) not in rewrites:
            rewrites[draft, rewriter] = stage2_rewrite(
                draft, case, provider, constraints, rewriter, member=d
            )
        candidates.append(rewrites[draft, rewriter])
    if len(candidates) == 1 or not rerank:
        chosen, scores = candidates[0], []
    else:
        reference = " ".join(s.text for s in case.note)
        if embedder is None:
            raise SubtaskError(f"case {case.case_id}: rerank needs an embedder")
        chosen, scores = rerank_candidates(candidates, reference, embedder)
    # Equal candidates score equally, and a tie keeps the earlier one.
    cited = drafts[candidates.index(chosen)].cited_ids
    return St3Result(
        case_id=case.case_id,
        answer_text=chosen,
        cited_ids=sorted(cited, key=id_sort_key),
        candidate_scores=[
            {"deployment": d, "answer": c, "score": (scores[i] if i < len(scores) else None)}
            for i, (d, c) in enumerate(zip(deployments, candidates))
        ],
    )
