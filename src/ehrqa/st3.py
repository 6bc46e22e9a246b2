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
from typing import Callable

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
    stripped = _MARKER_RE.sub("", text)
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


def stage1_draft(
    case: Case,
    evidence_ids,
    shots,
    provider: Generator,
    deployment: str = "default",
    clinician_question: str | None = None,
    sample_index: int = 0,
    temperature: float = 0.0,
) -> CitedDraft:
    """Draft a cited answer; empty upstream evidence falls back to the full
    note so the prompt always has something to cite."""
    supplied = sorted(set(evidence_ids) & set(case.note_ids), key=id_sort_key)
    if not supplied:
        supplied = list(case.note_ids)
    extra = {"evidence_block": evidence_block_for(case, supplied)}
    if clinician_question is not None:
        extra["clinician_question"] = clinician_question
    messages = tuple(render_prompt(load_template("st3_stage1"), case, shots, extra=extra))
    request = GenRequest(
        deployment_name=deployment,
        messages=messages,
        temperature=temperature,
        request_tag=f"{case.case_id}/st3s1/{deployment}/{sample_index}",
        sample_index=sample_index,
    )
    try:
        response = provider.generate(request)
    except Exception:
        # one retry before giving up on the case
        try:
            response = provider.generate(request)
        except Exception as exc:
            raise SubtaskError(
                f"case {case.case_id}: stage-1 draft failed twice: {exc}"
            ) from exc
    markers = extract_markers(response.text)
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
    return CitedDraft(text_with_citations=response.text, cited_ids=tuple(valid))


def stage2_rewrite(
    draft: CitedDraft,
    case: Case,
    provider: Generator,
    constraints: ConstraintConfig = ConstraintConfig(),
    deployment: str = "default",
    sample_index: int = 0,
) -> str:
    """Rewrite onto the cited sentences only; output is marker-free,
    truncated, and never empty (falls back to the stripped draft)."""
    extra = {
        "evidence_block": evidence_block_for(case, draft.cited_ids),
        "draft": draft.text_with_citations,
    }
    messages = tuple(render_prompt(load_template("st3_stage2"), case, (), extra=extra))
    request = GenRequest(
        deployment_name=deployment,
        messages=messages,
        temperature=0.0,
        request_tag=f"{case.case_id}/st3s2/{deployment}/{sample_index}",
        sample_index=sample_index,
    )
    text = ""
    try:
        text = provider.generate(request).text
    except Exception as exc:
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
    scorer: Callable[[str, str], float] | None = None,
    embedder: Embedder | None = None,
) -> tuple[str, list[float]]:
    """Highest semantic similarity to the reference wins; ties keep the
    earlier candidate (ensemble member order). Without a scorer, the
    reference and every candidate are embedded in one call."""
    if not candidates:
        raise SubtaskError("no candidates to rerank")
    if scorer is None and embedder is None:
        raise SubtaskError("rerank needs a scorer or an embedder")
    try:
        if scorer is not None:
            scores = [scorer(candidate, reference_text) for candidate in candidates]
        else:
            scores = _embedding_scores(embedder, candidates, reference_text)
    except Exception as exc:
        logger.warning("rerank scorer failed, keeping first candidate: %s", exc)
        return candidates[0], []
    best_idx = 0
    for i, score in enumerate(scores):
        if score > scores[best_idx]:
            best_idx = i
    return candidates[best_idx], scores


def _embedding_scores(embedder: Embedder, candidates: list[str], reference: str) -> list[float]:
    vec_r, *vectors = embedder.embed([reference, *candidates])
    if len(vectors) != len(candidates):
        raise ProviderError(
            f"embedder returned {len(vectors) + 1} vectors for {len(candidates) + 1} texts"
        )
    return [cosine(vec_c, vec_r) for vec_c in vectors]


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
    scorer: Callable[[str, str], float] | None = None,
) -> St3Result:
    """Run the two-stage scaffold once per deployment; rerank when asked.

    Single-deployment runs skip reranking entirely.
    """
    if not deployments:
        raise SubtaskError(f"case {case.case_id}: no deployments configured")
    candidates: list[str] = []
    cited: list[str] = []
    for deployment in deployments:
        draft = stage1_draft(
            case,
            evidence_ids,
            shots,
            provider,
            deployment=deployment,
            clinician_question=clinician_question,
        )
        answer = stage2_rewrite(
            draft,
            case,
            provider,
            constraints=constraints,
            deployment=stage2_deployment or deployment,
        )
        candidates.append(answer)
        cited.extend(i for i in draft.cited_ids if i not in cited)

    if len(candidates) == 1 or not rerank:
        chosen, scores = candidates[0], []
    else:
        reference = " ".join(s.text for s in case.note)
        chosen, scores = rerank_candidates(
            candidates, reference, scorer=scorer, embedder=embedder
        )
    return St3Result(
        case_id=case.case_id,
        answer_text=chosen,
        cited_ids=sorted(cited, key=id_sort_key),
        candidate_scores=[
            {"deployment": d, "answer": c, "score": (scores[i] if i < len(scores) else None)}
            for i, (d, c) in enumerate(zip(deployments, candidates))
        ],
    )
