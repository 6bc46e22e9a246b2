"""Answer generation: two-stage faithful scaffold.

Stage 1 drafts an answer with inline [n] citations into the supplied
evidence; stage 2 rewrites using only the cited sentences, with markers
stripped and the result hard-truncated to the word limit. An ensemble
variant runs the scaffold once per member and picks the candidate most
similar to the note text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .core import Case, ConstraintConfig, ProviderError, SubtaskError, degraded, id_sort_key
from .prompting import Message, load_template, render_prompt
from .providers import Embedder, GenRequest, Generator, cosine

# A citation: a bracket holding one or more items, each a sentence ID or a
# range of them, separated by commas or spaces: [2], [2, 3], [ 4 ], [2 3],
# [2-4], [1, 3-5].
_ITEM = r"\d+(?:\s*[-\u2013]\s*\d+)?"
_ITEM_RE = re.compile(_ITEM)
_MARKER_RE = re.compile(rf"\[\s*{_ITEM}(?:(?:\s*,\s*|\s+){_ITEM})*\s*\]")
_CONJUNCTIONS = {"and", "or", "but", "nor", "so", "yet"}


@dataclass(frozen=True)
class CitedDraft:
    text_with_citations: str
    cited_ids: tuple[str, ...]


def extract_markers(text: str) -> list[str]:
    """Citation IDs in order of first appearance, deduplicated. A range
    cites none of its IDs, so no ID is cited that the model did not write."""
    seen: list[str] = []
    for match in _MARKER_RE.finditer(text):
        for sentence_id in _ITEM_RE.findall(match.group(0)):
            if sentence_id.isdigit() and sentence_id not in seen:
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
    return "\n".join(f"{i}. {case.note_text(i)}" for i in case.in_note(evidence_ids))


def supplied_evidence(case: Case, evidence_ids) -> list[str]:
    """The upstream evidence that is in the note, in ID order; empty
    evidence falls back to the full note so the prompt always has
    something to cite."""
    return case.in_note(evidence_ids) or list(case.note_ids)


def stage1_messages(
    case: Case, evidence_ids, shots, clinician_question: str | None = None
) -> tuple[Message, ...]:
    """The stage-1 prompt, which names no deployment: every member's draft
    of a case sends the same messages."""
    extra = {
        "evidence_block": evidence_block_for(case, supplied_evidence(case, evidence_ids)),
        "clinician_question": clinician_question,
    }
    return tuple(render_prompt(load_template("st3_stage1"), case, shots, extra=extra))


def stage1_draft(
    case: Case,
    evidence_ids,
    shots,
    provider: Generator,
    deployment: str = "default",
    clinician_question: str | None = None,
    *,
    messages: tuple[Message, ...] | None = None,
) -> CitedDraft | None:
    """One member's cited draft over the supplied evidence. Citations
    outside it are dropped, and a draft that cites nothing cites all of it.
    A failed call (ProviderError) is logged and counted, as
    ``st3.member_failed``, and gives None: that member has no draft. An
    ensemble passes ``messages``, the case's ``stage1_messages``, rendered
    once for all its members."""
    supplied = supplied_evidence(case, evidence_ids)
    request = GenRequest(
        deployment_name=deployment,
        messages=messages or stage1_messages(case, evidence_ids, shots, clinician_question),
        temperature=0.0,
        request_tag=f"{case.case_id}/st3s1/{deployment}/0",
    )
    try:
        text = provider.generate(request)
    except ProviderError as exc:  # the backend client has already retried it
        degraded("st3.member_failed", "request %s failed: %s", request.request_tag, exc)
        return None
    markers = extract_markers(text)
    valid = [m for m in markers if m in supplied]
    invalid = [m for m in markers if m not in supplied]
    if invalid:
        msg = "case %s: dropped citation(s) outside supplied evidence: %s"
        degraded("st3.citations_outside", msg, case.case_id, invalid)
    if not valid:
        msg = "case %s: draft cited nothing; treating all supplied evidence as cited"
        degraded("st3.cited_nothing", msg, case.case_id)
        valid = list(supplied)
    return CitedDraft(text_with_citations=text, cited_ids=tuple(valid))


def stage2_rewrite(
    draft: CitedDraft,
    case: Case,
    provider: Generator,
    constraints: ConstraintConfig = ConstraintConfig(),
    deployment: str = "default",
) -> str:
    """Rewrite ``draft`` on ``deployment``, the member that drafted it, from
    its cited sentences only: marker-free, truncated, and never empty
    (falls back to the stripped draft)."""
    extra = {
        "evidence_block": evidence_block_for(case, draft.cited_ids),
        "draft": draft.text_with_citations,
    }
    request = GenRequest(
        deployment_name=deployment,
        messages=tuple(render_prompt(load_template("st3_stage2"), case, (), extra=extra)),
        temperature=0.0,
        request_tag=f"{case.case_id}/st3s2/{deployment}/0",
    )
    text = ""
    try:
        text = provider.generate(request)
    except ProviderError as exc:
        msg = "case %s: stage-2 rewrite failed, falling back to stripped draft: %s"
        degraded("st3.rewrite_failed", msg, case.case_id, exc)
    if _MARKER_RE.search(text):
        msg = "case %s: stage-2 output contained citation markers"
        degraded("st3.markers_left", msg, case.case_id)
    text = strip_markers(text)
    if not text:
        text = strip_markers(draft.text_with_citations)
    if not text:
        text = " ".join(case.note_text(i) for i in draft.cited_ids if i in case.note_id_set)
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
        degraded("st3.rerank_failed", "rerank embedding failed, keeping first candidate: %s", exc)
        return candidates[0], []
    scores = [cosine(vec_c, vec_r) for vec_c in vectors]
    best_idx = 0
    for i, score in enumerate(scores):
        if score > scores[best_idx]:
            best_idx = i
    return candidates[best_idx], scores


@dataclass
class St3Result:
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
    rerank: bool = True,
    embedder: Embedder | None = None,
) -> St3Result:
    """Run the two-stage scaffold once per deployment; rerank when asked.

    Every member's draft is made first, in member order, then each
    member's rewrite of its own draft, all on the caller's thread. A
    member whose draft failed leaves stage 2, the rerank and
    ``candidate_scores``; a case with no draft left raises SubtaskError.
    A single candidate skips reranking. ``cited_ids`` are the chosen
    candidate's citations.
    """
    messages = stage1_messages(case, evidence_ids, shots, clinician_question)
    drafts = [
        stage1_draft(case, evidence_ids, shots, provider, d, clinician_question, messages=messages)
        for d in deployments
    ]
    members = [(d, draft) for d, draft in zip(deployments, drafts) if draft is not None]
    if not members:
        raise SubtaskError(f"case {case.case_id}: no st3 member gave a usable reply")
    candidates = [stage2_rewrite(draft, case, provider, constraints, d) for d, draft in members]
    if len(candidates) == 1 or not rerank:
        chosen, scores = candidates[0], []
    else:
        reference = " ".join(s.text for s in case.note)
        if embedder is None:
            raise SubtaskError(f"case {case.case_id}: rerank needs an embedder")
        chosen, scores = rerank_candidates(candidates, reference, embedder)
    # Equal candidates score equally, and a tie keeps the earlier one.
    cited = members[candidates.index(chosen)][1].cited_ids
    return St3Result(
        answer_text=chosen,
        cited_ids=sorted(cited, key=id_sort_key),
        candidate_scores=[
            {"deployment": d, "answer": c, "score": (scores[i] if i < len(scores) else None)}
            for i, ((d, _), c) in enumerate(zip(members, candidates))
        ],
    )
