"""Evidence alignment: map each answer sentence to its supporting note
sentences via link-level ensemble voting.

Votes aggregate at the (answer_id, evidence_id) pair level across all
ensemble runs. The merge threshold can be swept on dev gold and persisted
to best_vote_threshold.txt for reuse at test time. An embedding recall
pass can add back links whose sentence similarity clears tau after the
vote.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from . import vote
from .core import (
    Case,
    ConfigError,
    EhrqaError,
    MergePolicy,
    ProviderError,
    SamplingPlan,
    atomic_write_text,
    degraded,
    id_sort_key,
    resolve_threshold,
)
from .metrics import flatten_links
from .parsing import parse_alignment
from .prompting import answer_block, load_template, render_prompt
from .providers import Embedder, Generator, cosine, gather_responses
from .vote import VoteTally, plan_requests

Link = tuple[str, str]
AlignmentList = list[tuple[str, list[str]]]

THRESHOLD_FILENAME = "best_vote_threshold.txt"

# Far wider than the rounding gap between the matrix and vector forms of
# cosine (about 1e-16 per dimension), far narrower than any real margin.
RECHECK_BAND = 1e-9

LinkVoteTally = VoteTally[Link]


@dataclass(frozen=True)
class RecallConfig:
    enabled: bool = False
    tau: float = 0.68

    def __post_init__(self) -> None:
        if not 0.0 < self.tau <= 1.0:
            raise ConfigError(f"tau must be in (0, 1], got {self.tau}")


def tally_from_runs(runs: list[list[tuple[str, set[str]]]], valid_answer_ids) -> LinkVoteTally:
    """Count each (answer_id, evidence_id) link of a valid answer once per run."""
    return vote.tally_from_runs(
        [[(a, e) for a, ev_ids in run if a in valid_answer_ids for e in ev_ids] for run in runs]
    )


def run_ensemble(
    case: Case,
    shots,
    plan: SamplingPlan,
    provider: Generator,
    answers: list[tuple[str, str]],
    clinician_question: str | None = None,
) -> LinkVoteTally:
    """One parse per run; failed and unparseable runs vote for nothing,
    and a case with no usable run raises SubtaskError."""
    if not answers:
        raise EhrqaError(f"case {case.case_id}: no answer sentences to align")
    extra = {"answer_block": answer_block(answers), "clinician_question": clinician_question}
    messages = tuple(render_prompt(load_template("st4"), case, shots, extra=extra))
    requests = plan_requests(case.case_id, "st4", messages, plan)
    runs = gather_responses(provider, requests, parse_alignment, case.case_id, "st4")
    return tally_from_runs(runs, valid_answer_ids={aid for aid, _ in answers})


def links_at_threshold(tally: LinkVoteTally, threshold: int, valid_note_ids) -> set[Link]:
    return {
        link
        for link, count in tally.votes.items()
        if count >= threshold and link[1] in valid_note_ids
    }


def merge_links(
    tally: LinkVoteTally,
    policy: MergePolicy,
    case: Case,
    answer_ids: list[str],
) -> AlignmentList:
    """Threshold the tally into a full alignment: every answer_id present,
    possibly with an empty evidence list."""
    threshold = resolve_threshold(policy, tally.total_votes)
    kept = links_at_threshold(tally, threshold, case.note_id_set)
    by_answer: dict[str, list[str]] = {aid: [] for aid in answer_ids}
    for aid, eid in kept:
        by_answer.setdefault(aid, []).append(eid)
    return _ordered(by_answer)


def _ordered(by_answer: dict) -> AlignmentList:
    """An alignment ordered by answer_id, each evidence list by id_sort_key."""
    order = sorted(by_answer, key=id_sort_key)
    return [(aid, sorted(by_answer[aid], key=id_sort_key)) for aid in order]


def sweep_threshold(
    dev_runs: list[tuple[LinkVoteTally, AlignmentList, Case]],
    out_path: str | Path | None = None,
) -> tuple[int, list[dict]]:
    """Evaluate every threshold on dev gold and keep the best.

    Returns (best threshold, frontier rows); ties resolve to the smallest
    threshold. The winning integer is persisted bare, newline-terminated.
    """
    best_theta, frontier = vote.sweep(
        [(tally, flatten_links(gold), case.note_id_set) for tally, gold, case in dev_runs],
        "theta",
        note_id=lambda link: link[1],
    )
    if out_path is not None:
        atomic_write_text(out_path, f"{best_theta}\n")
    return best_theta, frontier


def read_best_threshold(path: str | Path) -> int:
    """Read the persisted sweep result back, verbatim."""
    text = Path(path).read_text(encoding="utf-8").strip()
    if not text.isdecimal() or int(text) < 1:
        raise ConfigError(f"{path} does not contain a positive integer: {text!r}")
    return int(text)


def recall_augment(
    alignment: AlignmentList,
    case: Case,
    embedder: Embedder,
    config: RecallConfig,
    answers: list[tuple[str, str]] | None = None,
) -> AlignmentList:
    """Add (answer, note) links whose embedding cosine clears tau.

    Never removes links; when the embedding backend fails the input comes
    back unchanged.
    """
    if not config.enabled:
        return alignment
    answer_sentences = answers if answers is not None else list(case.clinician_answer_sentences)
    if not answer_sentences:
        return alignment
    answer_texts = [text for _, text in answer_sentences]
    note_texts = [s.text for s in case.note]
    try:
        vectors = embedder.embed(answer_texts + note_texts)
    except ProviderError as exc:
        msg = "case %s: recall augmentation skipped (embedding failure): %s"
        degraded("st4.recall_skipped", msg, case.case_id, exc)
        return alignment
    answer_vecs = vectors[: len(answer_texts)]
    note_vecs = vectors[len(answer_texts) :]
    existing = {aid: set(ev) for aid, ev in alignment}
    # One matrix product scores every pair; a pair that lands within
    # RECHECK_BAND of tau is scored again by the vector form, whose
    # rounding decides, so no link depends on the matrix form's rounding.
    sims = cosine(answer_vecs, note_vecs)
    for i, j in zip(*(sims >= config.tau - RECHECK_BAND).nonzero()):
        aid, note_id = answer_sentences[i][0], case.note[j].id
        if note_id in existing.get(aid, ()):
            continue
        sim = sims[i, j]
        if abs(sim - config.tau) <= RECHECK_BAND:
            sim = cosine(answer_vecs[i], note_vecs[j])
        if sim >= config.tau:
            existing.setdefault(aid, set()).add(note_id)
    return _ordered(existing)


_SENTENCE_SPLIT = re.compile(r"(?<=[.!?])\s+")


def segment_answer(answer_text: str) -> list[tuple[str, str]]:
    """Number the sentences of a generated answer for pipeline-mode
    alignment (dev mode uses the key's answer sentences instead)."""
    parts = [p.strip() for p in _SENTENCE_SPLIT.split(answer_text.strip()) if p.strip()]
    return [(str(i + 1), part) for i, part in enumerate(parts)]


@dataclass
class St4Result:
    alignments: AlignmentList
    tally: LinkVoteTally | None = None


def run_case(
    case: Case,
    shots,
    plan: SamplingPlan | None,
    provider: Generator | None,
    policy: MergePolicy,
    answers: list[tuple[str, str]],
    recall: RecallConfig = RecallConfig(),
    embedder: Embedder | None = None,
    clinician_question: str | None = None,
) -> St4Result:
    """Ensemble alignment of ``answers`` for one case; with no plan this
    degrades to the embedding-only baseline (vote nothing, recall everything)."""
    answer_ids = [aid for aid, _ in answers]
    if plan is None or provider is None:
        alignment: AlignmentList = [(aid, []) for aid in answer_ids]
        tally = None
    else:
        tally = run_ensemble(
            case, shots, plan, provider, answers, clinician_question=clinician_question
        )
        alignment = merge_links(tally, policy, case, answer_ids=answer_ids)
    if recall.enabled:
        if embedder is None:
            raise ConfigError("recall augmentation needs an embedder")
        alignment = recall_augment(alignment, case, embedder, recall, answers=answers)
    return St4Result(alignments=alignment, tally=tally)
