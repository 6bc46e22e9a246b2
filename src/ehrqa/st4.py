"""Evidence alignment: map each answer sentence to its supporting note
sentences via link-level ensemble voting.

Votes aggregate at the (answer_id, evidence_id) pair level across all
ensemble runs. The merge threshold can be swept on dev gold and persisted
to best_vote_threshold.txt for reuse at test time. An embedding recall
pass can add back links whose sentence similarity clears tau after the
vote.
"""

from __future__ import annotations

import logging
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
    id_sort_key,
    resolve_threshold,
)
from .metrics import flatten_links
from .parsing import parse_alignment
from .prompting import answer_block, full_answer_block, load_template, render_prompt
from .providers import Embedder, Generator, cosine, gather_responses
from .vote import VoteTally, parse_runs, plan_requests

logger = logging.getLogger(__name__)

Link = tuple[str, str]
AlignmentList = list[tuple[str, list[str]]]

THRESHOLD_FILENAME = "best_vote_threshold.txt"

LinkVoteTally = VoteTally[Link]


@dataclass(frozen=True)
class RecallConfig:
    enabled: bool = False
    tau: float = 0.68

    def __post_init__(self) -> None:
        if not 0.0 < self.tau <= 1.0:
            raise ConfigError(f"tau must be in (0, 1], got {self.tau}")


def tally_from_runs(runs: list[list[tuple[str, set[str]]]], valid_answer_ids=None) -> LinkVoteTally:
    """Count each (answer_id, evidence_id) link once per run."""
    keep = valid_answer_ids
    return vote.tally_from_runs(
        [[(a, e) for a, ev_ids in run if keep is None or a in keep for e in ev_ids] for run in runs]
    )


def run_ensemble(
    case: Case,
    shots,
    plan: SamplingPlan,
    provider: Generator,
    full_answer_context: bool = True,
    answers: list[tuple[str, str]] | None = None,
    clinician_question: str | None = None,
) -> LinkVoteTally:
    """One parse per run; unparseable runs vote for nothing."""
    answer_sentences = answers if answers is not None else list(case.clinician_answer_sentences)
    if not answer_sentences:
        raise EhrqaError(f"case {case.case_id}: no answer sentences to align")
    extra = {
        "answer_block": answer_block(answer_sentences),
        "clinician_question": clinician_question,
    }
    if full_answer_context:
        extra["full_answer_block"] = full_answer_block(case.clinician_answer_paragraph)
    messages = tuple(render_prompt(load_template("st4"), case, shots, extra=extra))
    requests = plan_requests(case.case_id, "st4", messages, plan)
    outcomes = gather_responses(provider, requests)
    runs = parse_runs(outcomes, parse_alignment, case.case_id, "st4")
    return tally_from_runs(runs, valid_answer_ids={aid for aid, _ in answer_sentences})


def links_at_threshold(tally: LinkVoteTally, threshold: int, valid_note_ids) -> set[Link]:
    valid = set(valid_note_ids)
    return {
        link
        for link, count in tally.votes.items()
        if count >= threshold and link[1] in valid
    }


def merge_links(
    tally: LinkVoteTally,
    policy: MergePolicy,
    case: Case,
    answer_ids: list[str] | None = None,
) -> AlignmentList:
    """Threshold the tally into a full alignment: every answer_id present,
    possibly with an empty evidence list."""
    threshold = resolve_threshold(policy, tally.total_votes)
    kept = links_at_threshold(tally, threshold, case.note_ids)
    all_answers = answer_ids if answer_ids is not None else list(case.answer_ids)
    by_answer: dict[str, list[str]] = {aid: [] for aid in all_answers}
    for aid, eid in kept:
        by_answer.setdefault(aid, []).append(eid)
    return [
        (aid, sorted(ev, key=id_sort_key))
        for aid, ev in sorted(by_answer.items(), key=lambda kv: id_sort_key(kv[0]))
    ]


def sweep_threshold(
    dev_runs: list[tuple[LinkVoteTally, AlignmentList, Case]],
    out_path: str | Path | None = None,
) -> tuple[int, list[dict]]:
    """Evaluate every threshold on dev gold and keep the best.

    Returns (best threshold, frontier rows); ties resolve to the smallest
    threshold. The winning integer is persisted bare, newline-terminated.
    """
    for _, gold, case in dev_runs:
        if gold is None:
            raise EhrqaError(f"case {case.case_id} has no gold alignments for the sweep")
    best_theta, frontier = vote.sweep(
        [(tally, flatten_links(gold), case.note_ids) for tally, gold, case in dev_runs],
        "theta",
        note_id=lambda link: link[1],
    )
    if out_path is not None:
        atomic_write_text(out_path, f"{best_theta}\n")
    return best_theta, frontier


def read_best_threshold(path: str | Path) -> int:
    """Read the persisted sweep result back, verbatim."""
    text = Path(path).read_text(encoding="utf-8").strip()
    if not text.isdigit() or int(text) < 1:
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
    if not answer_sentences or not case.note:
        return alignment
    answer_texts = [text for _, text in answer_sentences]
    note_texts = [s.text for s in case.note]
    try:
        vectors = embedder.embed(answer_texts + note_texts)
    except ProviderError as exc:
        logger.warning(
            "case %s: recall augmentation skipped (embedding failure): %s",
            case.case_id,
            exc,
        )
        return alignment
    answer_vecs = vectors[: len(answer_texts)]
    note_vecs = vectors[len(answer_texts) :]
    existing = {aid: set(ev) for aid, ev in alignment}
    for (aid, _), avec in zip(answer_sentences, answer_vecs):
        for sentence, nvec in zip(case.note, note_vecs):
            if sentence.id in existing.get(aid, set()):
                continue
            if cosine(avec, nvec) >= config.tau:
                existing.setdefault(aid, set()).add(sentence.id)
    return [
        (aid, sorted(ev, key=id_sort_key))
        for aid, ev in sorted(existing.items(), key=lambda kv: id_sort_key(kv[0]))
    ]


_SENTENCE_SPLIT = re.compile(r"(?<=[.!?])\s+")


def segment_answer(answer_text: str) -> list[tuple[str, str]]:
    """Number the sentences of a generated answer for pipeline-mode
    alignment (dev mode uses the key's answer sentences instead)."""
    parts = [p.strip() for p in _SENTENCE_SPLIT.split(answer_text.strip()) if p.strip()]
    return [(str(i + 1), part) for i, part in enumerate(parts)]


@dataclass
class St4Result:
    case_id: str
    alignments: AlignmentList
    tally: LinkVoteTally | None = None


def run_case(
    case: Case,
    shots,
    plan: SamplingPlan | None,
    provider: Generator | None,
    policy: MergePolicy,
    recall: RecallConfig = RecallConfig(),
    embedder: Embedder | None = None,
    full_answer_context: bool = True,
    answers: list[tuple[str, str]] | None = None,
    clinician_question: str | None = None,
) -> St4Result:
    """Ensemble alignment for one case; with no plan this degrades to the
    embedding-only baseline (vote nothing, recall everything)."""
    answer_sentences = answers if answers is not None else list(case.clinician_answer_sentences)
    answer_ids = [aid for aid, _ in answer_sentences]
    if plan is None or provider is None:
        alignment: AlignmentList = [(aid, []) for aid in answer_ids]
        tally = None
    else:
        tally = run_ensemble(
            case,
            shots,
            plan,
            provider,
            full_answer_context=full_answer_context,
            answers=answers,
            clinician_question=clinician_question,
        )
        alignment = merge_links(tally, policy, case, answer_ids=answer_ids)
    if recall.enabled:
        if embedder is None:
            raise ConfigError("recall augmentation needs an embedder")
        alignment = recall_augment(alignment, case, embedder, recall, answers=answers)
    return St4Result(case_id=case.case_id, alignments=alignment, tally=tally)
