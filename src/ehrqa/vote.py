"""The ensemble vote shared by evidence identification (st2) and evidence
alignment (st4).

Each (member, sample) run of a sampling plan votes once for every key it
names: a note sentence ID in st2, an (answer_id, evidence_id) link in st4.
A key survives the merge when its vote count clears the policy threshold,
and a dev-gold sweep picks the threshold with the best micro F1.
Unparseable runs vote for nothing but still count toward the run total, so
majority thresholds stay honest about ensemble size.
"""

from __future__ import annotations

import logging
from collections import Counter
from collections.abc import Callable, Collection, Hashable, Iterable, Sequence
from dataclasses import dataclass
from typing import Generic, TypeVar

from .core import ConfigError, EhrqaError, ParseError, SamplingPlan
from .metrics import _prf_from_counts
from .prompting import Message
from .providers import GenRequest, RequestOutcome

logger = logging.getLogger(__name__)

K = TypeVar("K", bound=Hashable)


@dataclass(frozen=True)
class VoteTally(Generic[K]):
    """How many of ``total_votes`` runs voted for each key."""

    votes: dict[K, int]
    total_votes: int

    def __post_init__(self) -> None:
        if self.total_votes < 1:
            raise ConfigError("tally needs total_votes >= 1")
        bad = {k: c for k, c in self.votes.items() if not 1 <= c <= self.total_votes}
        if bad:
            raise ConfigError(f"vote counts outside [1, total_votes]: {bad}")


def tally_from_runs(runs: Sequence[Iterable[K]]) -> VoteTally[K]:
    """Count each key once per run; every run counts toward the total."""
    votes: dict[K, int] = {}
    for run in runs:
        for key in set(run):
            votes[key] = votes.get(key, 0) + 1
    return VoteTally(votes=votes, total_votes=len(runs))


def plan_requests(
    case_id: str, subtask: str, messages: tuple[Message, ...], plan: SamplingPlan
) -> list[GenRequest]:
    """One request per run of ``plan``, tagged ``case/subtask/deployment/sample``."""
    return [
        GenRequest(
            deployment_name=deployment,
            messages=messages,
            temperature=temperature,
            request_tag=f"{case_id}/{subtask}/{deployment}/{sample}",
            sample_index=sample,
        )
        for deployment, temperature, sample in plan.runs()
    ]


def parse_runs(
    outcomes: Sequence[RequestOutcome],
    parse: Callable[[str], Iterable],
    case_id: str,
    subtask: str,
) -> list[Iterable]:
    """Parse each outcome into one run; a failed call or an unparseable
    response votes for nothing."""
    runs: list[Iterable] = []
    parsed_any = False
    for outcome in outcomes:
        run: Iterable = ()
        if outcome.ok:
            try:
                run = parse(outcome.response.text)
                parsed_any = True
            except ParseError as exc:
                tag = outcome.request.request_tag
                logger.warning("%s run %s unparseable, counting as empty: %s", subtask, tag, exc)
        runs.append(run)
    if not parsed_any:
        logger.warning("case %s: every %s run failed to parse", case_id, subtask)
    return runs


def sweep(
    cases: Iterable[tuple[VoteTally[K], Collection[K], Collection[str]]],
    threshold_name: str,
    note_id: Callable[[K], str] = lambda key: key,
) -> tuple[int, list[dict]]:
    """Micro PRF on dev gold at every threshold from 1 to the largest
    ``total_votes``, and the threshold with the best F1 (ties go to the
    smallest).

    Each case is (tally, gold keys, note sentence IDs); a key whose
    ``note_id`` is not in the note is never predicted. One pass over the
    votes builds per-vote-count histograms of predicted and gold-hit keys,
    whose suffix sums are the counts at each threshold.
    """
    kept: Counter[int] = Counter()
    hits: Counter[int] = Counter()
    gold_total = max_votes = 0
    for tally, gold, note_ids in cases:
        gold, valid = set(gold), set(note_ids)
        gold_total += len(gold)
        max_votes = max(max_votes, tally.total_votes)
        for key, count in tally.votes.items():
            if note_id(key) in valid:
                kept[count] += 1
                hits[count] += key in gold
    if max_votes == 0:
        raise EhrqaError("threshold sweep needs at least one dev case")
    frontier = []
    tp = predicted = 0
    for theta in range(max_votes, 0, -1):
        tp += hits[theta]
        predicted += kept[theta]
        p = _prf_from_counts(tp, predicted - tp, gold_total - tp)
        frontier.append(
            {threshold_name: theta, "micro_p": p.precision, "micro_r": p.recall, "micro_f1": p.f1}
        )
    frontier.reverse()
    best = max(frontier, key=lambda row: row["micro_f1"])  # the first, so the smallest theta
    return best[threshold_name], frontier
