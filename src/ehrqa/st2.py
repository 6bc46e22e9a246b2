"""Evidence identification: pick the minimal supporting sentence-ID set
by voting across ensemble runs.

Each (member, sample) run contributes one parsed ID set; a sentence
survives the merge when its vote count clears the policy threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Case, MergePolicy, SamplingPlan, id_sort_key, resolve_threshold
from .parsing import parse_id_array
from .prompting import load_template, render_prompt
from .providers import Generator, gather_responses
from .vote import VoteTally, plan_requests, tally_from_runs


def run_ensemble(
    case: Case,
    shots,
    plan: SamplingPlan,
    provider: Generator,
    clinician_question: str | None = None,
) -> VoteTally[str]:
    """One parsed ID set per (member, sample); failures count as empty,
    and a case with no usable run raises SubtaskError."""
    extra = {"clinician_question": clinician_question}
    messages = tuple(render_prompt(load_template("st2"), case, shots, extra=extra))
    requests = plan_requests(case.case_id, "st2", messages, plan)
    runs = gather_responses(provider, requests, parse_id_array, case.case_id, "st2")
    return tally_from_runs(runs)


def merge_votes(tally: VoteTally[str], policy: MergePolicy) -> list[str]:
    """IDs whose vote count clears the resolved threshold, numeric order."""
    threshold = resolve_threshold(policy, tally.total_votes)
    kept = [i for i, count in tally.votes.items() if count >= threshold]
    return sorted(kept, key=id_sort_key)


def default_confidence_floor(total_runs: int) -> float | None:
    """Conservative default for the enhanced mode: require more than one
    vote once the ensemble has at least three runs."""
    if total_runs >= 3:
        return 1.5 / total_runs
    return None


def postprocess_ids(
    ids,
    case: Case,
    tally: VoteTally[str],
    confidence_floor: float | None = None,
) -> list[str]:
    """Drop invalid IDs and duplicates, sort numerically, and optionally
    drop IDs whose vote fraction falls below the confidence floor."""
    kept = case.in_note(ids)
    if confidence_floor is None:
        return kept
    return [i for i in kept if tally.votes.get(i, 0) / tally.total_votes >= confidence_floor]


@dataclass
class St2Result:
    evidence_ids: list[str]
    tally: VoteTally[str] | None = None


def run_case(
    case: Case,
    shots,
    plan: SamplingPlan,
    provider: Generator,
    policy: MergePolicy,
    clinician_question: str | None = None,
    use_default_floor: bool = False,
) -> St2Result:
    tally = run_ensemble(case, shots, plan, provider, clinician_question=clinician_question)
    merged = merge_votes(tally, policy)
    floor = default_confidence_floor(tally.total_votes) if use_default_floor else None
    evidence = postprocess_ids(merged, case, tally=tally, confidence_floor=floor)
    return St2Result(evidence_ids=evidence, tally=tally)
