"""Core domain types shared by every stage of the pipeline.

All types here are immutable value objects and safe to share across
concurrent tasks without coordination. The one file helper,
``atomic_write_text``, is here because every layer that persists a file
(outputs, the response cache, the swept threshold) uses it.
"""

from __future__ import annotations

import math
import os
import re
import threading
from dataclasses import dataclass, field
from pathlib import Path


class EhrqaError(Exception):
    """Base class for all package errors."""


class ConfigError(EhrqaError):
    """Invalid configuration value or combination."""


class CaseValidationError(EhrqaError):
    """A case record violates a structural invariant."""


class ParseError(EhrqaError):
    """Model output could not be parsed into the expected structure.

    Carries the raw text so callers can log it; the usual policy is that
    the offending run contributes zero votes.
    """

    def __init__(self, message: str, raw_text: str = ""):
        super().__init__(message)
        self.raw_text = raw_text


class ProviderError(EhrqaError):
    """A live backend call failed after bounded retries.

    The one backend failure a subtask may degrade on, as the paper says
    (an empty vote, a fallback answer, skipped recall). Cache and other
    integrity errors are not ProviderErrors, so no handler of this class
    can swallow them.
    """


class CacheMissError(EhrqaError):
    """The response cache cannot serve a request: replay found no entry,
    or the entry cannot be read.

    An integrity error, not a backend failure: it always fails the run,
    because degrading on it would quietly change a replayed output.
    """


class SubtaskError(EhrqaError):
    """A subtask could not produce output for a case."""


_ID_RE = re.compile(r"^[1-9][0-9]*$")


def is_valid_sentence_id(sentence_id: str) -> bool:
    """Sentence IDs are base-10 integer strings starting at 1, no leading zeros."""
    return bool(_ID_RE.match(sentence_id))


def id_sort_key(sentence_id: str) -> tuple[int, int | str]:
    """Numeric ordering for well-formed IDs, lexicographic fallback otherwise."""
    if sentence_id.isdigit():
        return (0, int(sentence_id))
    return (1, sentence_id)


@dataclass(frozen=True)
class NoteSentence:
    """One numbered sentence of a clinical note."""

    id: str
    text: str

    def __post_init__(self) -> None:
        if not is_valid_sentence_id(self.id):
            raise CaseValidationError(f"invalid note sentence id {self.id!r}")
        if not self.text.strip():
            raise CaseValidationError(f"note sentence {self.id} has empty text")


@dataclass(frozen=True)
class Case:
    """One patient encounter: question, numbered note, optional gold fields.

    Gold fields (clinician question/answer, evidence, alignments) are present
    on development cases and may be absent on test cases.
    """

    case_id: str
    patient_question: str
    note: tuple[NoteSentence, ...]
    clinician_question: str | None = None
    clinician_answer_sentences: tuple[tuple[str, str], ...] = ()
    clinician_answer_paragraph: str | None = None
    gold_evidence: frozenset[str] | None = None
    gold_alignments: tuple[tuple[str, frozenset[str]], ...] | None = None

    def __post_init__(self) -> None:
        if not self.case_id:
            raise CaseValidationError("case_id must be non-empty")
        note_ids = [s.id for s in self.note]
        if len(set(note_ids)) != len(note_ids):
            dupes = sorted({i for i in note_ids if note_ids.count(i) > 1}, key=id_sort_key)
            raise CaseValidationError(
                f"case {self.case_id}: duplicate note sentence ids {dupes}"
            )
        numeric = [int(i) for i in note_ids]
        if any(b <= a for a, b in zip(numeric, numeric[1:])):
            raise CaseValidationError(
                f"case {self.case_id}: note sentence ids must be strictly increasing"
            )
        valid = set(note_ids)
        if self.gold_evidence is not None and not set(self.gold_evidence) <= valid:
            bad = sorted(set(self.gold_evidence) - valid, key=id_sort_key)
            raise CaseValidationError(
                f"case {self.case_id}: gold_evidence ids {bad} not in note"
            )
        answer_ids = {aid for aid, _ in self.clinician_answer_sentences}
        if self.gold_alignments is not None:
            for aid, ev_ids in self.gold_alignments:
                if aid not in answer_ids:
                    raise CaseValidationError(
                        f"case {self.case_id}: gold alignment answer_id {aid!r} "
                        "has no matching answer sentence"
                    )
                if not set(ev_ids) <= valid:
                    bad = sorted(set(ev_ids) - valid, key=id_sort_key)
                    raise CaseValidationError(
                        f"case {self.case_id}: alignment for answer {aid} cites "
                        f"ids {bad} not in note"
                    )

    @property
    def note_ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.note)

    @property
    def answer_ids(self) -> tuple[str, ...]:
        return tuple(aid for aid, _ in self.clinician_answer_sentences)

    def note_text(self, sentence_id: str) -> str:
        for s in self.note:
            if s.id == sentence_id:
                return s.text
        raise KeyError(sentence_id)


@dataclass(frozen=True)
class PlanMember:
    """One ensemble member: a deployment sampled a fixed number of times."""

    deployment_name: str
    temperature: float = 0.0
    samples: int = 1

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ConfigError(f"member {self.deployment_name}: samples must be >= 1")
        if not 0.0 <= self.temperature <= 2.0:
            raise ConfigError(
                f"member {self.deployment_name}: temperature {self.temperature} "
                "outside [0, 2]"
            )


@dataclass(frozen=True)
class SamplingPlan:
    """Ensemble membership and per-member self-consistency sampling.

    ``extra_zero_temp_run`` adds one extra temperature-0 run per member on
    top of the configured samples. A deployment is one member at most: a
    run's request tag names its deployment and sample, not its member.
    """

    members: tuple[PlanMember, ...]
    extra_zero_temp_run: bool = False

    def __post_init__(self) -> None:
        if not self.members:
            raise ConfigError("sampling plan needs at least one member")
        deployments = [m.deployment_name for m in self.members]
        if len(set(deployments)) != len(deployments):
            raise ConfigError(f"sampling plan deployments must be unique, got {deployments}")

    def total_votes(self) -> int:
        total = sum(m.samples for m in self.members)
        if self.extra_zero_temp_run:
            total += len(self.members)
        return total

    def runs(self) -> list[tuple[str, float, int]]:
        """Deterministic run order as (deployment, temperature, sample_index)."""
        out = []
        for m in self.members:
            for s in range(m.samples):
                out.append((m.deployment_name, m.temperature, s))
        if self.extra_zero_temp_run:
            for m in self.members:
                out.append((m.deployment_name, 0.0, m.samples))
        return out


MERGE_MODES = ("manual", "union", "majority_st2", "majority_st4")


@dataclass(frozen=True)
class MergePolicy:
    """How many votes an item needs to survive the ensemble merge.

    ``manual`` uses a fixed k; ``union`` keeps anything with one vote;
    the two majority modes use ceil(n/2)+1 and floor(n/2)+1 respectively,
    where n is the total vote count supplied at resolution time.
    """

    mode: str
    k: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in MERGE_MODES:
            raise ConfigError(f"unknown merge mode {self.mode!r}")
        if self.mode == "manual":
            if self.k is None or self.k < 1:
                raise ConfigError("manual merge policy needs k >= 1")
        elif self.k is not None:
            raise ConfigError(f"merge mode {self.mode!r} does not take k")

    @classmethod
    def manual(cls, k: int) -> "MergePolicy":
        return cls(mode="manual", k=k)

    @classmethod
    def union(cls) -> "MergePolicy":
        return cls(mode="union")

    @classmethod
    def majority_st2(cls) -> "MergePolicy":
        return cls(mode="majority_st2")

    @classmethod
    def majority_st4(cls) -> "MergePolicy":
        return cls(mode="majority_st4")


def resolve_threshold(policy: MergePolicy, total_votes: int) -> int:
    """Turn a merge policy into a concrete minimum vote count.

    The result always lands in [1, total_votes]; the majority formulas are
    clamped down when the ensemble is too small for them.
    """
    if total_votes < 1:
        raise ConfigError(f"total_votes must be >= 1, got {total_votes}")
    if policy.mode == "manual":
        assert policy.k is not None
        if policy.k > total_votes:
            raise ConfigError(
                f"manual threshold k={policy.k} exceeds total_votes={total_votes}"
            )
        return policy.k
    if policy.mode == "union":
        return 1
    if policy.mode == "majority_st2":
        k = math.ceil(total_votes / 2) + 1
    else:  # majority_st4
        k = math.floor(total_votes / 2) + 1
    return min(k, total_votes)


DEFAULT_FIRST_PERSON = frozenset({"i", "me", "my", "mine", "we", "us", "our", "ours"})


@dataclass(frozen=True)
class ConstraintConfig:
    """Hard output constraints for the generative subtasks."""

    st1_max_words: int = 15
    st3_max_words: int = 75
    forbidden_first_person: frozenset[str] = field(default=DEFAULT_FIRST_PERSON)

    def __post_init__(self) -> None:
        if self.st1_max_words <= 0:
            raise ConfigError("st1_max_words must be positive")
        if self.st3_max_words <= 0:
            raise ConfigError("st3_max_words must be positive")


def count_words(text: str) -> int:
    """Number of maximal whitespace-delimited tokens."""
    return len(text.split())


_TOKEN_PUNCT = re.compile(r"^\W+|\W+$")


def strip_token_punct(token: str) -> str:
    """Strip leading/trailing punctuation from a token for word-level checks."""
    return _TOKEN_PUNCT.sub("", token)


def contains_first_person(text: str, forbidden: frozenset[str] = DEFAULT_FIRST_PERSON) -> bool:
    """True when any whitespace token, punctuation-stripped and lowercased, is forbidden."""
    return any(strip_token_punct(tok).lower() in forbidden for tok in text.split())


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file and ``os.replace``.

    Readers see the previous file or the new one, never a partial write,
    and a failed write leaves the previous file intact. The temporary name
    is unique to the writing process and thread, so concurrent writers into
    one directory never overwrite each other's temporary file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
