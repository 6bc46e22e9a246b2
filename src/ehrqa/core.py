"""Core domain types shared by every stage of the pipeline.

All types here are immutable and safe to share across concurrent tasks.
``atomic_write_text`` is here because every layer that persists a file
(outputs, the response cache, the swept threshold) uses it; ``degraded``
because every subtask reports its degraded results through it.
"""

from __future__ import annotations

import logging
import math
import os
import re
import threading
from collections import Counter
from collections.abc import Iterator
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path


class EhrqaError(Exception):
    """Base class for all package errors."""


class ConfigError(EhrqaError):
    """Invalid configuration value or combination."""


class CaseValidationError(EhrqaError):
    """A case record violates a structural invariant."""


class ParseError(EhrqaError):
    """Model output could not be parsed into the expected structure; the
    usual policy is that the offending run contributes zero votes."""


class ProviderError(EhrqaError):
    """A live backend call failed after bounded retries.

    The one backend failure a subtask may degrade on: an ensemble member's
    failed call is an empty run (``providers.gather_multi``) or a dropped
    st3 draft, and a call within a member falls back (the stripped draft,
    the first rerank candidate, skipped recall, no st1 context). Cache and
    other integrity errors are not ProviderErrors, so no handler of this
    class can swallow them.
    """


class CacheMissError(EhrqaError):
    """The response cache cannot serve a request: replay found no entry,
    or the entry cannot be read.

    An integrity error, not a backend failure: it always fails the run,
    because degrading on it would quietly change a replayed output.
    """


class SubtaskError(EhrqaError):
    """A subtask could not produce output for a case, such as one that no
    member of its ensemble gave a usable reply."""


# The degradations of the case being run, by kind, set per case; None outside a run.
DEGRADATIONS: ContextVar[Counter | None] = ContextVar("degradations", default=None)


def degraded(kind: str, msg: str, *args) -> None:
    """Report one degraded result: log ``msg % args`` as a warning on the
    logger ``ehrqa.<subtask>``, the subtask being ``kind`` up to its dot
    (``st3.rewrite_failed``), and count ``kind`` for the case being run."""
    logging.getLogger(f"ehrqa.{kind.partition('.')[0]}").warning(msg, *args)
    if (counts := DEGRADATIONS.get()) is not None:
        counts[kind] += 1


# A note sentence ID: a base-10 integer string from 1, no leading zeros.
_ID_RE = re.compile(r"[1-9][0-9]*")


def as_id(value) -> str | None:
    """The one rule for what a sentence or answer ID is, in files and in
    model output: a string as it is, an integer that is not a bool as its
    decimal string, and None for anything else (``2.0``, ``true``, ``[2]``)."""
    if isinstance(value, str):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    return None


def id_sort_key(sentence_id: str) -> tuple[int, int | str]:
    """Numeric ordering for well-formed IDs, lexicographic fallback otherwise."""
    if sentence_id.isdecimal():  # isdigit() also holds for "²", which int() rejects
        try:
            return (0, int(sentence_id))
        except ValueError:  # more digits than int() converts (4,300 by default)
            pass
    return (1, sentence_id)


@dataclass(frozen=True, slots=True)
class NoteSentence:
    """One numbered sentence of a clinical note, checked by its ``Case``."""

    id: str
    text: str


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
        self.check_id(self.case_id)
        if (problem := next(self._problems(), None)) is not None:
            raise CaseValidationError(f"case {self.case_id}: {problem}")

    @staticmethod
    def check_id(case_id: str) -> str:
        """``case_id`` unless empty; the loader checks it before any other field."""
        if not case_id:
            raise CaseValidationError("case_id must be non-empty")
        return case_id

    def _problems(self) -> Iterator[str]:
        """Each broken invariant, in check order. It is lazy, and the first
        is the error, so every ID is checked before ``int()`` sees it."""
        if not self.note:
            yield "note has no sentences"
        for s in self.note:
            if not _ID_RE.fullmatch(s.id):
                yield f"invalid note sentence id {s.id!r}"
            if not s.text.strip():
                yield f"note sentence {s.id} has empty text"
        for what, ids in (("note sentence", self.note_ids), ("answer_sentences", self.answer_ids)):
            if len(set(ids)) != len(ids):
                dupes = sorted({i for i in ids if ids.count(i) > 1}, key=id_sort_key)
                yield f"duplicate {what} ids {dupes}"
        numeric = [int(i) for i in self.note_ids]
        if any(b <= a for a, b in zip(numeric, numeric[1:])):
            yield "note sentence ids must be strictly increasing"
        if self.gold_evidence is not None and (bad := self._outside_note(self.gold_evidence)):
            yield f"gold_evidence ids {bad} not in note"
        for aid, ev_ids in self.gold_alignments or ():
            if aid not in self.answer_ids:
                yield f"gold alignment answer_id {aid!r} has no matching answer sentence"
            if bad := self._outside_note(ev_ids):
                yield f"alignment for answer {aid} cites ids {bad} not in note"

    def _outside_note(self, ids) -> list[str]:
        return sorted(set(ids) - self.note_id_set, key=id_sort_key)

    # Built once per case; a frozen dataclass still lets cached_property
    # write to the instance dict, and == and hash still see only the fields.
    @cached_property
    def note_ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.note)

    @cached_property
    def note_id_set(self) -> frozenset[str]:
        return frozenset(self.note_ids)

    def in_note(self, ids) -> list[str]:
        """The distinct members of ``ids`` that are note sentence IDs, in
        ``id_sort_key`` order."""
        return sorted(self.note_id_set.intersection(ids), key=id_sort_key)

    @cached_property
    def answer_ids(self) -> tuple[str, ...]:
        return tuple(aid for aid, _ in self.clinician_answer_sentences)

    @cached_property
    def _note_texts(self) -> dict[str, str]:
        return {s.id: s.text for s in self.note}

    def note_text(self, sentence_id: str) -> str:
        return self._note_texts[sentence_id]


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
        return len(self.runs())

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


DEFAULT_FIRST_PERSON = frozenset("i me my mine myself we us our ours ourselves".split())


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


def is_first_person(token: str, forbidden: frozenset[str] = DEFAULT_FIRST_PERSON) -> bool:
    """True when a part of ``token``, split at ``'`` and ``’``, punctuation-stripped and
    lowercased, is forbidden: so ``I'm`` and ``we’re`` are first person, ``patient's`` not."""
    parts = token.replace("\u2019", "'").split("'")
    return any(strip_token_punct(part).lower() in forbidden for part in parts)


def contains_first_person(text: str, forbidden: frozenset[str] = DEFAULT_FIRST_PERSON) -> bool:
    """True when any whitespace token of ``text`` is first person."""
    return any(is_first_person(tok, forbidden) for tok in text.split())


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
