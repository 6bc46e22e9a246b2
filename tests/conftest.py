from typing import Callable, Sequence

import numpy as np
import pytest

from ehrqa.core import Case, EhrqaError, NoteSentence, ProviderError
from ehrqa.providers import GenRequest


class ScriptedProvider:
    """Generator scripted by request_tag; optionally falls back to a handler."""

    def __init__(
        self,
        script: dict[str, str] | None = None,
        handler: Callable[[GenRequest], str] | None = None,
    ):
        self.script = dict(script or {})
        self.handler = handler
        self.calls: list[str] = []

    def generate(self, request: GenRequest) -> str:
        self.calls.append(request.request_tag)
        if request.request_tag in self.script:
            return self.script[request.request_tag]
        if self.handler is not None:
            return self.handler(request)
        raise ProviderError(f"no scripted response for tag {request.request_tag!r}")


class FailingProvider:
    """Raises on every call; used to prove replay makes zero backend calls."""

    def __init__(self, message: str = "backend must not be reached"):
        self.message = message
        self.calls = 0

    def generate(self, request: GenRequest) -> str:
        self.calls += 1
        raise ProviderError(f"{self.message} (tag {request.request_tag})")

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        self.calls += 1
        raise ProviderError(self.message)


class FixedEmbedder:
    """Embedder backed by an explicit text -> vector table."""

    def __init__(self, table: dict[str, Sequence[float]]):
        self.table = {k: np.asarray(v, dtype=float) for k, v in table.items()}

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        if not texts:
            raise EhrqaError("embed requires a non-empty input list")
        try:
            return [self.table[t] for t in texts]
        except KeyError as exc:
            raise ProviderError(f"no fixed vector for text {exc}") from exc


def make_note(*texts_by_id):
    return tuple(NoteSentence(i, t) for i, t in texts_by_id)


def simple_case(
    case_id="c1",
    n_sentences=10,
    gold_evidence=None,
    patient_question="Why did they have to put a stent in so urgently?",
    clinician_question="Why was emergency stent placement required?",
    answers=(),
    gold_alignments=None,
    answer_paragraph=None,
):
    note = tuple(
        NoteSentence(str(i), f"Note sentence number {i} describing the clinical course.")
        for i in range(1, n_sentences + 1)
    )
    return Case(
        case_id=case_id,
        patient_question=patient_question,
        clinician_question=clinician_question,
        note=note,
        clinician_answer_sentences=tuple(answers),
        clinician_answer_paragraph=answer_paragraph,
        gold_evidence=frozenset(gold_evidence) if gold_evidence is not None else None,
        gold_alignments=(
            tuple((a, frozenset(e)) for a, e in gold_alignments)
            if gold_alignments is not None
            else None
        ),
    )


@pytest.fixture
def stent_case():
    return simple_case(
        gold_evidence={"2", "5"},
        answers=(("1", "A stent was placed emergently."), ("2", "Recovery was uneventful.")),
        answer_paragraph="A stent was placed emergently. Recovery was uneventful.",
        gold_alignments=[("1", {"2", "5"}), ("2", set())],
    )
