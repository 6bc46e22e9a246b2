"""Prompt templates and rendering.

Every prompt is a template shipped as a package asset with $name slots.
Rendering is a pure function of (template, case, shots, extra): same
inputs, same bytes. Each slot is filled by one rule: ``shots_block`` from
the shots, then ``extra``, then the case. Few-shot examples are embedded in
the single user message, except for a template with a system block (the
alignment subtask), which takes them as user/assistant turns.

The shots are the run's few-shot pool cases, shared by every case of the
run, so what is rendered from a shot alone (its text in a shots block, its
user/assistant turn) is memoised on the shot object itself, as is the
UTF-8 JSON of each message: it lives as long as the object and no two
objects share it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache, cached_property
from importlib import resources
from string import Template

from .core import Case, EhrqaError, id_sort_key
from .parsing import format_alignment, format_id_array

SUBTASKS = ("st1_context", "st1", "st2", "st3_stage1", "st3_stage2", "st4")

NOT_PROVIDED = "(not provided)"


class RenderError(EhrqaError):
    """A template slot could not be filled, or shots are malformed."""


@dataclass(frozen=True)
class Message:
    role: str  # system | user | assistant
    content: str

    @cached_property
    def json_bytes(self) -> bytes:
        """``[role, content]`` as ``json.dumps(..., ensure_ascii=False)``
        writes it, in UTF-8, encoded once per message: the request cache key
        hashes it for every request that carries the message."""
        return json.dumps([self.role, self.content], ensure_ascii=False).encode("utf-8")


@dataclass(frozen=True)
class PromptTemplate:
    subtask: str
    user_scaffold: str
    system_block: str | None = None


def _asset(name: str) -> str:
    return (
        resources.files("ehrqa").joinpath("templates").joinpath(name).read_text(encoding="utf-8")
    )


@cache
def load_template(subtask: str) -> PromptTemplate:
    """The subtask's template, read from the package assets once per process
    (templates are frozen, so every caller can share the one instance)."""
    if subtask not in SUBTASKS:
        raise RenderError(f"unknown subtask {subtask!r}")
    if subtask == "st4":
        return PromptTemplate(
            subtask="st4",
            user_scaffold=_asset("st4_user.txt"),
            system_block=_asset("st4_system.txt").strip(),
        )
    return PromptTemplate(subtask=subtask, user_scaffold=_asset(f"{subtask}.txt"))


@cache
def scaffold_slots(scaffold: str) -> frozenset[str]:
    """Names of all $slots referenced by a scaffold (memoised: there is one
    scaffold per template asset)."""
    names = set()
    for match in Template.pattern.finditer(scaffold):
        name = match.group("named") or match.group("braced")
        if name:
            names.add(name)
    return frozenset(names)


@dataclass(frozen=True)
class ContrastExample:
    """A correct evidence set paired with an over-inclusive one.

    The bad set augments the gold set with spurious sentence IDs from the
    same note, showing the model what to avoid.
    """

    base: Case
    good_ids: frozenset[str]
    bad_ids: frozenset[str]

    def __post_init__(self) -> None:
        if self.base.gold_evidence is None or self.good_ids != self.base.gold_evidence:
            raise EhrqaError(
                f"contrast example for {self.base.case_id}: good_ids must equal gold evidence"
            )
        if not self.bad_ids > self.good_ids:
            raise EhrqaError(
                f"contrast example for {self.base.case_id}: bad_ids must be a strict superset"
            )
        spurious = self.bad_ids - self.good_ids
        if not spurious <= set(self.base.note_ids):
            raise EhrqaError(
                f"contrast example for {self.base.case_id}: spurious ids not in note"
            )


def make_contrast_example(case: Case) -> ContrastExample:
    """Augment the gold set with the lowest-numbered non-gold sentence."""
    if not case.gold_evidence:
        raise EhrqaError(f"case {case.case_id} has no gold evidence for contrast")
    non_gold = [i for i in case.note_ids if i not in case.gold_evidence]
    if not non_gold:
        raise EhrqaError(f"case {case.case_id} has no non-gold sentence for contrast")
    spurious = min(non_gold, key=id_sort_key)
    good = frozenset(case.gold_evidence)
    return ContrastExample(base=case, good_ids=good, bad_ids=good | {spurious})


def note_block(case: Case) -> str:
    return "\n".join(f"{s.id}. {s.text}" for s in case.note)


def answer_block(answers) -> str:
    return "\n".join(f"{aid}. {text}" for aid, text in answers)


def full_answer_block(paragraph: str | None) -> str:
    if not paragraph:
        return ""
    return f"\nFull clinician answer (for context):\n{paragraph}\n"


# The value a slot takes from the case when neither the shots nor ``extra``
# fill it.
_CASE_SLOTS = {
    "patient_question": lambda case: case.patient_question,
    "clinician_question": lambda case: case.clinician_question or NOT_PROVIDED,
    "note_block": note_block,
    "answer_block": lambda case: answer_block(case.clinician_answer_sentences),
    "full_answer_block": lambda case: "",
    "context_block": lambda case: "(none)",
}


def _shot_header(shot: Case) -> str:
    return (
        "Example:\n"
        f"Patient question: {shot.patient_question}\n"
        f"Clinician-interpreted question: {shot.clinician_question or NOT_PROVIDED}\n"
    )


def _st2_shot(shot) -> str:
    if isinstance(shot, ContrastExample):
        return (
            _shot_header(shot.base)
            + f"GOOD evidence sentence IDs: {format_id_array(shot.good_ids)}\n"
            f"BAD evidence sentence IDs (over-inclusive): {format_id_array(shot.bad_ids)}\n"
        )
    return (
        _shot_header(shot)
        + f"Evidence sentence IDs: {format_id_array(shot.gold_evidence or ())}\n"
    )


def _st3_shot(shot) -> str:
    answer = _shot_case(shot).clinician_answer_paragraph
    return _st2_shot(shot) + f"Answer: {answer or NOT_PROVIDED}\n"


_SHOT_RENDERERS = {"st1": _shot_header, "st2": _st2_shot, "st3_stage1": _st3_shot}


def _shot_case(shot) -> Case:
    return shot.base if isinstance(shot, ContrastExample) else shot


def _memo(owner, key, make):
    """``make()``, computed once per ``key`` and kept on ``owner``, the
    object it is rendered from. The memo is no dataclass field, so the
    owner's equality, hash, repr and ``asdict`` are unchanged; two threads
    that race on a key both get the value stored first."""
    memo = vars(owner).setdefault("_render_memo", {})
    try:
        return memo[key]
    except KeyError:
        return memo.setdefault(key, make())


def _shot_turn(
    template: PromptTemplate, shot_case: Case, full_answer: bool
) -> tuple[Message, Message]:
    """The user/assistant turn that shows ``shot_case`` as an example."""
    turn = {}
    if full_answer:
        turn["full_answer_block"] = full_answer_block(shot_case.clinician_answer_paragraph)
    return (
        Message("user", _fill(template, shot_case, turn)),
        Message("assistant", format_alignment(shot_case.gold_alignments)),
    )


def _fill(template: PromptTemplate, case: Case, values: dict[str, str]) -> str:
    slots = {}
    for name in sorted(scaffold_slots(template.user_scaffold)):
        if name in values:
            slots[name] = values[name]
        elif name in _CASE_SLOTS:
            slots[name] = _CASE_SLOTS[name](case)
        else:
            raise RenderError(f"{template.subtask}: nothing fills the slot ${name}")
    return Template(template.user_scaffold).substitute(slots)


def render_prompt(
    template: PromptTemplate,
    case: Case,
    shots=(),
    extra: dict[str, str | None] | None = None,
) -> list[Message]:
    """Render the full message list for one case.

    ``extra`` supplies slot values the case does not hold (clinical
    context, evidence block, stage-1 draft, ...) or overrides its own (the
    st1 clinician question); a value of None counts as absent. Shots must
    never include the target case.
    """
    for shot in shots:
        if _shot_case(shot).case_id == case.case_id:
            raise RenderError(f"shot list contains the target case {case.case_id}")
    values = {name: value for name, value in (extra or {}).items() if value is not None}

    if template.system_block is not None:
        messages = [_memo(template, "system", lambda: Message("system", template.system_block))]
        full_answer = "full_answer_block" in values
        for shot in shots:
            shot_case = _shot_case(shot)
            if shot_case.gold_alignments is None:
                raise RenderError(
                    f"{template.subtask} shot {shot_case.case_id} has no gold alignments"
                )
            messages.extend(
                _memo(
                    shot_case,
                    (template, full_answer),
                    lambda: _shot_turn(template, shot_case, full_answer),
                )
            )
        messages.append(Message("user", _fill(template, case, values)))
        return messages

    if "shots_block" in scaffold_slots(template.user_scaffold):
        render_one = _SHOT_RENDERERS[template.subtask]
        values["shots_block"] = "\n".join(
            _memo(s, template.subtask, lambda s=s: render_one(s)) for s in shots
        )
    elif shots:
        raise RenderError(f"{template.subtask} takes no few-shot examples")
    return [Message("user", _fill(template, case, values))]
