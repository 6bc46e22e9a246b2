"""Prompt templates and rendering.

Each subtask has a fixed instruction scaffold shipped as a package asset
with $name slots. Rendering is a pure function of (template, case, shots,
extra): same inputs, same bytes. Few-shot examples are embedded in the
single user message for all subtasks except the alignment subtask, which
uses a system block plus interleaved user/assistant turns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from importlib import resources
from string import Template

from .core import Case, EhrqaError, id_sort_key
from .parsing import format_alignment, format_id_array

SUBTASKS = ("st1", "st2", "st3_stage1", "st3_stage2", "st4")

NOT_PROVIDED = "(not provided)"


class RenderError(EhrqaError):
    """A template slot could not be resolved, or shots are malformed."""


@dataclass(frozen=True)
class Message:
    role: str  # system | user | assistant
    content: str


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


def scaffold_slots(scaffold: str) -> set[str]:
    """Names of all $slots referenced by a scaffold."""
    names = set()
    for match in Template.pattern.finditer(scaffold):
        name = match.group("named") or match.group("braced")
        if name:
            names.add(name)
    return names


def _substitute(scaffold: str, slots: dict[str, str], subtask: str) -> str:
    referenced = scaffold_slots(scaffold)
    provided = set(slots)
    if referenced != provided:
        missing = sorted(referenced - provided)
        unused = sorted(provided - referenced)
        raise RenderError(
            f"{subtask}: slot mismatch (missing={missing}, unused={unused})"
        )
    return Template(scaffold).substitute(slots)


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


def _clinician_question(case: Case, extra: dict[str, str]) -> str:
    if "clinician_question" in extra:
        return extra["clinician_question"]
    return case.clinician_question or NOT_PROVIDED


def _st1_shot(shot: Case) -> str:
    return (
        "Example:\n"
        f"Patient question: {shot.patient_question}\n"
        f"Clinician-interpreted question: {shot.clinician_question or NOT_PROVIDED}\n"
    )


def _st2_shot(shot) -> str:
    if isinstance(shot, ContrastExample):
        case = shot.base
        return (
            "Example:\n"
            f"Patient question: {case.patient_question}\n"
            f"Clinician-interpreted question: {case.clinician_question or NOT_PROVIDED}\n"
            f"GOOD evidence sentence IDs: {format_id_array(shot.good_ids)}\n"
            f"BAD evidence sentence IDs (over-inclusive): {format_id_array(shot.bad_ids)}\n"
        )
    return (
        "Example:\n"
        f"Patient question: {shot.patient_question}\n"
        f"Clinician-interpreted question: {shot.clinician_question or NOT_PROVIDED}\n"
        f"Evidence sentence IDs: {format_id_array(shot.gold_evidence or ())}\n"
    )


def _st3_shot(shot: Case) -> str:
    return (
        "Example:\n"
        f"Patient question: {shot.patient_question}\n"
        f"Clinician-interpreted question: {shot.clinician_question or NOT_PROVIDED}\n"
        f"Evidence sentence IDs: {format_id_array(shot.gold_evidence or ())}\n"
        f"Answer: {shot.clinician_answer_paragraph or NOT_PROVIDED}\n"
    )


_SHOT_RENDERERS = {"st1": _st1_shot, "st2": _st2_shot, "st3_stage1": _st3_shot}


def _shots_block(subtask: str, shots) -> str:
    if not shots:
        return ""
    render_one = _SHOT_RENDERERS[subtask]
    return "\n".join(render_one(s) for s in shots)


def _shot_case(shot) -> Case:
    return shot.base if isinstance(shot, ContrastExample) else shot


def full_answer_block(paragraph: str | None) -> str:
    if not paragraph:
        return ""
    return f"\nFull clinician answer (for context):\n{paragraph}\n"


def _st4_user_turn(
    template: PromptTemplate, case: Case, extra: dict[str, str]
) -> str:
    answers = extra.get("answer_block")
    if answers is None:
        answers = answer_block(case.clinician_answer_sentences)
    slots = {
        "patient_question": case.patient_question,
        "clinician_question": _clinician_question(case, extra),
        "note_block": note_block(case),
        "answer_block": answers,
        "full_answer_block": extra.get("full_answer_block", ""),
    }
    return _substitute(template.user_scaffold, slots, "st4")


def render_prompt(
    template: PromptTemplate,
    case: Case,
    shots=(),
    extra: dict[str, str] | None = None,
) -> list[Message]:
    """Render the full message list for one case.

    ``extra`` supplies subtask-specific slot values (clinical context,
    evidence block, stage-1 draft, full-answer context, ...). Shots must
    never include the target case.
    """
    extra = dict(extra or {})
    for shot in shots:
        if _shot_case(shot).case_id == case.case_id:
            raise RenderError(
                f"shot list contains the target case {case.case_id}"
            )

    if template.subtask == "st4":
        messages = [Message("system", template.system_block or "")]
        for shot in shots:
            shot_case = _shot_case(shot)
            if shot_case.gold_alignments is None:
                raise RenderError(
                    f"st4 shot {shot_case.case_id} has no gold alignments"
                )
            shot_extra = {
                "full_answer_block": full_answer_block(
                    shot_case.clinician_answer_paragraph
                )
            }
            messages.append(
                Message("user", _st4_user_turn(template, shot_case, shot_extra))
            )
            messages.append(
                Message("assistant", format_alignment(shot_case.gold_alignments))
            )
        messages.append(Message("user", _st4_user_turn(template, case, extra)))
        return messages

    slots: dict[str, str] = {}
    if template.subtask == "st1":
        slots = {
            "patient_question": case.patient_question,
            "context_block": extra.get("context_block", "(none)"),
            "shots_block": _shots_block("st1", shots),
        }
    elif template.subtask == "st2":
        slots = {
            "patient_question": case.patient_question,
            "clinician_question": _clinician_question(case, extra),
            "note_block": note_block(case),
            "shots_block": _shots_block("st2", shots),
        }
    elif template.subtask == "st3_stage1":
        if "evidence_block" not in extra:
            raise RenderError("st3_stage1 requires an evidence_block slot")
        slots = {
            "patient_question": case.patient_question,
            "clinician_question": _clinician_question(case, extra),
            "evidence_block": extra["evidence_block"],
            "note_block": note_block(case),
            "shots_block": _shots_block("st3_stage1", shots),
        }
    elif template.subtask == "st3_stage2":
        if shots:
            raise RenderError("the rewrite stage takes no few-shot examples")
        for key in ("evidence_block", "draft"):
            if key not in extra:
                raise RenderError(f"st3_stage2 requires a {key} slot")
        slots = {"evidence_block": extra["evidence_block"], "draft": extra["draft"]}
    return [Message("user", _substitute(template.user_scaffold, slots, template.subtask))]
