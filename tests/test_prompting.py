import json
from pathlib import Path

import pytest

from ehrqa.core import Case, EhrqaError, NoteSentence
from ehrqa.prompting import (
    SUBTASKS,
    ContrastExample,
    RenderError,
    load_template,
    make_contrast_example,
    render_prompt,
    scaffold_slots,
)
from ehrqa.providers import ScriptedProvider
from ehrqa.st1 import extract_context

GOLDEN_DIR = Path(__file__).parent / "goldens"


def target_case():
    return Case(
        case_id="t1",
        patient_question="Why did they have to put a stent in so urgently?",
        clinician_question="Why was emergency stent placement required?",
        note=(
            NoteSentence("1", "Patient admitted with chest pain."),
            NoteSentence("2", "Emergent catheterization revealed an occlusion."),
            NoteSentence("3", "A stent was placed emergently."),
        ),
        clinician_answer_sentences=(("1", "A stent was placed emergently."),),
        clinician_answer_paragraph="A stent was placed emergently.",
        gold_evidence=frozenset({"2", "3"}),
        gold_alignments=(("1", frozenset({"3"})),),
    )


def shot_case():
    return Case(
        case_id="s1",
        patient_question="Did they change the blood thinner dose?",
        clinician_question="Was the anticoagulant dose adjusted?",
        note=(
            NoteSentence("2", "INR was elevated on admission."),
            NoteSentence("5", "Warfarin was held for two days."),
            NoteSentence("9", "Diet education was provided."),
        ),
        clinician_answer_sentences=(("1", "Warfarin was held."),),
        clinician_answer_paragraph="Warfarin was held.",
        gold_evidence=frozenset({"2", "5"}),
        gold_alignments=(("1", frozenset({"5"})),),
    )


def render_fixture(name):
    """Deterministic render of each template used for the golden files."""
    target, shot = target_case(), shot_case()
    if name == "st1":
        return render_prompt(load_template("st1"), target, [shot], extra={"context_block": "(none)"})
    if name == "st2":
        return render_prompt(load_template("st2"), target, [shot])
    if name == "st2_contrast":
        return render_prompt(load_template("st2"), target, [make_contrast_example(shot)])
    if name == "st3_stage1":
        return render_prompt(
            load_template("st3_stage1"),
            target,
            [shot],
            extra={"evidence_block": "2. Emergent catheterization revealed an occlusion."},
        )
    if name == "st3_stage2":
        return render_prompt(
            load_template("st3_stage2"),
            target,
            (),
            extra={
                "evidence_block": "2. Emergent catheterization revealed an occlusion.",
                "draft": "An occlusion was found [2].",
            },
        )
    if name == "st4":
        return render_prompt(
            load_template("st4"),
            target,
            [shot],
            extra={
                "full_answer_block": "\nFull clinician answer (for context):\nA stent was placed emergently.\n"
            },
        )
    raise KeyError(name)


GOLDEN_NAMES = ("st1", "st2", "st2_contrast", "st3_stage1", "st3_stage2", "st4")


def serialize(messages):
    return json.dumps([[m.role, m.content] for m in messages], indent=1, ensure_ascii=False)


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_rendered_bytes_match_golden(name):
    golden = (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")
    assert serialize(render_fixture(name)) == golden


@pytest.mark.parametrize(
    "name, include_note", [("st1_context", False), ("st1_context_note", True)]
)
def test_context_request_matches_golden(name, include_note):
    requests = []

    def respond(request):
        requests.append(request)
        return "{}"

    extract_context(target_case(), ScriptedProvider(handler=respond), include_note=include_note)
    golden = (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")
    assert serialize(requests[0].messages) == golden


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_render_is_pure(name):
    assert serialize(render_fixture(name)) == serialize(render_fixture(name))


class TestRenderStructure:
    def test_st2_zero_shots_single_user_message(self):
        messages = render_prompt(load_template("st2"), target_case(), ())
        assert len(messages) == 1
        assert messages[0].role == "user"
        assert "1. Patient admitted with chest pain." in messages[0].content

    def test_st4_two_shots_is_six_messages(self):
        shots = [shot_case(), shot_case()]
        shots[1] = Case(
            case_id="s2",
            patient_question=shots[1].patient_question,
            clinician_question=shots[1].clinician_question,
            note=shots[1].note,
            clinician_answer_sentences=shots[1].clinician_answer_sentences,
            clinician_answer_paragraph=shots[1].clinician_answer_paragraph,
            gold_evidence=shots[1].gold_evidence,
            gold_alignments=shots[1].gold_alignments,
        )
        messages = render_prompt(load_template("st4"), target_case(), shots)
        assert [m.role for m in messages] == [
            "system",
            "user",
            "assistant",
            "user",
            "assistant",
            "user",
        ]

    def test_st4_full_answer_context_block(self):
        messages = render_prompt(
            load_template("st4"),
            target_case(),
            (),
            extra={"full_answer_block": "\nFull clinician answer (for context):\nParagraph here.\n"},
        )
        assert "Full clinician answer (for context):" in messages[-1].content
        assert "Paragraph here." in messages[-1].content

    def test_contrast_shot_renders_good_and_bad_sets(self):
        messages = render_prompt(
            load_template("st2"), target_case(), [make_contrast_example(shot_case())]
        )
        content = messages[0].content
        assert 'GOOD evidence sentence IDs: ["2","5"]' in content
        assert 'BAD evidence sentence IDs (over-inclusive): ["2","5","9"]' in content

    def test_shot_equal_to_target_rejected(self):
        with pytest.raises(RenderError, match="target case"):
            render_prompt(load_template("st2"), target_case(), [target_case()])

    def test_shot_gold_never_leaks_target_gold(self):
        # shots are other cases; the target's gold IDs never appear in a shot block
        messages = render_prompt(load_template("st2"), target_case(), [shot_case()])
        shot_part = messages[0].content.split("Patient question:\nWhy did they")[0]
        assert '["2","3"]' not in shot_part  # target gold evidence

    def test_missing_slot_raises_named_error(self):
        with pytest.raises(RenderError, match="evidence_block"):
            render_prompt(load_template("st3_stage1"), target_case(), ())

    def test_a_slot_nothing_fills_is_named(self):
        with pytest.raises(RenderError, match=r"^st3_stage2: nothing fills the slot \$draft$"):
            render_prompt(load_template("st3_stage2"), target_case(), extra={"evidence_block": "x"})

    def test_none_in_extra_counts_as_absent(self):
        template, case = load_template("st2"), target_case()
        assert render_prompt(template, case, extra={"clinician_question": None}) == (
            render_prompt(template, case)
        )
        with pytest.raises(RenderError, match=r"\$draft"):
            render_prompt(
                load_template("st3_stage2"), case, extra={"evidence_block": "x", "draft": None}
            )

    def test_extra_fills_before_the_case(self):
        case = target_case()
        content = render_prompt(
            load_template("st2"), case, extra={"clinician_question": "Was a stent placed?"}
        )[0].content
        assert "Was a stent placed?" in content
        assert case.clinician_question not in content

    def test_case_defaults_fill_the_rest(self):
        bare = Case(case_id="b", patient_question="q?", note=target_case().note)
        content = render_prompt(load_template("st1"), bare)[0].content
        assert "Clinical context (explicitly stated elements only):\n(none)\n" in content
        content = render_prompt(load_template("st2"), bare)[0].content
        assert "Clinician-interpreted question:\n(not provided)\n" in content

    def test_st4_shot_without_gold_alignments_rejected(self):
        shot = shot_case()
        bare = Case(case_id="s9", patient_question="q?", note=shot.note)
        with pytest.raises(RenderError, match="s9 has no gold alignments"):
            render_prompt(load_template("st4"), target_case(), [bare])

    def test_context_template_rejects_shots(self):
        with pytest.raises(RenderError, match="st1_context takes no few-shot examples"):
            render_prompt(
                load_template("st1_context"), target_case(), [shot_case()],
                extra={"note_section": ""},
            )

    def test_stage2_rejects_shots(self):
        with pytest.raises(RenderError, match="no few-shot"):
            render_prompt(
                load_template("st3_stage2"),
                target_case(),
                [shot_case()],
                extra={"evidence_block": "x", "draft": "y"},
            )

    def test_template_loaded_once_and_shared(self):
        for subtask in SUBTASKS:
            assert load_template(subtask) is load_template(subtask)

    def test_scaffold_slots_extraction(self):
        assert scaffold_slots("a $one b ${two} c $one") == {"one", "two"}


class TestContrastExample:
    def test_spurious_is_lowest_non_gold(self):
        example = make_contrast_example(shot_case())
        assert example.bad_ids - example.good_ids == {"9"}

    def test_requires_gold(self):
        case = target_case()
        bare = Case(
            case_id="x",
            patient_question="q",
            note=case.note,
        )
        with pytest.raises(EhrqaError):
            make_contrast_example(bare)

    def test_invariants_enforced(self):
        shot = shot_case()
        with pytest.raises(EhrqaError, match="strict superset"):
            ContrastExample(base=shot, good_ids=shot.gold_evidence, bad_ids=shot.gold_evidence)
