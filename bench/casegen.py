"""Seeded synthetic case files in the canonical ehrqa JSONL format.

The benchmark hands the program only the file this module writes, so every
input property the pipeline's cost depends on is drawn here from the seed:

- case count: the size of the few-shot pool that st1 scores every case
  against (quadratic work in st1 retrieval and candidate scoring);
- note length: sentences per note and words per sentence (prompt size,
  cache entry size, st4 recall's answer x note cosine grid, SARI source);
- question-type mix: the interrogative that opens each question, which
  st1's hybrid retrieval score and candidate selection classify;
- gold-evidence size: the st2/st3 few-shot blocks and the st3 evidence;
- answer sentences per case: st4 prompt size and recall grid;
- vocabulary overlap between cases: the share of words drawn from one
  corpus-wide vocabulary instead of a per-case topic vocabulary, which sets
  how much st1's token-overlap scores have to work with.

The same case count and seed give the same bytes; ``random.Random`` is the only
source of randomness.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

SHARED_VOCAB = (
    "admission patient blood pressure heart rate chest pain imaging scan "
    "infection antibiotic dose daily kidney function lung fluid oxygen "
    "saturation fever course hospital stay discharge medication therapy "
    "surgery procedure monitoring follow-up clinic lab values trend stable "
    "improved worsening acute chronic history exam normal abnormal result "
    "treatment started stopped held restarted increased decreased team "
    "cardiology nephrology pulmonary renal hepatic cardiac vascular stent "
    "catheter drain culture biopsy wound nursing physical mobility diet "
    "glucose insulin sodium potassium creatinine hemoglobin platelet "
    "warfarin heparin aspirin steroid diuretic inhaler nebulizer ventilator "
    "intubation extubation transfusion dialysis echocardiogram ultrasound "
    "radiograph tomography resonance swelling bleeding nausea confusion "
    "weakness shortness breath cough urine output pressure perfusion"
).split()

SYLLABLES = (
    "ba be bi bo ca ce ci co da de di do fa fe fi lo ma me mi mo na ne ni no "
    "pa pe pi po ra re ri ro sa se si so ta te ti to va ve vi vo za ze zi zo"
).split()

# Question openers per st1 question type; the first word decides the type.
OPENERS = {
    "why": ("Why did they", "Why was the", "Why were the"),
    "what": ("What happened with the", "What is the", "What was the"),
    "how": ("How did the", "How long will the", "How bad was the"),
    "when": ("When can the", "When will the", "When did the"),
    "yes_no": ("Did they change the", "Was the", "Is it normal that the", "Can the"),
    "other": ("Please explain the", "Tell me about the", "Worried about the"),
}
CLINICIAN_OPENERS = {
    "why": "Why was the",
    "what": "What was the",
    "how": "How was the",
    "when": "When was the",
    "yes_no": "Was the",
    "other": "What explains the",
}
FIRST_PERSON_TAILS = ("for my father", "in my case", "for me", "to my mother", "")


# Per-case ranges, inclusive and drawn from the seed, so one file mixes short
# and long notes, small and large evidence sets, and so on.
SENTENCES = (34, 46)
WORDS_PER_SENTENCE = (8, 22)
QUESTION_WORDS = (6, 22)
EVIDENCE = (1, 6)
ANSWERS = (1, 4)
TOPIC_WORDS = 30
SHARED_VOCAB_SHARE = 0.6
TYPE_MIX = {"why": 3, "what": 3, "how": 2, "when": 1, "yes_no": 2, "other": 1}


def _topic_vocab(rng: random.Random, n: int) -> list[str]:
    return ["".join(rng.choice(SYLLABLES) for _ in range(rng.randint(2, 4))) for _ in range(n)]


def _words(rng: random.Random, topic: list[str], n: int) -> list[str]:
    return [
        rng.choice(SHARED_VOCAB) if rng.random() < SHARED_VOCAB_SHARE else rng.choice(topic)
        for _ in range(n)
    ]


def _sentence(rng: random.Random, topic: list[str]) -> str:
    words = _words(rng, topic, rng.randint(*WORDS_PER_SENTENCE))
    return " ".join(words).capitalize() + "."


def _case(rng: random.Random, case_id: int) -> dict:
    topic = _topic_vocab(rng, TOPIC_WORDS)
    qtype = rng.choices(list(TYPE_MIX), weights=list(TYPE_MIX.values()))[0]
    note = [
        {"id": str(i), "text": _sentence(rng, topic)}
        for i in range(1, rng.randint(*SENTENCES) + 1)
    ]
    question = " ".join(
        [rng.choice(OPENERS[qtype])]
        + _words(rng, topic, rng.randint(*QUESTION_WORDS))
        + [rng.choice(FIRST_PERSON_TAILS)]
    ).strip() + "?"
    if rng.random() < 0.4:
        follow = rng.choice(OPENERS[rng.choice(list(OPENERS))])
        question += f" {follow} {' '.join(_words(rng, topic, rng.randint(3, 8)))}?"
    clinician = " ".join(
        [CLINICIAN_OPENERS[qtype]] + _words(rng, topic, rng.randint(3, 9))
    ) + "?"

    evidence = sorted(
        rng.sample(range(1, len(note) + 1), min(len(note), rng.randint(*EVIDENCE)))
    )
    answers, alignments = [], []
    for aid in range(1, rng.randint(*ANSWERS) + 1):
        support = sorted(rng.sample(evidence, min(len(evidence), rng.randint(1, 2))))
        source = " ".join(note[i - 1]["text"].rstrip(".") for i in support).split()
        start = rng.randint(0, max(0, len(source) - 8))
        words = source[start : start + rng.randint(6, 16)]
        answers.append({"answer_id": str(aid), "text": " ".join(words).capitalize() + "."})
        alignments.append(
            {"answer_id": str(aid), "evidence_ids": [str(i) for i in support]}
        )
    return {
        "case_id": str(case_id),
        "patient_question": question,
        "clinician_question": clinician,
        "note": note,
        "answer_sentences": answers,
        "answer_paragraph": " ".join(a["text"] for a in answers),
        "gold_evidence": [str(i) for i in evidence],
        "gold_alignments": alignments,
    }


def generate_cases(cases: int, seed: int) -> list[dict]:
    """``cases`` case records; a pure function of (cases, seed)."""
    rng = random.Random(f"ehrqa-bench/{seed}")
    return [_case(rng, i) for i in range(1, cases + 1)]


def write_cases(cases: int, seed: int, path: Path) -> Path:
    lines = [json.dumps(r, ensure_ascii=False) for r in generate_cases(cases, seed)]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
