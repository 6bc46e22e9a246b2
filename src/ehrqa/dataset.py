"""Load, validate, save, and split case files.

The canonical on-disk format is UTF-8 JSONL: one case object per line with
a fixed field order, so save(load(path)) is byte-stable. A ``key_overlay``
adapter merges a separate answer-key file (gold fields keyed by case_id)
onto a questions-only file, mirroring setups where inputs and keys ship
separately.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .core import Case, CaseValidationError, EhrqaError, NoteSentence, id_sort_key

SPLITS = ("dev", "test", "custom")
FORMATS = ("canonical", "key_overlay")

# Canonical field order for serialization
_FIELDS = (
    "case_id",
    "patient_question",
    "clinician_question",
    "note",
    "answer_sentences",
    "answer_paragraph",
    "gold_evidence",
    "gold_alignments",
)


@dataclass(frozen=True)
class CaseFile:
    cases: tuple[Case, ...]
    split_label: str = "custom"

    def __post_init__(self) -> None:
        if self.split_label not in SPLITS:
            raise EhrqaError(f"unknown split label {self.split_label!r}")
        ids = [c.case_id for c in self.cases]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise CaseValidationError(f"duplicate case_ids: {dupes}")

    def case(self, case_id: str) -> Case:
        for c in self.cases:
            if c.case_id == case_id:
                return c
        raise KeyError(case_id)

    def case_ids(self) -> list[str]:
        return [c.case_id for c in self.cases]


def case_to_record(case: Case) -> dict:
    record = {
        "case_id": case.case_id,
        "patient_question": case.patient_question,
        "clinician_question": case.clinician_question,
        "note": [{"id": s.id, "text": s.text} for s in case.note],
        "answer_sentences": [
            {"answer_id": aid, "text": text}
            for aid, text in case.clinician_answer_sentences
        ],
        "answer_paragraph": case.clinician_answer_paragraph,
        "gold_evidence": (
            sorted(case.gold_evidence, key=id_sort_key)
            if case.gold_evidence is not None
            else None
        ),
        "gold_alignments": (
            [
                {"answer_id": aid, "evidence_ids": sorted(ev, key=id_sort_key)}
                for aid, ev in case.gold_alignments
            ]
            if case.gold_alignments is not None
            else None
        ),
    }
    return {k: record[k] for k in _FIELDS}


def as_text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {type(value).__name__}")
    return value


def as_list(value) -> list:
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return value


def _ids(value) -> frozenset[str]:
    return frozenset(str(i) for i in as_list(value))


def _note(value) -> tuple[NoteSentence, ...]:
    return tuple(NoteSentence(id=str(s["id"]), text=as_text(s["text"])) for s in as_list(value))


def _answers(value) -> tuple[tuple[str, str], ...]:
    return tuple((str(a["answer_id"]), as_text(a["text"])) for a in as_list(value))


def _alignments(value) -> tuple[tuple[str, frozenset[str]], ...]:
    return tuple((str(a["answer_id"]), _ids(a["evidence_ids"])) for a in as_list(value))


def case_from_record(record: dict, locus: str) -> Case:
    """The Case one canonical record holds. A required field that is
    missing, any field of the wrong JSON type, and a broken case invariant
    raise CaseValidationError prefixed with ``locus`` (file:line)."""

    def read(field: str, convert, required: bool = False):
        if record.get(field) is None and not required:
            return None
        if field not in record:
            raise CaseValidationError(f"missing field {field!r}")
        try:
            return convert(record[field])
        except (KeyError, TypeError) as exc:
            raise CaseValidationError(f"malformed {field!r}: {exc!r}") from exc

    try:
        return Case(
            case_id=read("case_id", as_text, required=True),
            patient_question=read("patient_question", as_text, required=True),
            clinician_question=read("clinician_question", as_text),
            note=read("note", _note, required=True),
            clinician_answer_sentences=read("answer_sentences", _answers) or (),
            clinician_answer_paragraph=read("answer_paragraph", as_text),
            gold_evidence=read("gold_evidence", _ids),
            gold_alignments=read("gold_alignments", _alignments),
        )
    except CaseValidationError as exc:
        raise CaseValidationError(f"{locus}: {exc}") from exc


def read_records(path: Path, what: str) -> list[tuple[int, dict]]:
    """(line number, record) for each non-blank line of a UTF-8 JSONL file
    of case, key or prediction records. A file that cannot be read or
    decoded, a line that is not JSON, and a record that is not a JSON object
    with a string case_id raise EhrqaError naming the file and the line."""
    records = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError as exc:
                    raise EhrqaError(f"{path}:{lineno}: not valid JSON: {exc}") from exc
                if not isinstance(record, dict) or not isinstance(record.get("case_id"), str):
                    raise EhrqaError(f"{path}:{lineno}: not a JSON object with a string 'case_id'")
                records.append((lineno, record))
    except (OSError, UnicodeDecodeError) as exc:
        raise EhrqaError(f"{path}: cannot read {what}: {exc}") from exc
    return records


def load_cases(
    path: str | Path,
    format: str = "canonical",
    key_path: str | Path | None = None,
    split_label: str = "custom",
) -> CaseFile:
    """Load a case file, validating every case invariant.

    ``canonical`` reads self-contained case records. ``key_overlay`` reads
    question records from ``path`` and merges gold fields (answers,
    evidence, alignments) from the answer-key file at ``key_path``.
    """
    path = Path(path)
    if not path.exists():
        raise EhrqaError(f"case file not found: {path}")
    records = read_records(path, "cases")

    if format == "key_overlay":
        if key_path is None:
            raise EhrqaError("key_overlay format requires key_path")
        key_path = Path(key_path)
        if not key_path.exists():
            raise EhrqaError(f"key file not found: {key_path}")
        keys = {r["case_id"]: r for _, r in read_records(key_path, "answer key")}
        merged = []
        for lineno, record in records:
            overlay = keys.get(record["case_id"], {})
            combined = dict(record)
            for field in (
                "clinician_question",
                "answer_sentences",
                "answer_paragraph",
                "gold_evidence",
                "gold_alignments",
            ):
                if overlay.get(field) is not None:
                    combined[field] = overlay[field]
            merged.append((lineno, combined))
        records = merged
    elif format not in FORMATS:
        raise EhrqaError(f"unknown case file format {format!r}")

    cases = tuple(case_from_record(r, locus=f"{path}:{lineno}") for lineno, r in records)
    try:
        return CaseFile(cases=cases, split_label=split_label)
    except CaseValidationError as exc:
        raise CaseValidationError(f"{path}: {exc}") from exc


def save_cases(case_file: CaseFile, path: str | Path) -> None:
    """Write the canonical JSONL form (fixed field order, no trailing spaces)."""
    path = Path(path)
    lines = [
        json.dumps(case_to_record(c), ensure_ascii=False, separators=(", ", ": "))
        for c in case_file.cases
    ]
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def case_sort_key(case: Case):
    return id_sort_key(case.case_id)


def few_shot_pool(case_file: CaseFile, exclude_case_id: str | None = None) -> list[Case]:
    """Leave-one-out candidate pool, ordered by case_id."""
    pool = [c for c in case_file.cases if c.case_id != exclude_case_id]
    return sorted(pool, key=case_sort_key)


def toy_dataset_path() -> Path:
    """Bundled three-case synthetic dev set used by smoke tests and docs."""
    return Path(str(resources.files("ehrqa").joinpath("data/toy_cases.jsonl")))
