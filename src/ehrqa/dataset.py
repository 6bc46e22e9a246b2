"""Load, validate, save, and split case files.

The canonical on-disk format is UTF-8 JSONL: one case object per line with
a fixed field order, so save(load(path)) is byte-stable. A separate
answer-key file, when one is named, is merged (gold fields keyed by
case_id) onto the case file, mirroring setups where inputs and keys ship
separately.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .core import (
    Case,
    CaseValidationError,
    EhrqaError,
    NoteSentence,
    as_id,
    atomic_write_text,
    id_sort_key,
)

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
# The fields an answer key supplies
_KEY_FIELDS = ("clinician_question",) + _FIELDS[4:]


@dataclass(frozen=True)
class CaseFile:
    cases: tuple[Case, ...]

    def __post_init__(self) -> None:
        ids = [c.case_id for c in self.cases]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise CaseValidationError(f"duplicate case_ids: {dupes}")


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


def read_id(value) -> str:
    """A file's sentence or answer ID by ``core.as_id``, else TypeError."""
    if (sid := as_id(value)) is None:
        raise TypeError(f"an ID must be a string or an integer, got {value!r}")
    return sid


def as_ids(value) -> frozenset[str]:
    """A list of IDs, each read by ``read_id``, so ``2`` and ``"2"`` are one ID."""
    return frozenset(map(read_id, as_list(value)))


def _note(value) -> tuple[NoteSentence, ...]:
    return tuple(NoteSentence(id=read_id(s["id"]), text=as_text(s["text"])) for s in as_list(value))


def _answers(value) -> tuple[tuple[str, str], ...]:
    return tuple((read_id(a["answer_id"]), as_text(a["text"])) for a in as_list(value))


def as_alignments(value, evidence_key="evidence_ids") -> tuple[tuple[str, frozenset[str]], ...]:
    """(answer_id, evidence IDs) for each alignment object of a list. Case
    files name the evidence ``evidence_ids``; st4 predictions ``evidence_id``."""
    return tuple((read_id(a["answer_id"]), as_ids(a[evidence_key])) for a in as_list(value))


def case_from_record(record: dict, locus: str) -> Case:
    """The Case one canonical record (with a string case_id) holds. An empty
    case_id (checked first), a missing or mistyped field and a broken case
    invariant raise CaseValidationError naming ``locus`` (file:line) and the case."""

    def read(field: str, convert, required: bool = False):
        if record.get(field) is None and not required:
            return None
        where = f"case {record['case_id']}"
        if field not in record:
            raise CaseValidationError(f"{where}: missing field {field!r}")
        try:
            return convert(record[field])
        except (KeyError, TypeError) as exc:
            raise CaseValidationError(f"{where}: malformed {field!r}: {exc!r}") from exc

    try:
        return Case(
            case_id=Case.check_id(record["case_id"]),
            patient_question=read("patient_question", as_text, required=True),
            clinician_question=read("clinician_question", as_text),
            note=read("note", _note, required=True),
            clinician_answer_sentences=read("answer_sentences", _answers) or (),
            clinician_answer_paragraph=read("answer_paragraph", as_text),
            gold_evidence=read("gold_evidence", as_ids),
            gold_alignments=read("gold_alignments", as_alignments),
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


def load_cases(path: str | Path, key_path: str | Path | None = None) -> CaseFile:
    """Load a case file, validating every case invariant. When ``key_path``
    is given, the gold fields (answers, evidence, alignments) of the
    answer-key file there are merged onto the records of ``path``; a key
    record whose case_id no case record has raises EhrqaError."""
    path = Path(path)
    if not path.exists():
        raise EhrqaError(f"case file not found: {path}")
    records = read_records(path, "cases")

    if key_path is not None:
        key_path = Path(key_path)
        if not key_path.exists():
            raise EhrqaError(f"key file not found: {key_path}")
        case_ids = {record["case_id"] for _, record in records}
        keys: dict[str, dict] = {}
        for lineno, record in read_records(key_path, "answer key"):
            if (cid := record["case_id"]) in keys:
                raise EhrqaError(
                    f"{key_path}:{lineno}: case_id {cid!r} has more than one answer-key record"
                )
            if cid not in case_ids:
                raise EhrqaError(f"{key_path}:{lineno}: case_id {cid!r} is in no case of {path}")
            keys[cid] = record
        merged = []
        for lineno, record in records:
            overlay = keys.get(record["case_id"], {})
            gold = {f: overlay[f] for f in _KEY_FIELDS if overlay.get(f) is not None}
            merged.append((lineno, {**record, **gold}))
        records = merged

    cases = tuple(case_from_record(r, locus=f"{path}:{lineno}") for lineno, r in records)
    try:
        return CaseFile(cases=cases)
    except CaseValidationError as exc:
        raise CaseValidationError(f"{path}: {exc}") from exc


def save_cases(case_file: CaseFile, path: str | Path) -> None:
    """Write the canonical JSONL form (fixed field order, no trailing spaces)."""
    lines = [
        json.dumps(case_to_record(c), ensure_ascii=False, separators=(", ", ": "))
        for c in case_file.cases
    ]
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def case_sort_key(case: Case):
    return id_sort_key(case.case_id)


def few_shot_pool(case_file: CaseFile, exclude_case_id: str | None = None) -> list[Case]:
    """Leave-one-out candidate pool, ordered by case_id."""
    pool = [c for c in case_file.cases if c.case_id != exclude_case_id]
    return sorted(pool, key=case_sort_key)


def toy_dataset_path() -> Path:
    """Bundled three-case synthetic dev set used by smoke tests and docs."""
    return Path(str(resources.files("ehrqa").joinpath("data/toy_cases.jsonl")))
