"""Load, validate, save, and split case files.

The canonical on-disk format is UTF-8 JSONL: one case object per line with
a fixed field order, so save(load(path)) is byte-stable. A separate
answer-key file, when one is named, is merged (gold fields keyed by
case_id) onto the case file, mirroring setups where inputs and keys ship
separately.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
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
        # read_records rejects a repeated case_id of a file; this is for cases built in code.
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


def read_records(path: Path, what: str) -> Iterator[tuple[int, dict]]:
    """(line number, record) for each non-blank line of a UTF-8 JSONL file
    of per-case records (cases, answer key, predictions or votes), yielded
    as it is read. A file that cannot be read or decoded, a line that is not
    JSON, a record that is not a JSON object with a string case_id, and a
    case_id that an earlier line holds raise EhrqaError naming the file and
    the line."""
    first: dict[str, int] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                if not (line := line.strip()):
                    continue
                try:
                    record = json.loads(line)
                except ValueError as exc:
                    raise EhrqaError(f"{path}:{lineno}: not valid JSON: {exc}") from exc
                if not isinstance(record, dict) or not isinstance(cid := record.get("case_id"), str):
                    raise EhrqaError(f"{path}:{lineno}: not a JSON object with a string 'case_id'")
                if (seen := first.setdefault(cid, lineno)) != lineno:
                    raise EhrqaError(f"{path}:{lineno}: case_id {cid!r} repeats line {seen}")
                yield lineno, record
    except (OSError, UnicodeDecodeError) as exc:
        raise EhrqaError(f"{path}: cannot read {what}: {exc}") from exc


def load_cases(path: str | Path, key_path: str | Path | None = None) -> CaseFile:
    """Load a case file, validating every case as its line is read. When
    ``key_path`` is given, the answer-key file there is read first, and the
    gold fields (answers, evidence, alignments) of each key record are
    merged onto the case with its case_id; a key record whose case_id no
    case has raises EhrqaError once the case file is read."""
    path = Path(path)
    if not path.exists():
        raise EhrqaError(f"case file not found: {path}")
    keys: dict[str, tuple[int, dict]] = {}
    if key_path is not None:
        key_path = Path(key_path)
        if not key_path.exists():
            raise EhrqaError(f"key file not found: {key_path}")
        for lineno, record in read_records(key_path, "answer key"):
            gold = {f: record[f] for f in _KEY_FIELDS if record.get(f) is not None}
            keys[record["case_id"]] = (lineno, gold)
    cases = []
    for lineno, record in read_records(path, "cases"):
        _, gold = keys.pop(record["case_id"], (0, {}))
        cases.append(case_from_record({**record, **gold}, locus=f"{path}:{lineno}"))
    if keys:  # the first, by line, of the key records no case took
        cid, (lineno, _) = next(iter(keys.items()))
        raise EhrqaError(f"{key_path}:{lineno}: case_id {cid!r} is in no case of {path}")
    return CaseFile(cases=tuple(cases))


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
