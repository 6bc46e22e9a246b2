"""Correctness checks on the output tree of a timed run.

A timed run passes only when every ``st*.jsonl`` it wrote is byte-identical
to the reference run's (plain mock, ``workers=1``, same cases and config),
when its score reports equal the reference's, and when the outputs obey the
paper's hard rules, checked here independently of the package:

- st1: at most 15 words, ends with ``?``, no first-person word;
- st3: at most 75 words, no ``[n]`` citation marker;
- st2 and st4: every evidence ID is a sentence ID of that case's note, and
  every st4 answer ID is one of the case's answer sentences.

On a replay, the cache statistics in ``manifest.json`` must also count one
hit per generator call, no miss, and every recorded entry.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

ST1_MAX_WORDS = 15
ST3_MAX_WORDS = 75
FIRST_PERSON = frozenset({"i", "me", "my", "mine", "we", "us", "our", "ours"})
_MARKER = re.compile(r"\[\d+\]")
_EDGE_PUNCT = re.compile(r"^\W+|\W+$")


class CheckError(Exception):
    """An output differs from the reference or breaks a rule."""


def snapshot(directory: Path, pattern: str) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.glob(pattern))}


def compare(found: dict[str, bytes], reference: dict[str, bytes], what: str) -> None:
    if sorted(found) != sorted(reference):
        raise CheckError(f"{what}: files {sorted(found)} != reference {sorted(reference)}")
    for name, data in reference.items():
        if found[name] != data:
            raise CheckError(f"{what}: {name} differs from the reference run")


def _records(out_dir: Path, subtask: str) -> list[dict]:
    path = out_dir / f"{subtask}.jsonl"
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def check_rules(out_dir: Path, cases: list[dict], subtasks) -> None:
    """Raise CheckError when an output breaks one of the paper's rules."""
    by_id = {c["case_id"]: c for c in cases}
    for subtask in subtasks:
        records = _records(out_dir, subtask)
        if sorted(r["case_id"] for r in records) != sorted(by_id):
            raise CheckError(f"{subtask}: output does not cover each case exactly once")
        for record in records:
            case = by_id[record["case_id"]]
            where = f"{subtask} case {case['case_id']}"
            note_ids = {s["id"] for s in case["note"]}
            if subtask == "st1":
                _check_question(record["clinician_question"], where)
            elif subtask == "st3":
                _check_answer(record["answer_text"], where)
            elif subtask == "st2":
                _check_ids(record["evidence_ids"], note_ids, where)
            elif subtask == "st4":
                answer_ids = {a["answer_id"] for a in case["answer_sentences"]}
                for link in record["alignments"]:
                    _check_ids([link["answer_id"]], answer_ids, f"{where} answer")
                    _check_ids(link["evidence_id"], note_ids, where)


def _check_question(text: str, where: str) -> None:
    words = text.split()
    if len(words) > ST1_MAX_WORDS:
        raise CheckError(f"{where}: {len(words)} words > {ST1_MAX_WORDS}")
    if not text.rstrip().endswith("?"):
        raise CheckError(f"{where}: does not end with '?'")
    if any(_EDGE_PUNCT.sub("", w).lower() in FIRST_PERSON for w in words):
        raise CheckError(f"{where}: contains a first-person word")


def _check_answer(text: str, where: str) -> None:
    if len(text.split()) > ST3_MAX_WORDS:
        raise CheckError(f"{where}: {len(text.split())} words > {ST3_MAX_WORDS}")
    if _MARKER.search(text):
        raise CheckError(f"{where}: contains a citation marker")


def _check_ids(ids, valid: set[str], where: str) -> None:
    bad = sorted(set(ids) - valid)
    if bad:
        raise CheckError(f"{where}: IDs {bad} are not valid for the case")


def check_replay_manifest(out_dir: Path, generate_calls: int, entries: int) -> None:
    """Raise CheckError unless the manifest's cache statistics show a pure
    replay: one hit per generator call, no miss, and every cache entry."""
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    expected = {"hits": generate_calls, "misses": 0, "entries": entries}
    if manifest.get("cache") != expected:
        raise CheckError(f"manifest cache {manifest.get('cache')} != {expected}")
