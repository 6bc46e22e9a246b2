"""Parse and repair structured model outputs.

Models wrap JSON in prose or code fences and drop the odd comma; parsing
here is scan-and-repair: find the first balanced JSON fragment of the
expected shape, repairing fences and trailing commas along the way. When
nothing parseable exists the caller decides what to do (the usual policy:
that run contributes zero votes).
"""

from __future__ import annotations

import json
import re

from .core import ParseError, as_id, degraded, id_sort_key, running_case

_FENCE_RE = re.compile(r"^\s*```[a-zA-Z0-9]*\s*$", re.MULTILINE)
_TRAILING_COMMA_RE = re.compile(r",\s*([\]}])")


def _strip_fences(text: str) -> str:
    return _FENCE_RE.sub("", text)


def _repair(fragment: str) -> str:
    return _TRAILING_COMMA_RE.sub(r"\1", fragment)


def _balanced_spans(text: str, open_ch: str, close_ch: str) -> list[str]:
    """Balanced bracket substrings in order of start position, string-aware.

    Each ``open_ch`` starts a scan that ends where its depth returns to zero.
    A scan's string state does not depend on its depth, so scans that share
    one at a position share it from there on: one pass advances the three
    groups of scans, each a stack of levels of equal depth, together.
    """
    ends: dict[int, int] = {}
    out: list[list[int]] = []  # outside a string; the top level is at depth 1
    ins: list[list[int]] = []  # inside a string
    esc: list[list[int]] = []  # inside a string, just after a backslash
    for i, ch in enumerate(text):
        if ch == '"':
            if esc:
                out, ins, esc = ins, _merge(out, esc), []
            else:
                out, ins = ins, out
        elif ch == "\\":
            ins, esc = esc, ins
        else:
            if esc:
                ins, esc = _merge(ins, esc), []
            if ch == open_ch:
                out.append([i])
            elif ch == close_ch and out:
                for start in out.pop():
                    ends[start] = i
    return [text[start : ends[start] + 1] for start in sorted(ends)]


def _merge(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """Two level stacks merged level by level from the top, the shorter
    list of each level moved into the longer."""
    if len(a) < len(b):
        a, b = b, a
    for k in range(1, len(b) + 1):
        if len(a[-k]) < len(b[-k]):
            a[-k], b[-k] = b[-k], a[-k]
        a[-k] += b[-k]
    return a


# What decoding model output can raise: ValueError covers JSONDecodeError
# and integers past the int-to-str digit limit; RecursionError comes from
# arrays or objects nested too deep. Each only disqualifies its fragment.
_UNDECODABLE = (ValueError, RecursionError)


def _candidate_fragments(text: str, open_ch: str, close_ch: str):
    cleaned = _strip_fences(text)
    for fragment in _balanced_spans(cleaned, open_ch, close_ch):
        try:
            yield json.loads(fragment)
            continue
        except _UNDECODABLE:
            pass
        try:
            yield json.loads(_repair(fragment))
        except _UNDECODABLE:
            continue


def format_id_array(ids) -> str:
    """Compact JSON array of ID strings in numeric order, e.g. ["1","3","7"]."""
    ordered = sorted(set(ids), key=id_sort_key)
    return json.dumps(ordered, separators=(",", ":"))


def parse_id_array(text: str) -> set[str]:
    """The first JSON array in the text whose every element is an ID by
    ``core.as_id``, as an ID set; arrays holding ``2.0``, ``true`` or ``[2]``
    are passed over, and a literal empty array parses to the empty set."""
    for value in _candidate_fragments(text, "[", "]"):
        if isinstance(value, list):
            ids = set(map(as_id, value))
            if None not in ids:
                return ids
    raise ParseError("no sentence-ID array found in model output")


def format_alignment(alignment) -> str:
    """Compact JSON alignment array with answer_id/evidence_id keys."""
    items = [
        {"answer_id": aid, "evidence_id": sorted(set(ev_ids), key=id_sort_key)}
        for aid, ev_ids in alignment
    ]
    return json.dumps(items, separators=(",", ":"))


def parse_alignment(text: str) -> list[tuple[str, set[str]]]:
    """Extract the first alignment array: objects with answer_id/evidence_id.

    IDs follow ``core.as_id``, and a lone evidence ID stands for a list of
    one. An element that lacks a key, or whose answer_id is no ID, or whose
    evidence_id is neither an ID nor a list, is dropped with a warning; a
    non-ID item of an evidence list is dropped alone. Duplicate answer_ids
    merge their evidence by union; output is ordered by numeric answer_id.
    """
    for value in _candidate_fragments(text, "[", "]"):
        if not isinstance(value, list):
            continue
        if value and not all(isinstance(v, dict) for v in value):
            continue
        merged: dict[str, set[str]] = {}
        dropped = 0
        for element in value:
            if "answer_id" not in element or "evidence_id" not in element:
                dropped += 1
                continue
            aid = as_id(element["answer_id"])
            raw_ev = element["evidence_id"]
            if as_id(raw_ev) is not None:
                raw_ev = [raw_ev]
            if aid is None or not isinstance(raw_ev, list):
                dropped += 1
                continue
            merged.setdefault(aid, set()).update(e for e in map(as_id, raw_ev) if e is not None)
        if dropped:
            msg = "case %s: parse_alignment dropped %d malformed element(s)"
            degraded("st4.elements_dropped", msg, running_case(), dropped)
        return sorted(merged.items(), key=lambda kv: id_sort_key(kv[0]))
    raise ParseError("no alignment array found in model output")


_CANDIDATE_RE = re.compile(r"^\s*CANDIDATE[_ ]?(\d+)\s*[:.]\s*(.+?)\s*$", re.MULTILINE)


def parse_st1_candidates(text: str, max_candidates: int = 5) -> list[str]:
    """Lines matching a CANDIDATE_n prefix, in index order, trimmed."""
    found: dict[int, str] = {}
    for match in _CANDIDATE_RE.finditer(text):
        idx = int(match.group(1))
        candidate = match.group(2).strip()
        if candidate.startswith("[") and candidate.endswith("]"):
            candidate = candidate[1:-1].strip()
        if candidate and idx not in found:
            found[idx] = candidate
    ordered = [found[i] for i in sorted(found)][:max_candidates]
    if not ordered:
        raise ParseError("no CANDIDATE_n lines found in model output")
    return ordered


def parse_json_object(text: str) -> dict:
    """Extract the first well-formed JSON object in the text."""
    for value in _candidate_fragments(text, "{", "}"):
        if isinstance(value, dict):
            return value
    raise ParseError("no JSON object found in model output")
