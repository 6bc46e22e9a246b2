"""Corpus-level score reports shaped like the shared-task leaderboard.

Set/link subtasks report micro and macro PRF; generative subtasks report
the native lexical metrics plus an overall mean over whatever metrics are
available.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .core import EhrqaError

# Scoring looks each metric up by its name in this module, so bench/run.py
# can rebind a name to trace it; macro_prf and link_prf stay importable
# from here for the same reason.
from .metrics import (  # noqa: F401
    PRF,
    bleu,
    case_prf,
    flatten_links,
    leaderboard_mean,
    link_prf,
    macro_prf,
    mean_prf,
    micro_prf,
    rouge_lsum,
    rouge_n,
    sari,
)


def _pct(value: float) -> float:
    return round(100.0 * value, 2)


def check_same_cases(pred: dict, gold: dict) -> None:
    """Raise unless predictions and gold cover exactly the same case_ids."""
    missing = sorted(set(gold) - set(pred))
    extra = sorted(set(pred) - set(gold))
    if missing or extra:
        raise EhrqaError(
            f"case_id mismatch between predictions and gold "
            f"(missing={missing}, unexpected={extra})"
        )


@dataclass(frozen=True)
class SetScores:
    """Per-case (pred, gold) sets in case_id order and each case's PRF,
    computed once for both the corpus row and the per-case rows."""

    pairs: dict[str, tuple[set, set]]
    cases: dict[str, PRF]


def _set_scores(pairs: dict[str, tuple[set, set]]) -> SetScores:
    return SetScores(pairs, {cid: case_prf(p, g) for cid, (p, g) in pairs.items()})


def id_set_scores(
    pred: dict[str, Iterable[str]], gold: dict[str, Iterable[str]]
) -> SetScores:
    """Per-case scores over ID sets."""
    check_same_cases(pred, gold)
    return _set_scores({cid: (set(pred[cid]), set(gold[cid])) for cid in sorted(gold)})


def link_scores(pred: dict, gold: dict) -> SetScores:
    """Per-case scores over alignments flattened to (answer_id, evidence_id) links."""
    check_same_cases(pred, gold)
    return _set_scores(
        {cid: (flatten_links(pred[cid]), flatten_links(gold[cid])) for cid in sorted(gold)}
    )


def score_id_sets(scores: SetScores) -> dict[str, float]:
    """Micro (pooled counts) and macro (mean case PRF) PRF, 0-100."""
    micro = micro_prf(scores.pairs.values())
    macro = mean_prf(list(scores.cases.values()))
    return {
        "μP": _pct(micro.precision),
        "μR": _pct(micro.recall),
        "μF1": _pct(micro.f1),
        "mP": _pct(macro.precision),
        "mR": _pct(macro.recall),
        "mF1": _pct(macro.f1),
    }


def per_case_id_rows(scores: SetScores) -> dict[str, dict[str, float]]:
    """Per-case PRF rows (0-100) keyed by case_id."""
    return {
        cid: {"P": _pct(prf.precision), "R": _pct(prf.recall), "F1": _pct(prf.f1)}
        for cid, prf in scores.cases.items()
    }


# Alignments score as ID sets of their links (see ``link_scores``).
score_alignments = score_id_sets
per_case_link_rows = per_case_id_rows


def generation_scores(
    pairs: dict[str, tuple[str, str]], sources: dict[str, str] | None = None
) -> dict[str, dict[str, float]]:
    """Raw metric values per case, in case_id order, each computed once.

    ``pairs`` maps case_id -> (candidate, reference). R1, R2, RLsum and
    BLEU lie in [0, 1]; SARI, in [0, 100], needs a source text per case
    and is left out without ``sources``.
    """
    scores = {}
    for cid in sorted(pairs):
        candidate, reference = pairs[cid]
        values = {
            "R1": rouge_n(candidate, reference, 1),
            "R2": rouge_n(candidate, reference, 2),
            "RLsum": rouge_lsum(candidate, reference),
            "BLEU": bleu(candidate, reference),
        }
        if sources is not None:
            values["SARI"] = sari(sources[cid], candidate, reference)
        scores[cid] = values
    return scores


def _scaled(metric: str, value: float) -> float:
    """A raw value on the report's rounded 0-100 scale (SARI is already on it)."""
    return round(value, 2) if metric == "SARI" else _pct(value)


def per_case_generation_rows(
    scores: dict[str, dict[str, float]]
) -> dict[str, dict[str, float]]:
    """Per-case metric rows (0-100) from ``generation_scores``."""
    return {
        cid: {metric: _scaled(metric, v) for metric, v in values.items()}
        for cid, values in scores.items()
    }


def score_generation(scores: dict[str, dict[str, float]]) -> dict:
    """Average the per-case values of ``generation_scores`` over cases.

    SARI is reported as unavailable when it was scored without sources.
    """
    if not scores:
        raise EhrqaError("no cases to score")
    case_ids = sorted(scores)
    columns: dict[str, float] = {}
    for metric in scores[case_ids[0]]:
        values = [scores[c][metric] for c in case_ids]
        columns[metric] = _scaled(metric, sum(values) / len(values))
    unavailable = [] if "SARI" in columns else ["SARI"]
    score = leaderboard_mean(list(columns.values()))
    return {
        "Score": round(score, 2),
        **columns,
        "unavailable_metrics": unavailable,
    }


def format_table(title: str, rows: list[tuple[str, dict]]) -> str:
    """Fixed-width text table: one row per (label, column dict)."""
    columns: list[str] = []
    for _, row in rows:
        for key in row:
            if key != "unavailable_metrics" and key not in columns:
                columns.append(key)
    widths = {c: max(len(c), 8) for c in columns}
    label_width = max([len(title)] + [len(label) for label, _ in rows]) + 2
    lines = [
        title.ljust(label_width)
        + "  ".join(c.rjust(widths[c]) for c in columns)
    ]
    for label, row in rows:
        cells = []
        for c in columns:
            value = row.get(c)
            cells.append(("-" if value is None else f"{value:.2f}").rjust(widths[c]))
        lines.append(label.ljust(label_width) + "  ".join(cells))
    return "\n".join(lines) + "\n"
