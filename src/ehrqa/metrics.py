"""Native evaluation metrics: set/link precision-recall-F1 and lexical
generation metrics (ROUGE-N, ROUGE-Lsum, BLEU, SARI).

Everything here is a pure function over tokenized lowercase text or ID
sets; corpus aggregation pools counts (micro) or averages per-case scores
(macro).
"""

from __future__ import annotations

import math
import re
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import chain, compress, count, repeat

from .core import EhrqaError


@dataclass(frozen=True)
class PRF:
    precision: float
    recall: float
    f1: float


def _prf_from_counts(tp: int, fp: int, fn: int) -> PRF:
    p = tp / (tp + fp) if tp + fp > 0 else 0.0
    r = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return PRF(p, r, f1)


def micro_prf(pairs: Iterable[tuple[Iterable, Iterable]]) -> PRF:
    """Corpus-level PRF from pooled TP/FP/FN over exact set membership."""
    tp = fp = fn = 0
    for pred, gold in pairs:
        pred_set, gold_set = set(pred), set(gold)
        tp += len(pred_set & gold_set)
        fp += len(pred_set - gold_set)
        fn += len(gold_set - pred_set)
    return _prf_from_counts(tp, fp, fn)


def case_prf(pred: Iterable, gold: Iterable, empty_both_score: float = 1.0) -> PRF:
    """Single-case PRF; both-empty scores ``empty_both_score`` across the board."""
    pred_set, gold_set = set(pred), set(gold)
    if not pred_set and not gold_set:
        return PRF(empty_both_score, empty_both_score, empty_both_score)
    tp = len(pred_set & gold_set)
    return _prf_from_counts(tp, len(pred_set - gold_set), len(gold_set - pred_set))


def macro_prf(
    pairs: Iterable[tuple[Iterable, Iterable]], empty_both_score: float = 1.0
) -> PRF:
    """Unweighted mean of per-case PRF.

    An empty prediction against empty gold counts as a perfect case (the
    common shared-task convention, switchable via ``empty_both_score``);
    an empty prediction against non-empty gold scores zero.
    """
    return mean_prf([case_prf(pred, gold, empty_both_score) for pred, gold in pairs])


def mean_prf(scores: Sequence[PRF]) -> PRF:
    """Unweighted mean of per-case PRF; no cases score zero."""
    if not scores:
        return PRF(0.0, 0.0, 0.0)
    n = len(scores)
    return PRF(
        sum(s.precision for s in scores) / n,
        sum(s.recall for s in scores) / n,
        sum(s.f1 for s in scores) / n,
    )


Alignment = Sequence[tuple[str, Iterable[str]]]


def flatten_links(alignment: Alignment) -> set[tuple[str, str]]:
    """Flatten an alignment to its (answer_id, evidence_id) link pairs."""
    return {(aid, eid) for aid, ev_ids in alignment for eid in ev_ids}


def link_prf(
    pairs: Iterable[tuple[Alignment, Alignment]], mode: str = "micro"
) -> PRF:
    """PRF over alignments flattened to (answer_id, evidence_id) links.

    Predicted links whose answer_id never occurs in gold simply count as
    false positives.
    """
    link_pairs = [(flatten_links(pred), flatten_links(gold)) for pred, gold in pairs]
    if mode == "micro":
        return micro_prf(link_pairs)
    if mode == "macro":
        return macro_prf(link_pairs)
    raise ValueError(f"unknown mode {mode!r}")


def tokenize(text: str) -> list[str]:
    return text.lower().split()


def ngrams(tokens: Sequence[str], n: int) -> Counter:
    """Counts of the n-gram tuples of ``tokens``, keyed in first-occurrence
    order."""
    return Counter(zip(*(tokens[i:] for i in range(n))))


def _clipped_overlap(cand: Counter, ref: Counter) -> int:
    return sum((cand & ref).values())


def rouge_n(candidate: str, reference: str, n: int = 1) -> float:
    """Clipped n-gram overlap F1 on lowercase whitespace tokens."""
    cand_tokens, ref_tokens = tokenize(candidate), tokenize(reference)
    cand_ng, ref_ng = ngrams(cand_tokens, n), ngrams(ref_tokens, n)
    cand_total, ref_total = sum(cand_ng.values()), sum(ref_ng.values())
    if cand_total == 0 and ref_total == 0:
        # Strings too short for any n-gram; identical token lists still match.
        return 1.0 if cand_tokens == ref_tokens else 0.0
    if cand_total == 0 or ref_total == 0:
        return 0.0
    overlap = _clipped_overlap(cand_ng, ref_ng)
    p, r = overlap / cand_total, overlap / ref_total
    return 2 * p * r / (p + r) if p + r > 0 else 0.0


_SENT_SPLIT = re.compile(r"[.!?]+|\n+")


def split_sentences(text: str) -> list[str]:
    """Split on sentence-ending punctuation and newlines; drop empties."""
    parts = _SENT_SPLIT.split(text)
    return [p.strip() for p in parts if p and p.strip()]


def _lcs_table(a: Sequence[str], b: Sequence[str]) -> list[list[int]]:
    rows = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                rows[i][j] = rows[i - 1][j - 1] + 1
            else:
                rows[i][j] = max(rows[i - 1][j], rows[i][j - 1])
    return rows


def _lcs_indices(a: Sequence[str], b: Sequence[str]) -> set[int]:
    """Indices into ``a`` of one longest common subsequence with ``b``."""
    table = _lcs_table(a, b)
    out: set[int] = set()
    i, j = len(a), len(b)
    while i > 0 and j > 0:
        if a[i - 1] == b[j - 1]:
            out.add(i - 1)
            i -= 1
            j -= 1
        elif table[i - 1][j] >= table[i][j - 1]:
            i -= 1
        else:
            j -= 1
    return out


def rouge_lsum(candidate: str, reference: str) -> float:
    """Summary-level ROUGE-L: union LCS per reference sentence, clipped F1."""
    cand_sents = [tokenize(s) for s in split_sentences(candidate)]
    ref_sents = [tokenize(s) for s in split_sentences(reference)]
    cand_tokens = [t for s in cand_sents for t in s]
    ref_tokens = [t for s in ref_sents for t in s]
    if not cand_tokens and not ref_tokens:
        return 1.0
    if not cand_tokens or not ref_tokens:
        return 0.0

    cand_counts = Counter(cand_tokens)
    ref_counts = Counter(ref_tokens)
    hits = 0
    for ref_sent in ref_sents:
        union_idx: set[int] = set()
        for cand_sent in cand_sents:
            union_idx |= _lcs_indices(ref_sent, cand_sent)
        for idx in union_idx:
            token = ref_sent[idx]
            if cand_counts[token] > 0 and ref_counts[token] > 0:
                hits += 1
                cand_counts[token] -= 1
                ref_counts[token] -= 1
    p, r = hits / len(cand_tokens), hits / len(ref_tokens)
    return 2 * p * r / (p + r) if p + r > 0 else 0.0


def bleu(candidate: str, reference: str, max_n: int = 4) -> float:
    """Sentence BLEU with clipped 1..max_n-gram precisions and brevity penalty.

    Zero n-gram counts are add-one smoothed so short or disjoint candidates
    score near zero instead of exactly zero.
    """
    cand_tokens, ref_tokens = tokenize(candidate), tokenize(reference)
    if not cand_tokens:
        return 0.0
    log_sum = 0.0
    for n in range(1, max_n + 1):
        cand_ng, ref_ng = ngrams(cand_tokens, n), ngrams(ref_tokens, n)
        total = sum(cand_ng.values())
        matches = _clipped_overlap(cand_ng, ref_ng)
        if matches == 0:
            p = (matches + 1) / (total + 1)
        else:
            p = matches / total
        log_sum += math.log(p)
    geo_mean = math.exp(log_sum / max_n)
    c, r = len(cand_tokens), len(ref_tokens)
    bp = 1.0 if c >= r else math.exp(1 - r / c)
    return bp * geo_mean


def _sari_op_scores(
    src: Counter, cand: Counter, ref: Counter
) -> tuple[float, float, float]:
    """(keep F1, add F1, delete precision) for one n-gram order.

    Vacuous operations (nothing to keep/add/delete on either side) default
    to a perfect score, so an identity triple scores 1 everywhere.
    """
    # keep and delete in one pass over the source n-grams that the candidate
    # or the reference holds. Every other source n-gram is deleted, and
    # rightly: it adds 1 to ``deleted`` and the term 1.0 to the delete sum.
    # The terms go to ``sum`` in source key order, the order ``src & cand``
    # and ``src - cand`` visit them, with each run of untouched n-grams as
    # that many 1.0 terms, so each float sum sees the same sequence as that
    # Counter algebra did and gives the same value (``sum`` compensates
    # float rounding from Python 3.12).
    touched = src.keys() & (cand.keys() | ref.keys())
    is_touched = list(map(touched.__contains__, src)) if touched else ()
    cand_get, ref_get = cand.get, ref.get
    kept = kept_good = kept_target = 0
    deleted = len(src) - len(touched)
    keep_terms: list[float] = []
    delete_terms: list = []  # runs of 1.0 and single terms, in source order
    after = 0  # the source index after the last n-gram visited
    for at, gram in zip(compress(count(), is_touched), compress(src, is_touched)):
        if at > after:
            delete_terms.append(repeat(1.0, at - after))
        after = at + 1
        s = src[gram]
        c = cand_get(gram, 0)
        r = ref_get(gram, 0)
        # kept_target: retained by the reference
        kept_target += s if s < r else r
        if c:
            # kept: retained by the candidate; good if the reference retains it
            k = s if s < c else c
            kept += 1
            if r:
                good = k if k < r else r
                keep_terms.append(good / k)
                kept_good += good
        if s > c:
            # deleted: dropped by the candidate; good if the reference drops it
            d = s - c
            deleted += 1
            if d > r:
                delete_terms.append(((d - r) / d,))
    delete_terms.append(repeat(1.0, len(src) - after))
    keep_p = sum(keep_terms) / kept if kept else 1.0
    keep_r = kept_good / kept_target if kept_target else 1.0
    keep_f1 = 2 * keep_p * keep_r / (keep_p + keep_r) if keep_p + keep_r > 0 else 0.0
    del_p = sum(chain.from_iterable(delete_terms)) / deleted if deleted else 1.0

    # add: n-grams introduced by the candidate, good if the reference has them
    src_keys = src.keys()
    added = {gram for gram in cand if gram not in src_keys}
    added_good = len(added & ref.keys())
    added_target = sum(1 for gram in ref if gram not in src_keys)
    add_p = added_good / len(added) if added else 1.0
    add_r = added_good / added_target if added_target else 1.0
    add_f1 = 2 * add_p * add_r / (add_p + add_r) if add_p + add_r > 0 else 0.0
    return keep_f1, add_f1, del_p


def sari(source: str, candidate: str, reference: str, max_n: int = 4) -> float:
    """Single-reference SARI in [0, 100]: mean over n-gram orders of
    (keep F1 + add F1 + delete precision) / 3."""
    src_tokens = tokenize(source)
    cand_tokens = tokenize(candidate)
    ref_tokens = tokenize(reference)
    total = 0.0
    for n in range(1, max_n + 1):
        keep_f1, add_f1, del_p = _sari_op_scores(
            ngrams(src_tokens, n), ngrams(cand_tokens, n), ngrams(ref_tokens, n)
        )
        total += (keep_f1 + add_f1 + del_p) / 3
    return 100.0 * total / max_n


def leaderboard_mean(values: Sequence[float]) -> float:
    """Arithmetic mean of metric values on a common 0-100 scale."""
    if not values:
        raise EhrqaError("leaderboard mean needs at least one metric value")
    return sum(values) / len(values)
