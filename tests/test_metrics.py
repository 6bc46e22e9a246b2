import math
import random
from collections import Counter

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ehrqa.core import EhrqaError
from ehrqa.metrics import (
    _sari_op_scores,
    bleu,
    leaderboard_mean,
    link_prf,
    macro_prf,
    micro_prf,
    ngrams,
    rouge_lsum,
    rouge_n,
    sari,
)


def brute_force_prf(pairs):
    """Independent oracle: recount TP/FP/FN element by element."""
    tp = fp = fn = 0
    for pred, gold in pairs:
        pred, gold = set(pred), set(gold)
        for item in pred:
            if item in gold:
                tp += 1
            else:
                fp += 1
        for item in gold:
            if item not in pred:
                fn += 1
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


class TestMicroPrf:
    def test_perfect(self):
        prf = micro_prf([({1, 2}, {1, 2})])
        assert (prf.precision, prf.recall, prf.f1) == (1.0, 1.0, 1.0)

    def test_overprediction(self):
        prf = micro_prf([({"2", "5", "9"}, {"2", "5"})])
        assert prf.precision == pytest.approx(0.6667, abs=1e-4)
        assert prf.recall == 1.0
        assert prf.f1 == pytest.approx(0.8, abs=1e-9)

    def test_pooled_counts(self):
        prf = micro_prf([(set(), {1}), ({1}, {1})])
        assert prf.precision == 1.0
        assert prf.recall == 0.5
        assert prf.f1 == pytest.approx(0.6667, abs=1e-4)

    def test_matches_bruteforce_on_random_fixtures(self):
        rng = random.Random(13)
        for _ in range(200):
            pairs = [
                (
                    {rng.randint(1, 12) for _ in range(rng.randint(0, 6))},
                    {rng.randint(1, 12) for _ in range(rng.randint(0, 6))},
                )
                for _ in range(rng.randint(1, 8))
            ]
            prf = micro_prf(pairs)
            assert (prf.precision, prf.recall, prf.f1) == brute_force_prf(pairs)


class TestMacroPrf:
    def test_mean_of_cases(self):
        prf = macro_prf([({1}, {1}), (set(), {2})])
        assert (prf.precision, prf.recall, prf.f1) == (0.5, 0.5, 0.5)

    def test_empty_vs_empty_is_perfect(self):
        prf = macro_prf([(set(), set())])
        assert (prf.precision, prf.recall, prf.f1) == (1.0, 1.0, 1.0)

    def test_empty_both_convention_switchable(self):
        prf = macro_prf([(set(), set())], empty_both_score=0.0)
        assert prf.f1 == 0.0

    def test_single_nonempty_case_equals_micro(self):
        pair = [({1, 2, 3}, {2, 3, 4})]
        assert macro_prf(pair) == micro_prf(pair)


class TestLinkPrf:
    def test_perfect(self):
        pred = [("1", {"3", "7"})]
        gold = [("1", {"3", "7"})]
        assert link_prf([(pred, gold)]).f1 == 1.0

    def test_partial_recall(self):
        prf = link_prf([([("1", {"3"})], [("1", {"3", "7"})])])
        assert prf.precision == 1.0
        assert prf.recall == 0.5
        assert prf.f1 == pytest.approx(0.6667, abs=1e-4)

    def test_disjoint(self):
        prf = link_prf([([("1", {"9"})], [("1", {"3"})])])
        assert (prf.precision, prf.recall, prf.f1) == (0.0, 0.0, 0.0)

    def test_unknown_answer_id_counts_as_fp(self):
        prf = link_prf([([("1", {"3"}), ("4", {"3"})], [("1", {"3"})])])
        assert prf.precision == 0.5
        assert prf.recall == 1.0

    def test_macro_mode(self):
        pairs = [
            ([("1", {"3"})], [("1", {"3"})]),
            ([("1", set())], [("1", {"2"})]),
        ]
        prf = link_prf(pairs, mode="macro")
        assert prf.f1 == 0.5


class TestRouge:
    def test_identical(self):
        assert rouge_n("same text here", "same text here", 1) == 1.0
        assert rouge_n("same text here", "same text here", 2) == 1.0

    def test_unigram_example(self):
        assert rouge_n("a b c", "a b d", 1) == pytest.approx(0.6667, abs=1e-4)

    def test_no_overlap(self):
        assert rouge_n("a b", "x y", 1) == 0.0

    def test_clipping(self):
        # candidate repeats a token that appears once in the reference
        score = rouge_n("a a a", "a b c", 1)
        # clipped matches = 1; P=1/3, R=1/3
        assert score == pytest.approx(1 / 3, abs=1e-9)

    def test_lsum_identical(self):
        assert rouge_lsum("The stent was placed.", "The stent was placed.") == 1.0

    def test_lsum_hand_lcs(self):
        assert rouge_lsum("the cat sat", "the dog sat") == pytest.approx(0.6667, abs=1e-4)

    def test_lsum_empty_candidate(self):
        assert rouge_lsum("", "something here") == 0.0

    def test_lsum_multi_sentence(self):
        # two sentences, each fully matched: union LCS covers everything
        text = "The stent was placed. Recovery was good."
        assert rouge_lsum(text, text) == 1.0


class TestBleu:
    def test_identical_ten_tokens(self):
        text = "one two three four five six seven eight nine ten"
        assert bleu(text, text) == 1.0

    def test_brevity_penalty_half_length(self):
        ref = "one two three four five six seven eight nine ten"
        cand = "one two three four five"
        # all clipped precisions are 1, so BLEU = BP = exp(1 - 10/5)
        assert bleu(cand, ref) == pytest.approx(math.exp(-1.0), abs=1e-9)

    def test_disjoint_near_zero(self):
        cand = " ".join(f"a{i}" for i in range(10))
        ref = " ".join(f"b{i}" for i in range(10))
        score = bleu(cand, ref)
        # add-one smoothing floors each precision at 1/(count+1)
        assert 0.0 < score < 0.15

    def test_empty_candidate(self):
        assert bleu("", "a b c") == 0.0


class TestSari:
    def test_identity_triple_is_perfect(self):
        assert sari("a b c", "a b c", "a b c") == pytest.approx(100.0, abs=1e-9)

    def test_wrong_deletion_has_zero_delete_precision(self):
        # candidate deletes a word the reference keeps
        src = ngrams("a b c".split(), 1)
        cand = ngrams("a b".split(), 1)
        ref = ngrams("a b c".split(), 1)
        _, _, del_p = _sari_op_scores(src, cand, ref)
        assert del_p == 0.0

    def test_empty_candidate_zero_keep_and_add(self):
        src = ngrams("the cat sat".split(), 1)
        cand = ngrams([], 1)
        ref = ngrams("the cat slept".split(), 1)
        keep_f1, add_f1, _ = _sari_op_scores(src, cand, ref)
        assert keep_f1 == 0.0
        assert add_f1 == 0.0

    def test_good_simplification_beats_noop(self):
        source = "the procedure was performed emergently on the patient yesterday morning"
        reference = "the procedure was performed emergently"
        good = "the procedure was performed emergently"
        noop = source
        assert sari(source, good, reference) > sari(source, noop, reference)

    def test_range(self):
        value = sari("a b c d", "a c e", "a b d")
        assert 0.0 <= value <= 100.0


def reference_ngrams(tokens, n):
    """The slice-based n-gram count that ``ngrams`` must equal, keys in order."""
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def reference_sari_op_scores(src, cand, ref):
    """The Counter-algebra SARI operation scores that ``_sari_op_scores``
    must equal bit for bit: its float sums run in the key order of ``&``
    and ``-``."""
    kept = src & cand
    kept_good = kept & ref
    kept_target = src & ref
    keep_p = (
        sum(kept_good[g] / kept[g] for g in kept_good) / len(kept) if kept else 1.0
    )
    keep_r = (
        sum(kept_good.values()) / sum(kept_target.values()) if kept_target else 1.0
    )
    keep_f1 = 2 * keep_p * keep_r / (keep_p + keep_r) if keep_p + keep_r > 0 else 0.0

    added = set(cand) - set(src)
    added_good = added & set(ref)
    added_target = set(ref) - set(src)
    add_p = len(added_good) / len(added) if added else 1.0
    add_r = len(added_good) / len(added_target) if added_target else 1.0
    add_f1 = 2 * add_p * add_r / (add_p + add_r) if add_p + add_r > 0 else 0.0

    deleted = src - cand
    deleted_good = deleted - ref
    del_p = (
        sum(deleted_good[g] / deleted[g] for g in deleted_good) / len(deleted)
        if deleted
        else 1.0
    )
    return keep_f1, add_f1, del_p


def reference_sari(source, candidate, reference, max_n=4):
    src, cand, ref = source.lower().split(), candidate.lower().split(), reference.lower().split()
    total = 0.0
    for n in range(1, max_n + 1):
        keep_f1, add_f1, del_p = reference_sari_op_scores(
            reference_ngrams(src, n), reference_ngrams(cand, n), reference_ngrams(ref, n)
        )
        total += (keep_f1 + add_f1 + del_p) / 3
    return 100.0 * total / max_n


# Five tokens, so that n-grams repeat within and across texts; sources run
# to ten times the longest candidate, as a note does against an answer.
_TOKENS = ["a", "b", "c", "d", "E"]
_texts = st.lists(st.sampled_from(_TOKENS), max_size=40).map(" ".join)
_sources = st.lists(st.sampled_from(_TOKENS), max_size=400).map(" ".join)


class TestReferenceEquivalence:
    """The one-pass SARI and the zip n-grams against the Counter-algebra
    and slice references, with ``==``."""

    @given(st.lists(st.sampled_from(_TOKENS), max_size=30), st.integers(1, 5))
    def test_ngrams_keys_counts_and_order(self, tokens, n):
        assert list(ngrams(tokens, n).items()) == list(reference_ngrams(tokens, n).items())

    @given(_sources, _texts, _texts)
    @example("", "", "")
    @example("a b c d E " * 24, "a b", "c d")
    @example("a a a b b", "", "a b")
    @example("a b c d " * 150, "E E", "E")  # no source n-gram touched
    @example("a b c d a", "a b c d a", "d a b c")  # every source n-gram touched
    @example("a b a c a d b d c " * 66, "a b c d", "c a b d")  # touched among untouched
    @example("a b c d E b a " * 85, "", "c d E")  # empty candidate, note-length source
    @example("a b c d E b a " * 85, "", "")
    def test_sari_op_scores_per_order(self, source, candidate, reference):
        src, cand, ref = (text.lower().split() for text in (source, candidate, reference))
        for n in range(1, 5):
            grams = reference_ngrams(src, n), reference_ngrams(cand, n), reference_ngrams(ref, n)
            assert _sari_op_scores(*grams) == reference_sari_op_scores(*grams)

    @given(_sources, _texts, _texts)
    @example("", "", "")
    @example("a b c d E " * 24, "a b", "c d")
    @example("a b c d " * 150, "E E", "E")
    @example("a b c d a", "a b c d a", "d a b c")
    @example("a b c d E b a " * 85, "", "c d E")
    def test_sari(self, source, candidate, reference):
        assert sari(source, candidate, reference) == reference_sari(source, candidate, reference)

    def test_seeded_triples(self):
        # About a quarter of these triples have keep or delete sums whose
        # value depends on the order of their terms.
        rng = random.Random(3)
        for _ in range(300):
            source, candidate, reference = (
                " ".join(rng.choice(_TOKENS) for _ in range(rng.randint(0, size)))
                for size in (200, 60, 60)
            )
            assert sari(source, candidate, reference) == reference_sari(
                source, candidate, reference
            )

    @staticmethod
    def check_note_scale_source(sizes):
        rng = random.Random(600)
        words = [f"w{i}" for i in range(40)]
        source, candidate, reference = (
            " ".join(rng.choice(words) for _ in range(size)) for size in sizes
        )
        src, cand, ref = (text.split() for text in (source, candidate, reference))
        for n in range(1, 5):
            grams = reference_ngrams(src, n), reference_ngrams(cand, n), reference_ngrams(ref, n)
            assert _sari_op_scores(*grams) == reference_sari_op_scores(*grams)
        assert sari(source, candidate, reference) == reference_sari(source, candidate, reference)

    def test_note_scale_source(self):
        self.check_note_scale_source((600, 60, 60))

    @pytest.mark.parametrize("sizes", [(600, 15, 24), (600, 0, 24), (600, 0, 0)])
    def test_note_scale_source_against_short_or_empty_texts(self, sizes):
        self.check_note_scale_source(sizes)

    def test_untouched_source_ngrams_sum_as_ones_in_place(self):
        """Delete terms of 1/3 and 2/3 between runs of untouched source
        n-grams (1.0 each): the float sum depends on where they fall."""
        untouched = [(f"u{i}",) for i in range(12)]
        src = Counter(untouched[:5] + [("x",)] * 4 + untouched[5:9] + [("y",)] * 4 + untouched[9:])
        cand, ref = Counter({("x",): 1, ("y",): 1}), Counter({("x",): 2, ("y",): 1})
        in_place = [1.0] * 5 + [1 / 3] + [1.0] * 4 + [2 / 3] + [1.0] * 3
        assert sum(in_place) != sum(sorted(in_place))
        assert _sari_op_scores(src, cand, ref)[2] == sum(in_place) / 14
        assert _sari_op_scores(src, cand, ref) == reference_sari_op_scores(src, cand, ref)


class TestLeaderboardMean:
    def test_hand_mean(self):
        assert leaderboard_mean([46.35, 29.28, 44.57, 54.58]) == pytest.approx(43.695)

    def test_single_value(self):
        assert leaderboard_mean([12.5]) == 12.5

    def test_equal_values(self):
        assert leaderboard_mean([7.0, 7.0, 7.0]) == 7.0

    def test_empty_is_error(self):
        with pytest.raises(EhrqaError):
            leaderboard_mean([])


@given(st.text(alphabet="abcd ?", max_size=40))
def test_identical_pair_scores_maximum(text):
    # symmetric-safe: identical candidate/reference pairs hit the metric maximum
    if text.split():
        assert rouge_n(text, text, 1) == 1.0
        assert rouge_lsum(text, text) == 1.0
        assert bleu(text, text) == 1.0
        assert sari(text, text, text) == pytest.approx(100.0)
