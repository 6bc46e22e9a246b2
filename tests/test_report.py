import pytest

from ehrqa.core import EhrqaError
from ehrqa.metrics import flatten_links
from ehrqa.report import (
    check_same_cases,
    format_table,
    generation_scores,
    id_set_scores,
    score_alignments,
    score_generation,
    score_id_sets,
)


class TestScoreIdSets:
    def test_perfect_prediction_scores_100(self):
        pred = {"a": {"1", "2"}, "b": {"3"}}
        row = score_id_sets(id_set_scores(pred, pred))
        assert row["μF1"] == 100.0
        assert row["mF1"] == 100.0

    def test_hand_counts(self):
        pred = {"a": {"2", "5", "9"}}
        gold = {"a": {"2", "5"}}
        row = score_id_sets(id_set_scores(pred, gold))
        assert row["μP"] == pytest.approx(66.67, abs=0.01)
        assert row["μR"] == 100.0
        assert row["μF1"] == pytest.approx(80.0, abs=0.01)


class TestCheckSameCases:
    def test_case_mismatch_lists_offenders(self):
        with pytest.raises(EhrqaError, match="missing=\\['b'\\], unexpected=\\['c'\\]"):
            check_same_cases({"a": set(), "c": set()}, {"a": set(), "b": set()})


class TestScoreAlignments:
    def test_hand_built_two_case_fixture(self):
        pred = {
            "a": [("1", ["3"])],
            "b": [("1", ["2", "4"]), ("2", [])],
        }
        gold = {
            "a": [("1", ["3", "7"])],
            "b": [("1", ["2"]), ("2", ["5"])],
        }
        links = {cid: flatten_links(alignment) for cid, alignment in pred.items()}
        gold_links = {cid: flatten_links(alignment) for cid, alignment in gold.items()}
        row = score_alignments(id_set_scores(links, gold_links))
        # pooled: TP=2 (a:1-3, b:1-2), FP=1 (b:1-4), FN=2 (a:1-7, b:2-5)
        assert row["μP"] == pytest.approx(66.67, abs=0.01)
        assert row["μR"] == pytest.approx(50.0, abs=0.01)
        # per-case: a = (1, .5, 2/3); b = (.5, .5, .5)
        assert row["mP"] == pytest.approx(75.0, abs=0.01)
        assert row["mF1"] == pytest.approx(58.33, abs=0.01)


class TestScoreGeneration:
    def test_identical_candidates(self):
        pairs = {"a": ("same text", "same text")}
        row = score_generation(generation_scores(pairs, sources={"a": "same text"}))
        assert row["R1"] == 100.0
        assert row["BLEU"] == 100.0
        assert row["SARI"] == 100.0
        assert row["Score"] == pytest.approx(100.0)

    def test_sari_skipped_without_sources(self):
        row = score_generation(generation_scores({"a": ("x y", "x z")}))
        assert "SARI" not in row
        assert row["unavailable_metrics"] == ["SARI"]


def test_format_table_shape():
    table = format_table(
        "dev", [("st2", {"μP": 64.71, "μR": 63.64, "μF1": 64.17})]
    )
    lines = table.splitlines()
    assert "μF1" in lines[0]
    assert "64.17" in lines[1]
