"""Every degraded result is logged word for word on its subtask's logger
and counted once for its case: ``manifest.json`` holds the sums by kind
and the number of cases with any. Outside a run nothing is counted."""

import json
import logging

import pytest

from ehrqa import pipeline
from ehrqa.core import DEGRADATIONS, ProviderError
from ehrqa.dataset import toy_dataset_path
from ehrqa.pipeline import resolve_config, run_pipeline
from ehrqa.providers import HashEmbedder, PipelineMockProvider
from ehrqa.st3 import CitedDraft, stage2_rewrite
from tests.conftest import FailingProvider, ScriptedProvider, simple_case

DOWN = ProviderError("backend down")

# Each reply, or each error raised, that degrades one result, by request tag.
FAULTS = {
    "1/st1ctx/0": "no JSON here",
    "2/st1ctx/0": json.dumps({"procedures": ["a pacemaker"]}),
    "4/st1/reformulator-b/0": DOWN,
    "5/st1/reformulator-b/0": "No candidates.",
    "7/st1/reformulator-a/0": "CANDIDATE_1: Tell me about my stent",
    "7/st1/reformulator-b/0": "CANDIDATE_1: Tell me about my stent",
    "1/st2/o3/0": DOWN,
    "2/st2/gpt-5.2/0": "No sentence supports it.",
    "1/st3s1/o3/0": DOWN,
    "2/st3s1/o3/0": "The answer [1] and [99].",
    "4/st3s1/gpt-5.2/0": "An answer with no citation.",
    "4/st3s2/o3/0": DOWN,
    "5/st3s2/o3/0": "The rerank-trigger answer.",
    "5/st3s2/gpt-5.1/0": "An answer [1].",
    "1/st4/gpt-5.2/0": DOWN,
    "2/st4/gpt-5.1/0": "No alignment.",
    "4/st4/gpt-5.2/0": json.dumps([{"answer_id": "1", "evidence_id": ["2"]}, {"answer_id": "2"}]),
}

# Each warning the faults above log, as (logger, message).
WARNINGS = {
    "st1.context_failed": (
        "ehrqa.st1", "context extraction failed for 1: no JSON object found in model output"
    ),
    "st1.spans_dropped": ("ehrqa.st1", "context extraction for 2: dropped 1 non-verbatim span(s)"),
    "st1.member_failed": ("ehrqa.st1", "request 4/st1/reformulator-b/0 failed: backend down"),
    "st1.member_unparseable": (
        "ehrqa.st1",
        "st1 run 5/st1/reformulator-b/0 unparseable, counting as empty: "
        "no CANDIDATE_n lines found in model output",
    ),
    "st1.repaired": (
        "ehrqa.st1",
        "no constraint-valid candidate; repaired 'Tell me about my stent' -> 'Tell about stent?'",
    ),
    "st2.member_failed": ("ehrqa.st2", "request 1/st2/o3/0 failed: backend down"),
    "st2.member_unparseable": (
        "ehrqa.st2",
        "st2 run 2/st2/gpt-5.2/0 unparseable, counting as empty: "
        "no sentence-ID array found in model output",
    ),
    "st3.member_failed": ("ehrqa.st3", "request 1/st3s1/o3/0 failed: backend down"),
    "st3.citations_outside": (
        "ehrqa.st3", "case 2: dropped citation(s) outside supplied evidence: ['99']"
    ),
    "st3.cited_nothing": (
        "ehrqa.st3", "case 4: draft cited nothing; treating all supplied evidence as cited"
    ),
    "st3.rewrite_failed": (
        "ehrqa.st3",
        "case 4: stage-2 rewrite failed, falling back to stripped draft: backend down",
    ),
    "st3.markers_left": ("ehrqa.st3", "case 5: stage-2 output contained citation markers"),
    "st3.rerank_failed": (
        "ehrqa.st3", "rerank embedding failed, keeping first candidate: embedder down"
    ),
    "st4.member_failed": ("ehrqa.st4", "request 1/st4/gpt-5.2/0 failed: backend down"),
    "st4.member_unparseable": (
        "ehrqa.st4",
        "st4 run 2/st4/gpt-5.1/0 unparseable, counting as empty: "
        "no alignment array found in model output",
    ),
    "st4.elements_dropped": ("ehrqa.st4", "parse_alignment: dropped 1 malformed element(s)"),
    "st4.recall_skipped": (
        "ehrqa.st4",
        "case 5: recall augmentation skipped (embedding failure): embedder down",
    ),
}


def faulty_generator() -> ScriptedProvider:
    """The pipeline mock, except for the tags of FAULTS."""
    mock = PipelineMockProvider()

    def reply(request):
        fault = FAULTS.get(request.request_tag)
        if isinstance(fault, Exception):
            raise fault
        return mock.generate(request) if fault is None else fault

    return ScriptedProvider(handler=reply)


class TriggerEmbedder(HashEmbedder):
    """The mock embedder, failing every call that embeds a trigger text."""

    def embed(self, texts):
        if any("-trigger" in text for text in texts):
            raise ProviderError("embedder down")
        return super().embed(texts)


def nine_cases(path):
    """The toy cases three times over, as cases 1-9; case 5's first answer
    sentence holds a trigger that fails its recall embedding."""
    toy = [json.loads(line) for line in toy_dataset_path().read_text("utf-8").splitlines()]
    cases = [{**toy[i % 3], "case_id": str(i + 1)} for i in range(9)]
    first, *rest = cases[4]["answer_sentences"]
    cases[4]["answer_sentences"] = [{**first, "text": first["text"] + " recall-trigger"}, *rest]
    path.write_text("".join(json.dumps(c) + "\n" for c in cases), encoding="utf-8")
    return path


def config(tmp_path, cases, workers, out="out"):
    return resolve_config({
        "dataset": {"cases": str(cases)},
        "subtasks": ["st1", "st2", "st3", "st4"],
        "provider_mode": "mock",
        "out_dir": str(tmp_path / out),
        "workers": workers,
        "st3": {"rerank": True},
        "st4": {"recall": {"enabled": True}},
    })


@pytest.mark.parametrize("workers", [1, 2])
def test_each_degraded_result_is_logged_and_counted_once(tmp_path, monkeypatch, caplog, workers):
    monkeypatch.setattr(pipeline, "build_generator", lambda config: faulty_generator())
    monkeypatch.setattr(pipeline, "build_embedder", lambda config: TriggerEmbedder())
    cases = nine_cases(tmp_path / "cases.jsonl")
    with caplog.at_level(logging.WARNING, logger="ehrqa"):
        manifest = run_pipeline(config(tmp_path, cases, workers))
    assert DEGRADATIONS.get() is None
    assert manifest["degradations"] == {kind: 1 for kind in sorted(WARNINGS)}
    assert manifest["degraded_cases"] == 5  # cases 1, 2, 4, 5 and 7
    logged = sorted((r.name, r.getMessage()) for r in caplog.records)
    assert logged == sorted(WARNINGS.values())
    written = json.loads((tmp_path / "out" / "manifest.json").read_text("utf-8"))
    assert written["degradations"] == manifest["degradations"]
    assert written["degraded_cases"] == 5


def test_a_clean_run_reports_no_degradation(tmp_path):
    manifest = run_pipeline(config(tmp_path, nine_cases(tmp_path / "cases.jsonl"), 2))
    assert manifest["degraded_cases"] == 0 and manifest["degradations"] == {}


def test_a_call_outside_a_run_is_logged_but_counted_nowhere(tmp_path, caplog):
    case = simple_case()
    draft = CitedDraft(text_with_citations="Answer [1].", cited_ids=("1",))
    with caplog.at_level(logging.WARNING, logger="ehrqa.st3"):
        assert stage2_rewrite(draft, case, FailingProvider("backend down")) == "Answer."
    assert caplog.messages == [
        f"case {case.case_id}: stage-2 rewrite failed, falling back to stripped draft: "
        "backend down (tag c1/st3s2/default/0)"
    ]
    assert DEGRADATIONS.get() is None
    manifest = run_pipeline(config(tmp_path, nine_cases(tmp_path / "cases.jsonl"), 1))
    assert manifest["degraded_cases"] == 0 and manifest["degradations"] == {}
