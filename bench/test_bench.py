"""Self-tests of the benchmark's own parts.

Run from the root of a checkout with ``python3 -m pytest bench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest

import casegen
import checks
import standin

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from ehrqa.dataset import load_cases  # noqa: E402
from ehrqa.pipeline import resolve_config, run_pipeline  # noqa: E402


def test_generator_is_deterministic_per_seed(tmp_path):
    a = casegen.write_cases(12, 7, tmp_path / "a.jsonl").read_bytes()
    b = casegen.write_cases(12, 7, tmp_path / "b.jsonl").read_bytes()
    c = casegen.write_cases(12, 8, tmp_path / "c.jsonl").read_bytes()
    assert a == b
    assert a != c
    case_file = load_cases(tmp_path / "a.jsonl")
    assert len(case_file.cases) == 12
    assert all(c.gold_evidence and c.clinician_answer_sentences for c in case_file.cases)


class _Gated:
    """Inner generator whose calls stay in flight until released."""

    def __init__(self, tags):
        self.entered = {t: threading.Event() for t in tags}
        self.release = {t: threading.Event() for t in tags}

    def generate(self, request):
        self.entered[request.request_tag].set()
        assert self.release[request.request_tag].wait(10)
        return request.request_tag


def test_inflight_counter_reports_true_peak():
    # Schedule: A and B overlap, A ends, C overlaps B, B ends, C ends.
    inner = _Gated("ABC")
    counter = standin.CallCounter()
    backend = standin.meter_generator(inner, counter)
    assert backend is inner
    threads = {}

    def start(tag):
        request = SimpleNamespace(request_tag=tag, deployment_name="d", sample_index=0)
        threads[tag] = threading.Thread(target=backend.generate, args=(request,))
        threads[tag].start()
        assert inner.entered[tag].wait(10)

    def finish(tag):
        inner.release[tag].set()
        threads[tag].join(10)
        assert not threads[tag].is_alive()

    start("A")
    start("B")
    finish("A")
    start("C")
    finish("B")
    finish("C")
    assert (counter.calls, counter.inflight, counter.peak_inflight, counter.failed) == (3, 0, 2, 0)


def test_latency_is_a_function_of_the_request():
    model = standin.LatencyModel(50.0)
    req = SimpleNamespace(deployment_name="o3", request_tag="1/st2/o3/0", sample_index=0)
    assert model.request_ms(req) == model.request_ms(SimpleNamespace(**vars(req)))
    assert 0.6 * 50 * 0.75 <= model.request_ms(req) <= 1.4 * 50 * 1.25
    assert model.deployment_ms("o3") != model.deployment_ms("gpt-5.2")


@pytest.fixture(scope="module")
def reference_tree(tmp_path_factory):
    work = tmp_path_factory.mktemp("ref")
    cases = casegen.write_cases(6, 3, work / "cases.jsonl")
    run_pipeline(resolve_config({
        "dataset": {"cases": str(cases)},
        "subtasks": ["st1", "st2", "st3", "st4"],
        "provider_mode": "mock",
        "out_dir": str(work / "out"),
        "workers": 1,
        "st4": {"recall": {"enabled": True}},
    }))
    records = [json.loads(line) for line in cases.read_text("utf-8").splitlines()]
    return work / "out", records


def test_check_accepts_the_reference(reference_tree):
    out, records = reference_tree
    checks.check_rules(out, records, ["st1", "st2", "st3", "st4"])
    snap = checks.snapshot(out, "st*.jsonl")
    assert {"st1.jsonl", "st1_candidates.jsonl", "st2.jsonl", "st3.jsonl", "st4.jsonl"} == set(snap)
    checks.compare(snap, dict(snap), "outputs")


def _corrupt(out: Path, tmp_path: Path, name: str, edit) -> Path:
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    path = copy / name
    lines = [json.loads(line) for line in path.read_text("utf-8").splitlines()]
    edit(lines[0])
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in lines), "utf-8")
    return copy


@pytest.mark.parametrize(
    "name, edit, message",
    [
        ("st1.jsonl", lambda r: r.update(clinician_question="Why " * 15 + "now?"), "words"),
        ("st1.jsonl", lambda r: r.update(clinician_question="Why did my stent fail?"), "first-person"),
        ("st1.jsonl", lambda r: r.update(clinician_question="Why was it placed."), "'?'"),
        ("st3.jsonl", lambda r: r.update(answer_text="It was placed [2]."), "marker"),
        ("st3.jsonl", lambda r: r.update(answer_text="word " * 76), "words"),
        ("st2.jsonl", lambda r: r["evidence_ids"].append("999"), "not valid"),
        ("st4.jsonl", lambda r: r["alignments"][0]["evidence_id"].append("999"), "not valid"),
        ("st4.jsonl", lambda r: r["alignments"][0].update(answer_id="99"), "not valid"),
    ],
)
def test_check_rejects_a_corrupted_output(reference_tree, tmp_path, name, edit, message):
    out, records = reference_tree
    corrupted = _corrupt(out, tmp_path, name, edit)
    with pytest.raises(checks.CheckError, match=message):
        checks.check_rules(corrupted, records, ["st1", "st2", "st3", "st4"])
    with pytest.raises(checks.CheckError, match="differs from the reference"):
        checks.compare(
            checks.snapshot(corrupted, "st*.jsonl"), checks.snapshot(out, "st*.jsonl"), "outputs"
        )


def test_replay_keeps_the_generator_type_and_its_cache_statistics(tmp_path):
    import ehrqa.pipeline as pipeline

    cases = casegen.write_cases(4, 5, tmp_path / "cases.jsonl")

    def config(mode, out):
        return resolve_config({
            "dataset": {"cases": str(cases)},
            "subtasks": ["st2", "st3", "st4"],
            "provider_mode": mode,
            "record_source": "mock",
            "cache_dir": str(tmp_path / "cache"),
            "out_dir": str(tmp_path / out),
            "workers": 2,
            "st4": {"recall": {"enabled": True}},
        })

    run_pipeline(config("record", "record"))
    entries = len(list((tmp_path / "cache").glob("*.json")))
    with standin.Backends(pipeline) as backends:
        run_pipeline(config("replay", "replay"))
    assert backends.generator.calls == 4 * 11 and backends.embedder.calls == 4 * 4
    out = tmp_path / "replay"
    checks.check_replay_manifest(out, backends.generator.calls, entries)
    manifest = json.loads((out / "manifest.json").read_text("utf-8"))
    manifest["cache"]["misses"] = 1
    (out / "manifest.json").write_text(json.dumps(manifest), "utf-8")
    with pytest.raises(checks.CheckError, match="manifest cache"):
        checks.check_replay_manifest(out, backends.generator.calls, entries)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    child = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "latency", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode != 0
    assert child.stdout == ""
