"""Call scheduling: outputs never depend on the worker count or on the
order in which calls complete, each case makes its generator calls on its
own thread in a fixed order, calls in flight stay within their bound, a
replay reads its cache on the calling thread, live clients are built once
per deployment, and case threads that race to import NumPy write what one
thread writes."""

import itertools
import json
import logging
import os
import random
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import pytest

from ehrqa import pipeline
from ehrqa.core import ProviderError, SubtaskError
from ehrqa.dataset import toy_dataset_path
from ehrqa.pipeline import DeploymentRouter, resolve_config, run_pipeline
from ehrqa.providers import PipelineMockProvider, ResponseCache
from tests.test_cli import base_config, tree_bytes
from tests.test_providers import fake_response, req


class FuzzGenerator:
    """PipelineMockProvider behind a seeded random 0-5 ms wait per request,
    so calls complete in a shuffled order. Records the peak number of calls
    in flight and each case's calls, as (thread name, request tag), in the
    order they were made."""

    def __init__(self, seed: int):
        self.seed = seed
        self.inner = PipelineMockProvider()
        self._lock = threading.Lock()
        self.inflight = 0
        self.peak = 0
        self.by_case: dict[str, list[tuple[str, str]]] = defaultdict(list)

    def generate(self, request):
        wait = random.Random(f"{self.seed}/{request.request_tag}/{request.sample_index}")
        with self._lock:
            self.inflight += 1
            self.peak = max(self.peak, self.inflight)
            case_id = request.request_tag.split("/")[0]
            self.by_case[case_id].append(
                (threading.current_thread().name, request.request_tag)
            )
        try:
            time.sleep(wait.uniform(0.0, 0.005))
            return self.inner.generate(request)
        finally:
            with self._lock:
                self.inflight -= 1


def check_calls(generator: FuzzGenerator, reference: FuzzGenerator) -> None:
    """Each case made its calls on one thread, in the reference run's order."""
    assert generator.by_case, "the run made no generator call"
    for case_id, calls in generator.by_case.items():
        assert len({thread for thread, _ in calls}) == 1, case_id
        assert [tag for _, tag in calls] == [tag for _, tag in reference.by_case[case_id]]


def nine_cases(path):
    """The three toy cases three times over, as cases 1-9."""
    toy = [json.loads(line) for line in toy_dataset_path().read_text("utf-8").splitlines()]
    lines = [json.dumps({**case, "case_id": str(3 * i + j + 1)})
             for i in range(3) for j, case in enumerate(toy)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_fuzzed_schedules_never_change_outputs_and_stay_in_the_pool(tmp_path, monkeypatch):
    cases = nine_cases(tmp_path / "cases.jsonl")
    built: list[FuzzGenerator] = []
    seeds = iter(range(100))

    def build_generator(config):
        built.append(FuzzGenerator(next(seeds)))
        return built[-1]

    monkeypatch.setattr(pipeline, "build_generator", build_generator)
    trees = {}
    for workers in (1, 2, 8):
        for fuzz in range(3):
            out = tmp_path / f"out-w{workers}-f{fuzz}"
            run_pipeline(resolve_config({
                "dataset": {"cases": str(cases)},
                "subtasks": ["st1", "st2", "st3", "st4"],
                "provider_mode": "mock",
                "out_dir": str(out),
                "workers": workers,
                "st3": {"rerank": True},
                "st4": {"recall": {"enabled": True}},
            }))
            trees[workers, fuzz] = tree_bytes(out)
            generator = built[-1]
            check_calls(generator, built[0])
            assert generator.peak <= workers * workers
            if workers == 1:
                main = threading.current_thread().name
                assert {t for calls in generator.by_case.values() for t, _ in calls} == {main}
    reference = trees[1, 0]
    # The vote tallies a sweep reads are outputs too, and as fixed.
    written = {f"{name}.jsonl" for name in ("st1", "st2", "st3", "st4", "votes/st2", "votes/st4")}
    assert written <= set(reference)
    assert all(tree == reference for tree in trees.values())
    assert max(g.peak for g in built[3:6]) > 2  # workers=2 did overlap calls across cases


class NoUsableSt2(FuzzGenerator):
    """The fuzzed mock, except that every st2 call of case 5 fails and
    every st2 reply of case 8 is prose."""

    def generate(self, request):
        reply = super().generate(request)
        case_id, stage = request.request_tag.split("/")[:2]
        if stage == "st2" and case_id == "5":
            raise ProviderError("backend down")
        return "No sentence supports it." if stage == "st2" and case_id == "8" else reply


def test_a_case_with_no_usable_st2_run_fails_the_run_naming_the_first(tmp_path, monkeypatch):
    """Whatever ``workers`` says and whichever case fails first in time,
    the error names the first such case in case order, and no output is
    written."""
    cases = nine_cases(tmp_path / "cases.jsonl")
    seeds = iter(range(100))
    monkeypatch.setattr(pipeline, "build_generator", lambda config: NoUsableSt2(next(seeds)))
    errors = {}
    for workers in (1, 2, 8):
        out = tmp_path / f"out-w{workers}"
        with pytest.raises(SubtaskError) as raised:
            run_pipeline(resolve_config({
                "dataset": {"cases": str(cases)},
                "subtasks": ["st1", "st2", "st3", "st4"],
                "provider_mode": "mock",
                "out_dir": str(out),
                "workers": workers,
            }))
        errors[workers] = str(raised.value)
        assert not list(out.glob("*.jsonl"))
    assert set(errors.values()) == {"case 5: no st2 member gave a usable reply"}


# Runs ``ehrqa`` in a fresh interpreter and prints the name of the thread
# that first looked NumPy up.
FIRST_NUMPY_IMPORT = """
import sys, threading
from ehrqa.cli import main
first = []
class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not first:
            first.append(threading.current_thread().name)
sys.meta_path.insert(0, Spy())
assert main(sys.argv[1:]) == 0
print(first)
"""


def test_numpy_first_imported_on_case_threads_changes_no_output(tmp_path):
    """Nothing before st3's rerank builds an array in an st2-st4 run, so its
    case threads race to import NumPy; the outputs are a one-thread run's."""
    cases = nine_cases(tmp_path / "cases.jsonl")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "subtasks": ["st2", "st3", "st4"],
        "st3": {"rerank": True},
        "st4": {"recall": {"enabled": True}},
    }))
    src = Path(pipeline.__file__).parent.parent
    outputs, first = {}, {}
    for workers in (1, 2, 8):
        out = tmp_path / f"out-w{workers}"
        argv = ["run", "--config", str(config), "--cases", str(cases),
                "--provider-mode", "mock", "--out", str(out), "--workers", str(workers)]
        result = subprocess.run(
            [sys.executable, "-c", FIRST_NUMPY_IMPORT, *argv], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert result.returncode == 0, result.stderr
        first[workers] = result.stdout.splitlines()[-1]
        outputs[workers] = {p.name: p.read_bytes() for p in sorted(out.glob("st*.jsonl"))}
    assert first[1] == "['MainThread']"
    assert first[2].startswith("['ehrqa-case") and first[8].startswith("['ehrqa-case")
    assert sorted(outputs[1]) == ["st2.jsonl", "st3.jsonl", "st4.jsonl"]
    assert outputs[2] == outputs[1] and outputs[8] == outputs[1]


def replay_config(tmp_path, cases, mode, workers, out, **overrides):
    return resolve_config({
        "dataset": {"cases": str(cases)},
        "provider_mode": mode,
        "record_source": "mock",
        "cache_dir": str(tmp_path / "cache"),
        "out_dir": str(tmp_path / out),
        "workers": workers,
        **overrides,
    })


ALL_SUBTASKS = {
    "subtasks": ["st1", "st2", "st3", "st4"],
    "st3": {"rerank": True},
    "st4": {"recall": {"enabled": True}},
}


@pytest.fixture
def cache_reads(monkeypatch):
    """The name of the thread of every cache read, generator and embedder."""
    threads: list[str] = []
    real = ResponseCache.get

    def get(self, key, suffixes):
        threads.append(threading.current_thread().name)
        return real(self, key, suffixes)

    monkeypatch.setattr(ResponseCache, "get", get)
    return threads


def test_a_replay_runs_its_cases_on_the_calling_thread(tmp_path, cache_reads):
    """Every replayed call reads the local cache, so whatever ``workers``
    says no case thread is started, and the tree is the same."""
    cases = nine_cases(tmp_path / "cases.jsonl")
    run_pipeline(replay_config(tmp_path, cases, "record", 2, "record", **ALL_SUBTASKS))
    recorded = len(cache_reads)
    trees = {}
    for workers in (1, 2, 8):
        del cache_reads[:]
        out = f"w{workers}"
        run_pipeline(replay_config(tmp_path, cases, "replay", workers, out, **ALL_SUBTASKS))
        assert len(cache_reads) == recorded
        assert set(cache_reads) == {threading.current_thread().name}
        trees[workers] = tree_bytes(tmp_path / out)
    assert {"st1.jsonl", "st4.jsonl", "votes/st4.jsonl", "manifest.json"} <= set(trees[1])
    assert trees[1] == trees[2] == trees[8]


def test_a_recording_still_overlaps_its_calls(tmp_path, monkeypatch):
    """A record run waits on the backend it records, so its cases keep
    their threads."""
    built: list[FuzzGenerator] = []

    def mock():
        built.append(FuzzGenerator(3))
        return built[-1]

    monkeypatch.setattr(pipeline, "PipelineMockProvider", mock)
    cases = nine_cases(tmp_path / "cases.jsonl")
    run_pipeline(replay_config(tmp_path, cases, "record", 2, "out", **ALL_SUBTASKS))
    assert len(built) == 1
    assert built[0].peak > 1


class CountingRewrites(PipelineMockProvider):
    """The pipeline mock, except that each st3 rewrite waits 2 ms and then
    ends with how many rewrites came before it, as a sampled model's
    reply varies from call to call. Cases with the same prompt share a
    cache key, and at ``workers > 1`` their rewrites overlap."""

    def __init__(self):
        self.rewrites = itertools.count()

    def generate(self, request):
        response = super().generate(request)
        if self._stage(request.request_tag) != "st3s2":
            return response
        time.sleep(0.002)
        return f"{response} ({next(self.rewrites)})"


def test_a_recording_replays_to_what_it_recorded(tmp_path, monkeypatch):
    """A key's first entry is final, and the request that finds it written
    serves it: a recording at ``workers=8`` whose racing requests got
    different replies replays to its own outputs, with no miss."""
    monkeypatch.setattr(pipeline, "PipelineMockProvider", CountingRewrites)
    cases = nine_cases(tmp_path / "cases.jsonl")
    for rep in range(10):
        root = tmp_path / str(rep)
        run_pipeline(replay_config(root, cases, "record", 8, "record", **ALL_SUBTASKS))
        manifest = run_pipeline(replay_config(root, cases, "replay", 1, "replay", **ALL_SUBTASKS))
        assert manifest["cache"]["misses"] == 0
        recorded, replayed = tree_bytes(root / "record"), tree_bytes(root / "replay")
        outputs = [name for name in recorded if name.startswith("st")]
        assert len(outputs) == 5  # st1_candidates and st1-st4
        assert all(recorded[name] == replayed[name] for name in outputs), rep


def test_a_recordings_cache_counts_do_not_depend_on_workers(tmp_path, monkeypatch):
    """Nor do its entries: each file's name and bytes are those of the
    recording at one worker, though cases that share a key race to write it."""
    seeds = itertools.count()
    monkeypatch.setattr(pipeline, "PipelineMockProvider", lambda: FuzzGenerator(next(seeds)))
    cases = nine_cases(tmp_path / "cases.jsonl")
    counts, trees = {}, {}
    for workers in (1, 2, 8):
        for rep in range(3):
            root = tmp_path / f"w{workers}-{rep}"
            config = replay_config(root, cases, "record", workers, "out", **ALL_SUBTASKS)
            manifest = run_pipeline(config)
            counts[workers, rep] = manifest["cache"], manifest["embedding_cache"]
            trees[workers, rep] = tree_bytes(root / "cache")
    generator, embedder = counts[1, 0]
    assert generator["hits"] > 0 and generator["misses"] > 0 and embedder["misses"] > 0
    assert all(count == counts[1, 0] for count in counts.values())
    assert trees[1, 0][ResponseCache.MARKER] == b"mock\n"
    suffixes = [name.rsplit(".", 1)[1] for name in trees[1, 0] if name != ResponseCache.MARKER]
    assert suffixes.count("json") == generator["entries"] > 0
    assert suffixes.count("f64") == embedder["entries"] > 0
    assert len(suffixes) == generator["entries"] + embedder["entries"]
    assert all(tree == trees[1, 0] for tree in trees.values())


def test_no_case_queued_behind_a_failed_case_starts():
    """Case 0 blocks until case 1 fails; the rest wait in the queue, and
    none of them may start once case 1 has failed."""
    released = threading.Event()
    started = []

    def fn(case):
        started.append(case)
        if case == 0:
            released.wait()
        elif case == 1:
            released.set()
            raise TypeError("bug in case 1")
        return case

    with pytest.raises(TypeError, match="bug in case 1"):
        pipeline._map_cases(fn, list(range(9)), 2)
    assert sorted(started) == [0, 1]


def test_the_first_failed_case_in_case_order_raises():
    """Case 1 fails while case 0 runs on; case 0 then fails too, and its
    error is the one raised, as at one thread."""
    failed_1 = threading.Event()

    def fn(case):
        if case == 0:
            failed_1.wait()
            raise ValueError("case 0")
        if case == 1:
            failed_1.set()
            raise TypeError("case 1")
        return case

    with pytest.raises(ValueError, match="case 0"):
        pipeline._map_cases(fn, list(range(5)), 2)
    assert pipeline._map_cases(lambda case: 2 * case, list(range(5)), 2) == [0, 2, 4, 6, 8]


class TestDeploymentRouter:
    def test_one_client_per_deployment_under_concurrent_first_calls(
        self, monkeypatch, caplog
    ):
        monkeypatch.setenv("EHRQA_DEFAULT_ENDPOINT", "https://default.example/v1")
        monkeypatch.setenv("EHRQA_DEFAULT_API_KEY", "default-key")
        monkeypatch.setenv("EHRQA_O3_ENDPOINT", "https://o3.example/v1")
        monkeypatch.setenv("EHRQA_O3_API_KEY", "o3-key")
        monkeypatch.delenv("EHRQA_GPT_5_1_ENDPOINT", raising=False)
        monkeypatch.delenv("EHRQA_GPT_5_1_API_KEY", raising=False)
        real = pipeline.provider_from_env
        built: list[tuple[str, str]] = []

        def provider_from_env(name):
            client = real(name)  # raises for a deployment without credentials
            time.sleep(0.01)  # widen the window in which a second client could be built
            built.append((name, client.endpoint))
            client._transport = lambda url, payload, headers: fake_response(
                payload={"choices": [{"message": {"content": url}}]}
            )
            return client

        monkeypatch.setattr(pipeline, "provider_from_env", provider_from_env)
        router = DeploymentRouter()
        start = threading.Barrier(8, timeout=10)
        texts: dict[int, str] = {}

        def call(i):
            start.wait()
            deployment = "o3" if i % 2 else "gpt-5.1"
            texts[i] = router.generate(req(f"c{i}/st2/{deployment}/0", deployment=deployment))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with caplog.at_level(logging.WARNING, logger="ehrqa.pipeline"):
                threads = [threading.Thread(target=call, args=(i,)) for i in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(built) == [
            ("default", "https://default.example/v1"), ("o3", "https://o3.example/v1")
        ]
        assert texts == {
            i: ("https://o3.example/v1" if i % 2 else "https://default.example/v1")
            + "/chat/completions"
            for i in range(8)
        }
        fallbacks = [r for r in caplog.records if "EHRQA_DEFAULT_" in r.getMessage()]
        assert len(fallbacks) == 1
        assert "gpt-5.1" in fallbacks[0].getMessage()
