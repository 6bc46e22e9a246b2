"""Call scheduling: outputs never depend on the worker count or on the
order in which calls complete, each case makes its generator calls on its
own thread in a fixed order, calls in flight stay within their bound, a
replay reads its cache on the calling thread, and live clients are built
once per deployment."""

import json
import logging
import random
import sys
import threading
import time
from collections import defaultdict

import pytest

from ehrqa import pipeline
from ehrqa.dataset import toy_dataset_path
from ehrqa.pipeline import DeploymentRouter, resolve_config, run_pipeline, run_sweep
from ehrqa.providers import PipelineMockProvider, ResponseCache
from tests.test_cli import base_config, tree_bytes
from tests.test_providers import FakeResponse, req


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
    assert {"st1.jsonl", "st2.jsonl", "st3.jsonl", "st4.jsonl"} <= set(reference)
    assert all(tree == reference for tree in trees.values())
    assert max(g.peak for g in built[3:6]) > 2  # workers=2 did overlap calls across cases


def test_a_sweep_keeps_its_calls_in_flight_at_workers(tmp_path, monkeypatch):
    """A sweep case makes one batch of calls, so the sweep maps its cases
    over ``workers`` threads, and its calls in flight stay at ``workers``,
    not the ``workers**2`` of a run."""
    built: list[FuzzGenerator] = []

    def build_generator(config):
        built.append(FuzzGenerator(7))
        return built[-1]

    monkeypatch.setattr(pipeline, "build_generator", build_generator)
    results = {}
    cases = nine_cases(tmp_path / "cases.jsonl")
    for workers in (1, 2):
        config = resolve_config(base_config(
            tmp_path / f"w{workers}", dataset={"cases": str(cases)},
            subtasks=["st2"], workers=workers,
        ))
        for member in config["st2"]["plan"]["members"]:
            member["samples"] = 3
        results[workers] = run_sweep(config, "st2")
        check_calls(built[-1], built[0])
        assert built[-1].peak <= workers
    assert built[1].peak > 1  # workers=2 did overlap calls across cases
    assert results[1] == results[2]


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

    def get(self, key, field, what):
        threads.append(threading.current_thread().name)
        return real(self, key, field, what)

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
    assert {"st1.jsonl", "st4.jsonl", "manifest.json"} <= set(trees[1])
    assert trees[1] == trees[2] == trees[8]


def test_a_replay_sweep_runs_its_cases_on_the_calling_thread(tmp_path, cache_reads):
    cases = nine_cases(tmp_path / "cases.jsonl")
    run_sweep(replay_config(tmp_path, cases, "record", 2, "record", subtasks=["st2"]), "st2")
    results = {}
    for workers in (1, 2):
        del cache_reads[:]
        config = replay_config(tmp_path, cases, "replay", workers, f"w{workers}", subtasks=["st2"])
        results[workers] = run_sweep(config, "st2")
        assert cache_reads and set(cache_reads) == {threading.current_thread().name}
    assert results[1] == results[2]


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
            client._transport = lambda url, payload, headers: FakeResponse(
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
            texts[i] = router.generate(req(f"c{i}/st2/{deployment}/0", deployment=deployment)).text

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
