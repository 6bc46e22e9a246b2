"""A run and a sweep share one setup: the config's objects and the sorted
few-shot pool are built once per run, and each case only picks its
leave-one-out shots from that pool."""

import hashlib
import json
from collections import Counter

import pytest

from ehrqa import pipeline
from ehrqa.dataset import toy_dataset_path
from ehrqa.pipeline import resolve_config, run_pipeline, run_sweep

PER_RUN = ("plan_from_config", "policy_from_config", "recall_from_config", "few_shot_pool")


def config(tmp_path, cases, name, **fields):
    return resolve_config({
        "dataset": {"cases": str(cases)},
        "provider_mode": "mock",
        "cache_dir": str(tmp_path / "cache"),
        "out_dir": str(tmp_path / name),
        "workers": 1,
        **fields,
    })


def count_calls(monkeypatch, tmp_path, cases) -> Counter:
    """Calls of each ``PER_RUN`` function in an st1-st4 run and an st4 sweep."""
    all_subtasks = ["st1", "st2", "st3", "st4"]
    run_cfg = config(
        tmp_path, cases, "run", subtasks=all_subtasks,
        st3={"rerank": True}, st4={"recall": {"enabled": True}},
    )
    sweep_cfg = config(tmp_path, cases, "sweep", subtasks=["st4"])
    calls = Counter()
    with monkeypatch.context() as patch:
        for name in PER_RUN:
            original = getattr(pipeline, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            patch.setattr(pipeline, name, counted)
        run_pipeline(run_cfg)
        run_sweep(sweep_cfg, "st4")
    return calls


def test_the_config_objects_and_the_pool_are_built_once_per_run(monkeypatch, tmp_path):
    lines = toy_dataset_path().read_text(encoding="utf-8").splitlines()
    one_case = tmp_path / "one.jsonl"
    one_case.write_text(lines[0] + "\n", encoding="utf-8")
    one = count_calls(monkeypatch, tmp_path / "one", one_case)
    three = count_calls(monkeypatch, tmp_path / "three", toy_dataset_path())
    assert len(lines) == 3
    assert set(three) == set(PER_RUN)
    assert three == one


@pytest.mark.parametrize("subtask, hits", [("st2", 3 * 3), ("st4", 3 * 2)])
def test_a_sweep_replays_a_runs_recording(monkeypatch, tmp_path, subtask, hits):
    """A sweep builds the same prompts from the same shots as a run of its
    subtask, so it replays the run's recording without a miss."""
    cases = toy_dataset_path()
    run_pipeline(config(
        tmp_path, cases, "run", subtasks=[subtask],
        provider_mode="record", record_source="mock",
    ))
    generators = []
    build = pipeline.build_generator
    monkeypatch.setattr(
        pipeline, "build_generator", lambda cfg: generators.append(build(cfg)) or generators[-1]
    )
    result = run_sweep(config(tmp_path, cases, "sweep", provider_mode="replay"), subtask)
    stats = generators[0].stats()
    assert (stats["hits"], stats["misses"]) == (hits, 0)
    sweep_file = tmp_path / "sweep" / f"{subtask}_sweep.json"
    assert json.loads(sweep_file.read_text(encoding="utf-8")) == result


ST1_TO_ST4 = ["st1", "st2", "st3", "st4"]


@pytest.mark.parametrize("subtask, hits", [("st2", 3 * (3 + 3)), ("st4", 3 * (3 + 2))])
def test_a_sweep_replays_an_st1_runs_recording(monkeypatch, tmp_path, subtask, hits):
    """With st1 configured a sweep runs st1 before the subtask it sweeps,
    so its prompts carry st1's question as the run's do: it replays the
    run's recording without a miss, st1's 3 calls a case included."""
    cases = toy_dataset_path()
    run_pipeline(config(
        tmp_path, cases, "run", subtasks=ST1_TO_ST4,
        provider_mode="record", record_source="mock",
    ))
    generators = []
    build = pipeline.build_generator
    monkeypatch.setattr(
        pipeline, "build_generator", lambda cfg: generators.append(build(cfg)) or generators[-1]
    )
    sweep_cfg = config(tmp_path, cases, "sweep", subtasks=ST1_TO_ST4, provider_mode="replay")
    run_sweep(sweep_cfg, subtask)
    stats = generators[0].stats()
    assert (stats["hits"], stats["misses"]) == (hits, 0)


# sha256 of each file that a mock sweep of the toy set writes for an
# st2-st4 config: the run's chain, cut after the swept subtask, gives the
# tallies of the ensemble alone.
SWEEP_SHA256 = {
    "st2": {
        "best_k.txt": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
        "st2_sweep.json": "b5c745a1d4857fcbfd4b2172bacc6c6589fc0bc9bdd28387235eebfb9a7ec489",
    },
    "st4": {
        "best_vote_threshold.txt":
            "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
        "st4_sweep.json": "9dc61842e275ad10ac4433cadd287436abf10c82cc76c0487552af26b7805ff8",
    },
}


@pytest.mark.parametrize("subtask", ["st2", "st4"])
def test_a_sweep_without_st1_writes_its_pinned_bytes(tmp_path, subtask):
    run_sweep(config(tmp_path, toy_dataset_path(), "sweep", subtasks=ST1_TO_ST4[1:]), subtask)
    out = tmp_path / "sweep"
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert written == SWEEP_SHA256[subtask]
