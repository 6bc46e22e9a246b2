"""A run's setup: the config's objects and the sorted few-shot pool are
built once per run, and each case only picks its leave-one-out shots from
that pool. What each preset sets up is pinned by the bytes of its outputs,
and a sweep of a run's votes by the bytes of its files."""

import hashlib
import importlib.util
import json
from collections import Counter
from pathlib import Path

import pytest

from ehrqa import pipeline
from ehrqa.dataset import toy_dataset_path
from ehrqa.pipeline import resolve_config, run_pipeline, run_sweep
from ehrqa.prompting import make_contrast_example
from tests.conftest import simple_case

BENCH = Path(__file__).resolve().parent.parent / "bench"
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
    """Calls of each ``PER_RUN`` function in an st1-st4 run."""
    all_subtasks = ["st1", "st2", "st3", "st4"]
    run_cfg = config(
        tmp_path, cases, "run", subtasks=all_subtasks,
        st3={"rerank": True}, st4={"recall": {"enabled": True}},
    )
    calls = Counter()
    with monkeypatch.context() as patch:
        for name in PER_RUN:
            original = getattr(pipeline, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            patch.setattr(pipeline, name, counted)
        run_pipeline(run_cfg)
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


ST1_TO_ST4 = ["st1", "st2", "st3", "st4"]


# sha256 of each file that a sweep writes of the votes of a mock st2-st4
# run of the toy set: a tally is cast before any merge, so it holds the
# votes of the ensemble alone.
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
    run_pipeline(config(tmp_path, toy_dataset_path(), "run", subtasks=ST1_TO_ST4[1:]))
    out = tmp_path / "sweep"
    run_sweep(tmp_path / "run", toy_dataset_path(), subtask, out)
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert written == SWEEP_SHA256[subtask]

# sha256 over the name and bytes of each st*.jsonl, in name order, that a
# mock run of each preset writes for 40 seeded ``bench/casegen.py`` cases,
# with the preset's own subtasks.
PRESET_SHA256 = {
    "st2-10shot-majority": "c10fabce0248efe7b170df56a2e4d8a686f2e8521cf6455c0dc41cc98cbe16d8",
    "st2-10shot-union": "c10fabce0248efe7b170df56a2e4d8a686f2e8521cf6455c0dc41cc98cbe16d8",
    "st2-19shot-union": "c10fabce0248efe7b170df56a2e4d8a686f2e8521cf6455c0dc41cc98cbe16d8",
    "st2-3shot-union": "c10fabce0248efe7b170df56a2e4d8a686f2e8521cf6455c0dc41cc98cbe16d8",
    "st2-4model-union": "c10fabce0248efe7b170df56a2e4d8a686f2e8521cf6455c0dc41cc98cbe16d8",
    "st2-contrast-union": "c10fabce0248efe7b170df56a2e4d8a686f2e8521cf6455c0dc41cc98cbe16d8",
    "st2-union-postproc": "c10fabce0248efe7b170df56a2e4d8a686f2e8521cf6455c0dc41cc98cbe16d8",
    "st2-union-postproc-enhanced": "c10fabce0248efe7b170df56a2e4d8a686f2e8521cf6455c0dc41cc98cbe16d8",
    "st3-ensemble": "9faff103eaaaf4ab3446ee9c4485fe7f1a37187c2101160f4666ca36587a5495",
    "st3-ensemble-15shot": "9faff103eaaaf4ab3446ee9c4485fe7f1a37187c2101160f4666ca36587a5495",
    "st3-faithful-ensemble": "9faff103eaaaf4ab3446ee9c4485fe7f1a37187c2101160f4666ca36587a5495",
    "st3-single": "f1160782af22a5a9e11ae37ba2c8b20bcffe5c1dba0f06bc9765513601ac4bbb",
    "st4-embedding-only": "09922e7911e58000470fb04fc950f97b945a358955a3c98652c55166f88c3f36",
    "st4-majority": "80bd47a6f68771029b628067c211973686b99a91d9fa42f5440da76e440df38d",
    "st4-rescue": "2ea36af26d857028ce86dd52f4ccf13de8a36be7dbf2acf3057d7740c017bd96",
    "st4-selfconsistency": "80bd47a6f68771029b628067c211973686b99a91d9fa42f5440da76e440df38d",
}


@pytest.fixture(scope="module")
def casegen_cases(tmp_path_factory):
    spec = importlib.util.spec_from_file_location("bench_casegen", BENCH / "casegen.py")
    casegen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(casegen)
    return casegen.write_cases(40, 7, tmp_path_factory.mktemp("presets") / "cases.jsonl")


def test_every_preset_is_pinned():
    assert set(PRESET_SHA256) == set(pipeline.PRESETS)


@pytest.mark.parametrize("preset", sorted(PRESET_SHA256))
def test_each_presets_outputs_are_pinned(casegen_cases, tmp_path, preset):
    out = tmp_path / "out"
    run_pipeline(resolve_config({
        "dataset": {"cases": str(casegen_cases)},
        "provider_mode": "mock",
        "cache_dir": str(tmp_path / "cache"),
        "out_dir": str(out),
        "workers": 1,
    }, preset=preset))
    digest = hashlib.sha256()
    for path in sorted(out.glob("st*.jsonl")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    assert digest.hexdigest() == PRESET_SHA256[preset]


def test_a_contrast_shot_needs_a_sentence_outside_its_gold():
    """Under ``st2.contrast_shots``, a pool case whose gold evidence is its
    whole note has no sentence to add, so it stays a plain shot."""
    whole = simple_case("1", n_sentences=3, gold_evidence={"1", "2", "3"})
    part = simple_case("2", n_sentences=3, gold_evidence={"2"})
    run_cfg = resolve_config({"st2": {"shots": 2, "contrast_shots": True}})
    run = pipeline.RunSetup(run_cfg, {}, [whole, part], None)
    plain, contrast = pipeline._shots(run, simple_case("3"), "st2")
    assert plain is whole
    assert contrast == make_contrast_example(part)
    assert contrast.bad_ids == {"1", "2"}
