"""The bytes of a whole mock run, pinned: the st1-st4 outputs of 40 seeded
``bench/casegen.py`` cases with st3 rerank and st4 recall on, at one and two
workers, and the entries of a record run (embedding vectors included).

The mock generator and the hash embedder are test scaffolding, but their
outputs are the pipeline's inputs in every offline run, so a rewrite of
either must leave these digests as they are."""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from ehrqa import pipeline

BENCH = Path(__file__).resolve().parent.parent / "bench"

OUTPUT_SHA256 = {
    "st1.jsonl": "3b914f79c3dfd29f504139f01dc7357d9d8f3bff96001584026e2865eb8f305c",
    "st1_candidates.jsonl": "c039863f55134443ccbf8c9fda1e618a7c842274680426c506dfc0cd3ba8c0e9",
    "st2.jsonl": "e5f5934d970c350036f048a82229d668b55004e7071248aa4af96721dfc82a4e",
    "st3.jsonl": "a36c0d3d81a429954202ae7f41af61fd5de0d3e1b49e42fbbf218264cdda8475",
    "st4.jsonl": "c0274d488656e28e3bab3d94290c6ebcd1063b0df0ec866c7a5817b31ca85463",
}
# sha256 over each cache entry's file name and bytes, in name order: the
# generator's .json entries and the embedder's .f64 ones.
CACHE_SHA256 = "bac887ab786a9266e36689233a83f3f612d84ffd35f137ed82c6513768ba5a93"


@pytest.fixture(scope="module")
def cases(tmp_path_factory):
    spec = importlib.util.spec_from_file_location("bench_casegen", BENCH / "casegen.py")
    casegen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(casegen)
    return casegen.write_cases(40, 7, tmp_path_factory.mktemp("pins") / "cases.jsonl")


def run(cases: Path, out: Path, mode: str, workers: int) -> Path:
    pipeline.run_pipeline(pipeline.resolve_config({
        "dataset": {"cases": str(cases)},
        "subtasks": ["st1", "st2", "st3", "st4"],
        "provider_mode": mode,
        "record_source": "mock",
        "cache_dir": str(out / "cache"),
        "out_dir": str(out / "out"),
        "workers": workers,
        "st3": {"rerank": True},
        "st4": {"recall": {"enabled": True}},
    }))
    return out


def output_digests(out: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted((out / "out").glob("*.jsonl"))
    }


@pytest.mark.parametrize("workers", [1, 2])
def test_mock_run_outputs_are_pinned(cases, tmp_path, workers):
    assert output_digests(run(cases, tmp_path, "mock", workers)) == OUTPUT_SHA256


def test_record_run_entries_are_pinned(cases, tmp_path):
    out = run(cases, tmp_path, "record", 1)
    assert output_digests(out) == OUTPUT_SHA256
    digest = hashlib.sha256()
    entries = sorted([*(out / "cache").glob("*.json"), *(out / "cache").glob("*.f64")])
    assert sum(entry.suffix == ".f64" for entry in entries) == 80
    for entry in entries:
        digest.update(entry.name.encode())
        digest.update(entry.read_bytes())
    assert digest.hexdigest() == CACHE_SHA256
