"""``ehrqa sweep`` held to a plain reference: from the votes files a mock
run writes and the gold case file, micro precision, recall and F1 at every
threshold are recomputed with set operations alone, without ``vote`` or
``st4``. A key is predicted at threshold t when at least t runs voted for
it and its note sentence is in the case's note; the best threshold is the
smallest with the highest F1. Covered: st2 and st4, under the default
config and the two voting presets, on the toy set and 40 casegen cases.

The mock backend's members all vote alike, so each of its frontiers is
flat; seeded votes files, with counts spread over every threshold and keys
outside the note, give the comparison its teeth."""

import importlib.util
import json
import random
from pathlib import Path

import pytest

from ehrqa.cli import main
from ehrqa.dataset import toy_dataset_path

BENCH = Path(__file__).resolve().parent.parent / "bench"

# (preset or None for the default config, the subtasks its run writes votes for)
CONFIGS = [
    (None, ["st2", "st4"]), ("st2-10shot-majority", ["st2"]), ("st4-selfconsistency", ["st4"])
]


@pytest.fixture(scope="module")
def datasets(tmp_path_factory):
    spec = importlib.util.spec_from_file_location("bench_casegen", BENCH / "casegen.py")
    casegen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(casegen)
    casegen_cases = casegen.write_cases(40, 7, tmp_path_factory.mktemp("sweep") / "cases.jsonl")
    return {"toy": toy_dataset_path(), "casegen": casegen_cases}


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def reference_sweep(votes: list[dict], gold_records: list[dict], subtask: str):
    """(best threshold, frontier rows) by brute force over every threshold."""
    gold_by_case = {r["case_id"]: r for r in gold_records}
    cases = []
    for record in votes:
        gold = gold_by_case[record["case_id"]]
        note = {str(s["id"]) for s in gold["note"]}
        if subtask == "st2":
            counts = dict(record["votes"])
            truth = {str(i) for i in gold["gold_evidence"]}
            in_note = {key for key in counts if key in note}
        else:
            counts = {
                (a, e): c for a, inner in record["votes"].items() for e, c in inner.items()
            }
            truth = {
                (str(a["answer_id"]), str(e))
                for a in gold["gold_alignments"] for e in a["evidence_ids"]
            }
            in_note = {key for key in counts if key[1] in note}
        cases.append((counts, in_note, truth, record["total_votes"]))
    rows = []
    for theta in range(1, max(total for *_, total in cases) + 1):
        tp = fp = fn = 0
        for counts, in_note, truth, _ in cases:
            predicted = {key for key in in_note if counts[key] >= theta}
            tp += len(predicted & truth)
            fp += len(predicted - truth)
            fn += len(truth - predicted)
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        rows.append((theta, p, r, 2 * p * r / (p + r) if p + r else 0.0))
    best = max(rows, key=lambda row: (row[3], -row[0]))[0]
    return best, rows


def check_sweep(run_dir: Path, cases: Path, subtask: str, out: Path) -> list[tuple]:
    """Run ``ehrqa sweep`` on ``run_dir``'s votes and hold every file it
    writes to the reference; returns the reference rows."""
    sweep = ["sweep", "--run", str(run_dir), "--gold", str(cases), "--subtask", subtask,
             "--out", str(out)]
    assert main(sweep) == 0
    votes = read_jsonl(run_dir / "votes" / f"{subtask}.jsonl")
    assert len(votes) == len(read_jsonl(cases))
    best, rows = reference_sweep(votes, read_jsonl(cases), subtask)
    name, best_key, best_file = (
        ("k", "best_k", "best_k.txt") if subtask == "st2"
        else ("theta", "best_threshold", "best_vote_threshold.txt")
    )
    result = json.loads((out / f"{subtask}_sweep.json").read_text(encoding="utf-8"))
    assert result[best_key] == best
    assert (out / best_file).read_text(encoding="utf-8") == f"{best}\n"
    assert [row[name] for row in result["frontier"]] == [theta for theta, *_ in rows]
    for row, (_, p, r, f1) in zip(result["frontier"], rows):
        assert (row["micro_p"], row["micro_r"], row["micro_f1"]) == pytest.approx(
            (p, r, f1), abs=1e-12
        )
    return rows


@pytest.mark.parametrize("dataset", ["toy", "casegen"])
@pytest.mark.parametrize("preset, subtasks", CONFIGS)
def test_the_sweep_of_a_runs_votes_equals_the_reference(
    datasets, tmp_path, dataset, preset, subtasks
):
    cases = datasets[dataset]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"subtasks": subtasks}))
    preset_args = ["--preset", preset] if preset else []
    run = ["run", "--config", str(config), *preset_args, "--cases", str(cases),
           "--provider-mode", "mock", "--out", str(tmp_path / "run"), "--workers", "1"]
    assert main(run) == 0
    for subtask in subtasks:
        check_sweep(tmp_path / "run", cases, subtask, tmp_path / f"sweep-{subtask}")


def seeded_votes(gold_records: list[dict], subtask: str, seed: int) -> list[dict]:
    """A votes record per case: each note sentence (and, in st4, each
    answer) and one ID outside the note voted for by a seeded count of up
    to 5 runs, or left out."""
    rng = random.Random(seed)
    records = []
    for gold in gold_records:
        total = rng.randint(1, 5)
        ids = [str(s["id"]) for s in gold["note"]] + ["999"]

        def counts():
            return {i: rng.randint(1, total) for i in ids if rng.random() < 0.6}

        if subtask == "st2":
            votes = counts()
        else:
            answers = [str(a["answer_id"]) for a in gold["gold_alignments"]]
            votes = {a: inner for a in answers if (inner := counts())}
        records.append({"case_id": gold["case_id"], "total_votes": total, "votes": votes})
    return records


@pytest.mark.parametrize("dataset", ["toy", "casegen"])
@pytest.mark.parametrize("subtask", ["st2", "st4"])
@pytest.mark.parametrize("seed", range(5))
def test_the_sweep_of_seeded_votes_equals_the_reference(
    datasets, tmp_path, dataset, subtask, seed
):
    cases = datasets[dataset]
    votes = seeded_votes(read_jsonl(cases), subtask, seed)
    path = tmp_path / "run" / "votes" / f"{subtask}.jsonl"
    path.parent.mkdir(parents=True)
    path.write_text("".join(json.dumps(r) + "\n" for r in votes), encoding="utf-8")
    rows = check_sweep(tmp_path / "run", cases, subtask, tmp_path / "sweep")
    assert len({f1 for *_, f1 in rows}) > 1  # the frontier is not flat
