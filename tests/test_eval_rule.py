"""One eval path: ``ehrqa eval`` scores every subtask by one body that
reads the subtask's row of ``cli.EVAL_ROWS``. The source check fails on a
branch per subtask; the pins fail on any change to a report's bytes."""

import ast
import hashlib
import inspect

from ehrqa import cli
from ehrqa.cli import main
from ehrqa.dataset import toy_dataset_path
from ehrqa.pipeline import SUBTASK_ORDER, resolve_config, run_pipeline


def test_cmd_eval_compares_the_subtask_with_no_string_literal():
    tree = ast.parse(inspect.getsource(cli.cmd_eval))
    compares = [node for node in ast.walk(tree) if isinstance(node, ast.Compare)]
    literal = [
        ast.unparse(node)
        for node in compares
        for side in (node.left, *node.comparators)
        if isinstance(side, ast.Constant) and isinstance(side.value, str)
    ]
    assert literal == []
    assert set(cli.EVAL_ROWS) == set(SUBTASK_ORDER)


# sha256 of the report each eval writes for a mock st1-st4 run of the toy
# set (st3 rerank and st4 recall on).
REPORT_SHA256 = {
    "st1_report.json": "1e896a71b9cbed5529c7e25d051c2adef2f87a7dbad6b0dd8750107ba867a7cf",
    "st2_report.json": "c4c2af7e2e85b243523aa47f8e4c4d4a67eb828f4568c5959c140ae921ffcd24",
    "st3_report.json": "e0f9c9ee6d55c8811338589a969a54da018240f15ecd98fa5408f8a468cc4471",
    "st4_report.json": "1fbd2eefb1ac9afe4bcab8604ef578d738efcc7c9ef397af6da06081656e0ac8",
}


def test_the_reports_of_a_mock_run_keep_their_pinned_bytes(tmp_path):
    cases = toy_dataset_path()
    run_pipeline(resolve_config({
        "dataset": {"cases": str(cases)},
        "subtasks": list(SUBTASK_ORDER),
        "provider_mode": "mock",
        "cache_dir": str(tmp_path / "cache"),
        "out_dir": str(tmp_path / "run"),
        "workers": 1,
        "st3": {"rerank": True},
        "st4": {"recall": {"enabled": True}},
    }))
    reports = tmp_path / "reports"
    for subtask in SUBTASK_ORDER:
        pred = tmp_path / "run" / f"{subtask}.jsonl"
        argv = ["eval", "--pred", str(pred), "--gold", str(cases), "--subtask", subtask]
        assert main([*argv, "--out", str(reports)]) == 0
    written = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in reports.glob("*.json")
    }
    assert written == REPORT_SHA256
