import json
from pathlib import Path

import pytest

from ehrqa import report
from ehrqa.cli import main
from ehrqa.core import ConfigError
from ehrqa.dataset import toy_dataset_path
from ehrqa.pipeline import (
    PRESETS,
    config_hash,
    resolve_config,
    run_pipeline,
    run_sweep,
)


def base_config(tmp_path, **overrides):
    config = {
        "dataset": {"cases": str(toy_dataset_path()), "split": "dev"},
        "provider_mode": "mock",
        "out_dir": str(tmp_path / "out"),
        "cache_dir": str(tmp_path / "cache"),
        "workers": 1,
    }
    config.update(overrides)
    return config


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestResolveConfig:
    def test_preset_overlays(self):
        config = resolve_config(
            {"dataset": {"cases": "x.jsonl"}}, preset="st2-10shot-majority"
        )
        assert config["st2"]["merge"]["mode"] == "majority_st2"
        assert config["st2"]["shots"] == 10

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            resolve_config({}, preset="nope")

    def test_every_preset_resolves(self):
        for name in PRESETS:
            resolve_config({"dataset": {"cases": "x.jsonl"}}, preset=name)

    def test_non_random_free_rejected(self):
        with pytest.raises(ConfigError, match="random-free"):
            resolve_config({"random_free": False})

    def test_shot_caps(self):
        with pytest.raises(ConfigError, match="st1 shots"):
            resolve_config({"st1": {"shots": 6}})
        with pytest.raises(ConfigError, match="st4 shots"):
            resolve_config({"st4": {"shots": 21}})


class TestConfigHash:
    # golden pin: any change to the default configuration must be deliberate
    DEFAULT_HASH = "9cbaa0ba625293c00baa938dd9b7f33506f6c7d4ee4472a1410e9aeaa1a5fd2d"

    def test_default_config_hash_pinned(self):
        assert config_hash(resolve_config({})) == self.DEFAULT_HASH

    def test_stable(self):
        a = resolve_config({"dataset": {"cases": "x"}})
        assert config_hash(a) == config_hash(resolve_config({"dataset": {"cases": "x"}}))

    def test_changes_with_any_field(self):
        base = resolve_config({"dataset": {"cases": "x"}})
        for overlay in (
            {"workers": 9},
            {"st2": {"shots": 4}},
            {"st4": {"recall": {"tau": 0.5}}},
            {"dataset": {"cases": "y"}},
        ):
            changed = resolve_config({"dataset": {"cases": "x"}}, overrides=overlay)
            assert config_hash(changed) != config_hash(base)


class TestRunPipeline:
    def test_mock_smoke_writes_all_outputs(self, tmp_path):
        config = resolve_config(
            base_config(tmp_path, subtasks=["st1", "st2", "st3", "st4"])
        )
        manifest = run_pipeline(config)
        out = tmp_path / "out"
        for name in ("st1.jsonl", "st2.jsonl", "st3.jsonl", "st4.jsonl", "manifest.json"):
            assert (out / name).exists()
        records = [json.loads(l) for l in (out / "st2.jsonl").read_text().splitlines()]
        assert len(records) == 3
        assert manifest["cases"] == ["1", "2", "3"]

    def test_missing_dataset_path_errors_with_path(self, tmp_path):
        config = resolve_config(
            base_config(tmp_path, dataset={"cases": str(tmp_path / "missing.jsonl")})
        )
        with pytest.raises(Exception, match="missing.jsonl"):
            run_pipeline(config)

    def test_record_then_replay_trees_byte_identical(self, tmp_path):
        record_cfg = resolve_config(
            base_config(
                tmp_path,
                subtasks=["st2", "st3", "st4"],
                provider_mode="record",
                record_source="mock",
                out_dir=str(tmp_path / "out0"),
            )
        )
        run_pipeline(record_cfg)

        replay_cfg = resolve_config(
            base_config(
                tmp_path,
                subtasks=["st2", "st3", "st4"],
                provider_mode="replay",
                out_dir=str(tmp_path / "out"),
            )
        )
        trees = []
        for _ in (1, 2):
            run_pipeline(replay_cfg)
            trees.append(tree_bytes(tmp_path / "out"))
        assert trees[0] == trees[1]

    def test_worker_count_never_changes_outputs(self, tmp_path):
        trees = {}
        for workers in (1, 4):
            out = tmp_path / f"out_w{workers}"
            config = resolve_config(
                base_config(
                    tmp_path,
                    subtasks=["st1", "st2", "st3", "st4"],
                    out_dir=str(out),
                    workers=workers,
                )
            )
            run_pipeline(config)
            trees[workers] = {
                name: data
                for name, data in tree_bytes(out).items()
                if name != "manifest.json"  # manifest embeds the config hash
            }
        assert trees[1] == trees[4]

    def test_replay_makes_zero_network_calls(self, tmp_path, monkeypatch):
        record_cfg = resolve_config(
            base_config(
                tmp_path,
                subtasks=["st2"],
                provider_mode="record",
                record_source="mock",
            )
        )
        run_pipeline(record_cfg)

        # any attempt to create a live provider or socket now fails loudly
        import socket

        def deny(*args, **kwargs):
            raise AssertionError("network touched during replay")

        monkeypatch.setattr(socket.socket, "connect", deny)
        replay_cfg = resolve_config(
            base_config(
                tmp_path,
                subtasks=["st2"],
                provider_mode="replay",
                out_dir=str(tmp_path / "out2"),
            )
        )
        manifest = run_pipeline(replay_cfg)
        assert manifest["cache"]["misses"] == 0


class TestChaining:
    """The generated clinician question and evidence flow downstream."""

    def capture_generator(self, monkeypatch):
        from ehrqa import pipeline
        from ehrqa.providers import GenResponse, PipelineMockProvider

        prompts: dict[str, str] = {}
        inner = PipelineMockProvider()

        class Capture:
            def generate(self, request):
                prompts[request.request_tag] = "\n".join(
                    m.content for m in request.messages
                )
                return inner.generate(request)

        monkeypatch.setattr(pipeline, "build_generator", lambda config: Capture())
        return prompts

    def test_st1_question_feeds_st2_prompt(self, tmp_path, monkeypatch):
        prompts = self.capture_generator(monkeypatch)
        config = resolve_config(base_config(tmp_path, subtasks=["st1", "st2"]))
        run_pipeline(config)
        st1_out = json.loads((tmp_path / "out" / "st1.jsonl").read_text().splitlines()[0])
        st2_prompt = next(v for k, v in prompts.items() if k.startswith("1/st2/"))
        assert st1_out["clinician_question"] in st2_prompt

    def test_st2_evidence_feeds_st3_prompt(self, tmp_path, monkeypatch):
        prompts = self.capture_generator(monkeypatch)
        config = resolve_config(base_config(tmp_path, subtasks=["st2", "st3"]))
        run_pipeline(config)
        st2_out = json.loads((tmp_path / "out" / "st2.jsonl").read_text().splitlines()[0])
        st3_prompt = next(v for k, v in prompts.items() if k.startswith("1/st3s1/"))
        for evidence_id in st2_out["evidence_ids"]:
            assert f"\n{evidence_id}. " in st3_prompt.split("Full note:")[0]

    def test_st4_can_align_st3_answers(self, tmp_path, monkeypatch):
        self.capture_generator(monkeypatch)
        config = resolve_config(base_config(tmp_path, subtasks=["st3", "st4"]))
        config["st4"]["answers_from"] = "st3"
        run_pipeline(config)
        st3_out = {
            json.loads(l)["case_id"]: json.loads(l)["answer_text"]
            for l in (tmp_path / "out" / "st3.jsonl").read_text().splitlines()
        }
        st4_out = [
            json.loads(l) for l in (tmp_path / "out" / "st4.jsonl").read_text().splitlines()
        ]
        from ehrqa.st4 import segment_answer

        for record in st4_out:
            expected_ids = [aid for aid, _ in segment_answer(st3_out[record["case_id"]])]
            assert [a["answer_id"] for a in record["alignments"]] == expected_ids


class TestSweep:
    def test_st4_sweep_writes_threshold_file(self, tmp_path):
        config = resolve_config(base_config(tmp_path, subtasks=["st4"]))
        result = run_sweep(config, "st4")
        path = tmp_path / "out" / "best_vote_threshold.txt"
        content = path.read_text()
        assert content == f"{result['best_threshold']}\n"
        assert content.strip().isdigit()

    def test_frontier_recall_never_increases(self, tmp_path):
        config = resolve_config(base_config(tmp_path, subtasks=["st4"]))
        config["st4"]["plan"]["members"][0]["samples"] = 2
        config["st4"]["plan"]["members"][1]["samples"] = 2
        result = run_sweep(config, "st4")
        recalls = [row["micro_r"] for row in result["frontier"]]
        assert recalls == sorted(recalls, reverse=True)

    def test_fixture_frontier_matches_hand_values(self):
        # one case, gold {(1,3)}; spurious link (1,7) has a single vote
        from ehrqa.st4 import LinkVoteTally, sweep_threshold
        from tests.conftest import simple_case

        case = simple_case(
            "a", n_sentences=8, answers=(("1", "x."),), gold_alignments=[("1", {"3"})]
        )
        tally = LinkVoteTally(votes={("1", "3"): 3, ("1", "7"): 1}, total_votes=3)
        best, frontier = sweep_threshold([(tally, [("1", ["3"])], case)])
        assert best == 2
        assert [round(r["micro_p"], 4) for r in frontier] == [0.5, 1.0, 1.0]
        assert [round(r["micro_r"], 4) for r in frontier] == [1.0, 1.0, 1.0]
        precisions = [r["micro_p"] for r in frontier]
        recalls = [r["micro_r"] for r in frontier]
        assert precisions == sorted(precisions)
        assert recalls == sorted(recalls, reverse=True)

    def test_st2_sweep_best_k(self, tmp_path):
        config = resolve_config(base_config(tmp_path, subtasks=["st2"]))
        result = run_sweep(config, "st2")
        assert (tmp_path / "out" / "best_k.txt").read_text() == f"{result['best_k']}\n"

    def test_swept_threshold_reused_by_run(self, tmp_path):
        # sweep writes the file; a later run consumes it as a manual threshold
        config = resolve_config(base_config(tmp_path, subtasks=["st4"]))
        config["st4"]["plan"]["members"][0]["samples"] = 2
        config["st4"]["plan"]["members"][1]["samples"] = 2
        run_sweep(config, "st4")
        threshold_path = tmp_path / "out" / "best_vote_threshold.txt"

        run_cfg = resolve_config(base_config(tmp_path, subtasks=["st4"]))
        run_cfg["st4"]["plan"] = config["st4"]["plan"]
        run_cfg["st4"]["threshold_file"] = str(threshold_path)
        run_pipeline(run_cfg)

        k = int(threshold_path.read_text())
        records = [
            json.loads(l)
            for l in (tmp_path / "out" / "st4.jsonl").read_text().splitlines()
        ]
        assert records  # manual-k merge executed without error
        assert k >= 1

    def test_sweep_requires_gold(self, tmp_path):
        # strip gold by writing a test-split copy without gold fields
        cases = []
        for line in toy_dataset_path().read_text().splitlines():
            record = json.loads(line)
            record["gold_alignments"] = None
            record["gold_evidence"] = None
            cases.append(record)
        stripped = tmp_path / "nogold.jsonl"
        stripped.write_text("\n".join(json.dumps(r) for r in cases) + "\n")
        config = resolve_config(
            base_config(tmp_path, dataset={"cases": str(stripped), "split": "test"})
        )
        with pytest.raises(ConfigError, match="gold"):
            run_sweep(config, "st4")


class TestCliCommands:
    def test_run_exit_zero(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(base_config(tmp_path, subtasks=["st2"])))
        assert main(["run", "--config", str(config_path)]) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["subtasks"] == ["st2"]

    def test_malformed_config_exits_nonzero(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text("{not json")
        assert main(["run", "--config", str(config_path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_run_missing_dataset_exits_nonzero(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(base_config(tmp_path, dataset={"cases": str(tmp_path / "nope.jsonl")}))
        )
        assert main(["run", "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert "nope.jsonl" in err

    def test_eval_perfect_st2(self, tmp_path, capsys):
        pred = tmp_path / "st2.jsonl"
        records = []
        for line in toy_dataset_path().read_text().splitlines():
            case = json.loads(line)
            records.append({"case_id": case["case_id"], "evidence_ids": case["gold_evidence"]})
        pred.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        code = main(
            ["eval", "--pred", str(pred), "--gold", str(toy_dataset_path()), "--subtask", "st2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "100.00" in out

    def test_eval_empty_predictions_zero_recall(self, tmp_path, capsys):
        pred = tmp_path / "st2.jsonl"
        records = []
        for line in toy_dataset_path().read_text().splitlines():
            case = json.loads(line)
            records.append({"case_id": case["case_id"], "evidence_ids": []})
        pred.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        out_dir = tmp_path / "report"
        code = main(
            [
                "eval",
                "--pred", str(pred),
                "--gold", str(toy_dataset_path()),
                "--subtask", "st2",
                "--out", str(out_dir),
            ]
        )
        assert code == 0
        report = json.loads((out_dir / "st2_report.json").read_text())
        assert report["corpus"]["μR"] == 0.0
        assert set(report["per_case"]) == {"1", "2", "3"}
        assert all(row["R"] == 0.0 for row in report["per_case"].values())

    def test_eval_unmatched_case_ids_error(self, tmp_path, capsys):
        pred = tmp_path / "st2.jsonl"
        pred.write_text(json.dumps({"case_id": "999", "evidence_ids": []}) + "\n")
        code = main(
            ["eval", "--pred", str(pred), "--gold", str(toy_dataset_path()), "--subtask", "st2"]
        )
        assert code == 1
        assert "999" in capsys.readouterr().err

    def test_eval_st4_hand_fixture(self, tmp_path, capsys):
        pred = tmp_path / "st4.jsonl"
        records = []
        for line in toy_dataset_path().read_text().splitlines():
            case = json.loads(line)
            records.append(
                {
                    "case_id": case["case_id"],
                    "alignments": [
                        {"answer_id": a["answer_id"], "evidence_id": a["evidence_ids"]}
                        for a in case["gold_alignments"]
                    ],
                }
            )
        pred.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        code = main(
            ["eval", "--pred", str(pred), "--gold", str(toy_dataset_path()), "--subtask", "st4"]
        )
        assert code == 0
        assert "100.00" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "subtask,field,gold_field",
        [("st1", "clinician_question", "clinician_question"),
         ("st3", "answer_text", "answer_paragraph")],
    )
    def test_eval_scores_each_case_once(self, tmp_path, monkeypatch, subtask, field, gold_field):
        calls = []
        real_sari = report.sari

        def counting_sari(*args, **kwargs):
            calls.append(args)
            return real_sari(*args, **kwargs)

        monkeypatch.setattr(report, "sari", counting_sari)
        pred = tmp_path / f"{subtask}.jsonl"
        records = [json.loads(line) for line in toy_dataset_path().read_text().splitlines()]
        pred.write_text(
            "\n".join(json.dumps({"case_id": r["case_id"], field: r[gold_field]}) for r in records)
            + "\n"
        )
        code = main(
            [
                "eval",
                "--pred", str(pred),
                "--gold", str(toy_dataset_path()),
                "--subtask", subtask,
                "--out", str(tmp_path / "report"),
            ]
        )
        assert code == 0
        assert len(calls) == len(records)
        report_json = json.loads((tmp_path / "report" / f"{subtask}_report.json").read_text())
        assert "SARI" in report_json["corpus"]
        assert all("SARI" in row for row in report_json["per_case"].values())

    def test_cache_inspect_and_prune(self, tmp_path, capsys):
        config = resolve_config(
            base_config(tmp_path, subtasks=["st2"], provider_mode="record", record_source="mock")
        )
        run_pipeline(config)
        cache_dir = str(tmp_path / "cache")
        assert main(["cache", "inspect", "--cache-dir", cache_dir]) == 0
        assert "cached response(s)" in capsys.readouterr().out
        assert main(["cache", "prune", "--cache-dir", cache_dir]) == 0
        assert "removed" in capsys.readouterr().out

    def test_sweep_command(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(base_config(tmp_path)))
        assert main(["sweep", "--config", str(config_path), "--subtask", "st4"]) == 0
        assert "best_threshold" in capsys.readouterr().out
