import copy
import json
import re
from pathlib import Path

import pytest

from ehrqa import pipeline, report
from ehrqa.cli import main
from ehrqa.core import ConfigError
from ehrqa.dataset import load_cases, toy_dataset_path
from ehrqa.pipeline import (
    DEFAULT_CONFIG,
    PRESETS,
    config_hash,
    resolve_config,
    run_pipeline,
    run_sweep,
)
from ehrqa.prompting import Message
from ehrqa.providers import embed_cache_key, request_cache_key
from ehrqa.vote import plan_requests


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


def config_leaves(value, path=""):
    """(config path, default) of each field of DEFAULT_CONFIG that is not
    an object; a list's first element and its fields are fields too."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from config_leaves(item, f"{path}.{key}" if path else key)
        return
    yield path, value
    if isinstance(value, list):
        yield from config_leaves(value[0], f"{path}[0]")


def with_field(path: str, value) -> dict:
    """DEFAULT_CONFIG with the field at config path ``path`` set to ``value``."""
    config = section = copy.deepcopy(DEFAULT_CONFIG)
    *parents, last = [int(k) if k.isdigit() else k for k in re.findall(r"[^.\[\]]+", path)]
    for key in parents:
        section = section[key]
    section[last] = value
    return config


# What a field takes, by the type of its default, and values it does not
# take; the boolean fields have a test of their own.
WRONG_VALUES = {
    int: ("an integer", [2.5, "4", True, None]),
    float: ("a number", ["0.5", True, None]),
    str: ("a string", [5, None, ["x"]]),
    list: ("a non-empty list", ["x", {}, [], None]),
    type(None): ("a string or null", [5, Path("x.jsonl"), False]),
}
NUMBER_OR_NULL = ("a number or null", ["high", True, [0.5]])


def wrong_fields():
    for path, default in config_leaves(DEFAULT_CONFIG):
        if isinstance(default, bool):
            continue
        kind, values = (
            NUMBER_OR_NULL if path == "st2.confidence_floor" else WRONG_VALUES[type(default)]
        )
        for value in values:
            yield pytest.param(
                path, value, f"{path}: must be {kind}, got {value!r}", id=f"{path}-{value!r}"
            )


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

    @pytest.mark.parametrize("workers", [0, -3, 2.5, "4", True, None])
    def test_workers_must_be_a_positive_integer(self, workers):
        with pytest.raises(ConfigError, match="workers"):
            resolve_config({"workers": workers})

    @pytest.mark.parametrize(
        "overlay, path",
        [
            ({"st4": {"recall": {"tau": 5}}}, "st4.recall.tau"),
            ({"st2": {"merge": {"mode": "bogus"}}}, "st2.merge"),
            ({"st2": {"merge": {"mode": "manual"}}}, "st2.merge"),
            ({"st4": {"merge": {"mode": "manual", "k": 0}}}, "st4.merge"),
            ({"st2": {"plan": {"members": []}}}, "st2.plan.members"),
            ({"st4": {"plan": {"members": [{"temperature": 0.0}]}}}, "st4.plan"),
            ({"constraints": {"st1_max_words": 0}}, "constraints"),
        ],
    )
    def test_bad_sections_are_rejected_with_their_config_path(self, overlay, path):
        with pytest.raises(ConfigError, match=rf"^{re.escape(path)}: "):
            resolve_config(overlay)

    @pytest.mark.parametrize(
        "overlay, path",
        [
            ({"record_source": "Mock"}, "record_source"),
            ({"st4": {"mode": "ensembel"}}, "st4.mode"),
            ({"st4": {"answers_from": "keys"}}, "st4.answers_from"),
            ({"st2": {"shots": "3"}}, "st2.shots"),
            ({"st2": {"confidence_floor": "high"}}, "st2.confidence_floor"),
        ],
    )
    def test_typos_are_rejected_with_their_config_path(self, overlay, path):
        with pytest.raises(ConfigError, match=rf"^{re.escape(path)}\b"):
            resolve_config(overlay)

    def test_st3_deployments_must_be_unique(self):
        with pytest.raises(ConfigError, match="st3 deployments"):
            resolve_config({"st3": {"deployments": ["o3", "gpt-5.2", "o3"]}})

    @pytest.mark.parametrize("subtask", ["st2", "st4"])
    def test_a_plan_lists_each_deployment_once(self, subtask):
        members = [
            {"deployment": "o3", "temperature": 0.0, "samples": 1},
            {"deployment": "o3", "temperature": 1.0, "samples": 2},
        ]
        with pytest.raises(ConfigError, match=rf"^{subtask}\.plan: .*unique"):
            resolve_config({subtask: {"plan": {"members": members}}})

    BOOL_FIELDS = [
        "random_free",
        "st1.note_grounding",
        "st2.plan.extra_zero_temp_run",
        "st2.contrast_shots",
        "st2.enhanced_postproc",
        "st3.rerank",
        "st4.plan.extra_zero_temp_run",
        "st4.full_answer_context",
        "st4.recall.enabled",
    ]

    def test_the_boolean_fields_are_those_of_default_config(self):
        def bools(section, path=()):
            for key, value in section.items():
                if isinstance(value, bool):
                    yield ".".join((*path, key))
                elif isinstance(value, dict):
                    yield from bools(value, (*path, key))

        assert sorted(bools(DEFAULT_CONFIG)) == sorted(self.BOOL_FIELDS)

    @pytest.mark.parametrize("path", BOOL_FIELDS)
    @pytest.mark.parametrize("value", ["false", "no", 0, 1, None])
    def test_a_boolean_field_takes_only_true_or_false(self, path, value):
        overlay = value
        for key in reversed(path.split(".")):
            overlay = {key: overlay}
        with pytest.raises(ConfigError) as error:
            resolve_config(overlay)
        assert str(error.value) == f"{path}: must be true or false, got {value!r}"

    @pytest.mark.parametrize("path, value, error", wrong_fields())
    def test_a_field_takes_only_the_json_type_of_its_default(self, path, value, error):
        with pytest.raises(ConfigError) as raised:
            resolve_config(with_field(path, value))
        assert str(raised.value) == error

    @pytest.mark.parametrize(
        "overlay, error",
        [
            ({"st3": 5}, "st3: must be an object, got 5"),
            ({"dataset": "x"}, "dataset: must be an object, got 'x'"),
            ({"subtasks": "st2"}, "subtasks: must be a non-empty list, got 'st2'"),
            ({"subtasks": []}, "subtasks: must be a non-empty list, got []"),
            ({"subtasks": ["st5"]}, "subtasks[0]: must be one of st1, st2, st3, st4, got 'st5'"),
            ({"st1": {"deployments": []}}, "st1.deployments: must be a non-empty list, got []"),
            ({"st3": {"deployments": []}}, "st3.deployments: must be a non-empty list, got []"),
            (
                {"st3": {"deployments": "o3"}},
                "st3.deployments: must be a non-empty list, got 'o3'",
            ),
            (
                {"st2": {"plan": {"members": [{"deployment": "o3", "samples": 2.9}]}}},
                "st2.plan.members[0].samples: must be an integer, got 2.9",
            ),
            (
                {"st2": {"merge": {"mode": "manual", "k": 2.5}}},
                "st2.merge.k: must be an integer, got 2.5",
            ),
            ({"st4": {"recall": {"tau": "0.5"}}}, "st4.recall.tau: must be a number, got '0.5'"),
            ({"embedding": {"dim": "32"}}, "embedding.dim: must be an integer, got '32'"),
            ({"cache_dir": 5}, "cache_dir: must be a string, got 5"),
            (
                {"dataset": {"cases": Path("x.jsonl")}},
                f"dataset.cases: must be a string or null, got {Path('x.jsonl')!r}",
            ),
            (
                {"dataset": {"format": "csv"}},
                "dataset.format: must be one of canonical, key_overlay, got 'csv'",
            ),
            (
                {"dataset": {"split": "train"}},
                "dataset.split: must be one of dev, test, custom, got 'train'",
            ),
        ],
    )
    def test_a_misread_overlay_is_an_error_naming_its_field(self, overlay, error):
        with pytest.raises(ConfigError) as raised:
            resolve_config(overlay)
        assert str(raised.value) == error

    def test_a_section_of_the_wrong_type_fails_the_cli_in_one_line(
        self, tmp_path, monkeypatch, capsys
    ):
        def no_backend(config):
            raise AssertionError("no backend may be built for a bad config")

        monkeypatch.setattr(pipeline, "build_generator", no_backend)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"st3": 5}), encoding="utf-8")
        assert main(["run", "--config", str(config_path), "--cases", str(toy_dataset_path())]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [json.loads(line) for line in captured.err.splitlines()] == [
            {"error": "st3: must be an object, got 5", "type": "ConfigError"}
        ]

    def test_an_integer_temperature_keys_the_cache_as_its_float(self):
        messages = (Message("user", "q"),)
        keys = set()
        for temperature in (1, 1.0):
            member = {"deployment": "o3", "temperature": temperature, "samples": 1}
            config = resolve_config({"st2": {"plan": {"members": [member]}}})
            plan = pipeline.validate_config(config)["st2.plan"]
            keys |= {request_cache_key(r) for r in plan_requests("1", "st2", messages, plan)}
        assert len(keys) == 1

    def test_unknown_keys_are_rejected_by_their_config_path(self):
        overlay = {
            "worker": 2,
            "st2": {"plan": {"members": [{"deployment": "o3", "sample": 3}]}},
            "st4": {"recal": {"enabled": True}},
        }
        with pytest.raises(ConfigError) as error:
            resolve_config(overlay)
        assert str(error.value) == (
            "unknown config key(s): st2.plan.members[0].sample, st4.recal, worker"
        )

    def test_a_merge_section_takes_k(self):
        config = resolve_config({"st4": {"merge": {"mode": "manual", "k": 2}}})
        assert config["st4"]["merge"]["k"] == 2


class TestConfigHash:
    # golden pin: any change to the default configuration must be deliberate
    DEFAULT_HASH = "aefac53d670c4fd55a9881671f4b10e148605decc7fdc4e14cd27c010080ec1e"

    def test_default_config_hash_pinned(self):
        assert config_hash(resolve_config({})) == self.DEFAULT_HASH

    def test_stable(self):
        a = resolve_config({"dataset": {"cases": "x"}})
        assert config_hash(a) == config_hash(resolve_config({"dataset": {"cases": "x"}}))

    def test_changes_with_any_field(self):
        base = resolve_config({"dataset": {"cases": "x"}})
        for overlay in (
            {"st2": {"shots": 4}},
            {"st4": {"recall": {"tau": 0.5}}},
            {"dataset": {"cases": "y"}},
        ):
            changed = resolve_config({"dataset": {"cases": "x"}}, overrides=overlay)
            assert config_hash(changed) != config_hash(base)

    def test_ignores_run_only_fields(self):
        base = resolve_config({"dataset": {"cases": "x"}})
        for overlay in ({"workers": 9}, {"out_dir": "elsewhere"}, {"cache_dir": "c2"}):
            changed = resolve_config({"dataset": {"cases": "x"}}, overrides=overlay)
            assert config_hash(changed) == config_hash(base)


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

    def test_second_record_pass_resumes_from_cache(self, tmp_path, monkeypatch):
        from ehrqa import pipeline
        from ehrqa.providers import FailingProvider

        def record(out):
            config = base_config(
                tmp_path,
                subtasks=["st1", "st2", "st3", "st4"],
                provider_mode="record",
                record_source="mock",
                out_dir=str(out),
                st3={"rerank": True},
                st4={"recall": {"enabled": True}},
            )
            manifest = run_pipeline(resolve_config(config))
            tree = tree_bytes(out)
            del tree["manifest.json"]  # its cache statistics count hits and misses
            return manifest["cache"], tree

        first_cache, first_tree = record(tmp_path / "out0")
        # the second pass may reach no backend: every call must be a cache hit
        backend = FailingProvider()
        monkeypatch.setattr(pipeline, "PipelineMockProvider", lambda: backend)
        monkeypatch.setattr(pipeline, "HashEmbedder", lambda dim: backend)
        second_cache, second_tree = record(tmp_path / "out1")
        assert backend.calls == 0
        assert second_tree == first_tree
        assert second_cache == {
            "hits": first_cache["misses"], "misses": 0, "entries": first_cache["entries"]
        }
        assert second_cache["hits"] > 0

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
            trees[workers] = tree_bytes(out)
        assert "manifest.json" in trees[1]
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

    @pytest.mark.parametrize("content", [None, "three\n", "0\n", b"\xff\n", "directory"])
    def test_a_bad_threshold_file_fails_the_run_before_any_call(
        self, tmp_path, monkeypatch, capsys, content
    ):
        from ehrqa import pipeline
        from ehrqa.providers import ScriptedProvider

        threshold = tmp_path / "best_vote_threshold.txt"
        if content == "directory":
            threshold.mkdir()
        elif isinstance(content, bytes):
            threshold.write_bytes(content)
        elif content is not None:
            threshold.write_text(content)
        backend = ScriptedProvider(handler=lambda request: "[]")
        monkeypatch.setattr(pipeline, "build_generator", lambda config: backend)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(base_config(
            tmp_path, subtasks=["st1", "st2", "st3", "st4"],
            st4={"threshold_file": str(threshold)},
        )))
        assert main(["run", "--config", str(config_path)]) == 1
        error = json.loads(capsys.readouterr().err)
        assert error["type"] == "ConfigError"
        assert error["error"].startswith("st4.threshold_file: ")
        assert backend.calls == []

    def test_sweep_requires_gold(self, tmp_path, monkeypatch):
        """Every case is checked before the first call: only the last case
        has no gold, and no case makes a call."""
        from ehrqa import pipeline
        from ehrqa.providers import ScriptedProvider

        cases = [json.loads(line) for line in toy_dataset_path().read_text().splitlines()]
        cases[-1]["gold_alignments"] = cases[-1]["gold_evidence"] = None
        stripped = tmp_path / "nogold.jsonl"
        stripped.write_text("\n".join(json.dumps(r) for r in cases) + "\n")
        backend = ScriptedProvider(handler=lambda request: "[]")
        monkeypatch.setattr(pipeline, "build_generator", lambda config: backend)
        config = resolve_config(base_config(tmp_path, dataset={"cases": str(stripped)}))
        for subtask in ("st2", "st4"):
            with pytest.raises(ConfigError, match=f"case 3 has no dev gold for the {subtask}"):
                run_sweep(config, subtask)
        assert backend.calls == []


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

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_run_rejects_a_worker_count_below_one(self, tmp_path, capsys, workers):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(base_config(tmp_path)))
        assert main(["run", "--config", str(config_path), "--workers", workers]) == 1
        assert "workers" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

    def _eval_error(self, pred: Path, subtask: str, capsys) -> str:
        """The one-line JSON error of an ``ehrqa eval`` of ``pred`` that exits 1."""
        code = main(
            ["eval", "--pred", str(pred), "--gold", str(toy_dataset_path()), "--subtask", subtask]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)
        assert error["type"] == "EhrqaError"
        return error["error"]

    def test_eval_a_repeated_case_id_is_an_error(self, tmp_path, capsys):
        cases = [json.loads(line) for line in toy_dataset_path().read_text().splitlines()]
        records = [{"case_id": c["case_id"], "evidence_ids": c["gold_evidence"]} for c in cases]
        records.append({"case_id": cases[0]["case_id"], "evidence_ids": []})
        pred = tmp_path / "st2.jsonl"
        pred.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        message = self._eval_error(pred, "st2", capsys)
        assert str(pred) in message
        assert repr(cases[0]["case_id"]) in message
        assert "'evidence_ids'" in message

    @pytest.mark.parametrize(
        "subtask,field",
        [("st1", "clinician_question"), ("st2", "evidence_ids"),
         ("st3", "answer_text"), ("st4", "alignments")],
    )
    def test_eval_a_record_missing_its_field_is_an_error(self, tmp_path, capsys, subtask, field):
        pred = tmp_path / f"{subtask}.jsonl"
        pred.write_text(json.dumps({"case_id": "2"}) + "\n")
        message = self._eval_error(pred, subtask, capsys)
        assert str(pred) in message
        assert "'2'" in message
        assert repr(field) in message

    @pytest.mark.parametrize(
        "subtask,line,expected",
        [("st2", "{not json", ":1: not valid JSON"),
         ("st2", '["2"]', ":1: not a JSON object with a string 'case_id'"),
         ("st2", '{"case_id": ["2"], "evidence_ids": []}', ":1: not a JSON object with a string"),
         ("st2", '{"case_id": "2", "evidence_ids": "2"}', "malformed 'evidence_ids'"),
         ("st3", '{"case_id": "2", "answer_text": null}', "malformed 'answer_text'"),
         ("st4", '{"case_id": "2", "alignments": [{"answer_id": "1", "evidence_id": "12"}]}',
          "malformed 'alignments'"),
         ("st4", '{"case_id": "2", "alignments": [{"answer_id": "1"}]}', "malformed 'alignments'")],
    )
    def test_eval_an_unreadable_record_is_an_error(self, tmp_path, capsys, subtask, line, expected):
        pred = tmp_path / f"{subtask}.jsonl"
        pred.write_text(line + "\n")
        assert expected in self._eval_error(pred, subtask, capsys)

    @pytest.mark.parametrize("content", [None, b"\xff\n"], ids=["missing", "not-utf8"])
    def test_eval_an_unreadable_file_is_an_error(self, tmp_path, capsys, content):
        pred = tmp_path / "st2.jsonl"
        if content is not None:
            pred.write_bytes(content)
        assert f"{pred}: cannot read predictions" in self._eval_error(pred, "st2", capsys)

    def test_eval_a_malformed_gold_case_is_an_error(self, tmp_path, capsys):
        gold = tmp_path / "gold.jsonl"
        record = json.loads(toy_dataset_path().read_text().splitlines()[0])
        gold.write_text(json.dumps(dict(record, gold_evidence=5)) + "\n")
        pred = tmp_path / "st2.jsonl"
        pred.write_text(json.dumps({"case_id": record["case_id"], "evidence_ids": []}) + "\n")
        code = main(["eval", "--pred", str(pred), "--gold", str(gold), "--subtask", "st2"])
        assert code == 1
        error = json.loads(capsys.readouterr().err)
        assert error["type"] == "CaseValidationError"
        assert error["error"].startswith(f"{gold}:1: malformed 'gold_evidence': ")

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

    @pytest.mark.parametrize(
        "kind",
        ["st1ctx", "st1", "st2", "st3s1", "st3s2", "st3-rerank", "st4", "st4-recall"],
    )
    def test_replay_of_an_unreadable_cache_fails_the_run(self, tmp_path, capsys, kind):
        """Damage every cache entry of one kind: the replay must exit 1
        naming the key and what it was read for, in every subtask."""
        config_path = tmp_path / "config.json"
        config = base_config(
            tmp_path,
            subtasks=["st1", "st2", "st3", "st4"],
            provider_mode="record",
            record_source="mock",
            st3={"rerank": True},
            st4={"recall": {"enabled": True}},
        )
        config_path.write_text(json.dumps(config))
        assert main(["run", "--config", str(config_path)]) == 0
        out = tmp_path / "out"
        recorded = tree_bytes(out)

        # what each entry was read for, as the error names it
        cache = tmp_path / "cache"
        readers = {}
        for entry in cache.glob("*.json"):
            request = json.loads(entry.read_text()).get("request")
            if request is not None:
                stage = request["request_tag"].split("/")[1]
                readers[entry.stem] = (stage, f"request {request['request_tag']!r}")
        st3 = {
            r["case_id"]: r
            for r in map(json.loads, (out / "st3.jsonl").read_text().splitlines())
        }
        for case in load_cases(toy_dataset_path()).cases:
            note = [s.text for s in case.note]
            rerank = [" ".join(note), *(c["answer"] for c in st3[case.case_id]["candidate_scores"])]
            recall = [text for _, text in case.clinician_answer_sentences] + note
            for name, texts in (("st3-rerank", rerank), ("st4-recall", recall)):
                key = embed_cache_key("embedder", texts)
                readers[key] = (name, f"starting {texts[0][:60]!r}")
        assert set(readers) == {p.stem for p in cache.glob("*.json")}

        damaged = {key: what for key, (name, what) in readers.items() if name == kind}
        assert damaged
        for key in damaged:
            entry = cache / f"{key}.json"
            entry.write_bytes(entry.read_bytes()[:20])
        capsys.readouterr()
        args = ["run", "--config", str(config_path), "--provider-mode", "replay"]
        assert main(args) == 1
        error = json.loads(capsys.readouterr().err)
        assert error["type"] == "CacheMissError"
        match = re.match(r"unreadable cache entry ([0-9a-f]{64}) for ", error["error"])
        assert match and match.group(1) in damaged
        assert damaged[match.group(1)] in error["error"]
        assert tree_bytes(out) == recorded  # the previous outputs are left as they were

    def test_sweep_command(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(base_config(tmp_path)))
        assert main(["sweep", "--config", str(config_path), "--subtask", "st4"]) == 0
        assert "best_threshold" in capsys.readouterr().out
