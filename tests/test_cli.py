import copy
import json
import os
import re
from pathlib import Path

import pytest

from ehrqa import pipeline, report
from ehrqa.cli import main
from ehrqa.core import ConfigError, ConstraintConfig
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
from ehrqa.providers import (
    HashEmbedder,
    ReplayGenerator,
    ResponseCache,
    embed_cache_key,
    request_cache_key,
)
from ehrqa.st4 import RecallConfig
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


def wrong_fields():
    for path, default in config_leaves(DEFAULT_CONFIG):
        if isinstance(default, bool):
            continue
        kind, values = WRONG_VALUES[type(default)]
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
        with pytest.raises(ConfigError, match="unknown config key.*random_free"):
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
            ({"st2": {"merge": {"mode": "bogus"}}}, "st2.merge"),
            ({"st2": {"merge": {"mode": "manual"}}}, "st2.merge"),
            ({"st4": {"merge": {"mode": "manual", "k": 0}}}, "st4.merge"),
            ({"st2": {"plan": {"members": []}}}, "st2.plan.members"),
            ({"st4": {"plan": {"members": [{"temperature": 0.0}]}}}, "st4.plan"),
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
            ({"dataset": {"format": "jsonl"}}, "dataset.format"),
            ({"st2": {"shots": "3"}}, "st2.shots"),
            ({"st4": {"threshold_file": 0.5}}, "st4.threshold_file"),
        ],
    )
    def test_typos_are_rejected_with_their_config_path(self, overlay, path):
        with pytest.raises(ConfigError, match=rf"^{re.escape(path)}\b"):
            resolve_config(overlay)

    @pytest.mark.parametrize(
        "subtask, deployments",
        [("st1", ["a", "a"]), ("st3", ["o3", "gpt-5.2", "o3"])],
    )
    def test_deployments_must_be_unique(self, subtask, deployments):
        """An st1 repeat would send the same ``<case>/st1/<deployment>/0``
        request twice per case."""
        message = f"{subtask} deployments must be unique, got {deployments}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            resolve_config({subtask: {"deployments": deployments}})

    @pytest.mark.parametrize("subtask", ["st2", "st4"])
    def test_a_plan_lists_each_deployment_once(self, subtask):
        members = [
            {"deployment": "o3", "temperature": 0.0, "samples": 1},
            {"deployment": "o3", "temperature": 1.0, "samples": 2},
        ]
        with pytest.raises(ConfigError, match=rf"^{subtask}\.plan: .*unique"):
            resolve_config({subtask: {"plan": {"members": members}}})

    BOOL_FIELDS = [
        "st2.plan.extra_zero_temp_run",
        "st2.contrast_shots",
        "st2.enhanced_postproc",
        "st3.rerank",
        "st4.plan.extra_zero_temp_run",
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
            (
                {"st4": {"plan": {"members": [{"deployment": "o3", "temperature": "0.5"}]}}},
                "st4.plan.members[0].temperature: must be a number, got '0.5'",
            ),
            ({"st4": {"shots": "20"}}, "st4.shots: must be an integer, got '20'"),
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

    @pytest.mark.parametrize(
        "overlay, path",
        [
            ({"constraints": {"st1_max_words": 15, "st3_max_words": 75}}, "constraints"),
            ({"embedding": {"dim": 32}}, "embedding.dim"),
            ({"st2": {"confidence_floor": None}}, "st2.confidence_floor"),
            ({"st3": {"stage2_deployment": None}}, "st3.stage2_deployment"),
            ({"st4": {"recall": {"tau": 0.68}}}, "st4.recall.tau"),
        ],
    )
    def test_the_fixed_values_are_not_config_fields(self, overlay, path):
        """The word limits, tau and the mock's embedding size are fixed by
        the classes that hold them, so a config may not set them."""
        with pytest.raises(ConfigError) as error:
            resolve_config(overlay)
        assert str(error.value) == f"unknown config key(s): {path}"

    @pytest.mark.parametrize(
        "path, value",
        [
            ("st4.answers_from", "auto"),
            ("st4.answers_from", "key"),
            ("st4.answers_from", "st3"),
            ("st4.full_answer_context", True),
            ("st4.full_answer_context", False),
            ("st1.note_grounding", False),
            ("st1.note_grounding", True),
        ],
    )
    def test_the_removed_switches_are_not_config_fields(self, path, value):
        """st4 aligns the key's answer sentences or else st3's, always with
        the full answer, and st1 never sees the note: a config that still
        sets one of these switches fails, whatever the value."""
        section, key = path.split(".")
        with pytest.raises(ConfigError) as error:
            resolve_config({section: {key: value}})
        assert str(error.value) == f"unknown config key(s): {path}"

    def test_the_fixed_values_are_the_papers(self):
        """A run takes each fixed value from its class's default: the 15- and
        75-word limits, tau 0.68 and the mock's 32-dimensional vectors."""
        config = resolve_config({})
        assert "constraints" not in config
        assert config["embedding"] == {"deployment": "embedder"}
        assert config["st4"]["recall"] == {"enabled": False}
        limits = ConstraintConfig()
        assert (limits.st1_max_words, limits.st3_max_words) == (15, 75)
        assert RecallConfig().tau == 0.68
        assert [len(v) for v in HashEmbedder().embed(["a", "b"])] == [32, 32]

    def test_a_merge_section_takes_k(self):
        config = resolve_config({"st4": {"merge": {"mode": "manual", "k": 2}}})
        assert config["st4"]["merge"]["k"] == 2

    @pytest.mark.parametrize("subtask, votes", [("st2", 3), ("st4", 2)])
    def test_a_manual_k_above_the_plans_votes_fails_before_any_call(
        self, tmp_path, monkeypatch, subtask, votes
    ):
        from tests.conftest import ScriptedProvider

        backend = ScriptedProvider(handler=lambda request: "[]")
        monkeypatch.setattr(pipeline, "build_generator", lambda config: backend)
        resolve_config({subtask: {"merge": {"mode": "manual", "k": votes}}})
        overlay = {subtask: {"merge": {"mode": "manual", "k": votes + 1}}}
        error = rf"^{subtask}\.merge\.k: manual threshold k={votes + 1} exceeds .*={votes}$"
        with pytest.raises(ConfigError, match=error):
            resolve_config(overlay)
        config = pipeline.deep_merge(
            resolve_config(base_config(tmp_path, subtasks=[subtask])), overlay
        )
        with pytest.raises(ConfigError, match=error):
            run_pipeline(config)
        with pytest.raises(ConfigError, match=error):
            run_sweep(config, subtask)
        assert backend.calls == []

    def test_a_threshold_file_above_the_plans_votes_fails_before_any_call(
        self, tmp_path, monkeypatch
    ):
        from tests.conftest import ScriptedProvider

        backend = ScriptedProvider(handler=lambda request: "[]")
        monkeypatch.setattr(pipeline, "build_generator", lambda config: backend)
        threshold = tmp_path / "best_vote_threshold.txt"
        threshold.write_text("3\n")
        config = resolve_config(base_config(
            tmp_path, subtasks=["st1", "st2", "st3", "st4"],
            st4={"threshold_file": str(threshold)},
        ))
        error = r"^st4\.threshold_file: manual threshold k=3 exceeds .*=2$"
        with pytest.raises(ConfigError, match=error):
            run_pipeline(config)
        assert backend.calls == []


class TestConfigHash:
    # golden pin: any change to the default configuration must be deliberate
    DEFAULT_HASH = "349d89103818195d8427dae6a065e2ae54f1b42e077dd506335bb9775e8df2ce"

    def test_default_config_hash_pinned(self):
        assert config_hash(resolve_config({})) == self.DEFAULT_HASH

    def test_stable(self):
        a = resolve_config({"dataset": {"cases": "x"}})
        assert config_hash(a) == config_hash(resolve_config({"dataset": {"cases": "x"}}))

    def test_changes_with_any_field(self):
        base = resolve_config({"dataset": {"cases": "x"}})
        for overlay in (
            {"st2": {"shots": 4}},
            {"st4": {"recall": {"enabled": True}}},
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
        from tests.conftest import FailingProvider

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
        monkeypatch.setattr(pipeline, "HashEmbedder", lambda: backend)
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
        from ehrqa.providers import PipelineMockProvider

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

    @staticmethod
    def no_backend(monkeypatch) -> None:
        """Make building either backend fail the test."""

        def build(config):
            raise AssertionError("a backend was built")

        monkeypatch.setattr(pipeline, "build_generator", build)
        monkeypatch.setattr(pipeline, "build_embedder", build)

    @pytest.mark.parametrize("mode", ["mock", "record"])
    def test_st4_embedding_only_without_recall_fails_before_any_call(
        self, tmp_path, monkeypatch, mode
    ):
        """Without recall an embedding_only st4 links nothing to any answer."""
        self.no_backend(monkeypatch)
        config = resolve_config(base_config(
            tmp_path, subtasks=["st4"], provider_mode=mode, record_source="mock",
            st4={"mode": "embedding_only"},
        ))
        with pytest.raises(ConfigError, match=r"^st4\.mode: embedding_only .*recall"):
            run_pipeline(config)
        assert not (tmp_path / "cache").exists()
        assert not (tmp_path / "out").exists()

    @staticmethod
    def cases_without_answers(tmp_path) -> Path:
        """The toy set with the answer sentences of cases 1 and 3 removed."""
        cases = [json.loads(line) for line in toy_dataset_path().read_text().splitlines()]
        for case in cases:
            if case["case_id"] in ("1", "3"):
                case["answer_sentences"] = case["gold_alignments"] = []
        path = tmp_path / "noanswers.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in cases) + "\n")
        return path

    @pytest.mark.parametrize("subtasks", [["st4"], ["st1", "st2", "st4"]])
    def test_st4_without_answers_to_align_fails_before_any_call(
        self, tmp_path, monkeypatch, subtasks
    ):
        """Without st3 in the run, the key's answer sentences are what st4
        aligns, and cases 1 and 3 have none: they would be written with no
        alignment."""
        self.no_backend(monkeypatch)
        config = resolve_config(base_config(
            tmp_path, subtasks=subtasks, provider_mode="record", record_source="mock",
            dataset={"cases": str(self.cases_without_answers(tmp_path))},
        ))
        message = "st4 without st3 aligns each case's answer_sentences, and case(s) 1, 3 have none"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            run_pipeline(config)
        assert not (tmp_path / "cache").exists()
        assert not (tmp_path / "out").exists()

    def test_st4_aligns_st3s_answer_where_the_key_has_none(self, tmp_path):
        config = resolve_config(base_config(
            tmp_path, subtasks=["st3", "st4"],
            dataset={"cases": str(self.cases_without_answers(tmp_path))},
        ))
        run_pipeline(config)
        out = tmp_path / "out"
        st3_out = [json.loads(l) for l in (out / "st3.jsonl").read_text().splitlines()]
        st4_out = [json.loads(l) for l in (out / "st4.jsonl").read_text().splitlines()]
        from ehrqa.st4 import segment_answer

        keyed = {c.case_id: c for c in load_cases(toy_dataset_path()).cases}
        for st3_record, st4_record in zip(st3_out, st4_out):
            cid = st3_record["case_id"]
            answers = (
                segment_answer(st3_record["answer_text"]) if cid in ("1", "3")
                else keyed[cid].clinician_answer_sentences
            )
            assert [a["answer_id"] for a in st4_record["alignments"]] == [a for a, _ in answers]
            assert st4_record["alignments"]

    @pytest.mark.parametrize("subtasks", [["st3"], ["st2", "st3", "st4"]])
    def test_st3_with_one_deployment_builds_no_embedder(self, tmp_path, monkeypatch, subtasks):
        """One candidate is never reranked, so a run whose st3 has one
        deployment and whose st4 has no recall needs no embedding backend."""

        def no_embedder(config):
            raise AssertionError("an embedder was built")

        monkeypatch.setattr(pipeline, "build_embedder", no_embedder)
        config = resolve_config(base_config(
            tmp_path, subtasks=subtasks, provider_mode="record", record_source="mock",
            st3={"deployments": ["o3"], "rerank": True},
        ))
        manifest = run_pipeline(config)
        assert "embedding_cache" not in manifest
        assert manifest["cache"]["misses"] > 0

    @staticmethod
    def capture_messages(monkeypatch) -> dict:
        """The messages of each request the run sends, by request tag."""
        from ehrqa.providers import PipelineMockProvider

        sent: dict = {}
        inner = PipelineMockProvider()

        class Capture:
            def generate(self, request):
                sent[request.request_tag] = request.messages
                return inner.generate(request)

        monkeypatch.setattr(pipeline, "build_generator", lambda config: Capture())
        return sent

    def test_every_st4_turn_carries_its_own_cases_full_answer(self, tmp_path, monkeypatch):
        """The query turn and each shot turn show the full answer of the
        case they render, so the two can never disagree."""
        sent = self.capture_messages(monkeypatch)
        run_pipeline(resolve_config(base_config(tmp_path, subtasks=["st4"])))
        paragraphs = {
            f"Patient question:\n{c.patient_question}\n": c.clinician_answer_paragraph
            for c in load_cases(toy_dataset_path()).cases
        }
        st4_requests = [m for tag, m in sent.items() if tag.split("/")[1] == "st4"]
        assert st4_requests
        for messages in st4_requests:
            user_turns = [m.content for m in messages if m.role == "user"]
            assert len(user_turns) > 1  # the shot turns and the query's
            for turn in user_turns:
                [paragraph] = [p for question, p in paragraphs.items() if question in turn]
                assert f"Full clinician answer (for context):\n{paragraph}\n" in turn

    def test_st1_never_sends_the_note(self, tmp_path, monkeypatch):
        sent = self.capture_messages(monkeypatch)
        run_pipeline(resolve_config(base_config(tmp_path, subtasks=["st1"])))
        cases = {c.case_id: c for c in load_cases(toy_dataset_path()).cases}
        st1_requests = {tag: m for tag, m in sent.items() if tag.split("/")[1].startswith("st1")}
        assert {tag.split("/")[1] for tag in st1_requests} == {"st1ctx", "st1"}
        for tag, messages in st1_requests.items():
            text = "\n".join(m.content for m in messages)
            for sentence in cases[tag.split("/")[0]].note:
                assert sentence.text not in text

    def test_st4_aligns_the_keys_sentences_with_st3_in_the_run(self, tmp_path):
        config = resolve_config(base_config(tmp_path, subtasks=["st3", "st4"]))
        run_pipeline(config)
        st4_out = [
            json.loads(l) for l in (tmp_path / "out" / "st4.jsonl").read_text().splitlines()
        ]
        keyed = {c.case_id: c for c in load_cases(toy_dataset_path()).cases}
        for record in st4_out:
            answer_ids = [a for a, _ in keyed[record["case_id"]].clinician_answer_sentences]
            assert [a["answer_id"] for a in record["alignments"]] == answer_ids


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

    @pytest.mark.parametrize(
        "content", [None, "three\n", "0\n", "²\n", "9" * 5000 + "\n", b"\xff\n", "directory"]
    )
    def test_a_bad_threshold_file_fails_the_run_before_any_call(
        self, tmp_path, monkeypatch, capsys, content
    ):
        from ehrqa import pipeline
        from tests.conftest import ScriptedProvider

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
        from tests.conftest import ScriptedProvider

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

    @pytest.mark.parametrize("subtask", ["st2", "st4"])
    def test_a_recorded_sweep_without_gold_marks_no_cache_and_makes_no_directory(
        self, tmp_path, subtask
    ):
        cases = [json.loads(line) for line in toy_dataset_path().read_text().splitlines()]
        cases[-1]["gold_alignments"] = cases[-1]["gold_evidence"] = None
        stripped = tmp_path / "nogold.jsonl"
        stripped.write_text("\n".join(json.dumps(r) for r in cases) + "\n")
        config = resolve_config(base_config(
            tmp_path, provider_mode="record", record_source="mock",
            dataset={"cases": str(stripped)},
        ))
        with pytest.raises(ConfigError, match=f"case 3 has no dev gold for the {subtask}"):
            run_sweep(config, subtask)
        assert not (tmp_path / "cache").exists()
        assert not (tmp_path / "out").exists()

    def test_an_st4_sweep_needs_answer_sentences_to_align(self, tmp_path, monkeypatch):
        from tests.conftest import ScriptedProvider

        cases = [json.loads(line) for line in toy_dataset_path().read_text().splitlines()]
        cases[-1]["answer_sentences"] = cases[-1]["gold_alignments"] = []
        bare = tmp_path / "noanswers.jsonl"
        bare.write_text("\n".join(json.dumps(r) for r in cases) + "\n")
        backend = ScriptedProvider(handler=lambda request: "[]")
        monkeypatch.setattr(pipeline, "build_generator", lambda config: backend)
        config = resolve_config(base_config(tmp_path, dataset={"cases": str(bare)}))
        with pytest.raises(ConfigError, match="case 3 has no dev gold for the st4 sweep"):
            run_sweep(config, "st4")
        assert backend.calls == []

    def test_an_st4_sweep_with_nothing_to_sweep_fails_before_any_call(self, tmp_path, monkeypatch):
        """An embedding_only st4 casts no votes."""
        from tests.conftest import ScriptedProvider

        backend = ScriptedProvider(handler=lambda request: "[]")
        monkeypatch.setattr(pipeline, "build_generator", lambda config: backend)
        config = resolve_config(
            base_config(tmp_path, subtasks=["st1", "st4"], st4={"mode": "embedding_only"})
        )
        with pytest.raises(ConfigError, match=r"^st4\.mode:"):
            run_sweep(config, "st4")
        assert backend.calls == []


class TestCliCommands:
    def test_run_exit_zero(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(base_config(tmp_path, subtasks=["st2"])))
        assert main(["run", "--config", str(config_path)]) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["subtasks"] == ["st2"]

    @pytest.mark.parametrize(
        "section, key, value",
        [("st4", "answers_from", "auto"), ("st4", "full_answer_context", True),
         ("st1", "note_grounding", False)],
    )
    def test_a_config_with_a_removed_switch_exits_1_naming_it(
        self, tmp_path, capsys, section, key, value
    ):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(base_config(tmp_path, **{section: {key: value}})))
        assert main(["run", "--config", str(config_path)]) == 1
        assert f"unknown config key(s): {section}.{key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_a_case_with_an_empty_note_exits_1_before_any_output(self, tmp_path, capsys):
        """st2 would cite nothing for it and st3 answer without a citation."""
        cases = [json.loads(line) for line in toy_dataset_path().read_text().splitlines()]
        cases[0]["note"] = cases[0]["gold_evidence"] = []
        cases[0]["gold_alignments"] = [
            {**link, "evidence_ids": []} for link in cases[0]["gold_alignments"]
        ]
        cases_path = tmp_path / "cases.jsonl"
        cases_path.write_text("\n".join(json.dumps(r) for r in cases) + "\n")
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(base_config(
            tmp_path, subtasks=["st2", "st3"], dataset={"cases": str(cases_path)},
        )))
        assert main(["run", "--config", str(config_path)]) == 1
        assert f"{cases_path}:1: case 1: note has no sentences" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert not (tmp_path / "cache").exists()

    def test_malformed_config_exits_nonzero(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text("{not json")
        assert main(["run", "--config", str(config_path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["a directory", "not UTF-8"])
    def test_an_unreadable_config_file_exits_1_naming_it(self, tmp_path, capsys, kind):
        config_path = tmp_path / "config.json"
        if kind == "a directory":
            config_path.mkdir()
        else:
            config_path.write_bytes(b'{"workers": "\xff"}')
        assert main(["run", "--config", str(config_path)]) == 1
        error = json.loads(capsys.readouterr().err)
        assert error["type"] == "EhrqaError"
        assert error["error"].startswith(f"{config_path}: cannot read config file: ")

    @pytest.mark.parametrize("command", ["run", "eval"])
    def test_an_out_path_that_is_a_file_exits_1_naming_it(self, tmp_path, capsys, command):
        out = tmp_path / "taken"
        out.write_text("kept\n")
        if command == "run":
            config_path = tmp_path / "config.json"
            config_path.write_text(json.dumps(base_config(tmp_path, subtasks=["st2"])))
            args = ["run", "--config", str(config_path)]
        else:
            pred = tmp_path / "st2.jsonl"
            records = [json.loads(line) for line in toy_dataset_path().read_text().splitlines()]
            pred.write_text("".join(
                json.dumps({"case_id": r["case_id"], "evidence_ids": r["gold_evidence"]}) + "\n"
                for r in records
            ))
            args = ["eval", "--pred", str(pred), "--gold", str(toy_dataset_path()),
                    "--subtask", "st2"]
        assert main(args + ["--out", str(out)]) == 1
        error = json.loads(capsys.readouterr().err)
        assert error["type"] == "FileExistsError" and str(out) in error["error"]
        assert out.read_text() == "kept\n"

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

    @pytest.mark.parametrize("subtask", ["st2", "st4"])
    def test_eval_reads_integer_ids_as_the_case_file_does(self, tmp_path, capsys, subtask):
        """The exact gold, written with integer IDs, scores 100 on every column."""
        records = []
        for line in toy_dataset_path().read_text().splitlines():
            case = json.loads(line)
            if subtask == "st2":
                value = {"evidence_ids": [int(i) for i in case["gold_evidence"]]}
            else:
                value = {"alignments": [
                    {"answer_id": int(a["answer_id"]),
                     "evidence_id": [int(i) for i in a["evidence_ids"]]}
                    for a in case["gold_alignments"]
                ]}
            records.append({"case_id": case["case_id"], **value})
        pred = tmp_path / f"{subtask}.jsonl"
        pred.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        out_dir = tmp_path / "report"
        code = main([
            "eval", "--pred", str(pred), "--gold", str(toy_dataset_path()),
            "--subtask", subtask, "--out", str(out_dir),
        ])
        assert code == 0
        report = json.loads((out_dir / f"{subtask}_report.json").read_text())
        assert set(report["corpus"].values()) == {100.0}
        assert all(set(row.values()) == {100.0} for row in report["per_case"].values())

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

    def test_eval_reports_do_not_depend_on_the_prediction_path(self, tmp_path, monkeypatch):
        records = [
            {"case_id": json.loads(line)["case_id"], "evidence_ids": ["1"]}
            for line in toy_dataset_path().read_text().splitlines()
        ]
        preds = [tmp_path / "a" / "st2.jsonl", tmp_path / "b" / "predictions.jsonl"]
        monkeypatch.chdir(tmp_path)
        reports = []
        for pred, spelled in zip(preds, [str(preds[0]), "b/./predictions.jsonl"]):
            pred.parent.mkdir()
            pred.write_text("".join(json.dumps(r) + "\n" for r in records))
            out_dir = pred.parent / "report"
            assert main([
                "eval", "--pred", spelled, "--gold", str(toy_dataset_path()),
                "--subtask", "st2", "--out", str(out_dir),
            ]) == 0
            reports.append(tree_bytes(out_dir))
        assert reports[0] == reports[1]
        assert set(reports[0]) == {"st2_report.json", "st2_report.txt"}
        assert reports[0]["st2_report.txt"].startswith(b"st2 corpus")

    def test_eval_unmatched_case_ids_error(self, tmp_path, capsys):
        pred = tmp_path / "st2.jsonl"
        pred.write_text(json.dumps({"case_id": "999", "evidence_ids": []}) + "\n")
        code = main(
            ["eval", "--pred", str(pred), "--gold", str(toy_dataset_path()), "--subtask", "st2"]
        )
        assert code == 1
        assert "999" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "subtask,field,value",
        [("st1", "clinician_question", "Why?"), ("st2", "evidence_ids", []),
         ("st3", "answer_text", "Because."), ("st4", "alignments", [])],
    )
    def test_eval_every_subtask_checks_its_case_ids(self, tmp_path, capsys, subtask, field, value):
        pred = tmp_path / f"{subtask}.jsonl"
        pred.write_text(json.dumps({"case_id": "999", field: value}) + "\n")
        message = self._eval_error(pred, subtask, capsys)
        assert message.startswith("case_id mismatch between predictions and gold")
        assert "missing=['1', '2', '3'], unexpected=['999']" in message

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
        assert error["error"].startswith(
            f"{gold}:1: case {record['case_id']}: malformed 'gold_evidence': "
        )

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

    def test_cache_inspect_counts_each_kind_and_prune_empties_the_cache(self, tmp_path, capsys):
        """A recording with st3 rerank and st4 recall holds both kinds of
        entry and its source marker; inspect counts each kind and names the
        source, and prune removes every file."""
        manifest = run_pipeline(resolve_config(base_config(
            tmp_path, subtasks=["st1", "st2", "st3", "st4"], provider_mode="record",
            record_source="mock", st3={"rerank": True}, st4={"recall": {"enabled": True}},
        )))
        responses, vectors = manifest["cache"]["entries"], manifest["embedding_cache"]["entries"]
        assert (responses, vectors) == (42, 6)
        cache = tmp_path / "cache"
        assert main(["cache", "inspect", "--cache-dir", str(cache), "--limit", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == [f"48 cache entr(ies) in {cache}: 42 .json, 6 .f64", "recorded from mock"]
        assert len(lines) == 4 and all(line.endswith(".json") for line in lines[2:])
        assert main(["cache", "prune", "--cache-dir", str(cache)]) == 0
        assert capsys.readouterr().out == (
            "removed 48 cache entr(ies)\nremoved the marker (recorded from mock)\n"
        )
        assert list(cache.iterdir()) == []
        assert main(["cache", "inspect", "--cache-dir", str(cache)]) == 0
        assert capsys.readouterr().out == f"0 cache entr(ies) in {cache}: 0 .json, 0 .f64\n"

    def test_cache_inspect_counts_orphans_and_prune_removes_them(self, tmp_path, capsys):
        """A writer killed between writing its temporary file and unlinking
        it leaves the file behind: inspect counts it and prune removes it."""
        (tmp_path / f"{'a' * 64}.json").write_text('{"response": {"text": "x"}}')
        (tmp_path / "def.json.123-456.tmp").write_text("{")
        assert main(["cache", "inspect", "--cache-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out == (
            f"1 cache entr(ies) in {tmp_path}: 1 .json, 0 .f64\n"
            "1 orphaned .tmp file(s), left by a writer that was killed\n"
            f"  {'a' * 64}.json\n"
        )
        assert main(["cache", "prune", "--cache-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out == (
            "removed 1 cache entr(ies)\nremoved 1 orphaned .tmp file(s)\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_a_recording_adopts_an_unmarked_cache(self, tmp_path, monkeypatch):
        """A cache recorded before runs marked their source serves a record
        run of either source as before, which then marks it; replay reads
        no marker."""
        for name in [n for n in os.environ if n.startswith("EHRQA_")]:
            monkeypatch.delenv(name)  # so a live call would fail the run
        config = base_config(tmp_path, provider_mode="record", record_source="mock")
        assert run_pipeline(resolve_config(config))["cache"]["misses"] == 9
        marker = tmp_path / "cache" / ResponseCache.MARKER
        marker.unlink()
        manifest = run_pipeline(resolve_config(dict(config, record_source="live")))
        assert manifest["cache"] == {"hits": 9, "misses": 0, "entries": 9}
        assert marker.read_text() == "live\n"
        replayed = run_pipeline(resolve_config(dict(config, provider_mode="replay")))
        assert replayed["cache"] == manifest["cache"]

    @pytest.mark.parametrize("action", ["inspect", "prune"])
    def test_cache_on_a_missing_directory_fails_and_creates_nothing(
        self, tmp_path, capsys, action
    ):
        cache = tmp_path / "missing" / "cache"
        assert main(["cache", action, "--cache-dir", str(cache)]) == 1
        error = json.loads(capsys.readouterr().err)
        assert error == {"error": f"{cache}: no cache directory there", "type": "EhrqaError"}
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("limit", ["-1", "x"])
    def test_cache_inspect_rejects_a_limit_that_is_no_count(self, tmp_path, capsys, limit):
        with pytest.raises(SystemExit) as exit_:
            main(["cache", "inspect", "--cache-dir", str(tmp_path), "--limit", limit])
        assert exit_.value.code == 2
        assert f"argument --limit: must be a whole number of 0 or more, got {limit!r}" in (
            capsys.readouterr().err
        )

    def test_cache_inspect_limit_0_lists_no_names(self, tmp_path, capsys):
        (tmp_path / f"{'0' * 64}.json").write_text('{"response": {"text": "x"}}')
        assert main(["cache", "inspect", "--cache-dir", str(tmp_path), "--limit", "0"]) == 0
        assert capsys.readouterr().out == f"1 cache entr(ies) in {tmp_path}: 1 .json, 0 .f64\n"

    @pytest.mark.parametrize(
        "kind",
        ["st1ctx", "st1", "st2", "st3s1", "st3s2", "st3-rerank", "st4", "st4-recall"],
    )
    def test_replay_of_an_unreadable_cache_fails_the_run(
        self, tmp_path, capsys, monkeypatch, kind
    ):
        """Damage every cache entry of one kind: the replay must exit 1
        naming the key and what it was read for, in every subtask."""
        # what each generator entry is read for: the tag of its key's first request
        tags = {}
        generate = ReplayGenerator.generate

        def noting_tags(self, request):
            tags.setdefault(request_cache_key(request), request.request_tag)
            return generate(self, request)

        monkeypatch.setattr(ReplayGenerator, "generate", noting_tags)
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
        readers = {key: (tag.split("/")[1], f"request {tag!r}") for key, tag in tags.items()}
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
        entries = {p.stem for p in cache.iterdir() if p.name != ResponseCache.MARKER}
        assert set(readers) == entries

        damaged = {key: what for key, (name, what) in readers.items() if name == kind}
        assert damaged
        for key in damaged:
            (entry,) = cache.glob(f"{key}.*")
            entry.write_bytes(entry.read_bytes()[:20])
        capsys.readouterr()
        args = ["run", "--config", str(config_path), "--provider-mode", "replay"]
        assert main(args) == 1
        error = json.loads(capsys.readouterr().err)
        assert error["type"] == "CacheMissError"
        # a JSON entry cut short does not parse; a vector entry cut short
        # holds a byte count that is no whole number of rows
        match = re.match(r"(?:unreadable )?cache entry ([0-9a-f]{64}) for ", error["error"])
        assert match and match.group(1) in damaged
        assert damaged[match.group(1)] in error["error"]
        assert tree_bytes(out) == recorded  # the previous outputs are left as they were

    def test_sweep_command(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(base_config(tmp_path)))
        assert main(["sweep", "--config", str(config_path), "--subtask", "st4"]) == 0
        assert "best_threshold" in capsys.readouterr().out

    @pytest.mark.parametrize("subtask", ["st2", "st4"])
    def test_sweep_command_keeps_the_configs_subtasks(self, tmp_path, subtask):
        """``sweep --subtask`` names the subtask to sweep; st1, which the
        config lists, still runs first, so the sweep replays the run."""
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(base_config(
            tmp_path, subtasks=["st1", "st2", "st3", "st4"], record_source="mock",
        )))
        assert main(["run", "--config", str(config_path), "--provider-mode", "record"]) == 0
        args = ["sweep", "--config", str(config_path), "--provider-mode", "replay"]
        assert main(args + ["--subtask", subtask]) == 0
