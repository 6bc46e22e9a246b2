import json
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ehrqa.core import CacheMissError, EhrqaError, ProviderError
from ehrqa.dataset import toy_dataset_path
from ehrqa.pipeline import _map_cases, build_embedder, resolve_config, run_pipeline
from ehrqa.prompting import Message
from ehrqa.providers import (
    CachedEmbedder,
    FailingProvider,
    GenRequest,
    HashEmbedder,
    HttpChatProvider,
    HttpEmbeddingProvider,
    PipelineMockProvider,
    ReplayGenerator,
    ResponseCache,
    RetryPolicy,
    ScriptedProvider,
    cosine,
    embed_cache_key,
    env_var_names,
    gather_responses,
    request_cache_key,
)


def req(tag="c1/st2/0", content="prompt", deployment="m1", temperature=0.0, sample=0):
    return GenRequest(
        deployment_name=deployment,
        messages=(Message("user", content),),
        temperature=temperature,
        request_tag=tag,
        sample_index=sample,
    )


class TestScriptedProvider:
    def test_scripted_by_tag(self):
        provider = ScriptedProvider({"c1/st2/0": '["2","5"]'})
        assert provider.generate(req()).text == '["2","5"]'

    def test_unknown_tag_raises(self):
        with pytest.raises(ProviderError):
            ScriptedProvider({}).generate(req())

    def test_handler_fallback(self):
        provider = ScriptedProvider(handler=lambda r: r.request_tag.upper())
        assert provider.generate(req("a/b/1")).text == "A/B/1"


class TestCacheKey:
    def test_ignores_request_tag(self):
        assert request_cache_key(req(tag="x")) == request_cache_key(req(tag="y"))

    def test_depends_on_content(self):
        assert request_cache_key(req(content="a")) != request_cache_key(req(content="b"))

    def test_depends_on_sample_index(self):
        assert request_cache_key(req(sample=0)) != request_cache_key(req(sample=1))

    def test_depends_on_temperature_and_deployment(self):
        assert request_cache_key(req(temperature=0.0)) != request_cache_key(req(temperature=0.3))
        assert request_cache_key(req(deployment="a")) != request_cache_key(req(deployment="b"))

    def test_digest_pinned(self):
        # golden pin: caches recorded by earlier versions must keep replaying
        request = GenRequest(
            deployment_name="m1",
            messages=(
                Message("system", "Be brief."),
                Message("user", "Which sentences support the answer?"),
            ),
            temperature=0.3,
            max_output_tokens=256,
            request_tag="c1/st2/m1/1",
            sample_index=1,
        )
        assert request_cache_key(request) == (
            "cc981b6f5fb3c2d707edafffc12297248b951956fa4b62c2b26d572ab08457e2"
        )

    def test_embed_key_depends_on_model_and_text_order(self):
        assert embed_cache_key("e", ["a", "b"]) != embed_cache_key("e", ["b", "a"])
        assert embed_cache_key("e", ["a"]) != embed_cache_key("f", ["a"])


class TestRecordReplay:
    def test_record_then_replay_identical(self, tmp_path):
        cache = ResponseCache(tmp_path)
        recorder = ReplayGenerator(cache, inner=ScriptedProvider({"t": "hello"}), mode="record")
        first = recorder.generate(req("t"))
        assert not first.from_cache

        replayer = ReplayGenerator(cache, mode="replay")
        second = replayer.generate(req("t"))
        third = replayer.generate(req("t"))
        assert second.text == third.text == "hello"
        assert second.from_cache and third.from_cache

    def test_strict_replay_miss_names_tag(self, tmp_path):
        replayer = ReplayGenerator(ResponseCache(tmp_path), mode="replay")
        with pytest.raises(CacheMissError, match="c1/st2/0"):
            replayer.generate(req())

    def test_replay_makes_zero_backend_calls(self, tmp_path):
        cache = ResponseCache(tmp_path)
        ReplayGenerator(cache, inner=ScriptedProvider({"t": "x"}), mode="record").generate(req("t"))
        backend = FailingProvider()
        replayer = ReplayGenerator(cache, mode="replay")
        assert replayer.generate(req("t")).text == "x"
        assert backend.calls == 0

    def test_samples_stored_separately(self, tmp_path):
        cache = ResponseCache(tmp_path)
        script = ScriptedProvider(handler=lambda r: f"sample-{r.sample_index}")
        recorder = ReplayGenerator(cache, inner=script, mode="record")
        recorder.generate(req("a", sample=0))
        recorder.generate(req("b", sample=1))
        replayer = ReplayGenerator(cache, mode="replay")
        assert replayer.generate(req("z", sample=0)).text == "sample-0"
        assert replayer.generate(req("z", sample=1)).text == "sample-1"

    def test_record_resumes_from_cache(self, tmp_path):
        cache = ResponseCache(tmp_path)
        ReplayGenerator(cache, inner=ScriptedProvider({"t": "x"}), mode="record").generate(req("t"))
        backend = FailingProvider()
        resumed = ReplayGenerator(ResponseCache(tmp_path), inner=backend, mode="record")
        assert resumed.generate(req("t")).text == "x"
        assert backend.calls == 0
        assert resumed.cache.stats() == {"hits": 1, "misses": 0, "entries": 1}

    def test_entry_recorded_before_slim_format_replays(self, tmp_path):
        request = req("t", content="an old prompt")
        old_entry = {
            "request": {
                "deployment_name": "m1",
                "messages": [["user", "an old prompt"]],
                "temperature": 0.0,
                "max_output_tokens": 1024,
                "sample_index": 0,
                "request_tag": "t",
            },
            "response": {"text": "old", "deployment_name": "m1", "latency_ms": 3.0},
        }
        key = request_cache_key(request)
        (tmp_path / f"{key}.json").write_text(
            json.dumps(old_entry, sort_keys=True, indent=1), encoding="utf-8"
        )
        response = ReplayGenerator(ResponseCache(tmp_path)).generate(request)
        assert (response.text, response.latency_ms, response.from_cache) == ("old", 3.0, True)

    def test_cache_stats_and_prune(self, tmp_path):
        cache = ResponseCache(tmp_path)
        ReplayGenerator(cache, inner=ScriptedProvider({"t": "x"}), mode="record").generate(req("t"))
        assert cache.stats()["entries"] == 1
        assert cache.prune() == 1
        assert cache.entries() == []


@pytest.mark.parametrize(
    "wrapper, inner, ask, asked",
    [
        (ReplayGenerator, ScriptedProvider(handler=lambda r: "reply"),
         lambda w: w.generate(req()).text, "'c1/st2/0'"),
        (CachedEmbedder, HashEmbedder(),
         lambda w: [v.tolist() for v in w.embed(["alpha", "beta"])], "'alpha'"),
    ],
    ids=["generator", "embedder"],
)
class TestRecordReplayContract:
    """What both cache wrappers promise, from their one shared protocol."""

    def test_unknown_mode_is_rejected(self, tmp_path, wrapper, inner, ask, asked):
        with pytest.raises(EhrqaError, match="unknown replay mode 'Record'"):
            wrapper(ResponseCache(tmp_path), inner, "Record")

    def test_record_mode_needs_an_inner_backend(self, tmp_path, wrapper, inner, ask, asked):
        with pytest.raises(EhrqaError, match="record mode requires an inner"):
            wrapper(ResponseCache(tmp_path), None, "record")

    def test_replay_miss_names_what_was_asked(self, tmp_path, wrapper, inner, ask, asked):
        with pytest.raises(CacheMissError, match=rf"^no cached .*{asked}.*\(key [0-9a-f]{{12}}\)$"):
            ask(wrapper(ResponseCache(tmp_path), None, "replay"))

    def test_resumed_recording_makes_no_inner_call(self, tmp_path, wrapper, inner, ask, asked):
        recorded = ask(wrapper(ResponseCache(tmp_path), inner, "record"))
        backend = FailingProvider()
        resumed = wrapper(ResponseCache(tmp_path), backend, "record")
        assert ask(resumed) == recorded
        assert backend.calls == 0
        assert resumed.cache.stats() == {"hits": 1, "misses": 0, "entries": 1}


class TestCacheFormat:
    @pytest.mark.parametrize("prompt_chars", [1_000, 200_000])
    def test_entry_size_independent_of_prompt(self, tmp_path, prompt_chars):
        prompt = ("note sentence " * prompt_chars)[:prompt_chars]
        cache = ResponseCache(tmp_path)
        ReplayGenerator(cache, inner=ScriptedProvider({"t": "reply"}), mode="record").generate(
            req("t", content=prompt)
        )
        (entry,) = tmp_path.glob("*.json")
        data = entry.read_text(encoding="utf-8")
        assert len(data.encode("utf-8")) < 1_000
        assert "note sentence" not in data
        assert json.loads(data)["request"] == {
            "deployment_name": "m1",
            "request_tag": "t",
            "sample_index": 0,
            "temperature": 0.0,
            "max_output_tokens": 1024,
        }

    @pytest.mark.parametrize(
        "content",
        ['{"response": {"text": "tru', "[]", '{"request": {}}'],
        ids=["truncated", "not-an-object", "no-response"],
    )
    def test_unreadable_generator_entry_names_key_and_tag(self, tmp_path, content):
        request = req("c7/st4/m2/0")
        key = request_cache_key(request)
        (tmp_path / f"{key}.json").write_text(content, encoding="utf-8")
        for mode, inner in (("replay", None), ("record", FailingProvider())):
            generator = ReplayGenerator(ResponseCache(tmp_path), inner=inner, mode=mode)
            with pytest.raises(CacheMissError, match=rf"{key}.*'c7/st4/m2/0'"):
                generator.generate(request)

    @pytest.mark.parametrize(
        "content",
        ['{"vectors": [[0.1, 0.', '{"model": "default"}', '{"vectors": [[1.0, 0.0]]}'],
        ids=["truncated", "no-vectors", "wrong-count"],
    )
    def test_unreadable_embedding_entry_names_key(self, tmp_path, content):
        key = embed_cache_key("default", ["alpha", "beta"])
        (tmp_path / f"{key}.json").write_text(content, encoding="utf-8")
        with pytest.raises(CacheMissError, match=rf"{key}.*'alpha'"):
            CachedEmbedder(ResponseCache(tmp_path)).embed(["alpha", "beta"])

    def test_put_leaves_no_temporary_file(self, tmp_path):
        cache = ResponseCache(tmp_path)
        cache.put("k", {"response": {"text": "x"}})
        assert [p.name for p in tmp_path.iterdir()] == ["k.json"]
        assert (tmp_path / "k.json").read_text(encoding="utf-8") == '{"response":{"text":"x"}}'

    def test_concurrent_replay_identical_and_counted(self, tmp_path):
        cache = ResponseCache(tmp_path)
        script = ScriptedProvider(handler=lambda r: f"reply to {r.request_tag}")
        recorder = ReplayGenerator(cache, inner=script, mode="record")
        requests = [req(f"c{i}/st2/m1/0", content=f"prompt {i}") for i in range(50)]
        for request in requests:
            recorder.generate(request)

        replayer = ReplayGenerator(ResponseCache(tmp_path), mode="replay")

        def replay_all(_):
            return [replayer.generate(r).text for r in requests]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(replay_all, range(8), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert all(texts == [f"reply to {r.request_tag}" for r in requests] for texts in results)
        assert replayer.cache.stats() == {"hits": 8 * 50, "misses": 0, "entries": 50}


class TestEmbedders:
    def test_hash_embedder_deterministic(self):
        embedder = HashEmbedder()
        a1, a2 = embedder.embed(["a"]), embedder.embed(["a"])
        assert np.allclose(a1[0], a2[0])

    def test_identical_texts_identical_vectors(self):
        vecs = HashEmbedder().embed(["a", "a"])
        assert np.array_equal(vecs[0], vecs[1])

    def test_self_cosine_is_one(self):
        vec = HashEmbedder().embed(["x"])[0]
        assert cosine(vec, vec) == pytest.approx(1.0, abs=1e-9)

    def test_distinct_texts_distinct_vectors(self):
        vecs = HashEmbedder().embed(["alpha", "beta"])
        assert cosine(vecs[0], vecs[1]) < 0.999999

    def test_empty_input_rejected(self):
        with pytest.raises(EhrqaError):
            HashEmbedder().embed([])

    def test_cached_embedder_roundtrip(self, tmp_path):
        cache = ResponseCache(tmp_path)
        recorder = CachedEmbedder(cache, inner=HashEmbedder(), mode="record")
        original = recorder.embed(["hello"])[0]
        replayer = CachedEmbedder(cache, mode="replay")
        assert np.allclose(replayer.embed(["hello"])[0], original)
        with pytest.raises(CacheMissError):
            replayer.embed(["unseen"])

    def test_one_cache_entry_per_embed_call(self, tmp_path):
        cache = ResponseCache(tmp_path)
        recorder = CachedEmbedder(cache, inner=HashEmbedder(), mode="record")
        original = recorder.embed(["a", "b", "c"])
        assert len(cache.entries()) == 1
        replayed = CachedEmbedder(ResponseCache(tmp_path)).embed(["a", "b", "c"])
        assert all(np.array_equal(x, y) for x, y in zip(original, replayed))
        with pytest.raises(CacheMissError):
            CachedEmbedder(ResponseCache(tmp_path)).embed(["a"])

    def test_record_resumes_from_cache(self, tmp_path):
        CachedEmbedder(ResponseCache(tmp_path), inner=HashEmbedder(), mode="record").embed(["a"])
        backend = FailingProvider()
        resumed = CachedEmbedder(ResponseCache(tmp_path), inner=backend, mode="record")
        assert np.array_equal(resumed.embed(["a"])[0], HashEmbedder().embed(["a"])[0])
        assert backend.calls == 0


class TestCosine:
    def test_identical_unit_vectors(self):
        assert cosine([1.0, 0.0], [1.0, 0.0]) == 1.0

    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_hand_value(self):
        assert cosine([1.0, 1.0], [1.0, 0.0]) == pytest.approx(0.7071, abs=1e-4)

    def test_zero_vector_rejected(self):
        with pytest.raises(EhrqaError, match="zero vector"):
            cosine([0.0, 0.0], [1.0, 0.0])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(EhrqaError, match="mismatch"):
            cosine([1.0], [1.0, 0.0])


class FakeResponse:
    def __init__(self, status_code=200, text="ok", payload=None):
        self.status_code = status_code
        self.text = text
        self._payload = payload or {"choices": [{"message": {"content": "hi"}}]}

    def json(self):
        return self._payload


class TestHttpProvider:
    def test_success_first_try(self):
        provider = HttpChatProvider(
            "https://api.example/v1",
            "key",
            transport=lambda url, payload, headers: FakeResponse(),
            sleep=lambda s: None,
        )
        assert provider.generate(req()).text == "hi"

    def test_retries_on_transient_then_succeeds(self):
        calls = []

        def transport(url, payload, headers):
            calls.append(1)
            if len(calls) < 3:
                return FakeResponse(status_code=429)
            return FakeResponse()

        provider = HttpChatProvider(
            "https://api.example/v1",
            "key",
            transport=transport,
            sleep=lambda s: None,
            retry=RetryPolicy(max_attempts=3, backoff_seconds=0),
        )
        assert provider.generate(req()).text == "hi"
        assert len(calls) == 3

    def test_gives_up_after_bounded_attempts(self):
        provider = HttpChatProvider(
            "https://api.example/v1",
            "key",
            transport=lambda *a: FakeResponse(status_code=503),
            sleep=lambda s: None,
            retry=RetryPolicy(max_attempts=3, backoff_seconds=0),
        )
        with pytest.raises(ProviderError, match="3 attempts"):
            provider.generate(req())

    def test_non_retryable_client_error_raises_immediately(self):
        calls = []

        def transport(url, payload, headers):
            calls.append(1)
            return FakeResponse(status_code=401, text="denied")

        provider = HttpChatProvider(
            "https://api.example/v1", "key", transport=transport, sleep=lambda s: None
        )
        with pytest.raises(ProviderError, match="401"):
            provider.generate(req())
        assert len(calls) == 1

    @pytest.mark.parametrize("failure", ["status", "transport"])
    @pytest.mark.parametrize("kind", ["chat", "embedding"])
    def test_no_sleep_after_last_attempt(self, kind, failure):
        def transport(url, payload, headers):
            if failure == "transport":
                raise ConnectionError("refused")
            return FakeResponse(status_code=503)

        slept = []
        cls = HttpChatProvider if kind == "chat" else HttpEmbeddingProvider
        provider = cls("https://api.example/v1", "key", transport=transport, sleep=slept.append)
        with pytest.raises(ProviderError, match="3 attempts"):
            if kind == "chat":
                provider.generate(req())
            else:
                provider.embed(["text"])
        assert slept == [0.5, 1.0]

    @pytest.mark.parametrize(
        "kind,payload",
        [
            ("chat", None),
            ("chat", {"id": "x"}),
            ("chat", {"choices": []}),
            ("embedding", None),
            ("embedding", {"id": "x"}),
            ("embedding", {"data": [{"embedding": [1.0, 0.0]}, {"embedding": [1.0]}]}),
            ("embedding", {"data": [{"embedding": [1.0, 0.0]}]}),
        ],
        ids=[
            "chat-not-json", "chat-no-choices", "chat-empty-choices",
            "embedding-not-json", "embedding-no-data", "embedding-mixed-shapes",
            "embedding-too-few-vectors",
        ],
    )
    def test_malformed_body_raises_provider_error_naming_the_url(self, kind, payload):
        class Body(FakeResponse):
            def json(self):
                if payload is None:
                    raise json.JSONDecodeError("Expecting value", "<html>", 0)
                return payload

        calls = []

        def transport(url, body, headers):
            calls.append(url)
            return Body()

        cls = HttpChatProvider if kind == "chat" else HttpEmbeddingProvider
        provider = cls("https://api.example/v1", "key", transport=transport, sleep=lambda s: None)
        with pytest.raises(ProviderError, match="https://api.example/v1/"):
            if kind == "chat":
                provider.generate(req())
            else:
                provider.embed(["one", "two"])
        assert len(calls) == 1  # a malformed body is an answer, not a transient failure

    def test_env_var_names(self):
        assert env_var_names("gpt-5.2") == ("EHRQA_GPT_5_2_ENDPOINT", "EHRQA_GPT_5_2_API_KEY")


class TestGatherResponses:
    def test_results_in_request_order_despite_scheduling(self):
        provider = ScriptedProvider(handler=lambda r: r.request_tag)
        outcomes = gather_responses(provider, [req("b"), req("a"), req("c")])
        assert provider.calls == ["b", "a", "c"]  # made inline, one after another
        assert [o.request.request_tag for o in outcomes] == ["b", "a", "c"]
        assert [o.response.text for o in outcomes] == ["b", "a", "c"]

    def test_failures_captured_not_raised(self):
        provider = ScriptedProvider({"ok": "fine"})
        outcomes = gather_responses(provider, [req("missing"), req("ok")])
        assert not outcomes[0].ok
        assert isinstance(outcomes[0].error, ProviderError)
        assert outcomes[1].ok  # the batch went on past the failure
        assert outcomes[1].response.text == "fine"

    @pytest.mark.parametrize("threads", [None, 1, 2])
    @pytest.mark.parametrize(
        "error", [TypeError("bug in a generator"), CacheMissError("no cached response")]
    )
    def test_errors_other_than_provider_errors_propagate(self, error, threads):
        """At once, whether the batch is called directly (None) or from the
        cases of a run mapped over 1 or 2 threads."""

        def respond(request):
            if request.request_tag.endswith("b"):
                raise error
            return "fine"

        provider = ScriptedProvider(handler=respond)

        def batch(case_id):
            return gather_responses(provider, [req(f"{case_id}/{t}") for t in "abc"])

        with pytest.raises(type(error), match=str(error)):
            if threads is None:
                batch("1")
            else:
                _map_cases(batch, ["1", "2"], threads)
        assert provider.calls
        assert not any(tag.endswith("c") for tag in provider.calls)

    def test_duplicate_tags_rejected(self):
        with pytest.raises(EhrqaError, match="unique"):
            gather_responses(ScriptedProvider({}), [req("a"), req("a")])


class TestPipelineMock:
    def test_st2_outputs_valid_ids_from_prompt(self):
        prompt = "Note sentences:\n1. First.\n2. Second.\n3. Third.\n\nOutput format: JSON"
        request = GenRequest(
            deployment_name="m",
            messages=(Message("user", prompt),),
            request_tag="c/st2/m/0",
        )
        text = PipelineMockProvider().generate(request).text
        assert text == '["1", "2"]'

    def test_deterministic(self):
        request = GenRequest(
            deployment_name="m",
            messages=(Message("user", "Note sentences:\n1. A.\n"),),
            request_tag="c/st2/m/0",
        )
        mock = PipelineMockProvider()
        assert mock.generate(request).text == mock.generate(request).text

    def test_a_case_id_with_a_slash_gets_the_same_answers(self, tmp_path):
        """The stage is the first tag segment after the case_id that names one."""
        renamed = tmp_path / "ward.jsonl"
        records = [json.loads(line) for line in toy_dataset_path().read_text().splitlines()]
        renamed.write_text(
            "".join(json.dumps(dict(r, case_id=f"ward/{r['case_id']}")) + "\n" for r in records)
        )
        outputs = {}
        for name, cases in (("plain", toy_dataset_path()), ("ward", renamed)):
            run_pipeline(resolve_config({
                "dataset": {"cases": str(cases), "split": "dev"},
                "provider_mode": "mock",
                "subtasks": ["st1", "st2", "st3", "st4"],
                "out_dir": str(tmp_path / name),
                "cache_dir": str(tmp_path / "cache"),
            }))
            outputs[name] = {
                sub: (tmp_path / name / f"{sub}.jsonl").read_text()
                for sub in ("st1", "st2", "st3", "st4")
            }
        assert '"evidence_ids": []' not in outputs["plain"]["st2"]
        for sub, text in outputs["ward"].items():
            assert text.replace('"ward/', '"') == outputs["plain"][sub]


def test_the_live_embedder_takes_its_credentials_from_the_environment(monkeypatch):
    monkeypatch.setenv("EHRQA_EMBEDDER_ENDPOINT", "https://embed.example/v1/")
    monkeypatch.setenv("EHRQA_EMBEDDER_API_KEY", "embed-key")
    config = resolve_config({"provider_mode": "live"})
    embedder = build_embedder(config)
    assert isinstance(embedder, HttpEmbeddingProvider)
    assert (embedder.endpoint, embedder.api_key, embedder.model) == (
        "https://embed.example/v1", "embed-key", "embedder"
    )
    monkeypatch.delenv("EHRQA_EMBEDDER_API_KEY")
    with pytest.raises(EhrqaError, match="EHRQA_EMBEDDER_ENDPOINT and EHRQA_EMBEDDER_API_KEY"):
        build_embedder(config)
