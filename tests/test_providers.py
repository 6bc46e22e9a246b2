import threading

import numpy as np
import pytest

from ehrqa.core import CacheMissError, EhrqaError, ProviderError
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

    def test_cache_stats_and_prune(self, tmp_path):
        cache = ResponseCache(tmp_path)
        ReplayGenerator(cache, inner=ScriptedProvider({"t": "x"}), mode="record").generate(req("t"))
        assert cache.stats()["entries"] == 1
        assert cache.prune() == 1
        assert cache.entries() == []


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

    def test_env_var_names(self):
        assert env_var_names("gpt-5.2") == ("EHRQA_GPT_5_2_ENDPOINT", "EHRQA_GPT_5_2_API_KEY")


class TestGatherResponses:
    def test_results_in_request_order_despite_scheduling(self):
        release = threading.Event()

        class SlowFirst:
            def generate(self, request):
                if request.request_tag == "a":
                    release.wait(timeout=5)
                else:
                    release.set()
                return ScriptedProvider(handler=lambda r: r.request_tag).generate(request)

        outcomes = gather_responses(
            SlowFirst(), [req("a"), req("b")], max_workers=2
        )
        assert [o.request.request_tag for o in outcomes] == ["a", "b"]
        assert [o.response.text for o in outcomes] == ["a", "b"]

    def test_failures_captured_not_raised(self):
        provider = ScriptedProvider({"ok": "fine"})
        outcomes = gather_responses(provider, [req("ok"), req("missing")], max_workers=1)
        assert outcomes[0].ok
        assert not outcomes[1].ok
        assert isinstance(outcomes[1].error, ProviderError)

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
