import base64
import errno
import hashlib
import itertools
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import textwrap
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ehrqa
from ehrqa.cli import main
from ehrqa.core import CacheMissError, EhrqaError, ProviderError
from ehrqa.dataset import toy_dataset_path
from ehrqa.pipeline import _map_cases, build_embedder, resolve_config, run_pipeline
from ehrqa.prompting import Message
from ehrqa.providers import (
    CachedEmbedder,
    GenRequest,
    HashEmbedder,
    HttpChatProvider,
    HttpEmbeddingProvider,
    PipelineMockProvider,
    ReplayGenerator,
    ResponseCache,
    _RecordReplay,
    cosine,
    embed_cache_key,
    env_var_names,
    gather_responses,
    request_cache_key,
)
from tests.conftest import FailingProvider, ScriptedProvider
from tests.test_cli import tree_bytes


def req(tag="c1/st2/0", content="prompt", deployment="m1", temperature=0.0, sample=0):
    return GenRequest(
        deployment_name=deployment,
        messages=(Message("user", content),),
        temperature=temperature,
        request_tag=tag,
        sample_index=sample,
    )


def _refuse_unnamed_files(monkeypatch) -> list[str]:
    """Make ``os.open`` refuse ``O_TMPFILE`` as a file system without it
    does; returns the directories it was refused for."""
    real_open, refused = os.open, []

    def open_(path, flags, *args, **kwargs):
        if flags & os.O_TMPFILE == os.O_TMPFILE:
            refused.append(path)
            raise OSError(errno.EOPNOTSUPP, os.strerror(errno.EOPNOTSUPP), path)
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", open_)
    return refused


@pytest.fixture(params=["unnamed", "refused", "no-flag"])
def publish(request, monkeypatch):
    """How ``ResponseCache.put`` publishes: an unnamed file, or the named
    temporary file it falls back to where the directory refuses
    ``O_TMPFILE`` or ``os`` has no such flag."""
    if request.param != "no-flag" and not hasattr(os, "O_TMPFILE"):
        pytest.skip("os.O_TMPFILE is Linux-only")
    if request.param == "refused":
        _refuse_unnamed_files(monkeypatch)
    elif request.param == "no-flag":
        monkeypatch.delattr(os, "O_TMPFILE")
    return request.param


class TestScriptedProvider:
    def test_scripted_by_tag(self):
        provider = ScriptedProvider({"c1/st2/0": '["2","5"]'})
        assert provider.generate(req()) == '["2","5"]'

    def test_unknown_tag_raises(self):
        with pytest.raises(ProviderError):
            ScriptedProvider({}).generate(req())

    def test_handler_fallback(self):
        provider = ScriptedProvider(handler=lambda r: r.request_tag.upper())
        assert provider.generate(req("a/b/1")) == "A/B/1"


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
        assert recorder.generate(req("t")) == "hello"
        assert cache.stats(".json") == {"hits": 0, "misses": 1, "entries": 1}

        replayer = ReplayGenerator(cache, mode="replay")
        assert replayer.generate(req("t")) == replayer.generate(req("t")) == "hello"
        assert cache.stats(".json") == {"hits": 2, "misses": 1, "entries": 1}

    def test_strict_replay_miss_names_tag(self, tmp_path):
        replayer = ReplayGenerator(ResponseCache(tmp_path), mode="replay")
        with pytest.raises(CacheMissError, match="c1/st2/0"):
            replayer.generate(req())

    def test_replay_makes_zero_backend_calls(self, tmp_path):
        cache = ResponseCache(tmp_path)
        ReplayGenerator(cache, inner=ScriptedProvider({"t": "x"}), mode="record").generate(req("t"))
        backend = FailingProvider()
        replayer = ReplayGenerator(cache, mode="replay")
        assert replayer.generate(req("t")) == "x"
        assert backend.calls == 0

    def test_samples_stored_separately(self, tmp_path):
        cache = ResponseCache(tmp_path)
        script = ScriptedProvider(handler=lambda r: f"sample-{r.sample_index}")
        recorder = ReplayGenerator(cache, inner=script, mode="record")
        recorder.generate(req("a", sample=0))
        recorder.generate(req("b", sample=1))
        replayer = ReplayGenerator(cache, mode="replay")
        assert replayer.generate(req("z", sample=0)) == "sample-0"
        assert replayer.generate(req("z", sample=1)) == "sample-1"

    def test_record_resumes_from_cache(self, tmp_path):
        cache = ResponseCache(tmp_path)
        ReplayGenerator(cache, inner=ScriptedProvider({"t": "x"}), mode="record").generate(req("t"))
        backend = FailingProvider()
        resumed = ReplayGenerator(ResponseCache(tmp_path), inner=backend, mode="record")
        assert resumed.generate(req("t")) == "x"
        assert backend.calls == 0
        assert resumed.stats() == {"hits": 1, "misses": 0, "entries": 1}

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
        assert ReplayGenerator(ResponseCache(tmp_path)).generate(request) == "old"

    def test_cache_stats_and_prune(self, tmp_path):
        cache = ResponseCache(tmp_path)
        ReplayGenerator(cache, inner=ScriptedProvider({"t": "x"}), mode="record").generate(req("t"))
        CachedEmbedder(cache, inner=HashEmbedder(), mode="record").embed(["a"])
        assert cache.stats(".json")["entries"] == cache.stats(".f64")["entries"] == 1
        assert cache.prune([".json"]) == 1
        assert cache.entries(".json") == []
        assert cache.prune([".json", ".f64"]) == 1
        assert list(tmp_path.iterdir()) == []

    def test_stats_count_the_entries_of_one_suffix(self, tmp_path):
        cache = ResponseCache(tmp_path)
        for i in range(3):
            cache.put(f"k{i}", ".json", b'{"response":{"text":"x"}}')
        cache.put("k0", ".f64", bytes(8))
        (tmp_path / "k3.json.123-456.tmp").write_text("{", encoding="utf-8")
        assert cache.stats(".json")["entries"] == len(list(tmp_path.glob("*.json"))) == 3
        assert cache.entries(".json") == ["k0", "k1", "k2"]
        assert cache.entries(".f64") == ["k0"]

    def test_runs_that_mark_a_directory_at_once_all_get_the_first_source(self, tmp_path, publish):
        """The marker is published as an entry is: one source wins, every
        run reads it, and no temporary file is left."""
        start = threading.Barrier(8, timeout=10)
        got: dict[int, str] = {}

        def mark(i):
            start.wait()
            got[i] = ResponseCache(tmp_path).mark(("live", "mock")[i % 2])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=mark, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        (source,) = set(got.values())
        assert len(got) == 8 and ResponseCache(tmp_path).source() == source
        assert [p.name for p in tmp_path.iterdir()] == [ResponseCache.MARKER]
        assert (tmp_path / ResponseCache.MARKER).read_bytes() == f"{source}\n".encode()


@pytest.mark.parametrize(
    "wrapper, inner, ask, asked",
    [
        (ReplayGenerator, ScriptedProvider(handler=lambda r: "reply"),
         lambda w: w.generate(req()), "'c1/st2/0'"),
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
        assert resumed.stats() == {"hits": 1, "misses": 0, "entries": 1}

    def test_an_entry_holds_only_the_field_it_is_served_from(
        self, tmp_path, wrapper, inner, ask, asked
    ):
        """Nothing is written that no reader reads: the key already stands
        for what was asked, so the entry holds what is served alone, in the
        file kind its wrapper writes."""
        served = ask(wrapper(ResponseCache(tmp_path), inner, "record"))
        (entry,) = tmp_path.iterdir()
        assert entry.suffix == wrapper.suffixes[0]
        if wrapper is ReplayGenerator:
            assert json.loads(entry.read_bytes()) == {"response": {"text": served}}
        else:
            assert entry.read_bytes() == np.array(served, dtype="<f8").tobytes()

    def test_an_entry_stored_during_the_call_is_served(self, tmp_path, wrapper, inner, ask, asked):
        """Another request stores the key while this one calls its backend:
        that first entry stays, and this request serves it as a hit."""
        first = wrapper(ResponseCache(tmp_path), inner, "record")
        late = LateBackend(lambda: ask(first))
        second = wrapper(ResponseCache(tmp_path), late, "record")
        assert ask(second) == late.first
        assert ask(wrapper(ResponseCache(tmp_path), None, "replay")) == late.first
        assert first.stats() == {"hits": 0, "misses": 1, "entries": 1}
        assert second.stats() == {"hits": 1, "misses": 0, "entries": 1}


class LateBackend:
    """A backend whose call first runs ``record_first``, which stores the
    key of the call, and then returns a reply unlike the stored one."""

    def __init__(self, record_first):
        self.record_first = record_first

    def generate(self, request):
        self.first = self.record_first()
        return "late"

    def embed(self, texts):
        self.first = self.record_first()
        return [np.full(3, 0.5) for _ in texts]


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
        assert json.loads(data) == {"response": {"text": "reply"}}

    @pytest.mark.parametrize(
        "content",
        [
            '{"response": {"text": "tru', "[]", '{"request": {}}',
            '{"response": 5}', '{"response": {}}',
            '{"response": {"text": 5, "deployment_name": "d"}}',
            '{"response": ' + "[" * 100_000 + "]" * 100_000 + "}",
            '{"response": null}',
        ],
        ids=[
            "truncated", "not-an-object", "no-response", "response-not-an-object",
            "response-empty", "text-not-a-string", "nested-too-deep", "response-null",
        ],
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
        [
            '{"response": {"text": "t", "deployment_name": ["d"]}}',
            '{"response": {"text": "t", "deployment_name": "d", "latency_ms": true}}',
            '{"response": {"text": "t", "deployment_name": "d", "latency_ms": "3"}}',
            '{"response": {"text": "t", "deployment_name": "d", "latency_ms": null}}',
        ],
        ids=["deployment-not-a-string", "latency-bool", "latency-text", "latency-null"],
    )
    def test_an_old_entry_serves_its_text_whatever_its_unserved_fields(self, tmp_path, content):
        """Only ``response.text`` is served, so only it is checked: an entry
        of an earlier form whose other fields are malformed still replays,
        and is not rewritten."""
        request = req("c7/st4/m2/0")
        entry = tmp_path / f"{request_cache_key(request)}.json"
        entry.write_text(content, encoding="utf-8")
        for mode, inner in (("replay", None), ("record", FailingProvider())):
            generator = ReplayGenerator(ResponseCache(tmp_path), inner=inner, mode=mode)
            assert generator.generate(request) == "t"
            assert generator.stats() == {"hits": 1, "misses": 0, "entries": 1}
        assert entry.read_text(encoding="utf-8") == content

    @pytest.mark.parametrize(
        "content",
        [
            '{"vectors": [[0.1, 0.', '{"model": "default"}', '{"vectors": [[1.0, 0.0]]}',
            '{"vectors": [[1.0], [0.0, 1.0]]}', '{"vectors": [[], []]}',
            '{"vectors": [null, null]}', '{"vectors": [[1.0, "x"], [0.0, 1.0]]}',
            '{"vectors": [[true], [false]]}', '{"vectors": [[1%s], [1.0]]}' % ("0" * 400),
            '{"vectors": {"a": 1, "b": 2}}',
            '{"vectors": "AAAA AAAAAAAAAAAAAAAAAAA="}', '{"vectors": "AAAAAAAAAAA="}',
            '{"vectors": "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"}', '{"vectors": ""}',
            '{"vectors": null}',
        ],
        ids=[
            "truncated", "no-vectors", "wrong-count", "list-ragged", "list-empty-rows",
            "list-nulls", "list-text-value", "list-bools", "list-huge-int", "not-a-list",
            "invalid-base64", "base64-one-vector-for-two", "base64-wrong-byte-count",
            "base64-empty", "vectors-null",
        ],
    )
    def test_unreadable_embedding_entry_names_key(self, tmp_path, content):
        key = embed_cache_key("default", ["alpha", "beta"])
        (tmp_path / f"{key}.json").write_text(content, encoding="utf-8")
        for mode, inner in (("replay", None), ("record", FailingProvider())):
            embedder = CachedEmbedder(ResponseCache(tmp_path), inner=inner, mode=mode)
            with pytest.raises(CacheMissError, match=rf"{key}.*'alpha'"):
                embedder.embed(["alpha", "beta"])

    @pytest.mark.parametrize(
        "data",
        [b"", np.zeros((2, 4), dtype="<f8").tobytes()[:60], np.zeros(3, dtype="<f8").tobytes()],
        ids=["empty", "truncated", "one-vector-for-two"],
    )
    def test_unreadable_vector_entry_names_key(self, tmp_path, data):
        """A ``.f64`` entry for two texts must hold a positive multiple of
        16 bytes, as a base64 one must decode to."""
        key = embed_cache_key("default", ["alpha", "beta"])
        (tmp_path / f"{key}.f64").write_bytes(data)
        for mode, inner in (("replay", None), ("record", FailingProvider())):
            embedder = CachedEmbedder(ResponseCache(tmp_path), inner=inner, mode=mode)
            with pytest.raises(
                CacheMissError,
                match=rf"^cache entry {key} for .*'alpha'.* holds no valid vectors "
                rf"\({len(data)} bytes for 2 vector\(s\)\)$",
            ):
                embedder.embed(["alpha", "beta"])

    def test_put_leaves_no_temporary_file(self, tmp_path, publish):
        cache = ResponseCache(tmp_path)
        cache.put("k", ".json", b'{"response":{"text":"x"}}')
        assert [p.name for p in tmp_path.iterdir()] == ["k.json"]
        assert (tmp_path / "k.json").read_bytes() == b'{"response":{"text":"x"}}'

    def test_put_keeps_a_keys_first_entry(self, tmp_path, publish):
        cache = ResponseCache(tmp_path)
        assert cache.put("k", ".f64", b"first") is True
        assert cache.put("k", ".f64", b"second") is False
        assert [p.name for p in tmp_path.iterdir()] == ["k.f64"]
        assert (tmp_path / "k.f64").read_bytes() == b"first"
        assert cache.get("k", [".json", ".f64"]) == (".f64", b"first")

    def test_a_refused_unnamed_file_moves_the_cache_to_the_named_path_once(
        self, tmp_path, monkeypatch
    ):
        if not hasattr(os, "O_TMPFILE"):
            pytest.skip("os.O_TMPFILE is Linux-only")
        refused = _refuse_unnamed_files(monkeypatch)
        cache = ResponseCache(tmp_path)
        assert [cache.put(f"k{i}", ".json", b"{}") for i in range(3)] == [True] * 3
        assert refused == [str(tmp_path)]
        ResponseCache(tmp_path).put("k3", ".json", b"{}")
        assert len(refused) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == [f"k{i}.json" for i in range(4)]

    def test_an_unnamed_file_error_of_another_kind_is_raised(self, tmp_path, monkeypatch):
        if not hasattr(os, "O_TMPFILE"):
            pytest.skip("os.O_TMPFILE is Linux-only")

        def link(*args, **kwargs):
            raise PermissionError(errno.EACCES, "denied")

        monkeypatch.setattr(os, "link", link)
        with pytest.raises(PermissionError):
            ResponseCache(tmp_path).put("k", ".json", b"{}")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("path, orphans", [("unnamed", 0), ("no-flag", 1)])
    def test_a_writer_killed_before_its_link_leaves_only_a_named_orphan(
        self, tmp_path, capsys, path, orphans
    ):
        """A writer killed between writing an entry and linking it leaves
        nothing on the unnamed path, and its ``.tmp`` file on the named one,
        which ``ehrqa cache inspect`` counts."""
        if path == "unnamed" and not hasattr(os, "O_TMPFILE"):
            pytest.skip("os.O_TMPFILE is Linux-only")
        script = textwrap.dedent(
            """
            import os, signal, sys
            from ehrqa.providers import ResponseCache

            if sys.argv[2] == "no-flag":
                del os.O_TMPFILE
            os.link = lambda *args, **kwargs: os.kill(os.getpid(), signal.SIGKILL)
            ResponseCache(sys.argv[1]).put("k", ".json", b"{}")
            """
        )
        src = Path(ehrqa.__file__).parent.parent
        result = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path), path], capture_output=True,
            env={**os.environ, "PYTHONPATH": str(src)}, timeout=60,
        )
        assert result.returncode == -signal.SIGKILL, result.stderr
        assert [p.name.endswith(ResponseCache.TEMP) for p in tmp_path.iterdir()] == [True] * orphans
        assert main(["cache", "inspect", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert ("1 orphaned .tmp file(s)" in out) == bool(orphans)

    def test_puts_leave_no_file_descriptor_open(self, tmp_path, publish):
        fds = Path("/proc/self/fd")
        if not fds.is_dir():
            pytest.skip("no /proc/self/fd to count")
        cache = ResponseCache(tmp_path)
        before = len(list(fds.iterdir()))
        stored = [cache.put(f"k{i % 250}", ".json", b"{}") for i in range(500)]
        assert len(list(fds.iterdir())) == before
        assert stored == [True] * 250 + [False] * 250

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask022", "umask077"])
    def test_both_paths_give_an_entry_the_same_mode(self, tmp_path, monkeypatch, umask):
        if not hasattr(os, "O_TMPFILE"):
            pytest.skip("os.O_TMPFILE is Linux-only")
        old = os.umask(umask)
        try:
            ResponseCache(tmp_path / "unnamed").put("k", ".json", b"{}")
            with monkeypatch.context() as patch:
                patch.delattr(os, "O_TMPFILE")
                ResponseCache(tmp_path / "named").put("k", ".json", b"{}")
        finally:
            os.umask(old)
        modes = {name: (tmp_path / name / "k.json").stat().st_mode for name in ("unnamed", "named")}
        assert modes["unnamed"] == modes["named"] == 0o100666 & ~umask

    def test_the_generator_writes_the_bytes_of_earlier_versions(self, tmp_path):
        """A generator entry is the compact, key-sorted JSON that
        ``ResponseCache.put`` wrote when it encoded entries itself."""
        text = 'ünïcode "quoted"\nline'
        ReplayGenerator(ResponseCache(tmp_path), ScriptedProvider({"t": text}), "record").generate(
            req("t")
        )
        (entry,) = tmp_path.iterdir()
        assert entry.read_bytes() == json.dumps(
            {"response": {"text": text}}, ensure_ascii=False, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")

    def test_concurrent_replay_identical_and_counted(self, tmp_path):
        cache = ResponseCache(tmp_path)
        script = ScriptedProvider(handler=lambda r: f"reply to {r.request_tag}")
        recorder = ReplayGenerator(cache, inner=script, mode="record")
        requests = [req(f"c{i}/st2/m1/0", content=f"prompt {i}") for i in range(50)]
        for request in requests:
            recorder.generate(request)

        replayer = ReplayGenerator(ResponseCache(tmp_path), mode="replay")

        def replay_all(_):
            return [replayer.generate(r) for r in requests]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(replay_all, range(8), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert all(texts == [f"reply to {r.request_tag}" for r in requests] for texts in results)
        assert replayer.stats() == {"hits": 8 * 50, "misses": 0, "entries": 50}


    def test_concurrent_records_of_one_key_serve_its_first_entry(self, tmp_path, publish):
        replies = itertools.count()

        def reply(request):
            time.sleep(0.001)  # so that the threads' calls overlap
            return f"reply {next(replies)}"

        script = ScriptedProvider(handler=reply)
        recorder = ReplayGenerator(ResponseCache(tmp_path), inner=script, mode="record")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                responses = pool.map(lambda _: recorder.generate(req()), range(64), timeout=60)
                texts = list(responses)
        finally:
            sys.setswitchinterval(interval)
        stored = ReplayGenerator(ResponseCache(tmp_path)).generate(req())
        assert texts == [stored] * 64
        assert recorder.stats() == {"hits": 63, "misses": 1, "entries": 1}


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
        assert len(cache.entries(".f64")) == 1 and cache.entries(".json") == []
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


# Float64 values whose decimal text is easy to get wrong: signed zeros,
# subnormals, the extremes and the infinities.
_AWKWARD = st.sampled_from([-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308,
                            math.inf, -math.inf])
_ROWS = st.integers(1, 6).flatmap(lambda n: st.integers(1, 64).flatmap(
    lambda dim: st.lists(
        st.lists(st.one_of(_AWKWARD, st.floats(allow_nan=False)), min_size=dim, max_size=dim),
        min_size=n, max_size=n,
    )
))


def _json_entry(entry: dict) -> bytes:
    return json.dumps(entry, ensure_ascii=False, sort_keys=True, separators=(",", ":")).encode()


def _base64_entry(self, texts, vectors):
    """An embedding entry as written before vectors got their own files."""
    raw = np.asarray(vectors, dtype="<f8").tobytes()
    return _json_entry({"vectors": base64.b64encode(raw).decode("ascii")})


def _list_form_entry(self, texts, vectors):
    """An embedding entry as written before vectors were stored as bytes."""
    rows = [np.asarray(v, dtype=float).tolist() for v in vectors]
    return _json_entry({"model": self.model, "vectors": rows})


def _model_entry(self, texts, vectors):
    """A base64 embedding entry as written before it held its vectors alone."""
    return _json_entry({"model": self.model, **json.loads(_base64_entry(self, texts, vectors))})


def _deployment_and_latency_entry(self, request, text):
    """A generator entry as written before its response held its text alone."""
    response = {"text": text, "deployment_name": request.deployment_name, "latency_ms": 0.0}
    return _json_entry({"response": response})


def _request_block_entry(self, request, text):
    """A generator entry as written before it held its response alone."""
    return _json_entry({
        "request": {
            "deployment_name": request.deployment_name,
            "request_tag": request.request_tag,
            "sample_index": request.sample_index,
            "temperature": request.temperature,
            "max_output_tokens": request.max_output_tokens,
        },
        **json.loads(_deployment_and_latency_entry(self, request, text)),
    })


def _record_toy(tmp_path, name):
    """Record st1-st4, with st3 rerank and st4 recall, on the toy set."""
    out, cache = tmp_path / f"out-{name}", tmp_path / f"cache-{name}"
    config = {
        "dataset": {"cases": str(toy_dataset_path()), "split": "dev"},
        "subtasks": ["st1", "st2", "st3", "st4"],
        "provider_mode": "record",
        "record_source": "mock",
        "out_dir": str(out),
        "cache_dir": str(cache),
        "workers": 1,
        "st3": {"rerank": True},
        "st4": {"recall": {"enabled": True}},
    }
    run_pipeline(resolve_config(config))
    return config, out, cache


def _response_entry(self, request, text):
    """A generator entry in today's form."""
    return _json_entry({"response": {"text": text}})


def _record_toy_in_json(tmp_path, name, monkeypatch, generator_entry, embedding_entry):
    """``_record_toy`` as an earlier version recorded it: every entry a
    ``.json`` file, whose bytes the two writers given make from the wrapper,
    what was asked and the result."""
    serve = _RecordReplay._serve

    def noting_what_was_asked(self, key, what, asked):
        self.asked = asked  # the run has one worker, so one call at a time
        return serve(self, key, what, asked)

    with monkeypatch.context() as patch:
        patch.setattr(_RecordReplay, "_serve", noting_what_was_asked)
        patch.setattr(ReplayGenerator, "_to_entry", lambda self, text: generator_entry(
            self, self.asked, text))
        patch.setattr(CachedEmbedder, "_to_entry", lambda self, vectors: embedding_entry(
            self, self.asked, vectors))
        patch.setattr(CachedEmbedder, "suffixes", (".json",))
        return _record_toy(tmp_path, name)


def _files(cache):
    """The cache's entries by name; the source marker is not one."""
    return {
        p.name: p.read_bytes() for p in sorted(cache.iterdir()) if p.name != ResponseCache.MARKER
    }


def _json_entries(cache):
    return [json.loads(data) for data in _files(cache).values()]


def _assert_replays_as_recorded(tmp_path, old_config, old_cache):
    """A replay of the old-form recording in ``old_cache`` gives the outputs
    a recording in today's form gives, with no miss, and rewrites no entry."""
    _, out, cache = _record_toy(tmp_path, "today")
    stems = {name.rsplit(".", 1)[0] for name in _files(cache)}
    before = _files(old_cache)
    assert {name.rsplit(".", 1)[0] for name in before} == stems
    assert all(name.endswith(".json") for name in before)
    replay_out = tmp_path / "replayed"
    manifest = run_pipeline(resolve_config(
        {**old_config, "provider_mode": "replay", "out_dir": str(replay_out)}
    ))
    assert manifest["cache"]["misses"] == manifest["embedding_cache"]["misses"] == 0
    assert manifest["cache"]["entries"] == len(before)
    assert manifest["embedding_cache"] == {"hits": 6, "misses": 0, "entries": 0}
    replayed = {k: v for k, v in tree_bytes(replay_out).items() if k.startswith("st")}
    recorded = {k: v for k, v in tree_bytes(out).items() if k.startswith("st")}
    assert replayed == recorded and "st4.jsonl" in replayed
    assert _files(old_cache) == before


class TestEmbeddingEntryForm:
    @settings(max_examples=80, deadline=None)
    @given(_ROWS)
    def test_vectors_round_trip_bit_for_bit(self, rows):
        texts = [f"text {i}" for i in range(len(rows))]
        inner = SimpleNamespace(embed=lambda asked: [np.array(r, dtype=float) for r in rows])
        with tempfile.TemporaryDirectory() as root:
            CachedEmbedder(ResponseCache(root), inner=inner, mode="record").embed(texts)
            replayed = CachedEmbedder(ResponseCache(root)).embed(texts)
        assert [v.tobytes() for v in replayed] == [np.array(r, dtype=float).tobytes() for r in rows]
        assert all(v.dtype == np.float64 and v.flags.writeable for v in replayed)

    def test_an_entry_holds_little_endian_float64_rows(self, tmp_path):
        """The bytes an earlier version stored as base64 in a JSON entry,
        with nothing around them."""
        rows = [[1.0, -0.0], [5e-324, -math.inf]]
        inner = SimpleNamespace(embed=lambda asked: [np.array(r) for r in rows])
        CachedEmbedder(ResponseCache(tmp_path), inner=inner, mode="record", model="m").embed(["a", "b"])
        assert _files(tmp_path) == {
            f"{embed_cache_key('m', ['a', 'b'])}.f64":
                base64.b64decode("AAAAAAAA8D8AAAAAAAAAgAEAAAAAAAAAAAAAAAAA8P8="),
        }

    def test_a_vector_entry_is_served_before_a_json_one(self, tmp_path):
        key = embed_cache_key("default", ["alpha"])
        (tmp_path / f"{key}.json").write_text('{"vectors": [[1.0, 0.0]]}', encoding="utf-8")
        (tmp_path / f"{key}.f64").write_bytes(np.array([0.0, 1.0], dtype="<f8").tobytes())
        for mode, inner in (("replay", None), ("record", FailingProvider())):
            embedder = CachedEmbedder(ResponseCache(tmp_path), inner=inner, mode=mode)
            assert embedder.embed(["alpha"])[0].tolist() == [0.0, 1.0]
            assert embedder.stats() == {"hits": 1, "misses": 0, "entries": 1}

    @pytest.mark.parametrize("form", ["base64", "lists"])
    def test_a_json_recording_replays_to_the_same_outputs(self, tmp_path, monkeypatch, form):
        """A recording by the version before vectors got their own files
        (base64 in ``.json``), and one from before that (JSON lists)."""
        embedding_entry = {"base64": _base64_entry, "lists": _list_form_entry}[form]
        old_config, _, old_cache = _record_toy_in_json(
            tmp_path, form, monkeypatch, _response_entry, embedding_entry
        )
        vectors = [e["vectors"] for e in _json_entries(old_cache) if "vectors" in e]
        assert len(vectors) == 6
        assert all(isinstance(v, str if form == "base64" else list) for v in vectors)
        _assert_replays_as_recorded(tmp_path, old_config, old_cache)

    def test_a_recording_with_request_and_model_replays_to_the_same_outputs(
        self, tmp_path, monkeypatch
    ):
        """Entries as written by earlier versions: with a ``request`` block
        and a ``model``, and, later, with the response's ``deployment_name``
        and ``latency_ms`` beside its text."""
        forms = {
            "request-and-model": (_request_block_entry, _model_entry, 42, 6),
            "deployment-and-latency": (_deployment_and_latency_entry, _base64_entry, 0, 0),
        }
        for name, (generator_entry, embedding_entry, requests, models) in forms.items():
            (tmp_path / name).mkdir()
            old_config, _, old_cache = _record_toy_in_json(
                tmp_path / name, "old", monkeypatch, generator_entry, embedding_entry
            )
            entries = _json_entries(old_cache)
            responses = [e["response"] for e in entries if "response" in e]
            assert len(responses) == 42
            assert all(r.keys() == {"text", "deployment_name", "latency_ms"} for r in responses)
            assert sum("request_tag" in e.get("request", {}) for e in entries) == requests
            assert sum("model" in e for e in entries) == models
            _assert_replays_as_recorded(tmp_path / name, old_config, old_cache)

    def test_generator_entries_are_those_of_earlier_versions(self, tmp_path):
        """The digest is over each generator entry's file name and served
        ``response.text``, so entries recorded in earlier forms give it too."""
        _, _, cache = _record_toy(tmp_path, "pin")
        digest, generator_entries = hashlib.sha256(), 0
        for path in sorted(cache.glob("*.json")):
            entry = json.loads(path.read_bytes())
            generator_entries += 1
            digest.update(path.name.encode() + b"\0" + entry["response"]["text"].encode() + b"\0")
        assert generator_entries == 42
        assert digest.hexdigest() == (
            "2b9552e1b923c863d104a71802f4c0e0d80eac4a01f8725a5cb16837beaf0bc2"
        )


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

    def test_matrix_form_scores_each_row_pair(self):
        rng = np.random.default_rng(3)
        u, v = rng.normal(size=(4, 7)), rng.normal(size=(5, 7))
        sims = cosine(u, v)
        assert sims.shape == (4, 5)
        for i in range(4):
            for j in range(5):
                assert sims[i, j] == pytest.approx(cosine(u[i], v[j]), abs=1e-12)

    def test_matrix_form_takes_lists_of_vectors(self):
        rows = HashEmbedder().embed(["a", "b", "c"])
        assert np.array_equal(cosine(rows[:1], rows), cosine(np.array(rows[:1]), np.array(rows)))

    def test_matrix_rows_of_unequal_width_rejected(self):
        with pytest.raises(EhrqaError, match=r"^vector dimension mismatch"):
            cosine([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0, 0.0]])

    @pytest.mark.parametrize("ragged_side", ["u", "v"])
    def test_matrix_ragged_rows_rejected(self, ragged_side):
        ragged, whole = [np.ones(2), np.ones(3)], [np.ones(2)]
        u, v = (ragged, whole) if ragged_side == "u" else (whole, ragged)
        with pytest.raises(EhrqaError, match=r"^vector dimension mismatch"):
            cosine(u, v)

    @pytest.mark.parametrize("zero_side", ["u", "v"])
    def test_matrix_zero_row_rejected(self, zero_side):
        with_zero, whole = [[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0]]
        u, v = (with_zero, whole) if zero_side == "u" else (whole, with_zero)
        with pytest.raises(EhrqaError, match=r"undefined for a zero vector$"):
            cosine(u, v)

    def test_a_matrix_against_a_vector_is_a_mismatch(self):
        with pytest.raises(EhrqaError, match=r"^vector dimension mismatch"):
            cosine([[1.0, 0.0]], [1.0, 0.0])


def fake_response(status=200, text=None, payload=None) -> tuple[int, bytes]:
    """What a transport returns: the status and the body's bytes, ``text``
    or else the JSON of ``payload``, a chat completion by default."""
    if text is None:
        text = json.dumps(payload or {"choices": [{"message": {"content": "hi"}}]})
    return status, text.encode()


class TestHttpProvider:
    def test_success_first_try(self):
        provider = HttpChatProvider(
            "https://api.example/v1",
            "key",
            transport=lambda url, payload, headers: fake_response(),
            sleep=lambda s: None,
        )
        assert provider.generate(req()) == "hi"

    def test_retries_on_transient_then_succeeds(self):
        calls = []

        def transport(url, payload, headers):
            calls.append(1)
            if len(calls) < 3:
                return fake_response(429)
            return fake_response()

        provider = HttpChatProvider(
            "https://api.example/v1",
            "key",
            transport=transport,
            sleep=lambda s: None,
        )
        assert provider.generate(req()) == "hi"
        assert len(calls) == 3

    def test_gives_up_after_bounded_attempts(self):
        provider = HttpChatProvider(
            "https://api.example/v1",
            "key",
            transport=lambda *a: fake_response(503),
            sleep=lambda s: None,
        )
        with pytest.raises(ProviderError, match="3 attempts"):
            provider.generate(req())

    def test_non_retryable_client_error_raises_immediately(self):
        calls = []

        def transport(url, payload, headers):
            calls.append(1)
            return fake_response(401, text="denied")

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
            return fake_response(503)

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
        calls = []

        def transport(url, body, headers):
            calls.append(url)
            if payload is None:
                return fake_response(text="<html>")
            return fake_response(payload=payload)

        cls = HttpChatProvider if kind == "chat" else HttpEmbeddingProvider
        provider = cls("https://api.example/v1", "key", transport=transport, sleep=lambda s: None)
        with pytest.raises(ProviderError, match="https://api.example/v1/"):
            if kind == "chat":
                provider.generate(req())
            else:
                provider.embed(["one", "two"])
        assert len(calls) == 1  # a malformed body is an answer, not a transient failure

    @pytest.mark.parametrize(
        "embeddings",
        [
            [[None, "1.5", True], [1.0, 2.0, 3.0]], [[], []], [[[1.0], [2.0]], [[1.0], [2.0]]],
            [5, 5], [[True, False], [1.0, 0.0]], [[1.0, 0.0], [1.0]],
            [[10**400, 0.0], [1.0, 0.0]],
        ],
        ids=["null-text-bool", "empty", "nested", "scalar", "bools", "ragged", "huge-int"],
    )
    def test_damaged_embeddings_are_malformed_responses(self, embeddings):
        """The embeddings reader takes each vector by the cache's one rule: a
        non-empty list of int or float, all vectors of one length."""
        body = {"data": [{"embedding": e} for e in embeddings]}
        provider = HttpEmbeddingProvider(
            "https://api.example/v1", "key",
            transport=lambda url, payload, headers: fake_response(payload=body),
            sleep=lambda s: None,
        )
        with pytest.raises(ProviderError, match="^malformed response from https://api.example/v1/"):
            provider.embed(["one", "two"])

    def test_embeddings_of_ints_and_floats_are_read(self):
        body = {"data": [{"embedding": [1, 0.5]}, {"embedding": [0, -2]}]}
        provider = HttpEmbeddingProvider(
            "https://api.example/v1", "key",
            transport=lambda url, payload, headers: fake_response(payload=body),
        )
        vectors = provider.embed(["one", "two"])
        assert [v.tolist() for v in vectors] == [[1.0, 0.5], [0.0, -2.0]]
        assert all(v.dtype == np.float64 for v in vectors)

    def test_env_var_names(self):
        assert env_var_names("gpt-5.2") == ("EHRQA_GPT_5_2_ENDPOINT", "EHRQA_GPT_5_2_API_KEY")


class TestGatherResponses:
    def test_results_in_request_order_despite_scheduling(self):
        provider = ScriptedProvider(handler=lambda r: r.request_tag)
        runs = gather_responses(provider, [req("b"), req("a"), req("c")], str.upper, "c1", "st2")
        assert provider.calls == ["b", "a", "c"]  # made inline, one after another
        assert runs == ["B", "A", "C"]  # each reply read by parse

    def test_failures_captured_not_raised(self, caplog):
        provider = ScriptedProvider({"ok": "fine"})
        with caplog.at_level("WARNING"):
            runs = gather_responses(provider, [req("missing"), req("ok")], str, "c1", "st2")
        assert runs[0] == ()
        assert "request missing failed: no scripted response for tag 'missing'" in caplog.text
        assert runs[1] == "fine"  # the batch went on past the failure

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
            requests = [req(f"{case_id}/{t}") for t in "abc"]
            return gather_responses(provider, requests, str, case_id, "st2")

        with pytest.raises(type(error), match=str(error)):
            if threads is None:
                batch("1")
            else:
                _map_cases(batch, ["1", "2"], threads)
        assert provider.calls
        assert not any(tag.endswith("c") for tag in provider.calls)


class TestPipelineMock:
    def test_st2_outputs_valid_ids_from_prompt(self):
        prompt = "Note sentences:\n1. First.\n2. Second.\n3. Third.\n\nOutput format: JSON"
        request = GenRequest(
            deployment_name="m",
            messages=(Message("user", prompt),),
            request_tag="c/st2/m/0",
        )
        text = PipelineMockProvider().generate(request)
        assert text == '["1", "2"]'

    def test_deterministic(self):
        request = GenRequest(
            deployment_name="m",
            messages=(Message("user", "Note sentences:\n1. A.\n"),),
            request_tag="c/st2/m/0",
        )
        mock = PipelineMockProvider()
        assert mock.generate(request) == mock.generate(request)

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


def test_the_live_embedder_takes_its_credentials_from_the_environment(monkeypatch, tmp_path):
    monkeypatch.setenv("EHRQA_EMBEDDER_ENDPOINT", "https://embed.example/v1/")
    monkeypatch.setenv("EHRQA_EMBEDDER_API_KEY", "embed-key")
    config = resolve_config({"provider_mode": "record", "cache_dir": str(tmp_path)})
    recorder = build_embedder(config)
    assert isinstance(recorder, CachedEmbedder) and recorder.mode == "record"
    embedder = recorder.inner
    assert isinstance(embedder, HttpEmbeddingProvider)
    assert (embedder.endpoint, embedder.api_key, embedder.model) == (
        "https://embed.example/v1", "embed-key", "embedder"
    )
    monkeypatch.delenv("EHRQA_EMBEDDER_API_KEY")
    with pytest.raises(EhrqaError, match="EHRQA_EMBEDDER_ENDPOINT and EHRQA_EMBEDDER_API_KEY"):
        build_embedder(config)
