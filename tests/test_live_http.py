"""The live path end to end over real HTTP, with no network: a
ThreadingHTTPServer on the loopback interface stands in for the model
vendors' APIs. It answers each chat completion with the reply a mock run
gave for the same payload, and each embeddings call from HashEmbedder. A
run reaches it only by recording from it, so a recording over the server
must write the bytes of a mock run, replay with the server gone and, when
interrupted, resume paying only for the calls it did not make. The
default transport's statuses, retries and request body are checked
against the same server."""

import importlib.util
import json
import logging
import os
import shutil
import socket
import threading
from collections import defaultdict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from ehrqa import pipeline
from ehrqa.cli import main
from ehrqa.core import ConfigError, EhrqaError, ProviderError
from ehrqa.dataset import toy_dataset_path
from ehrqa.providers import (
    HashEmbedder,
    HttpChatProvider,
    PipelineMockProvider,
    ResponseCache,
    _HttpClient,
    _RecordReplay,
)
from tests.test_providers import req

BENCH = Path(__file__).resolve().parent.parent / "bench"


def payload_key(model, messages, temperature, max_tokens) -> tuple:
    """What a chat completion's reply may depend on: its payload's fields."""
    return model, json.dumps(messages), temperature, max_tokens


def request_key(request) -> tuple:
    messages = [{"role": m.role, "content": m.content} for m in request.messages]
    return payload_key(
        request.deployment_name, messages, request.temperature, request.max_output_tokens
    )


class Backend:
    """The stand-in APIs at ``endpoint``. A chat completion is answered with
    the one reply in ``replies`` for its payload, an embeddings call from
    HashEmbedder. While ``statuses`` holds any, each request takes the
    next of them instead, with a short text body. Every request's path,
    headers and body bytes are kept in ``received``."""

    def __init__(self):
        self.replies: dict[tuple, set[str]] = {}
        self.statuses: list[int] = []
        self.received: list[tuple] = []
        self._lock = threading.Lock()
        backend = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                body = self.rfile.read(int(self.headers["Content-Length"]))
                status, reply = backend.answer(self.path, self.headers, body)
                self.send_response(status)
                if 300 <= status < 400:
                    self.send_header("Location", "/v1/moved")
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(reply)))
                self.end_headers()
                self.wfile.write(reply)

            def log_message(self, format, *args):
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.endpoint = f"http://127.0.0.1:{self.server.server_port}/v1"
        # a short poll, so that close() returns soon
        self.thread = threading.Thread(target=self.server.serve_forever, args=(0.05,), daemon=True)
        self.thread.start()

    def answer(self, path: str, headers, body: bytes) -> tuple[int, bytes]:
        with self._lock:
            self.received.append((path, headers, body))
            status = self.statuses.pop(0) if self.statuses else 200
        if status != 200:
            return status, f"status {status}".encode()
        payload = json.loads(body)
        if path == "/v1/embeddings":
            data = [{"embedding": v.tolist()} for v in HashEmbedder().embed(payload["input"])]
            return 200, json.dumps({"data": data}).encode()
        assert path == "/v1/chat/completions"
        (text,) = self.replies[payload_key(
            payload["model"], payload["messages"], payload["temperature"], payload["max_tokens"]
        )]
        return 200, json.dumps({"choices": [{"message": {"content": text}}]}).encode()

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join()


@pytest.fixture(scope="module")
def cases(tmp_path_factory):
    spec = importlib.util.spec_from_file_location("bench_casegen", BENCH / "casegen.py")
    casegen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(casegen)
    return casegen.write_cases(40, 7, tmp_path_factory.mktemp("live") / "cases.jsonl")


def run(cases: Path, out: Path, mode: str, workers: int = 1) -> dict:
    """Run st1-st4, with st3 rerank and st4 recall, writing into ``out``."""
    return pipeline.run_pipeline(pipeline.resolve_config({
        "dataset": {"cases": str(cases)},
        "subtasks": ["st1", "st2", "st3", "st4"],
        "provider_mode": mode,
        "record_source": "live",
        "cache_dir": str(out / "cache"),
        "out_dir": str(out / "out"),
        "workers": workers,
        "st3": {"rerank": True},
        "st4": {"recall": {"enabled": True}},
    }))


def outputs(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted((out / "out").glob("st*.jsonl"))}


@pytest.fixture(scope="module")
def mock_run(cases, tmp_path_factory):
    """A mock run's outputs, the replies it gave for each payload, and the
    calls it made of each kind, by the manifest key of its cache."""
    replies = defaultdict(set)
    calls = {"cache": 0, "embedding_cache": 0}
    generate, embed = PipelineMockProvider.generate, HashEmbedder.embed

    def noting_replies(self, request):
        text = generate(self, request)
        replies[request_key(request)].add(text)
        calls["cache"] += 1
        return text

    def counting_embeds(self, texts):
        calls["embedding_cache"] += 1
        return embed(self, texts)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PipelineMockProvider, "generate", noting_replies)
        patch.setattr(HashEmbedder, "embed", counting_embeds)
        out = tmp_path_factory.mktemp("mock")
        run(cases, out, "mock")
    return outputs(out), dict(replies), calls


@pytest.fixture
def backend(request, monkeypatch):
    """A Backend, closed at teardown; the environment routes every live
    deployment and the embedder to it, through no proxy."""
    server = Backend()
    request.addfinalizer(server.close)
    for name in [n for n in os.environ if n.startswith("EHRQA_")]:
        monkeypatch.delenv(name)
    for stem in ("DEFAULT", "EMBEDDER"):
        monkeypatch.setenv(f"EHRQA_{stem}_ENDPOINT", server.endpoint)
        monkeypatch.setenv(f"EHRQA_{stem}_API_KEY", "loopback-key")
    monkeypatch.setenv("no_proxy", "127.0.0.1")
    return server


def test_every_payload_of_a_mock_run_has_one_reply(mock_run):
    """So the server can answer from the payload alone, as a vendor's API
    is asked: no reply depends on the request's tag or sample index."""
    files, replies, _ = mock_run
    assert set(files) == {"st1.jsonl", "st1_candidates.jsonl", "st2.jsonl", "st3.jsonl",
                          "st4.jsonl"}
    assert replies and all(len(texts) == 1 for texts in replies.values())


@pytest.mark.parametrize("workers", [1, 2])
def test_a_live_recording_writes_the_bytes_of_a_mock_run_and_replays_with_the_server_gone(
    cases, mock_run, backend, tmp_path, workers
):
    files, replies, calls = mock_run
    backend.replies = replies
    recorded = run(cases, tmp_path, "record", workers)
    assert outputs(tmp_path) == files
    paths = {path for path, _, _ in backend.received}
    assert paths == {"/v1/chat/completions", "/v1/embeddings"}
    assert (tmp_path / "cache" / ResponseCache.MARKER).read_bytes() == b"live\n"
    backend.close()
    shutil.rmtree(tmp_path / "out")
    replayed = run(cases, tmp_path, "replay", workers)
    assert outputs(tmp_path) == files
    for kind in ("cache", "embedding_cache"):
        asked = recorded[kind]["hits"] + recorded[kind]["misses"]
        assert asked == calls[kind] > 0
        assert replayed[kind]["misses"] == 0
        assert replayed[kind]["hits"] == asked


class Interrupted(BaseException):
    """Stops a recording as Ctrl-C would: ``_post`` catches ``Exception``
    alone, so this is no failed call to retry or to vote without."""


@pytest.mark.parametrize("workers", [1, 2])
def test_an_interrupted_live_recording_resumes(
    cases, mock_run, backend, tmp_path, monkeypatch, workers
):
    """Every transport call after the first 300 raises; a rerun against the
    healthy server serves each entry the first run wrote and calls the
    backend for the rest alone."""
    files, replies, calls = mock_run
    backend.replies = replies
    transport, made, lock = _HttpClient._default_transport, [0], threading.Lock()

    def interrupted_after_300(self, url, payload, headers):
        with lock:
            made[0] += 1
            if made[0] > 300:
                raise Interrupted
        return transport(self, url, payload, headers)

    with monkeypatch.context() as patch:
        patch.setattr(_HttpClient, "_default_transport", interrupted_after_300)
        with pytest.raises(Interrupted):
            run(cases, tmp_path, "record", workers)
    assert not (tmp_path / "out" / "st4.jsonl").exists()
    cache = tmp_path / "cache"
    left = {kind: len(list(cache.glob(f"*{suffix}")))
            for kind, suffix in (("cache", ".json"), ("embedding_cache", ".f64"))}
    assert all(left.values()) and sum(left.values()) <= 300
    backend.received.clear()
    resumed = run(cases, tmp_path, "record", workers)
    assert outputs(tmp_path) == files
    for kind, hits in left.items():
        assert resumed[kind]["hits"] == hits
        assert resumed[kind]["misses"] == calls[kind] - hits
    assert len(backend.received) == sum(calls.values()) - sum(left.values())


def test_no_config_builds_a_bare_live_client(backend, tmp_path):
    """Every mode and source: the backends a run builds are the mocks or a
    record/replay wrapper, though credentials for the live APIs are set."""
    for mode in pipeline.CHOICES["provider_mode"]:
        for source in pipeline.CHOICES["record_source"]:
            config = pipeline.resolve_config({
                "provider_mode": mode,
                "record_source": source,
                "cache_dir": str(tmp_path / f"{mode}-{source}"),
            })
            generator, embedder = pipeline.build_generator(config), pipeline.build_embedder(config)
            assert isinstance(generator, (PipelineMockProvider, _RecordReplay))
            assert isinstance(embedder, (HashEmbedder, _RecordReplay))
    assert backend.received == []


def test_live_is_no_provider_mode(tmp_path, monkeypatch, capsys):
    """Neither a config nor the flag builds a backend for it."""
    def no_backend(config):
        raise AssertionError("a backend was built")

    monkeypatch.setattr(pipeline, "build_generator", no_backend)
    monkeypatch.setattr(pipeline, "build_embedder", no_backend)
    message = "provider_mode: must be one of record, replay, mock, got 'live'"
    with pytest.raises(ConfigError, match=f"^{message}$"):
        pipeline.resolve_config({"provider_mode": "live"})
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"provider_mode": "live"}))
    assert main(["run", "--config", str(config), "--cases", str(tmp_path / "cases.jsonl")]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": message, "type": "ConfigError"}
    with pytest.raises(SystemExit) as exit_:
        main(["run", "--provider-mode", "live", "--cases", str(tmp_path / "cases.jsonl")])
    assert exit_.value.code == 2
    assert "argument --provider-mode: invalid choice: 'live'" in capsys.readouterr().err


def test_a_deployment_without_credentials_names_its_own_and_the_default_ones(
    tmp_path, monkeypatch, capsys
):
    """With neither its own credentials nor the default ones, a live call
    fails naming the deployment and both pairs of variables it could read,
    and a live recording exits 1 before it writes any output."""
    for name in [n for n in os.environ if n.startswith("EHRQA_")]:
        monkeypatch.delenv(name)

    def message(deployment, stem):
        return (
            f"live provider {deployment!r} needs EHRQA_{stem}_ENDPOINT and EHRQA_{stem}_API_KEY "
            "set; without them, live provider 'default' needs EHRQA_DEFAULT_ENDPOINT and "
            "EHRQA_DEFAULT_API_KEY set"
        )

    with pytest.raises(EhrqaError) as raised:
        pipeline.DeploymentRouter().generate(req("1/st2/gpt-5.2/0", deployment="gpt-5.2"))
    assert str(raised.value) == message("gpt-5.2", "GPT_5_2")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"record_source": "live", "cache_dir": str(tmp_path / "cache")}))
    args = ["run", "--config", str(config), "--cases", str(toy_dataset_path()),
            "--provider-mode", "record", "--out", str(tmp_path / "out"), "--workers", "1"]
    assert main(args) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": message("o3", "O3"), "type": "EhrqaError"  # st2's first member
    }
    assert not (tmp_path / "out" / "st2.jsonl").exists()


@pytest.mark.parametrize("first, second", [("mock", "live"), ("live", "mock")])
def test_a_recording_never_mixes_backends(cases, backend, tmp_path, monkeypatch, first, second):
    """A record run into a cache_dir recorded from the other source fails
    before any backend call, naming the directory and both sources."""
    base = {
        "dataset": {"cases": str(cases)},
        "provider_mode": "record",
        "cache_dir": str(tmp_path / "cache"),
        "out_dir": str(tmp_path / "out"),
    }
    pipeline.build_generator(pipeline.resolve_config({**base, "record_source": first}))

    def no_call(self, request):
        raise AssertionError("the mock was called")

    monkeypatch.setattr(PipelineMockProvider, "generate", no_call)
    config = pipeline.resolve_config({**base, "record_source": second})
    message = (
        f"cache_dir: {tmp_path / 'cache'} holds a recording from '{first}', and this run "
        f"records from '{second}'; record into another directory, or empty this one with "
        "`ehrqa cache prune`"
    )
    with pytest.raises(ConfigError) as error:
        pipeline.run_pipeline(config)
    assert str(error.value) == message
    assert backend.received == []
    assert not (tmp_path / "out" / "st2.jsonl").exists()
    # pruned, the directory can be recorded from either source
    assert main(["cache", "prune", "--cache-dir", str(tmp_path / "cache")]) == 0
    pipeline.build_generator(config)
    assert (tmp_path / "cache" / ResponseCache.MARKER).read_text() == f"{second}\n"


class TestDefaultTransport:
    def chat(self, endpoint: str, slept: list) -> HttpChatProvider:
        return HttpChatProvider(endpoint, "loopback-key", sleep=slept.append)

    def test_a_503_then_a_200_makes_one_retry(self, backend):
        backend.replies = {request_key(req()): {"hi"}}
        backend.statuses = [503]
        slept = []
        assert self.chat(backend.endpoint, slept).generate(req()) == "hi"
        assert slept == [0.5]
        assert len(backend.received) == 2

    def test_a_401_raises_at_once_naming_the_status_and_the_body(self, backend):
        backend.statuses = [401]
        slept = []
        with pytest.raises(ProviderError) as error:
            self.chat(backend.endpoint, slept).generate(req())
        assert str(error.value) == (
            f"HTTP 401 from {backend.endpoint}/chat/completions: status 401"
        )
        assert slept == [] and len(backend.received) == 1

    @pytest.mark.parametrize("status", [307, 308])
    def test_a_redirect_of_the_post_is_not_followed(self, backend, status):
        backend.statuses = [status]
        with pytest.raises(ProviderError, match=f"^HTTP {status} from "):
            self.chat(backend.endpoint, []).generate(req())
        assert [path for path, _, _ in backend.received] == ["/v1/chat/completions"]

    def test_a_closed_port_makes_three_attempts(self, backend, caplog):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        slept = []
        with caplog.at_level(logging.WARNING, logger="ehrqa.providers"):
            with pytest.raises(ProviderError, match="failed after 3 attempts: URLError"):
                self.chat(f"http://127.0.0.1:{port}/v1", slept).generate(req())
        assert slept == [0.5, 1.0]
        assert caplog.text.count("transport error from") == 3

    def test_the_body_sent_is_the_json_of_the_payload(self, backend):
        request = req(content="Pourquoi l’anémie ?   \"quoted\"", temperature=0.7)
        backend.replies = {request_key(request): {"fine"}}
        assert self.chat(backend.endpoint, []).generate(request) == "fine"
        payload = {
            "model": request.deployment_name,
            "messages": [{"role": "user", "content": request.messages[0].content}],
            "temperature": 0.7,
            "max_tokens": request.max_output_tokens,
        }
        ((path, headers, body),) = backend.received
        assert body == json.dumps(payload, allow_nan=False).encode()
        assert headers["Content-Type"] == "application/json"
        assert headers["Authorization"] == "Bearer loopback-key"
        assert headers["api-key"] == "loopback-key"
