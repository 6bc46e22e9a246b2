"""Text-generation and embedding backends behind one small interface.

Four generator flavors: a scriptable mock (tests), a pipeline mock that
fabricates plausible structured outputs for any prompt (offline smoke
runs), a retrying HTTP chat client (live), and a record/replay wrapper
that persists responses content-addressed on the request so whole runs
replay byte-identically with zero network access.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import random
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Protocol, Sequence

import numpy as np

from .core import CacheMissError, EhrqaError, ProviderError
from .prompting import Message

logger = logging.getLogger(__name__)

ROLES = ("system", "user", "assistant")


@dataclass(frozen=True)
class GenRequest:
    deployment_name: str
    messages: tuple[Message, ...]
    temperature: float = 0.0
    max_output_tokens: int = 1024
    request_tag: str = ""
    sample_index: int = 0

    def __post_init__(self) -> None:
        if not any(m.role == "user" for m in self.messages):
            raise EhrqaError(f"request {self.request_tag!r} has no user message")
        for m in self.messages:
            if m.role not in ROLES:
                raise EhrqaError(f"unknown message role {m.role!r}")


@dataclass(frozen=True)
class GenResponse:
    text: str
    deployment_name: str
    latency_ms: float = 0.0
    from_cache: bool = False


class Generator(Protocol):
    def generate(self, request: GenRequest) -> GenResponse: ...


class Embedder(Protocol):
    def embed(self, texts: Sequence[str]) -> list[np.ndarray]: ...


def request_cache_key(request: GenRequest) -> str:
    """Content hash of the semantic request; ignores request_tag and clock."""
    payload = {
        "deployment_name": request.deployment_name,
        "messages": [[m.role, m.content] for m in request.messages],
        "temperature": request.temperature,
        "max_output_tokens": request.max_output_tokens,
        "sample_index": request.sample_index,
    }
    canonical = json.dumps(payload, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def embed_cache_key(model: str, text: str) -> str:
    canonical = json.dumps({"embed": model, "text": text}, ensure_ascii=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def cosine(u, v) -> float:
    """Cosine similarity of two equal-length non-zero vectors."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise EhrqaError(f"vector dimension mismatch: {u.shape} vs {v.shape}")
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise EhrqaError("cosine similarity undefined for a zero vector")
    return float(np.dot(u, v) / (nu * nv))


# ---------------------------------------------------------------------------
# Mocks


class ScriptedProvider:
    """Generator scripted by request_tag; optionally falls back to a handler."""

    def __init__(
        self,
        script: dict[str, str] | None = None,
        handler: Callable[[GenRequest], str] | None = None,
    ):
        self.script = dict(script or {})
        self.handler = handler
        self.calls: list[str] = []

    def generate(self, request: GenRequest) -> GenResponse:
        self.calls.append(request.request_tag)
        if request.request_tag in self.script:
            text = self.script[request.request_tag]
        elif self.handler is not None:
            text = self.handler(request)
        else:
            raise ProviderError(f"no scripted response for tag {request.request_tag!r}")
        return GenResponse(text=text, deployment_name=request.deployment_name)


class FailingProvider:
    """Raises on every call; used to prove replay makes zero backend calls."""

    def __init__(self, message: str = "backend must not be reached"):
        self.message = message
        self.calls = 0

    def generate(self, request: GenRequest) -> GenResponse:
        self.calls += 1
        raise ProviderError(f"{self.message} (tag {request.request_tag})")

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        self.calls += 1
        raise ProviderError(self.message)


_NOTE_ID_RE = re.compile(r"^(\d+)\. ", re.MULTILINE)
_ANSWER_SECTION_RE = re.compile(
    r"Answer sentences:\n(.*?)(?:\n\n|\Z)", re.DOTALL
)
_EVIDENCE_SECTION_RE = re.compile(r"Evidence sentences:\n(.*?)(?:\n\n|\Z)", re.DOTALL)


class PipelineMockProvider:
    """Deterministic stand-in backend for offline smoke runs.

    Reads the rendered prompt to produce structurally valid outputs for any
    case: sentence-ID arrays for evidence selection, cited drafts and
    rewrites for answer generation, alignment JSON for evidence alignment.
    Sample index perturbs vote patterns so merges have structure.
    """

    def generate(self, request: GenRequest) -> GenResponse:
        stage = self._stage(request.request_tag)
        text = self._respond(stage, request)
        return GenResponse(text=text, deployment_name=request.deployment_name)

    @staticmethod
    def _stage(tag: str) -> str:
        parts = tag.split("/")
        return parts[1] if len(parts) > 1 else ""

    @staticmethod
    def _prompt_text(request: GenRequest) -> str:
        return "\n\n".join(m.content for m in request.messages)

    def _respond(self, stage: str, request: GenRequest) -> str:
        prompt = self._prompt_text(request)
        if stage == "st1ctx":
            return json.dumps(
                {
                    "procedures": [],
                    "medications": [],
                    "diagnoses": [],
                    "findings": [],
                    "temporal_urgency_cues": [],
                }
            )
        if stage == "st1":
            return (
                "CANDIDATE_1: What was the reason for the documented treatment?\n"
                "CANDIDATE_2: Why was the treatment performed during the stay?\n"
                "CANDIDATE_3: What led to the recorded clinical intervention?\n"
            )
        if stage == "st2":
            note_ids = self._note_ids(prompt)
            keep = 2 if request.sample_index % 2 == 0 else 1
            return json.dumps(note_ids[:keep])
        if stage == "st3s1":
            ev_ids = self._evidence_ids(prompt) or self._note_ids(prompt)
            markers = "".join(f"[{i}]" for i in ev_ids[:2])
            return (
                "The note documents the findings that answer the question "
                f"{markers}. The recorded course supports this summary."
            )
        if stage == "st3s2":
            return (
                "The note documents the findings that answer the question. "
                "The recorded course supports this summary."
            )
        if stage == "st4":
            answer_ids = self._answer_ids(prompt)
            note_ids = self._note_ids(prompt)
            take = 1 if request.sample_index % 2 == 0 else min(2, len(note_ids))
            return json.dumps(
                [
                    {"answer_id": aid, "evidence_id": note_ids[:take]}
                    for aid in answer_ids
                ]
            )
        return "[]"

    @staticmethod
    def _section_ids(prompt: str, section_re: re.Pattern) -> list[str]:
        match = section_re.search(prompt)
        if not match:
            return []
        return _NOTE_ID_RE.findall(match.group(1))

    def _note_ids(self, prompt: str) -> list[str]:
        match = re.search(r"(?:Full note|Note sentences):\n(.*?)(?:\n\n|\Z)", prompt, re.DOTALL)
        return _NOTE_ID_RE.findall(match.group(1)) if match else []

    def _evidence_ids(self, prompt: str) -> list[str]:
        return self._section_ids(prompt, _EVIDENCE_SECTION_RE)

    def _answer_ids(self, prompt: str) -> list[str]:
        return self._section_ids(prompt, _ANSWER_SECTION_RE)


class HashEmbedder:
    """Deterministic mock embedder: identical text, identical vector."""

    def __init__(self, dim: int = 32):
        if dim < 2:
            raise EhrqaError("embedding dimension must be >= 2")
        self.dim = dim

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        if not texts:
            raise EhrqaError("embed requires a non-empty input list")
        return [self._vector(t) for t in texts]

    def _vector(self, text: str) -> np.ndarray:
        seed = int.from_bytes(
            hashlib.sha256(text.encode("utf-8")).digest()[:8], "big"
        )
        rng = random.Random(seed)
        vec = np.array([rng.gauss(0, 1) for _ in range(self.dim)])
        norm = np.linalg.norm(vec)
        if norm == 0.0:
            vec[0] = 1.0
            norm = 1.0
        return vec / norm


class FixedEmbedder:
    """Embedder backed by an explicit text -> vector table (tests)."""

    def __init__(self, table: dict[str, Sequence[float]]):
        self.table = {k: np.asarray(v, dtype=float) for k, v in table.items()}

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        if not texts:
            raise EhrqaError("embed requires a non-empty input list")
        try:
            return [self.table[t] for t in texts]
        except KeyError as exc:
            raise ProviderError(f"no fixed vector for text {exc}") from exc


# ---------------------------------------------------------------------------
# Record / replay cache


class ResponseCache:
    """Content-addressed store: one JSON file per request hash."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str) -> dict | None:
        with self._lock:
            path = self._path(key)
            if not path.exists():
                self.misses += 1
                return None
            self.hits += 1
            return json.loads(path.read_text(encoding="utf-8"))

    def put(self, key: str, record: dict) -> None:
        with self._lock:
            path = self._path(key)
            tmp = path.with_suffix(".tmp")
            tmp.write_text(
                json.dumps(record, ensure_ascii=False, sort_keys=True, indent=1),
                encoding="utf-8",
            )
            os.replace(tmp, path)

    def entries(self) -> list[str]:
        return sorted(p.stem for p in self.root.glob("*.json"))

    def prune(self) -> int:
        removed = 0
        for p in self.root.glob("*.json"):
            p.unlink()
            removed += 1
        return removed

    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses, "entries": len(self.entries())}


class ReplayGenerator:
    """Record/replay wrapper around another generator.

    record: always call the inner backend and persist before returning.
    replay: serve cached responses only; a miss is an error naming the tag.
    """

    def __init__(self, cache: ResponseCache, inner: Generator | None = None, mode: str = "replay"):
        if mode not in ("record", "replay"):
            raise EhrqaError(f"unknown replay mode {mode!r}")
        if mode == "record" and inner is None:
            raise EhrqaError("record mode requires an inner generator")
        self.cache = cache
        self.inner = inner
        self.mode = mode

    def generate(self, request: GenRequest) -> GenResponse:
        key = request_cache_key(request)
        if self.mode == "replay":
            record = self.cache.get(key)
            if record is None:
                raise CacheMissError(
                    f"no cached response for request {request.request_tag!r} (key {key[:12]})"
                )
            resp = record["response"]
            return GenResponse(
                text=resp["text"],
                deployment_name=resp["deployment_name"],
                latency_ms=resp.get("latency_ms", 0.0),
                from_cache=True,
            )
        assert self.inner is not None
        response = self.inner.generate(request)
        self.cache.put(
            key,
            {
                "request": {
                    "deployment_name": request.deployment_name,
                    "messages": [[m.role, m.content] for m in request.messages],
                    "temperature": request.temperature,
                    "max_output_tokens": request.max_output_tokens,
                    "sample_index": request.sample_index,
                    "request_tag": request.request_tag,
                },
                "response": {
                    "text": response.text,
                    "deployment_name": response.deployment_name,
                    "latency_ms": response.latency_ms,
                },
            },
        )
        return response


class CachedEmbedder:
    """Record/replay wrapper for an embedder, one cache entry per text."""

    def __init__(
        self,
        cache: ResponseCache,
        inner: Embedder | None = None,
        mode: str = "replay",
        model: str = "default",
    ):
        if mode not in ("record", "replay"):
            raise EhrqaError(f"unknown replay mode {mode!r}")
        if mode == "record" and inner is None:
            raise EhrqaError("record mode requires an inner embedder")
        self.cache = cache
        self.inner = inner
        self.mode = mode
        self.model = model

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        if not texts:
            raise EhrqaError("embed requires a non-empty input list")
        if self.mode == "replay":
            out = []
            for text in texts:
                record = self.cache.get(embed_cache_key(self.model, text))
                if record is None:
                    raise CacheMissError(f"no cached embedding for text {text[:60]!r}")
                out.append(np.asarray(record["vector"], dtype=float))
            return out
        assert self.inner is not None
        vectors = self.inner.embed(texts)
        for text, vec in zip(texts, vectors):
            self.cache.put(
                embed_cache_key(self.model, text),
                {"model": self.model, "text": text, "vector": [float(x) for x in vec]},
            )
        return vectors


# ---------------------------------------------------------------------------
# HTTP clients

RETRYABLE_STATUS = {408, 409, 429, 500, 502, 503, 504}


@dataclass
class RetryPolicy:
    max_attempts: int = 3
    backoff_seconds: float = 0.5

    def delay(self, attempt: int) -> float:
        return self.backoff_seconds * (2**attempt)

    def backoff(self, attempt: int, sleep: Callable[[float], None]) -> None:
        """Wait before the next attempt; no attempt follows the last one."""
        if attempt + 1 < self.max_attempts:
            sleep(self.delay(attempt))


class HttpChatProvider:
    """Chat-completions-style HTTP client with bounded retries.

    Credentials come from the environment, never from config files:
    EHRQA_<NAME>_ENDPOINT and EHRQA_<NAME>_API_KEY.
    """

    def __init__(
        self,
        endpoint: str,
        api_key: str,
        timeout: float = 120.0,
        retry: RetryPolicy | None = None,
        transport: Callable | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.endpoint = endpoint.rstrip("/")
        self.api_key = api_key
        self.timeout = timeout
        self.retry = retry or RetryPolicy()
        self._transport = transport or self._default_transport
        self._sleep = sleep

    def _default_transport(self, url: str, payload: dict, headers: dict):
        import requests

        return requests.post(url, json=payload, headers=headers, timeout=self.timeout)

    def generate(self, request: GenRequest) -> GenResponse:
        payload = {
            "model": request.deployment_name,
            "messages": [
                {"role": m.role, "content": m.content} for m in request.messages
            ],
            "temperature": request.temperature,
            "max_tokens": request.max_output_tokens,
        }
        headers = {
            "Authorization": f"Bearer {self.api_key}",
            "api-key": self.api_key,
            "Content-Type": "application/json",
        }
        url = f"{self.endpoint}/chat/completions"
        last_error: Exception | None = None
        start = time.monotonic()
        for attempt in range(self.retry.max_attempts):
            try:
                response = self._transport(url, payload, headers)
            except Exception as exc:  # connection-level failure
                last_error = exc
                logger.warning("transport error (attempt %d): %s", attempt + 1, exc)
                self.retry.backoff(attempt, self._sleep)
                continue
            status = getattr(response, "status_code", 200)
            if status in RETRYABLE_STATUS:
                last_error = ProviderError(f"HTTP {status} from {url}")
                self.retry.backoff(attempt, self._sleep)
                continue
            if status >= 400:
                raise ProviderError(f"HTTP {status} from {url}: {response.text[:200]}")
            body = response.json()
            text = body["choices"][0]["message"]["content"] or ""
            latency = (time.monotonic() - start) * 1000.0
            return GenResponse(
                text=text, deployment_name=request.deployment_name, latency_ms=latency
            )
        raise ProviderError(
            f"request {request.request_tag!r} failed after "
            f"{self.retry.max_attempts} attempts: {last_error}"
        )


class HttpEmbeddingProvider:
    """Embeddings-endpoint HTTP client with the same retry behavior."""

    def __init__(
        self,
        endpoint: str,
        api_key: str,
        model: str = "text-embedding",
        timeout: float = 60.0,
        retry: RetryPolicy | None = None,
        transport: Callable | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.endpoint = endpoint.rstrip("/")
        self.api_key = api_key
        self.model = model
        self.timeout = timeout
        self.retry = retry or RetryPolicy()
        self._transport = transport or self._default_transport
        self._sleep = sleep

    def _default_transport(self, url: str, payload: dict, headers: dict):
        import requests

        return requests.post(url, json=payload, headers=headers, timeout=self.timeout)

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        if not texts:
            raise EhrqaError("embed requires a non-empty input list")
        payload = {"model": self.model, "input": list(texts)}
        headers = {
            "Authorization": f"Bearer {self.api_key}",
            "api-key": self.api_key,
            "Content-Type": "application/json",
        }
        url = f"{self.endpoint}/embeddings"
        last_error: Exception | None = None
        for attempt in range(self.retry.max_attempts):
            try:
                response = self._transport(url, payload, headers)
            except Exception as exc:
                last_error = exc
                self.retry.backoff(attempt, self._sleep)
                continue
            status = getattr(response, "status_code", 200)
            if status in RETRYABLE_STATUS:
                last_error = ProviderError(f"HTTP {status} from {url}")
                self.retry.backoff(attempt, self._sleep)
                continue
            if status >= 400:
                raise ProviderError(f"HTTP {status} from {url}: {response.text[:200]}")
            body = response.json()
            vectors = [np.asarray(d["embedding"], dtype=float) for d in body["data"]]
            if len({v.shape for v in vectors}) > 1:
                raise EhrqaError("embedding dimension mismatch within batch")
            return vectors
        raise ProviderError(
            f"embedding request failed after {self.retry.max_attempts} attempts: {last_error}"
        )


def env_var_names(provider_name: str) -> tuple[str, str]:
    stem = re.sub(r"[^A-Za-z0-9]+", "_", provider_name).upper().strip("_")
    return f"EHRQA_{stem}_ENDPOINT", f"EHRQA_{stem}_API_KEY"


def provider_from_env(provider_name: str) -> HttpChatProvider:
    endpoint_var, key_var = env_var_names(provider_name)
    endpoint = os.environ.get(endpoint_var)
    api_key = os.environ.get(key_var)
    if not endpoint or not api_key:
        raise EhrqaError(
            f"live provider {provider_name!r} needs {endpoint_var} and {key_var} set"
        )
    return HttpChatProvider(endpoint=endpoint, api_key=api_key)


# ---------------------------------------------------------------------------
# Bounded-concurrency fan-out


@dataclass
class RequestOutcome:
    request: GenRequest
    response: GenResponse | None = None
    error: Exception | None = None

    @property
    def ok(self) -> bool:
        return self.response is not None


def gather_responses(
    generator: Generator,
    requests: Sequence[GenRequest],
    max_workers: int = 4,
) -> list[RequestOutcome]:
    """Run requests with at most ``max_workers`` in flight.

    Outcomes come back in request order regardless of completion order, so
    downstream aggregation never depends on scheduling. Failures are
    captured per request, not raised.
    """
    tags = [r.request_tag for r in requests]
    if len(set(tags)) != len(tags):
        raise EhrqaError("request_tag values must be unique within a batch")

    outcomes = [RequestOutcome(request=r) for r in requests]

    def _run(i: int) -> None:
        try:
            outcomes[i].response = generator.generate(requests[i])
        except Exception as exc:
            outcomes[i].error = exc
            logger.warning("request %s failed: %s", requests[i].request_tag, exc)

    if max_workers <= 1 or len(requests) <= 1:
        for i in range(len(requests)):
            _run(i)
    else:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            list(pool.map(_run, range(len(requests))))
    return outcomes


def gather_multi(
    pairs: Sequence[tuple[Generator, GenRequest]],
    max_workers: int = 4,
) -> list[RequestOutcome]:
    """Like gather_responses but each request may target a different backend."""
    outcomes = [RequestOutcome(request=req) for _, req in pairs]

    def _run(i: int) -> None:
        generator, request = pairs[i]
        try:
            outcomes[i].response = generator.generate(request)
        except Exception as exc:
            outcomes[i].error = exc
            logger.warning("request %s failed: %s", request.request_tag, exc)

    if max_workers <= 1 or len(pairs) <= 1:
        for i in range(len(pairs)):
            _run(i)
    else:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            list(pool.map(_run, range(len(pairs))))
    return outcomes
