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
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Protocol, Sequence, TypeVar

import numpy as np

from .core import CacheMissError, EhrqaError, ProviderError, atomic_write_text
from .prompting import Message

logger = logging.getLogger(__name__)

ROLES = ("system", "user", "assistant")

T = TypeVar("T")


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
    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        """One vector per text, in order."""
        ...


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


def embed_cache_key(model: str, texts: Sequence[str]) -> str:
    """Content hash of one embed() call: the model and the ordered texts."""
    canonical = json.dumps({"embed": model, "texts": list(texts)}, ensure_ascii=False)
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
_MOCK_STAGES = frozenset({"st1ctx", "st1", "st2", "st3s1", "st3s2", "st4"})


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
        # The first segment after the case_id that names a stage, since a
        # case_id may itself contain "/".
        return next((part for part in tag.split("/")[1:] if part in _MOCK_STAGES), "")

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
    """Content-addressed store: one compact JSON file per key.

    Reads take no lock: ``put`` publishes each entry with an atomic rename,
    so a reader finds either no file or a whole one. The lock guards only
    the hit and miss counters.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str, field: str, what: str):
        """The ``field`` of the entry stored under ``key``, or None on a miss.

        An entry that does not parse, or has no ``field``, raises
        CacheMissError naming the key and ``what`` it was read for.
        """
        try:
            with open(self._path(key), "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            with self._lock:
                self.misses += 1
            return None
        try:
            value = json.loads(data)[field]
        except (ValueError, KeyError, TypeError) as exc:
            raise CacheMissError(
                f"unreadable cache entry {key} for {what}: no valid {field!r} ({exc})"
            ) from exc
        with self._lock:
            self.hits += 1
        return value

    def put(self, key: str, record: dict) -> None:
        atomic_write_text(
            self._path(key),
            json.dumps(record, ensure_ascii=False, sort_keys=True, separators=(",", ":")),
        )

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


class _RecordReplay:
    """Record/replay wrapper around an inner backend, one entry per call.

    Both modes serve a cached entry when there is one. On a miss, record
    calls the inner backend and persists the result before returning it,
    so an interrupted recording resumes where it stopped; replay raises
    CacheMissError naming what was asked. A subclass names the entry
    ``field`` a hit is served from, the kind of ``backend`` it wraps and
    the noun a replay miss puts before what was asked (``missing``), and
    converts between its backend's results and its entries.
    """

    field = backend = missing = ""

    def __init__(self, cache: ResponseCache, inner=None, mode: str = "replay"):
        if mode not in ("record", "replay"):
            raise EhrqaError(f"unknown replay mode {mode!r}")
        if mode == "record" and inner is None:
            raise EhrqaError(f"record mode requires an inner {self.backend}")
        self.cache = cache
        self.inner = inner
        self.mode = mode

    def _serve(self, key: str, what: str, asked):
        value = self.cache.get(key, self.field, what)
        if value is not None:
            return self._from_entry(value, asked, key, what)
        if self.mode == "replay":
            raise CacheMissError(f"no cached {self.missing}{what} (key {key[:12]})")
        result = self._call(asked)
        self.cache.put(key, self._to_entry(asked, result))
        return result


class ReplayGenerator(_RecordReplay):
    """Record/replay generator. An entry holds the response and the
    request's metadata, not its messages: the key already stands for them.
    """

    field, backend, missing = "response", "generator", "response for "

    def generate(self, request: GenRequest) -> GenResponse:
        return self._serve(request_cache_key(request), f"request {request.request_tag!r}", request)

    def _call(self, request: GenRequest) -> GenResponse:
        return self.inner.generate(request)

    def _from_entry(self, resp: dict, request, key, what) -> GenResponse:
        return GenResponse(
            text=resp["text"],
            deployment_name=resp["deployment_name"],
            latency_ms=resp.get("latency_ms", 0.0),
            from_cache=True,
        )

    def _to_entry(self, request: GenRequest, response: GenResponse) -> dict:
        return {
            "request": {
                "deployment_name": request.deployment_name,
                "request_tag": request.request_tag,
                "sample_index": request.sample_index,
                "temperature": request.temperature,
                "max_output_tokens": request.max_output_tokens,
            },
            "response": {
                "text": response.text,
                "deployment_name": response.deployment_name,
                "latency_ms": response.latency_ms,
            },
        }


class CachedEmbedder(_RecordReplay):
    """Record/replay embedder. An entry is keyed on the model and the
    ordered text list and holds the vectors in that order."""

    field, backend = "vectors", "embedder"

    def __init__(self, cache: ResponseCache, inner: Embedder | None = None,
                 mode: str = "replay", model: str = "default"):
        super().__init__(cache, inner, mode)
        self.model = model

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        if not texts:
            raise EhrqaError("embed requires a non-empty input list")
        what = f"embedding of {len(texts)} text(s) starting {texts[0][:60]!r}"
        return self._serve(embed_cache_key(self.model, texts), what, texts)

    def _call(self, texts: Sequence[str]) -> list[np.ndarray]:
        return self.inner.embed(texts)

    def _from_entry(self, vectors: list, texts, key: str, what: str) -> list[np.ndarray]:
        if len(vectors) != len(texts):
            raise CacheMissError(f"cache entry {key} for {what} holds {len(vectors)} vector(s)")
        return [np.asarray(v, dtype=float) for v in vectors]

    def _to_entry(self, texts, vectors: list[np.ndarray]) -> dict:
        return {"model": self.model, "vectors": [np.asarray(v, dtype=float).tolist() for v in vectors]}


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


class _HttpClient:
    """What the chat and embedding clients share: endpoint, credentials,
    and the one retry loop around the foreign HTTP transport.

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

    def _post(self, path: str, payload: dict, read: Callable[[dict], T]) -> T:
        """POST ``payload`` and ``read`` the JSON body, retrying transport
        errors and retryable statuses with backoff.

        Every failure, a malformed body included, raises ProviderError
        naming the URL.
        """
        url = f"{self.endpoint}/{path}"
        headers = {
            "Authorization": f"Bearer {self.api_key}",
            "api-key": self.api_key,
            "Content-Type": "application/json",
        }
        last_error = ""
        for attempt in range(self.retry.max_attempts):
            try:
                response = self._transport(url, payload, headers)
            except Exception as exc:  # foreign transport: any failure is a backend failure
                last_error = f"{type(exc).__name__}: {exc}"
                logger.warning("transport error from %s (attempt %d): %s", url, attempt + 1, exc)
                self.retry.backoff(attempt, self._sleep)
                continue
            status = getattr(response, "status_code", 200)
            if status in RETRYABLE_STATUS:
                last_error = f"HTTP {status}"
                self.retry.backoff(attempt, self._sleep)
                continue
            if status >= 400:
                raise ProviderError(f"HTTP {status} from {url}: {response.text[:200]}")
            try:
                return read(response.json())
            except (ValueError, LookupError, TypeError) as exc:
                raise ProviderError(f"malformed response from {url}: {exc!r}") from exc
        raise ProviderError(
            f"{url} failed after {self.retry.max_attempts} attempts: {last_error}"
        )


class HttpChatProvider(_HttpClient):
    """Chat-completions-style HTTP client with bounded retries."""

    def generate(self, request: GenRequest) -> GenResponse:
        payload = {
            "model": request.deployment_name,
            "messages": [
                {"role": m.role, "content": m.content} for m in request.messages
            ],
            "temperature": request.temperature,
            "max_tokens": request.max_output_tokens,
        }
        start = time.monotonic()
        text = self._post("chat/completions", payload, _chat_text)
        latency = (time.monotonic() - start) * 1000.0
        return GenResponse(text=text, deployment_name=request.deployment_name, latency_ms=latency)


def _chat_text(body: dict) -> str:
    text = body["choices"][0]["message"]["content"] or ""
    if not isinstance(text, str):
        raise TypeError(f"message content is {type(text).__name__}, not text")
    return text


class HttpEmbeddingProvider(_HttpClient):
    """Embeddings-endpoint HTTP client with the same retry behavior."""

    def __init__(
        self,
        endpoint: str,
        api_key: str,
        model: str = "text-embedding",
        timeout: float = 60.0,
        **kwargs,
    ):
        super().__init__(endpoint, api_key, timeout, **kwargs)
        self.model = model

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        if not texts:
            raise EhrqaError("embed requires a non-empty input list")
        payload = {"model": self.model, "input": list(texts)}
        vectors = self._post("embeddings", payload, _embedding_vectors)
        if len(vectors) != len(texts):
            raise ProviderError(
                f"{self.endpoint}/embeddings returned {len(vectors)} vectors for {len(texts)} texts"
            )
        return vectors


def _embedding_vectors(body: dict) -> list[np.ndarray]:
    vectors = [np.asarray(d["embedding"], dtype=float) for d in body["data"]]
    if len({v.shape for v in vectors}) > 1:
        raise ValueError("embedding dimension mismatch within batch")
    return vectors


def env_var_names(provider_name: str) -> tuple[str, str]:
    stem = re.sub(r"[^A-Za-z0-9]+", "_", provider_name).upper().strip("_")
    return f"EHRQA_{stem}_ENDPOINT", f"EHRQA_{stem}_API_KEY"


def provider_from_env(
    provider_name: str, client: Callable[[str, str], _HttpClient] = HttpChatProvider
) -> _HttpClient:
    """``client``, a chat client by default, built from the endpoint and
    the key that the environment holds for ``provider_name``."""
    endpoint_var, key_var = env_var_names(provider_name)
    endpoint = os.environ.get(endpoint_var)
    api_key = os.environ.get(key_var)
    if not endpoint or not api_key:
        raise EhrqaError(
            f"live provider {provider_name!r} needs {endpoint_var} and {key_var} set"
        )
    return client(endpoint, api_key)


# ---------------------------------------------------------------------------
# Batches of calls, run inline


@dataclass
class RequestOutcome:
    request: GenRequest
    response: GenResponse | None = None
    error: ProviderError | None = None

    @property
    def ok(self) -> bool:
        return self.response is not None


def gather_responses(
    generator: Generator,
    requests: Sequence[GenRequest],
) -> list[RequestOutcome]:
    """Run requests against one backend; see gather_multi."""
    tags = [r.request_tag for r in requests]
    if len(set(tags)) != len(tags):
        raise EhrqaError("request_tag values must be unique within a batch")
    return gather_multi([(generator, r) for r in requests])


def gather_multi(pairs: Sequence[tuple[Generator, GenRequest]]) -> list[RequestOutcome]:
    """Run each request against its own backend, one after another on the
    caller's thread, in request order.

    A ProviderError is captured in its outcome and the batch goes on; any
    other error, a CacheMissError included, is re-raised at once.
    """
    outcomes = [RequestOutcome(request=req) for _, req in pairs]
    for (generator, request), outcome in zip(pairs, outcomes):
        try:
            outcome.response = generator.generate(request)
        except ProviderError as exc:
            outcome.error = exc
            logger.warning("request %s failed: %s", request.request_tag, exc)
    return outcomes
