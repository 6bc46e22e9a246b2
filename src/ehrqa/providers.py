"""Text-generation and embedding backends behind one small interface.

Three generator flavors: a pipeline mock that fabricates plausible
structured outputs for any prompt (offline smoke runs), a retrying HTTP
chat client (live), and a record/replay wrapper that persists responses
content-addressed on the request so whole runs replay byte-identically
with zero network access.
"""

from __future__ import annotations

import base64
import hashlib
import json
import logging
import math
import os
import random
import re
import threading
import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from pathlib import Path
from typing import Callable, Protocol, Sequence, TypeVar

import numpy as np

from .core import CacheMissError, EhrqaError, ProviderError
from .prompting import Message, _memo

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


class Generator(Protocol):
    def generate(self, request: GenRequest) -> str:
        """The reply text."""
        ...


class Embedder(Protocol):
    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        """One vector per text, in order."""
        ...


# json.dumps(obj, sort_keys=True, ensure_ascii=False) and json.dumps(obj,
# ensure_ascii=False), without building an encoder per call.
_encode_sorted = json.JSONEncoder(ensure_ascii=False, sort_keys=True).encode
_encode = json.JSONEncoder(ensure_ascii=False).encode


def request_cache_key(request: GenRequest) -> str:
    """Content hash of the semantic request; ignores request_tag and clock.

    The hashed text is ``json.dumps(payload, sort_keys=True,
    ensure_ascii=False)`` of ``{"deployment_name", "max_output_tokens",
    "messages": [[role, content], ...], "sample_index", "temperature"}``,
    in UTF-8. It is fed to SHA-256 in pieces, never joined: the head up to
    ``"messages": [``, each message's ``json_bytes`` (encoded once per
    message), and the tail. The hash state after the head and every
    message but the last is memoised on the last of those messages, so
    requests that share their leading messages (the st4 system message
    and shot turns) hash them once per deployment in a run.
    """
    messages = request.messages
    head = _head_bytes(
        request.deployment_name, request.max_output_tokens,
        _json_kind(request.deployment_name), _json_kind(request.max_output_tokens),
    )
    lead = tuple(messages[:-1])
    if lead:
        # Kept on lead[-1], so the key leaves it out: a message whose memo
        # held itself would outlive its last user until a GC pass.
        state = _memo(lead[-1], (head, lead[:-1]), lambda: _lead_state(head, lead)).copy()
    else:
        state = hashlib.sha256(head)
    state.update(messages[-1].json_bytes)
    state.update(_tail_bytes(
        request.sample_index, request.temperature,
        _json_kind(request.sample_index), _json_kind(request.temperature),
    ))
    return state.hexdigest()


def _lead_state(head: bytes, lead: tuple[Message, ...]):
    """SHA-256 fed the head and each leading message with its separator;
    memoised, so never updated after it is returned."""
    state = hashlib.sha256(head)
    for message in lead:
        state.update(message.json_bytes)
        state.update(b", ")
    return state


def _json_kind(value) -> tuple:
    """What, beside ``==``, tells apart values that JSON writes differently:
    ``1``, ``1.0`` and ``True`` by type, ``0.0`` and ``-0.0`` by sign."""
    return type(value), math.copysign(1.0, value) if isinstance(value, float) else 0.0


# The head and tail of the hashed text, encoded once per distinct value;
# ``kinds``, each value's ``_json_kind``, only keys the memo.
@lru_cache(maxsize=1024)
def _head_bytes(deployment_name, max_output_tokens, *kinds) -> bytes:
    head = _encode_sorted(
        {"deployment_name": deployment_name, "max_output_tokens": max_output_tokens}
    )
    return f'{head[:-1]}, "messages": ['.encode("utf-8")


@lru_cache(maxsize=1024)
def _tail_bytes(sample_index, temperature, *kinds) -> bytes:
    tail = _encode_sorted({"sample_index": sample_index, "temperature": temperature})
    return f"], {tail[1:]}".encode("utf-8")


def embed_cache_key(model: str, texts: Sequence[str]) -> str:
    """Content hash of one embed() call: the model and the ordered texts."""
    canonical = _encode({"embed": model, "texts": list(texts)})
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def cosine(u, v) -> float | np.ndarray:
    """Cosine similarity of two equal-length non-zero vectors; given two
    matrices, the matrix of the similarity of each row of ``u`` with each
    row of ``v``.

    The matrix form rounds differently from the vector form, in the last
    digits: a caller that compares its entries with a threshold rescores
    the pairs that land next to it with the vector form.
    """
    u, v = _array(u), _array(v)
    if u.ndim == 2 and v.ndim == 2:
        if u.shape[1] != v.shape[1]:
            raise EhrqaError(f"vector dimension mismatch: {u.shape} vs {v.shape}")
        nu, nv = np.linalg.norm(u, axis=1), np.linalg.norm(v, axis=1)
        if not (nu.all() and nv.all()):
            raise EhrqaError("cosine similarity undefined for a zero vector")
        # einsum rather than ``@``: a BLAS product allocates thread buffers
        # on first use, about 0.5 MB resident, for no gain at these sizes.
        return np.einsum("ik,jk->ij", u, v) / np.outer(nu, nv)
    if u.shape != v.shape:
        raise EhrqaError(f"vector dimension mismatch: {u.shape} vs {v.shape}")
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise EhrqaError("cosine similarity undefined for a zero vector")
    return float(np.dot(u, v) / (nu * nv))


def _array(x) -> np.ndarray:
    """``x`` as a float array; a list of rows of unequal length raises."""
    if isinstance(x, (list, tuple)):
        shapes = {np.shape(row) for row in x}
        if len(shapes) > 1:
            raise EhrqaError(f"vector dimension mismatch: rows of shapes {sorted(shapes)}")
    return np.asarray(x, dtype=float)


# ---------------------------------------------------------------------------
# Mocks


# A sentence-ID line, found from the newline before it: the MULTILINE
# ``^(\d+)\. `` without testing every position for a line start.
_ID_LINE_RE = re.compile(r"\n(\d+)\. ")
_NOTE_HEADERS = ("Full note:\n", "Note sentences:\n")
_MOCK_STAGES = frozenset({"st1ctx", "st1", "st2", "st3s1", "st3s2", "st4"})


class PipelineMockProvider:
    """Deterministic stand-in backend for offline smoke runs.

    Reads the rendered prompt to produce structurally valid outputs for any
    case: sentence-ID arrays for evidence selection, cited drafts and
    rewrites for answer generation, alignment JSON for evidence alignment.
    Sample index perturbs vote patterns so merges have structure.
    """

    def generate(self, request: GenRequest) -> str:
        return self._respond(self._stage(request.request_tag), request)

    @staticmethod
    def _stage(tag: str) -> str:
        # The first segment after the case_id that names a stage, since a
        # case_id may itself contain "/".
        return next((part for part in tag.split("/")[1:] if part in _MOCK_STAGES), "")

    def _respond(self, stage: str, request: GenRequest) -> str:
        # The prompt is the contents joined by blank lines; _section_ids
        # reads it without the join.
        prompt = [m.content for m in request.messages]
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
            note_ids = self._section_ids(prompt, *_NOTE_HEADERS)
            keep = 2 if request.sample_index % 2 == 0 else 1
            return json.dumps(note_ids[:keep])
        if stage == "st3s1":
            ev_ids = (
                self._section_ids(prompt, "Evidence sentences:\n")
                or self._section_ids(prompt, *_NOTE_HEADERS)
            )
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
            answer_ids = self._section_ids(prompt, "Answer sentences:\n")
            note_ids = self._section_ids(prompt, *_NOTE_HEADERS)
            take = 1 if request.sample_index % 2 == 0 else min(2, len(note_ids))
            return json.dumps(
                [
                    {"answer_id": aid, "evidence_id": note_ids[:take]}
                    for aid in answer_ids
                ]
            )
        return "[]"

    @staticmethod
    def _section_ids(prompt: str | Sequence[str], *headers: str) -> list[str]:
        """The sentence IDs from the earliest of ``headers`` to the next blank
        line or the end of the prompt: the DOTALL match of
        ``(?:<header>|...)(.*?)(?:\\n\\n|\\Z)``, then the lines that start
        ``<digits>. ``.

        ``prompt`` is the prompt, or the message contents it joins with
        blank lines; those are searched one by one, up to the first that
        holds a header, so the prompt is never joined. Each header ends in
        its only newline, so one that spans two contents ends the first
        with the newline of the blank line between them.
        """
        parts = (prompt,) if isinstance(prompt, str) else prompt
        for i, part in enumerate(parts):
            found = [(at, len(h)) for h in headers if (at := part.find(h)) >= 0]
            if found:
                at, length = min(found)
                text, start = part, at + length
            elif i + 1 < len(parts) and any(part.endswith(h[:-1]) for h in headers):
                # the section starts at the second newline of the blank line
                text, start = "\n\n" + parts[i + 1], 1
            else:
                continue
            # A blank line ends the section within ``text``: the one after
            # a content opens the next. text[start - 1] is the header's
            # newline, so the first ID line is found from it.
            end = text.find("\n\n", start)
            return _ID_LINE_RE.findall(text, start - 1, len(text) if end < 0 else end)
        return []


_TWOPI = 2.0 * math.pi  # random.TWOPI


class HashEmbedder:
    """Deterministic mock embedder: identical text, identical vector.

    A text's vector is ``dim`` draws of ``random.gauss(0, 1)`` from a
    ``random.Random`` seeded by the first 8 bytes (big-endian) of the
    text's SHA-256, divided by its norm; a zero vector becomes the first
    unit vector. ``embed`` makes the draws of all its texts at once, each
    step equal to the one ``random`` and ``gauss`` take, so every vector
    equals the ``gauss`` one byte for byte.
    """

    def __init__(self, dim: int = 32):
        if dim < 2:
            raise EhrqaError("embedding dimension must be >= 2")
        self.dim = dim

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        if not texts:
            raise EhrqaError("embed requires a non-empty input list")
        n, pairs = len(texts), (self.dim + 1) // 2  # gauss makes its normals in pairs
        # A pair takes two random() calls, each of two 32-bit outputs of the
        # generator; getrandbits gives a text's outputs as one integer whose
        # little-endian bytes hold them in the order drawn.
        nbytes = 16 * pairs
        sha256 = hashlib.sha256
        draws = [
            random.Random(int.from_bytes(sha256(t.encode("utf-8")).digest()[:8], "big"))
            .getrandbits(8 * nbytes)
            for t in texts
        ]
        words = np.frombuffer(
            b"".join(map(int.to_bytes, draws, repeat(nbytes), repeat("little"))), "<u4"
        )
        # random(): (a*67108864.0+b)*(1.0/9007199254740992.0), a and b the
        # top 27 and 26 bits of two outputs; every step is exact.
        a, b = words[0::2] >> 5, words[1::2] >> 6
        uniform = (a * 67108864.0 + b) * (1.0 / 9007199254740992.0)
        # gauss: x2pi = random() * TWOPI; g2rad = sqrt(-2.0 * log(1.0 -
        # random())); the pair is cos(x2pi) * g2rad, sin(x2pi) * g2rad. The
        # math functions are mapped, since NumPy's may round differently.
        x2pi = (uniform[0::2] * _TWOPI).tolist()
        logs = np.fromiter(map(math.log, (1.0 - uniform[1::2]).tolist()), float, n * pairs)
        normals = np.empty((n * pairs, 2))
        normals[:, 0] = np.fromiter(map(math.cos, x2pi), float, n * pairs)
        normals[:, 1] = np.fromiter(map(math.sin, x2pi), float, n * pairs)
        normals *= np.sqrt(-2.0 * logs)[:, None]
        normals += 0.0  # gauss returns mu + z * sigma: a -0.0 becomes 0.0
        vectors = normals.reshape(n, 2 * pairs)[:, : self.dim]
        # np.linalg.norm of a vector is sqrt(v.dot(v)); matmul of a row by
        # its column takes that same dot product.
        norms = np.sqrt(np.matmul(vectors[:, None, :], vectors[:, :, None]).ravel())
        if not norms.all():
            zero = norms == 0.0
            vectors[zero, 0] = 1.0
            norms[zero] = 1.0
        return list(vectors / norms[:, None])


# ---------------------------------------------------------------------------
# Record / replay cache


class ResponseCache:
    """Content-addressed store: one compact JSON file per key, whose first
    entry is final. Reads take no lock: ``put`` publishes an entry with a
    hard link, so a reader finds either no file or a whole one that never
    changes. The lock guards only the hit and miss counters.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._dir = str(self.root)
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> str:
        return os.path.join(self._dir, key + ".json")

    def get(self, key: str, field: str, what: str):
        """The ``field`` of the entry stored under ``key``, or None on a miss.

        An entry that does not parse (nested too deep included), or whose
        ``field`` is missing or null, raises CacheMissError naming the key
        and ``what`` it was read for.
        """
        try:
            value = self._read(key, field, what)
        except FileNotFoundError:
            value = None
        with self._lock:
            self.hits += value is not None
            self.misses += value is None
        return value

    def found(self, key: str, field: str, what: str):
        """The ``field`` of the entry a ``put`` found under ``key``; the
        ``get`` that missed it counts as a hit instead."""
        value = self._read(key, field, what)
        with self._lock:
            self.misses -= 1
            self.hits += 1
        return value

    def _read(self, key: str, field: str, what: str):
        with open(self._path(key), "rb", buffering=0) as fh:
            data = fh.readall()
        try:
            value = json.loads(data)[field]
            if value is None:
                raise ValueError("null")
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise CacheMissError(
                f"unreadable cache entry {key} for {what}: no valid {field!r} ({exc})"
            ) from exc
        return value

    def put(self, key: str, record: dict) -> bool:
        """Store ``record`` under ``key`` unless the key has an entry, which
        stays; returns whether it stored. A link fails where the name exists."""
        path = self._path(key)
        tmp = Path(f"{path}.{os.getpid()}-{threading.get_ident()}.tmp")
        text = json.dumps(record, ensure_ascii=False, sort_keys=True, separators=(",", ":"))
        try:
            tmp.write_text(text, encoding="utf-8")
            os.link(tmp, path)
            return True
        except FileExistsError:
            return False
        finally:
            tmp.unlink(missing_ok=True)

    def entries(self) -> list[str]:
        return sorted(p.stem for p in self.root.glob("*.json"))

    def prune(self) -> int:
        removed = 0
        for p in self.root.glob("*.json"):
            p.unlink()
            removed += 1
        return removed

    def stats(self) -> dict:
        with os.scandir(self._dir) as found:
            entries = sum(entry.name.endswith(".json") for entry in found)
        return {"hits": self.hits, "misses": self.misses, "entries": entries}


class _RecordReplay:
    """Record/replay wrapper around an inner backend, one entry per call.

    Both modes serve a cached entry when there is one. On a miss, record
    calls the inner backend and persists the result before returning it,
    so an interrupted recording resumes where it stopped (and when another
    request stored the key's entry meanwhile, serves that entry instead);
    replay raises CacheMissError naming what was asked. A subclass names
    the entry ``field`` a hit is served from, the kind of ``backend`` it
    wraps and the noun a replay miss puts before what was asked
    (``missing``), and converts between its backend's results and its
    entries.
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
        if value is None:
            if self.mode == "replay":
                raise CacheMissError(f"no cached {self.missing}{what} (key {key[:12]})")
            result = self._call(asked)
            if self.cache.put(key, self._to_entry(asked, result)):
                return result
            value = self.cache.found(key, self.field, what)
        return self._from_entry(value, asked, key, what)


class ReplayGenerator(_RecordReplay):
    """Record/replay generator. An entry is ``{"response": {"text": ...}}``
    alone: the key stands for the request. Entries whose response also
    holds ``deployment_name`` and ``latency_ms``, or that also hold a
    ``request`` block, as earlier versions wrote, still replay."""

    field, backend, missing = "response", "generator", "response for "

    def generate(self, request: GenRequest) -> str:
        return self._serve(request_cache_key(request), f"request {request.request_tag!r}", request)

    def _call(self, request: GenRequest) -> str:
        return self.inner.generate(request)

    def _from_entry(self, resp, request, key: str, what: str) -> str:
        """The cached response's ``text``, a string; anything else raises
        CacheMissError naming the key. Its other fields are never read."""
        text = resp.get("text") if isinstance(resp, dict) else None
        if not isinstance(text, str):
            raise CacheMissError(
                f"cache entry {key} for {what} holds no valid response: "
                f"text must be a string, not {resp!r:.200}"
            )
        return text

    def _to_entry(self, request: GenRequest, text: str) -> dict:
        return {"response": {"text": text}}


class CachedEmbedder(_RecordReplay):
    """Record/replay embedder. An entry is keyed on the model and the
    ordered text list and is ``{"vectors": ...}`` alone: the base64 of one
    row-major little-endian float64 array, a row per text. Entries that
    also hold ``model``, or hold a JSON list of rows, as earlier versions
    wrote, are read, never written."""

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

    def _from_entry(self, vectors: str | list, texts, key: str, what: str) -> list[np.ndarray]:
        """One writable float64 vector per text, all of one positive length;
        anything else raises CacheMissError naming the key."""
        n = len(texts)
        try:
            if isinstance(vectors, str):
                raw = base64.b64decode(vectors, validate=True)
                if not raw or len(raw) % (8 * n):
                    raise ValueError(f"{len(raw)} bytes for {n} vector(s)")
                rows = np.frombuffer(raw, dtype="<f8").reshape(n, -1).astype(float)
            else:  # the list form
                rows = _vector_rows(vectors, n)
        except ValueError as exc:  # binascii.Error is a ValueError
            raise CacheMissError(f"cache entry {key} for {what} holds no valid vectors ({exc})") from exc
        return list(rows)

    def _to_entry(self, texts, vectors: list[np.ndarray]) -> dict:
        raw = np.asarray(vectors, dtype="<f8").tobytes()
        return {"vectors": base64.b64encode(raw).decode("ascii")}


def _vector_rows(vectors, count: int | None = None) -> np.ndarray:
    """The one rule for vectors read as JSON, from an embeddings body or a
    cache entry: a non-empty list of vectors (``count`` of them, if given),
    each a non-empty list of numbers (int or float, not bool), all of one
    length. Returns them as the rows of a float64 array; anything else
    raises ValueError."""
    if not (
        isinstance(vectors, list) and vectors and count in (None, len(vectors)) and all(
            isinstance(v, list) and v and all(type(x) in (float, int) for x in v)
            for v in vectors
        )
    ):
        raise ValueError(f"not {count or 'one or more'} non-empty list(s) of numbers")
    if len({len(v) for v in vectors}) > 1:
        raise ValueError("vectors of unequal length")
    try:
        return np.array(vectors, dtype=float)
    except OverflowError as exc:
        raise ValueError(f"a number beyond float range ({exc})") from exc


# ---------------------------------------------------------------------------
# HTTP clients

RETRYABLE_STATUS = {408, 409, 429, 500, 502, 503, 504}


# Every HTTP call makes up to MAX_ATTEMPTS attempts, waiting
# BACKOFF_SECONDS * 2**attempt after each failed one but the last.
MAX_ATTEMPTS = 3
BACKOFF_SECONDS = 0.5


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
        transport: Callable | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.endpoint = endpoint.rstrip("/")
        self.api_key = api_key
        self.timeout = timeout
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
        for attempt in range(MAX_ATTEMPTS):
            if attempt:
                self._sleep(BACKOFF_SECONDS * 2 ** (attempt - 1))
            try:
                response = self._transport(url, payload, headers)
            except Exception as exc:  # foreign transport: any failure is a backend failure
                last_error = f"{type(exc).__name__}: {exc}"
                logger.warning("transport error from %s (attempt %d): %s", url, attempt + 1, exc)
                continue
            status = getattr(response, "status_code", 200)
            if status in RETRYABLE_STATUS:
                last_error = f"HTTP {status}"
                continue
            if status >= 400:
                raise ProviderError(f"HTTP {status} from {url}: {response.text[:200]}")
            try:
                return read(response.json())
            except (ValueError, LookupError, TypeError) as exc:
                raise ProviderError(f"malformed response from {url}: {exc!r}") from exc
        raise ProviderError(
            f"{url} failed after {MAX_ATTEMPTS} attempts: {last_error}"
        )


class HttpChatProvider(_HttpClient):
    """Chat-completions-style HTTP client with bounded retries."""

    def generate(self, request: GenRequest) -> str:
        payload = {
            "model": request.deployment_name,
            "messages": [
                {"role": m.role, "content": m.content} for m in request.messages
            ],
            "temperature": request.temperature,
            "max_tokens": request.max_output_tokens,
        }
        return self._post("chat/completions", payload, _chat_text)


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
    return list(_vector_rows([d["embedding"] for d in body["data"]]))


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


def gather_responses(
    generator: Generator,
    requests: Sequence[GenRequest],
) -> list[str | None]:
    """Run requests against one backend; see gather_multi."""
    tags = [r.request_tag for r in requests]
    if len(set(tags)) != len(tags):
        raise EhrqaError("request_tag values must be unique within a batch")
    return gather_multi([(generator, r) for r in requests])


def gather_multi(pairs: Sequence[tuple[Generator, GenRequest]]) -> list[str | None]:
    """Run each request against its own backend, one after another on the
    caller's thread, in request order: one reply per request, or None
    where the call raised ProviderError, which is logged. Any other error,
    a CacheMissError included, is re-raised at once.
    """
    responses: list[str | None] = []
    for generator, request in pairs:
        try:
            responses.append(generator.generate(request))
        except ProviderError as exc:
            responses.append(None)
            logger.warning("request %s failed: %s", request.request_tag, exc)
    return responses
