"""Text-generation and embedding backends behind one small interface.

Three generator flavors: a pipeline mock that fabricates plausible
structured outputs for any prompt (offline smoke runs), a retrying HTTP
chat client (live, which a run reaches only through the record wrapper),
and a record/replay wrapper that persists responses content-addressed on
the request so whole runs replay byte-identically with zero network
access.
"""

from __future__ import annotations

import base64
import errno
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
from typing import TYPE_CHECKING, Callable, Protocol, Sequence, TypeVar

from .core import CacheMissError, EhrqaError, ProviderError
from .prompting import Message, _memo

# Each function that computes with arrays imports NumPy itself: importing it
# takes ~60 ms that eval, cache and most st2-st4 runs never need.
if TYPE_CHECKING:
    import numpy as np

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


# json.dumps(obj, sort_keys=True, ensure_ascii=False), json.dumps(obj,
# ensure_ascii=False) and the compact sorted form a cache entry takes,
# without building an encoder per call.
_encode_sorted = json.JSONEncoder(ensure_ascii=False, sort_keys=True).encode
_encode = json.JSONEncoder(ensure_ascii=False).encode
_encode_compact = json.JSONEncoder(ensure_ascii=False, sort_keys=True, separators=(",", ":")).encode


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
    import numpy as np

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
    import numpy as np

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
        import numpy as np

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


# What opening or linking an unnamed file raises where the directory cannot
# take one: the kernel or file system lacks O_TMPFILE (EOPNOTSUPP, EISDIR,
# EINVAL), or /proc is not mounted (ENOENT).
_NO_TMPFILE = frozenset({errno.EOPNOTSUPP, errno.EISDIR, errno.EINVAL, errno.ENOENT})


class ResponseCache:
    """Content-addressed store of bytes: one file per entry, named
    ``<key><suffix>`` for the suffix its reader names, whose first entry is
    final. Reads take no lock: ``put`` publishes an entry with a hard link,
    so a reader finds either no file or a whole one that never changes.
    The lock guards only the hit and miss counters.

    ``put`` writes an entry into an unnamed file (``O_TMPFILE``) and links
    it into place, so a writer killed before the link leaves nothing. Where
    the directory cannot take an unnamed file (not Linux, a file system
    without ``O_TMPFILE``, no ``/proc``), the first ``put`` that finds so
    moves the cache for good to a named temporary file,
    ``<name>.<pid>-<tid>.tmp``, which it links and then unlinks; a writer
    killed in between leaves that file behind, as earlier versions did.
    ``TEMP`` is the suffix such an orphan ends in. A recording also writes
    ``MARKER``, naming the backend its entries came from. Neither name ends
    in an entry's suffix.
    """

    MARKER, TEMP = "recorded-from", ".tmp"

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._dir = str(self.root)
        self._lock = threading.Lock()
        self._unnamed = hasattr(os, "O_TMPFILE")
        self.hits = 0
        self.misses = 0

    def _path(self, key: str, suffix: str) -> str:
        return os.path.join(self._dir, key + suffix)

    def get(self, key: str, suffixes: Sequence[str]) -> tuple[str, bytes] | None:
        """The first of ``suffixes`` that ``key`` has an entry under, and
        that entry's bytes; None on a miss."""
        entry = None
        for suffix in suffixes:
            try:
                entry = suffix, self._read(key, suffix)
                break
            except FileNotFoundError:
                continue
        with self._lock:
            self.hits += entry is not None
            self.misses += entry is None
        return entry

    def found(self, key: str, suffix: str) -> bytes:
        """The bytes of the entry a ``put`` found under ``key``; the ``get``
        that missed it counts as a hit instead."""
        data = self._read(key, suffix)
        with self._lock:
            self.misses -= 1
            self.hits += 1
        return data

    def _read(self, key: str, suffix: str) -> bytes:
        with open(self._path(key, suffix), "rb", buffering=0) as fh:
            return fh.readall()

    def put(self, key: str, suffix: str, data: bytes) -> bool:
        """Store ``data`` under ``key`` unless the key has an entry of that
        suffix, which stays; returns whether it stored. A link fails where
        the name exists."""
        path = self._path(key, suffix)
        try:
            if self._unnamed:
                try:
                    self._link_unnamed(path, data)
                    return True
                except OSError as exc:
                    if exc.errno not in _NO_TMPFILE:
                        raise
                    self._unnamed = False
            self._link_named(path, data)
            return True
        except FileExistsError:
            return False

    def _link_unnamed(self, path: str, data: bytes) -> None:
        # Passing src_dir_fd makes os.link call linkat with
        # AT_SYMLINK_FOLLOW, which links the file the fd names rather than
        # the /proc symlink; the absolute source path ignores the fd itself.
        fd = os.open(self._dir, os.O_TMPFILE | os.O_WRONLY, 0o666)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view) :]
            os.link(f"/proc/self/fd/{fd}", path, src_dir_fd=fd)
        finally:
            os.close(fd)

    def _link_named(self, path: str, data: bytes) -> None:
        tmp = Path(f"{path}.{os.getpid()}-{threading.get_ident()}{self.TEMP}")
        try:
            tmp.write_bytes(data)
            os.link(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)

    def entries(self, suffix: str) -> list[str]:
        """The keys with an entry of ``suffix``, sorted."""
        with os.scandir(self._dir) as found:
            return sorted(e.name[: -len(suffix)] for e in found if e.name.endswith(suffix))

    def prune(self, suffixes: Sequence[str]) -> int:
        """Delete every entry of ``suffixes``; returns how many."""
        removed = 0
        for suffix in suffixes:
            for key in self.entries(suffix):
                os.unlink(self._path(key, suffix))
                removed += 1
        return removed

    def stats(self, suffix: str) -> dict:
        """The hit and miss counts, and the number of ``suffix`` entries."""
        return {"hits": self.hits, "misses": self.misses, "entries": len(self.entries(suffix))}

    def mark(self, source: str) -> str:
        """The backend the directory is recorded from: the one its marker
        names, or ``source`` when it has none, which then marks it. The
        marker is published as an entry is, so of two runs that mark an
        unmarked directory at once, both get the source of the first."""
        if self.put(self.MARKER, "", f"{source}\n".encode()):
            return source
        return self.source()

    def source(self) -> str | None:
        """The backend the marker names; None when there is no marker."""
        try:
            return self._read(self.MARKER, "").decode(errors="replace").strip()
        except FileNotFoundError:
            return None

    def unmark(self) -> None:
        """Remove the marker, if there is one."""
        Path(self._path(self.MARKER, "")).unlink(missing_ok=True)


def _json_field(data: bytes, field: str, key: str, what: str):
    """The ``field`` of a JSON cache entry. An entry that does not parse
    (nested too deep included), or whose ``field`` is missing or null,
    raises CacheMissError naming the key and ``what`` it was read for."""
    try:
        value = json.loads(data)[field]
        if value is None:
            raise ValueError("null")
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise CacheMissError(
            f"unreadable cache entry {key} for {what}: no valid {field!r} ({exc})"
        ) from exc
    return value


class _RecordReplay:
    """Record/replay wrapper around an inner backend, one entry per call.

    Both modes serve a cached entry when there is one. On a miss, record
    calls the inner backend and persists the result before returning it,
    so an interrupted recording resumes where it stopped (and when another
    request stored the key's entry meanwhile, serves that entry instead);
    replay raises CacheMissError naming what was asked. A subclass names
    the entry ``suffixes`` a hit is looked up under, in order, the first
    being the one it writes; the kind of ``backend`` it wraps; and the
    noun a replay miss puts before what was asked (``missing``). It
    converts between its backend's results and its entries' bytes.
    """

    suffixes: tuple[str, ...] = ()
    backend = missing = ""

    def __init__(self, cache: ResponseCache, inner=None, mode: str = "replay"):
        if mode not in ("record", "replay"):
            raise EhrqaError(f"unknown replay mode {mode!r}")
        if mode == "record" and inner is None:
            raise EhrqaError(f"record mode requires an inner {self.backend}")
        self.cache = cache
        self.inner = inner
        self.mode = mode

    def stats(self) -> dict:
        """The cache's hit and miss counts, and its entries of the suffix
        this wrapper writes."""
        return self.cache.stats(self.suffixes[0])

    def _serve(self, key: str, what: str, asked):
        entry = self.cache.get(key, self.suffixes)
        if entry is None:
            if self.mode == "replay":
                raise CacheMissError(f"no cached {self.missing}{what} (key {key[:12]})")
            result = self._call(asked)
            suffix = self.suffixes[0]
            if self.cache.put(key, suffix, self._to_entry(result)):
                return result
            entry = suffix, self.cache.found(key, suffix)
        return self._from_entry(*entry, asked, key, what)


class ReplayGenerator(_RecordReplay):
    """Record/replay generator. An entry is ``<key>.json`` holding
    ``{"response": {"text": ...}}`` alone: the key stands for the request.
    Entries whose response also holds ``deployment_name`` and
    ``latency_ms``, or that also hold a ``request`` block, as earlier
    versions wrote, still replay."""

    suffixes, backend, missing = (".json",), "generator", "response for "

    def generate(self, request: GenRequest) -> str:
        return self._serve(request_cache_key(request), f"request {request.request_tag!r}", request)

    def _call(self, request: GenRequest) -> str:
        return self.inner.generate(request)

    def _from_entry(self, suffix: str, data: bytes, request, key: str, what: str) -> str:
        """The cached response's ``text``, a string; anything else raises
        CacheMissError naming the key. Its other fields are never read."""
        resp = _json_field(data, "response", key, what)
        text = resp.get("text") if isinstance(resp, dict) else None
        if not isinstance(text, str):
            raise CacheMissError(
                f"cache entry {key} for {what} holds no valid response: "
                f"text must be a string, not {resp!r:.200}"
            )
        return text

    def _to_entry(self, text: str) -> bytes:
        return _encode_compact({"response": {"text": text}}).encode("utf-8")


class CachedEmbedder(_RecordReplay):
    """Record/replay embedder. An entry is keyed on the model and the
    ordered text list, and is ``<key>.f64``: one row-major little-endian
    float64 array, a row per text, with nothing around it. Where a key has
    no ``.f64`` entry, ``<key>.json`` is read, as earlier versions wrote
    it: ``{"vectors": ...}`` holding the base64 of that array or a JSON
    list of rows, with or without a ``model``. Those are never written."""

    suffixes, backend = (".f64", ".json"), "embedder"

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

    def _from_entry(self, suffix: str, data: bytes, texts, key: str, what: str) -> list[np.ndarray]:
        """One writable float64 vector per text, all of one positive length;
        anything else raises CacheMissError naming the key."""
        import numpy as np

        n = len(texts)
        try:
            raw = data
            if suffix == ".json":
                vectors = _json_field(data, "vectors", key, what)
                if not isinstance(vectors, str):  # the list form
                    return list(_vector_rows(vectors, n))
                raw = base64.b64decode(vectors, validate=True)
            if not raw or len(raw) % (8 * n):
                raise ValueError(f"{len(raw)} bytes for {n} vector(s)")
            rows = np.frombuffer(raw, dtype="<f8").reshape(n, -1).astype(float)
        except ValueError as exc:  # binascii.Error is a ValueError
            raise CacheMissError(f"cache entry {key} for {what} holds no valid vectors ({exc})") from exc
        return list(rows)

    def _to_entry(self, vectors: list[np.ndarray]) -> bytes:
        import numpy as np

        return np.asarray(vectors, dtype="<f8").tobytes()


def _vector_rows(vectors, count: int | None = None) -> np.ndarray:
    """The one rule for vectors read as JSON, from an embeddings body or a
    cache entry: a non-empty list of vectors (``count`` of them, if given),
    each a non-empty list of numbers (int or float, not bool), all of one
    length. Returns them as the rows of a float64 array; anything else
    raises ValueError."""
    import numpy as np

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

    def _default_transport(self, url: str, payload: dict, headers: dict) -> tuple[int, bytes]:
        import urllib.request  # here: importing it takes ~35 ms that only live calls need

        data = json.dumps(payload, allow_nan=False).encode()
        try:  # an error status is a response too; a 307 or 308 is not followed
            request = urllib.request.Request(url, data, headers)
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return response.status, response.read()
        except urllib.error.HTTPError as error:
            with error:
                return error.code, error.read()

    def _post(self, path: str, payload: dict, read: Callable[[dict], T]) -> T:
        """POST ``payload`` and ``read`` the JSON body, retrying transport
        errors and retryable statuses with backoff. The transport returns
        ``(status, body bytes)``.

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
            status, body = response
            if status in RETRYABLE_STATUS:
                last_error = f"HTTP {status}"
                continue
            if status >= 300:
                text = body.decode(errors="replace")[:200]
                raise ProviderError(f"HTTP {status} from {url}: {text}")
            try:
                return read(json.loads(body))
            except (ValueError, LookupError, TypeError, RecursionError) as exc:
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
