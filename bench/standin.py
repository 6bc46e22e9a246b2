"""Deterministic stand-in backends that count what the pipeline asks of them.

``meter_generator`` takes the generator the pipeline built (the
``PipelineMockProvider`` in mock mode, the record/replay wrapper otherwise)
and rebinds its ``generate`` method on the instance to one that adds, per
call, a latency derived from a hash of the request and the deployment's own
mean, and counts calls, calls in flight at once, and calls that raised.
``meter_embedder`` does the same for embedder calls and texts, without
latency. The objects keep their types, so the pipeline's own type checks
(such as the cache statistics it writes for a replay generator) still see
them. Both are installed from outside the package by rebinding
``ehrqa.pipeline.build_generator`` and ``ehrqa.pipeline.build_embedder``.

No failures are injected: a failed st2 or st4 call silently becomes an
empty vote today, so outputs would depend on the failure pattern.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass


def _unit_hash(text: str) -> float:
    """A stable number in [0, 1) derived from ``text``."""
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class LatencyModel:
    """Per-call latency: the deployment's mean times a per-request jitter.

    The deployment mean is ``mean_ms`` scaled into [0.6, 1.4] by a hash of
    the deployment name; the per-request factor lies in [0.75, 1.25] and is
    hashed from the request's deployment, tag and sample index, so the same
    request always waits the same time.
    """

    mean_ms: float

    def deployment_ms(self, deployment: str) -> float:
        return self.mean_ms * (0.6 + 0.8 * _unit_hash(f"deployment/{deployment}"))

    def request_ms(self, request) -> float:
        key = f"{request.deployment_name}/{request.request_tag}/{request.sample_index}"
        return self.deployment_ms(request.deployment_name) * (0.75 + 0.5 * _unit_hash(key))


class CallCounter:
    """Calls, items they carried, calls in flight, their peak, calls that
    raised, and the time spent inside them."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.calls = 0
            self.items = 0
            self.failed = 0
            self.inflight = 0
            self.peak_inflight = 0
            self.wait_s = 0.0

    def enter(self, items: int = 1) -> None:
        with self._lock:
            self.calls += 1
            self.items += items
            self.inflight += 1
            self.peak_inflight = max(self.peak_inflight, self.inflight)

    def leave(self, elapsed_s: float, failed: bool) -> None:
        with self._lock:
            self.inflight -= 1
            self.wait_s += elapsed_s
            self.failed += int(failed)


def call_generator(counter: CallCounter, generate, request, latency: LatencyModel | None):
    """One metered generator call; looked up at call time, so it can be traced."""
    counter.enter()
    start = time.perf_counter()
    failed = True
    try:
        if latency is not None:
            time.sleep(latency.request_ms(request) / 1000.0)
        response = generate(request)
        failed = False
        return response
    finally:
        counter.leave(time.perf_counter() - start, failed)


def call_embedder(counter: CallCounter, embed, texts):
    """One metered embedder call, counting its texts as items."""
    counter.enter(len(texts))
    start = time.perf_counter()
    failed = True
    try:
        vectors = embed(texts)
        failed = False
        return vectors
    finally:
        counter.leave(time.perf_counter() - start, failed)


def meter_generator(generator, counter: CallCounter, latency: LatencyModel | None = None):
    """Rebind ``generator.generate`` on the instance; returns the same object."""
    generate = generator.generate
    generator.generate = lambda request: call_generator(counter, generate, request, latency)
    return generator


def meter_embedder(embedder, counter: CallCounter):
    """Rebind ``embedder.embed`` on the instance; returns the same object."""
    embed = embedder.embed
    embedder.embed = lambda texts: call_embedder(counter, embed, texts)
    return embedder


class Backends:
    """Installs the stand-ins into ``ehrqa.pipeline`` and holds their counters.

    Use as a context manager: inside it, every generator and embedder the
    pipeline builds is metered; on exit the original builders are restored.
    """

    def __init__(self, pipeline, latency: LatencyModel | None = None):
        self.pipeline = pipeline
        self.latency = latency
        self.generator = CallCounter()
        self.embedder = CallCounter()

    def reset(self) -> None:
        self.generator.reset()
        self.embedder.reset()

    def __enter__(self) -> "Backends":
        self._build_generator = self.pipeline.build_generator
        self._build_embedder = self.pipeline.build_embedder
        self.pipeline.build_generator = lambda config: meter_generator(
            self._build_generator(config), self.generator, self.latency
        )
        self.pipeline.build_embedder = lambda config: meter_embedder(
            self._build_embedder(config), self.embedder
        )
        return self

    def __exit__(self, *exc) -> None:
        self.pipeline.build_generator = self._build_generator
        self.pipeline.build_embedder = self._build_embedder
