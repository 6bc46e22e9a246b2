"""Benchmark of the ehrqa four-subtask chain, driven from outside the package.

Usage, from the root of a checkout:

    python3 bench/run.py --workload mock-full --seed 1 --seconds 10 --trace 0

One process, one driving thread. Each run builds its seeded case file,
sets up (imports, case generation and validation, and on ``replay`` the
recording of the response cache), makes an untimed reference run with the
plain mock at ``workers=1``, then repeats the timed call for ``--seconds``
and checks every timed output against the reference. The last line of
standard output is one JSON object: with ``--trace 0`` it holds the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
call and the tracing overhead (see README.md in this directory).
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import casegen
import checks
import standin
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

ALL_SUBTASKS = ("st1", "st2", "st3", "st4")
# Set-up is repeated at least SETUP_MIN_REPEATS times and until it has taken
# SETUP_MIN_SECONDS in all, so that cheap set-ups report a median of many.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 3.0
# The traced run alternates untraced and traced calls, at least this many
# pairs and until --seconds have passed, and compares their medians.
TRACE_MIN_PAIRS = 3
LAYERS = (
    "pipeline", "dataset", "st1", "st2", "st3", "st4",
    "prompting", "parsing", "providers", "cli", "report", "metrics",
)


@dataclass(frozen=True)
class Workload:
    cases: int
    subtasks: tuple[str, ...]
    mode: str  # provider mode of the timed call: "mock" or "replay"
    workers: int
    latency_ms: float | None = None
    score: bool = False


WORKLOADS = {
    # Pure local CPU: st1's quadratic retrieval and scoring plus scoring of
    # all four outputs; no backend wait and no cache I/O.
    "mock-full": Workload(200, ALL_SUBTASKS, "mock", workers=1, score=True),
    # The cache read path (request hashing, file reads, JSON parsing under
    # the cache lock); st1 is left out so its quadratic term does not hide it.
    "replay": Workload(100, ("st2", "st3", "st4"), "replay", workers=2),
    # Backend wait dominates: call scheduling, st3's serial calls and the
    # nested per-case pools.
    "latency": Workload(24, ALL_SUBTASKS, "mock", workers=2, latency_ms=50.0),
}


def load_program() -> SimpleNamespace:
    sys.path.insert(0, str(SRC))
    from ehrqa import cli, dataset, pipeline, providers, report, st1, st2, st3, st4

    return SimpleNamespace(
        cli=cli, dataset=dataset, pipeline=pipeline, providers=providers,
        report=report, st1=st1, st2=st2, st3=st3, st4=st4,
    )


IMPORT_PROBE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from ehrqa import cli, pipeline
print(time.perf_counter() - start)
"""


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import the program, as a user's
    ``ehrqa`` invocation does; measured in a child process so that every
    set-up repeat pays it."""
    child = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(child.stdout.strip().splitlines()[-1])


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def quantile_ms(durations: list[float], q: int) -> float:
    """The q-th percentile in ms (inclusive method); one value is its own
    percentile and no values read 0."""
    if len(durations) < 2:
        return 1000.0 * sum(durations)
    return 1000.0 * statistics.quantiles(durations, n=100, method="inclusive")[q - 1]


@dataclass
class Iteration:
    elapsed_s: float
    generate_calls: int
    embed_calls: int
    failed_calls: int
    peak_inflight: int


class Bench:
    def __init__(self, program, name: str, seed: int, work: Path):
        self.p = program
        self.name = name
        self.w = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.cases_path = work / "cases.jsonl"
        self.cache_dir = work / "cache"
        self.cache_entries = 0
        self.attempted = 0

    def config(self, mode: str, workers: int, out_dir: Path) -> dict:
        return self.p.pipeline.resolve_config({
            "dataset": {"cases": str(self.cases_path)},
            "subtasks": list(self.w.subtasks),
            "provider_mode": mode,
            "record_source": "mock",
            "cache_dir": str(self.cache_dir),
            "out_dir": str(out_dir),
            "workers": workers,
            "st3": {"rerank": True},
            "st4": {"recall": {"enabled": True}},
        })

    # -- set-up and reference ---------------------------------------------

    def setup(self) -> float:
        """Import the program, generate and validate the cases, and record
        the cache on replay."""
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        shutil.rmtree(self.work / "record", ignore_errors=True)
        gc.collect()
        imports = import_seconds()
        start = time.perf_counter()
        casegen.write_cases(self.w.cases, self.seed, self.cases_path)
        self.p.dataset.load_cases(self.cases_path)
        if self.w.mode == "replay":
            self.p.pipeline.run_pipeline(
                self.config("record", self.w.workers, self.work / "record")
            )
        return imports + time.perf_counter() - start

    def reference(self) -> None:
        """Untimed run with the plain mock at workers=1 on the same cases."""
        out, reports = self.work / "reference", self.work / "reference-reports"
        self.call(self.config("mock", 1, out), out, reports)
        self.case_records = [
            json.loads(line) for line in self.cases_path.read_text("utf-8").splitlines()
        ]
        checks.check_rules(out, self.case_records, self.w.subtasks)
        self.ref_outputs = checks.snapshot(out, "st*.jsonl")
        self.ref_reports = checks.snapshot(reports, "*_report.json")

    # -- the timed call ---------------------------------------------------

    def call(self, config: dict, out: Path, reports: Path) -> float:
        start = time.perf_counter()
        self.p.pipeline.run_pipeline(config)
        if self.w.score:
            self.evaluate(out, reports)
        return time.perf_counter() - start

    def evaluate(self, out: Path, reports: Path) -> None:
        """Score every output against gold the way ``ehrqa eval`` does."""
        for subtask in self.w.subtasks:
            args = argparse.Namespace(
                pred=str(out / f"{subtask}.jsonl"), gold=str(self.cases_path),
                subtask=subtask, out=str(reports),
            )
            with redirect_stdout(io.StringIO()):
                self.p.cli.cmd_eval(args)

    def iteration(self, backends: standin.Backends, tracer=None) -> Iteration:
        out, reports = self.work / "out", self.work / "reports"
        shutil.rmtree(out, ignore_errors=True)
        shutil.rmtree(reports, ignore_errors=True)
        backends.reset()
        config = self.config(self.w.mode, self.w.workers, out)
        gc.collect()
        self.attempted += self.w.cases
        if tracer is None:
            elapsed = self.call(config, out, reports)
        else:
            start = time.perf_counter()
            tracer.call("bench.iteration", self.call, (config, out, reports), root=True)
            elapsed = time.perf_counter() - start
        checks.compare(checks.snapshot(out, "st*.jsonl"), self.ref_outputs, "outputs")
        checks.check_rules(out, self.case_records, self.w.subtasks)
        if self.w.score:
            checks.compare(checks.snapshot(reports, "*_report.json"), self.ref_reports, "scores")
        gen, emb = backends.generator, backends.embedder
        if self.w.mode == "replay":
            checks.check_replay_manifest(out, gen.calls, self.cache_entries)
        return Iteration(
            elapsed_s=elapsed,
            generate_calls=gen.calls,
            embed_calls=emb.calls,
            failed_calls=gen.failed + emb.failed,
            peak_inflight=gen.peak_inflight,
        )

    # -- runs -------------------------------------------------------------

    def run(self, seconds: float, trace: bool) -> dict:
        setup_times = []
        tracer = tracing.Tracer() if trace else None
        if tracer is None:
            while len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_SECONDS:
                setup_times.append(self.setup())
        else:
            # setup_s is not reported here: one traced set-up gives the
            # cache-write layer metrics.
            tracer.phase = "setup"
            instrument(tracer, self.p)
            try:
                self.setup()
            finally:
                tracer.restore()
        cache_bytes = dir_bytes(self.cache_dir) if self.cache_dir.exists() else 0
        self.cache_entries = len(list(self.cache_dir.glob("*.json"))) if cache_bytes else 0
        self.reference()

        latency = standin.LatencyModel(self.w.latency_ms) if self.w.latency_ms else None
        with standin.Backends(self.p.pipeline, latency) as backends:
            start = time.perf_counter()
            if tracer is None:
                iterations = []
                while not iterations or time.perf_counter() - start < seconds:
                    iterations.append(self.iteration(backends))
                return self.end_to_end(iterations, setup_times, cache_bytes)
            # The first traced call's spans give the layer metrics; later
            # traced calls record into throwaway tracers and serve only the
            # overhead figure.
            plain, traced = [], []
            while len(traced) < TRACE_MIN_PAIRS or time.perf_counter() - start < seconds:
                plain.append(self.iteration(backends).elapsed_s)
                pair_tracer = tracer if not traced else tracing.Tracer()
                pair_tracer.phase = "run"
                instrument(pair_tracer, self.p)
                try:
                    it = self.iteration(backends, pair_tracer)
                finally:
                    pair_tracer.restore()
                if not traced:
                    metrics = layer_metrics(
                        tracer, backends,
                        cache_bytes / self.cache_entries if self.cache_entries else 0.0,
                    )
                traced.append(it.elapsed_s)
        WORK.joinpath("traces").mkdir(parents=True, exist_ok=True)
        tracer.write(WORK / "traces" / f"{self.name}-seed{self.seed}.jsonl")
        overhead = statistics.median(traced) / statistics.median(plain) - 1.0
        metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
        return metrics

    def end_to_end(self, iterations, setup_times, cache_bytes) -> dict:
        cases = self.w.cases
        attempted_calls = sum(it.generate_calls + it.embed_calls for it in iterations)
        failed_calls = sum(it.failed_calls for it in iterations)
        disk = dir_bytes(self.work / "out") + cache_bytes
        return {
            "cases_per_s": (statistics.median(cases / it.elapsed_s for it in iterations), "1/s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "backend_calls_per_case": (
                statistics.median((it.generate_calls + it.embed_calls) / cases for it in iterations),
                "calls/case",
            ),
            "peak_inflight": (statistics.median(it.peak_inflight for it in iterations), "calls"),
            "disk_mb": (disk / 1e6, "MB"),
            "backend_ok_frac": (1.0 - failed_calls / attempted_calls, "frac"),
        }


# -- tracing ----------------------------------------------------------------


def instrument(tracer: tracing.Tracer, p) -> None:
    """Rebind the module attributes that callers look up to traced wrappers."""
    pl = p.pipeline
    tracer.patch(pl, "_case_chain", case_arg=True)
    for attr in ("load_cases", "few_shot_pool", "write_jsonl", "atomic_write_text"):
        tracer.patch(pl, attr)

    def count_chars(messages) -> None:
        tracer.count("prompting.chars", sum(len(m.content) for m in messages))

    for st in (p.st1, p.st2, p.st3, p.st4):
        tracer.patch(st, "run_case", case_arg=True)
        tracer.patch(st, "render_prompt", on_result=count_chars)
    for attr in (
        "extract_context", "retrieve_shots", "generate_candidates", "select_candidate",
        "token_overlap_f1", "parse_st1_candidates", "parse_json_object",
    ):
        tracer.patch(p.st1, attr)
    tracer.patch_gather(p.st1, "gather_multi", pairs=True)
    for attr in ("run_ensemble", "tally_from_runs", "merge_votes", "postprocess_ids", "parse_id_array"):
        tracer.patch(p.st2, attr)
    tracer.patch_gather(p.st2, "gather_responses", pairs=False)
    for attr in ("stage1_draft", "stage2_rewrite", "rerank_candidates", "cosine"):
        tracer.patch(p.st3, attr)
    for attr in ("run_ensemble", "tally_from_runs", "merge_links", "recall_augment",
                 "parse_alignment", "cosine"):
        tracer.patch(p.st4, attr)
    tracer.patch_gather(p.st4, "gather_responses", pairs=False)

    def count_hit(record) -> None:
        tracer.count("providers.cache_hits" if record is not None else "providers.cache_misses")

    tracer.patch(p.providers, "request_cache_key")
    tracer.patch(p.providers, "embed_cache_key")
    tracer.patch(p.providers.ResponseCache, "get", "providers.cache_get", on_result=count_hit)
    tracer.patch(p.providers.ResponseCache, "put", "providers.cache_put")
    tracer.patch(standin, "call_generator", "providers.generate")
    tracer.patch(standin, "call_embedder", "providers.embed")

    for attr in (
        "cmd_eval", "load_cases", "score_id_sets", "per_case_id_rows", "score_alignments",
        "per_case_link_rows", "score_generation", "per_case_generation_rows", "format_table",
    ):
        tracer.patch(p.cli, attr)
    for attr in ("sari", "rouge_n", "rouge_lsum", "bleu", "micro_prf", "macro_prf",
                 "link_prf", "case_prf"):
        tracer.patch(p.report, attr)


def layer_metrics(tracer, backends, cache_bytes_per_entry: float) -> dict:
    """Per-layer metrics of the traced call that ``tracer`` and the
    ``backends`` counters have just recorded."""
    run = [s for s in tracer.spans if s.phase == "run"]
    setup = [s for s in tracer.spans if s.phase == "setup"]
    by_id = {s.sid: s for s in tracer.spans}
    named: dict[str, list] = {}
    for s in run:
        named.setdefault(s.name, []).append(s)

    def spans(*names):
        return [s for name in names for s in named.get(name, [])]

    def total_s(*names) -> float:
        return sum(s.end - s.start for s in spans(*names))

    def ancestor(span, name):
        while span.parent is not None:
            span = by_id[span.parent]
            if span.name == name:
                return span
        return None

    counts = {name: n for (phase, name), n in tracer.counts.items() if phase == "run"}
    renders = len(spans("prompting.render_prompt"))
    parses = spans("parsing.parse_st1_candidates", "parsing.parse_json_object",
                   "parsing.parse_id_array", "parsing.parse_alignment")
    writes = [s for s in spans("pipeline.write_jsonl", "pipeline.atomic_write_text")
              if s.parent is None or by_id[s.parent].name != "pipeline.write_jsonl"]
    st3_calls: dict[int, list] = {s.sid: [] for s in spans("st3.run_case")}
    for s in spans("providers.generate"):
        case_span = ancestor(s, "st3.run_case")
        if case_span is not None:
            st3_calls[case_span.sid].append((s.start, s.end))
    serial = [tracing.max_sequential(iv) for iv in st3_calls.values()]

    m = {
        "st1.overlap_calls": (len(spans("st1.token_overlap_f1")), "count"),
        "st1.retrieve_s": (total_s("st1.retrieve_shots"), "s"),
        "st1.select_s": (total_s("st1.select_candidate"), "s"),
        "metrics.sari_calls": (len(spans("metrics.sari")), "count"),
        "report.eval_s": (total_s("cli.cmd_eval"), "s"),
        "st4.recall_s": (total_s("st4.recall_augment"), "s"),
        "st4.cosine_calls": (
            sum(1 for s in spans("providers.cosine") if by_id[s.parent].name == "st4.recall_augment"),
            "count",
        ),
        "providers.embed_calls": (backends.embedder.calls, "count"),
        "providers.embed_texts": (backends.embedder.items, "count"),
        "st3.rerank_s": (total_s("st3.rerank_candidates"), "s"),
        "providers.cache_key_s": (total_s("providers.request_cache_key", "providers.embed_cache_key"), "s"),
        "providers.cache_get_s": (total_s("providers.cache_get"), "s"),
        "providers.cache_hits": (counts.get("providers.cache_hits", 0), "count"),
        "providers.cache_misses": (counts.get("providers.cache_misses", 0), "count"),
        "providers.cache_put_s": (
            sum(s.end - s.start for s in setup if s.name == "providers.cache_put"), "s",
        ),
        "providers.cache_bytes_per_entry": (cache_bytes_per_entry, "B"),
        "prompting.prompt_kchars": (
            counts.get("prompting.chars", 0) / renders / 1000 if renders else 0.0, "kchar",
        ),
        "providers.generate_calls": (backends.generator.calls, "count"),
        "providers.backend_wait_s": (backends.generator.wait_s, "s"),
        "providers.peak_inflight": (backends.generator.peak_inflight, "calls"),
        "st3.serial_calls_per_case": (statistics.mean(serial) if serial else 0.0, "calls/case"),
        "prompting.render_s": (total_s("prompting.render_prompt"), "s"),
        "prompting.render_calls": (renders, "count"),
        "parsing.parse_s": (sum(s.end - s.start for s in parses), "s"),
        "parsing.parse_failures": (sum(1 for s in parses if s.error), "count"),
        "st2.vote_s": (total_s("st2.tally_from_runs", "st2.merge_votes", "st2.postprocess_ids"), "s"),
        "st4.vote_s": (total_s("st4.tally_from_runs", "st4.merge_links"), "s"),
        "dataset.load_s": (total_s("dataset.load_cases"), "s"),
        "pipeline.write_s": (sum(s.end - s.start for s in writes), "s"),
    }
    for subtask in ALL_SUBTASKS:
        durations = [s.end - s.start for s in spans(f"{subtask}.run_case")]
        m[f"{subtask}.case_ms.p50"] = (quantile_ms(durations, 50), "ms")
        m[f"{subtask}.case_ms.p95"] = (quantile_ms(durations, 95), "ms")
    self_s = tracing.self_times(run)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    return m


# -- entry point ------------------------------------------------------------


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ehrqa" / "__init__.py").is_file():
        print(f"bench: no ehrqa sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    program = load_program()
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(program, args.workload, args.seed, work)
    try:
        metrics = bench.run(args.seconds, bool(args.trace))
    except checks.CheckError as exc:
        print(f"bench: correctness check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": bench.attempted,
                          "failed": bench.w.cases, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": True,
        "attempted": bench.attempted,
        "failed": 0,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
