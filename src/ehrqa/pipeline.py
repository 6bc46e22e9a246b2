"""Run orchestration: resolve a config into providers, few-shot pools, and
per-case subtask executions, writing deterministic output files.

Subtasks chain in dependency order: the reformulated question feeds
evidence identification, identified evidence feeds answer generation, and
generated answers can feed alignment when no answer key exists. All file
writes are atomic and all iteration orders are fixed, so a replayed run
reproduces its output tree byte for byte.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import logging
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from itertools import islice
from pathlib import Path
from typing import Callable, TypeVar

from . import st2, st3, st4, vote
from .core import (
    DEGRADATIONS,
    Case,
    ConfigError,
    EhrqaError,
    MergePolicy,
    PlanMember,
    SamplingPlan,
    atomic_write_text,
)
from .dataset import CaseFile, case_sort_key, few_shot_pool, load_cases, read_records
from .prompting import make_contrast_example
from .providers import (
    CachedEmbedder,
    Embedder,
    Generator,
    HashEmbedder,
    HttpEmbeddingProvider,
    PipelineMockProvider,
    ReplayGenerator,
    ResponseCache,
    provider_from_env,
)
from .st4 import RecallConfig

logger = logging.getLogger(__name__)

T = TypeVar("T")

PROVIDER_MODES = ("record", "replay", "mock")
SUBTASK_ORDER = ("st1", "st2", "st3", "st4")
# The values each of the config's enumerated fields may take, by config
# path; ``[]`` stands for each element of a list. ``dataset.split`` labels
# the case file for the config hash alone: no code reads it.
CHOICES = {
    "dataset.split": ("dev", "test", "custom"),
    "subtasks[]": SUBTASK_ORDER,
    "provider_mode": PROVIDER_MODES,
    "record_source": ("live", "mock"),
    "st4.mode": ("ensemble", "embedding_only"),
}

DEFAULT_CONFIG: dict = {
    "dataset": {"cases": None, "dev_cases": None, "key": None, "split": "dev"},
    "subtasks": ["st2"],
    "provider_mode": "mock",
    "record_source": "live",
    "cache_dir": "cache",
    "out_dir": "out",
    "workers": 4,
    "embedding": {"deployment": "embedder"},
    "st1": {
        "deployments": ["reformulator-a", "reformulator-b"],
        "shots": 5,
    },
    "st2": {
        "plan": {
            "members": [
                {"deployment": "o3", "temperature": 0.0, "samples": 1},
                {"deployment": "gpt-5.2", "temperature": 0.0, "samples": 1},
                {"deployment": "gpt-5.1", "temperature": 0.0, "samples": 1},
            ],
            "extra_zero_temp_run": False,
        },
        "merge": {"mode": "union"},
        "shots": 10,
        "contrast_shots": False,
        "enhanced_postproc": False,
    },
    "st3": {
        "deployments": ["o3", "gpt-5.2", "gpt-5.1"],
        "shots": 10,
        "rerank": True,
    },
    "st4": {
        "mode": "ensemble",
        "plan": {
            "members": [
                {"deployment": "gpt-5.2", "temperature": 0.0, "samples": 1},
                {"deployment": "gpt-5.1", "temperature": 0.0, "samples": 1},
            ],
            "extra_zero_temp_run": False,
        },
        "merge": {"mode": "majority_st4"},
        "shots": 20,
        "recall": {"enabled": False},
        "threshold_file": None,
    },
}

PRESETS: dict[str, dict] = {
    "st2-3shot-union": {"subtasks": ["st2"], "st2": {"shots": 3, "merge": {"mode": "union"}}},
    "st2-10shot-union": {"subtasks": ["st2"], "st2": {"shots": 10, "merge": {"mode": "union"}}},
    "st2-19shot-union": {"subtasks": ["st2"], "st2": {"shots": 19, "merge": {"mode": "union"}}},
    "st2-10shot-majority": {
        "subtasks": ["st2"],
        "st2": {"shots": 10, "merge": {"mode": "majority_st2"}},
    },
    "st2-union-postproc": {
        "subtasks": ["st2"],
        "st2": {"merge": {"mode": "union"}, "enhanced_postproc": False},
    },
    "st2-union-postproc-enhanced": {
        "subtasks": ["st2"],
        "st2": {"merge": {"mode": "union"}, "enhanced_postproc": True},
    },
    "st2-contrast-union": {
        "subtasks": ["st2"],
        "st2": {"shots": 3, "merge": {"mode": "union"}, "contrast_shots": True},
    },
    "st2-4model-union": {
        "subtasks": ["st2"],
        "st2": {
            "plan": {
                "members": [
                    {"deployment": "o3", "temperature": 0.0, "samples": 1},
                    {"deployment": "gpt-5.2", "temperature": 0.0, "samples": 1},
                    {"deployment": "gpt-5.1", "temperature": 0.0, "samples": 1},
                    {"deployment": "deepseek-r1", "temperature": 0.0, "samples": 1},
                ],
                "extra_zero_temp_run": False,
            },
            "merge": {"mode": "union"},
        },
    },
    "st3-single": {"subtasks": ["st3"], "st3": {"deployments": ["o3"], "shots": 5, "rerank": False}},
    "st3-ensemble": {"subtasks": ["st3"], "st3": {"shots": 10}},
    "st3-ensemble-15shot": {"subtasks": ["st3"], "st3": {"shots": 15}},
    "st3-faithful-ensemble": {"subtasks": ["st3"], "st3": {"shots": 10, "rerank": True}},
    "st4-majority": {"subtasks": ["st4"], "st4": {"merge": {"mode": "majority_st4"}}},
    "st4-selfconsistency": {
        "subtasks": ["st4"],
        "st4": {
            "plan": {
                "members": [
                    {"deployment": "o3", "temperature": 1.0, "samples": 3},
                    {"deployment": "gpt-5.2", "temperature": 0.3, "samples": 3},
                    {"deployment": "gpt-5.1", "temperature": 0.4, "samples": 3},
                ],
                "extra_zero_temp_run": True,
            },
            "merge": {"mode": "majority_st4"},
        },
    },
    "st4-rescue": {
        "subtasks": ["st4"],
        "st4": {"recall": {"enabled": True}},
    },
    "st4-embedding-only": {
        "subtasks": ["st4"],
        "st4": {"mode": "embedding_only", "recall": {"enabled": True}},
    },
}


def deep_merge(base: dict, overlay: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in overlay.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def resolve_config(
    raw: dict | None = None, preset: str | None = None, overrides: dict | None = None
) -> dict:
    """DEFAULT_CONFIG overlaid with ``raw``, then the named ``preset``,
    then ``overrides``, and checked by ``validate_config``: a bad field
    raises a ``ConfigError`` that names its config path."""
    config = deep_merge(DEFAULT_CONFIG, raw or {})
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {preset!r}; available: {sorted(PRESETS)}"
            )
        config = deep_merge(config, PRESETS[preset])
    if overrides:
        config = deep_merge(config, overrides)
    validate_config(config)
    return config


# Each kind of value that DEFAULT_CONFIG holds: the type of a default, the
# words an error uses for what its field takes, and the values it takes.
# bool comes before int, its subclass.
KINDS: tuple[tuple[type, str, Callable[[object], bool]], ...] = (
    (bool, "true or false", lambda v: isinstance(v, bool)),
    (int, "an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    (float, "a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)),
    (str, "a string", lambda v: isinstance(v, str)),
    (list, "a non-empty list", lambda v: isinstance(v, list) and len(v) > 0),
    (dict, "an object", lambda v: isinstance(v, dict)),
)


def _check_fields(value, default, path: str, field: str, unknown: list[str]) -> None:
    """Check ``value``, at config path ``path``, against ``default``, its
    part of DEFAULT_CONFIG: its kind, its choices and, for an object or a
    list, each of its fields or elements, a list's against the default's
    first element. ``field`` is ``path`` with ``[]`` for each list index.
    Keys that the default lacks are added to ``unknown``."""
    kind_of, or_null = default, ""
    if default is None:
        if value is None:
            return
        # A field whose default is null takes a string or null.
        kind_of, or_null = "", " or null"
    kind, takes = next((kind, takes) for t, kind, takes in KINDS if isinstance(kind_of, t))
    if not takes(value):
        raise ConfigError(f"{path}: must be {kind}{or_null}, got {value!r}")
    if field in CHOICES and value not in CHOICES[field]:
        raise ConfigError(f"{path}: must be one of {', '.join(CHOICES[field])}, got {value!r}")
    if isinstance(default, dict):
        # A merge section may also hold ``k``, the threshold of the manual mode.
        shape = {**default, "k": 1} if field.endswith("merge") else default
        dot = "." if path else ""
        for key, item in value.items():
            if key in shape:
                _check_fields(item, shape[key], f"{path}{dot}{key}", f"{field}{dot}{key}", unknown)
            else:
                unknown.append(f"{path}{dot}{key}")
    elif isinstance(default, list):
        for i, item in enumerate(value):
            _check_fields(item, default[0], f"{path}[{i}]", f"{field}[]", unknown)


def validate_config(config: dict) -> dict:
    """Check ``config``; return the objects it describes, keyed by the
    config path that an error in one names.

    ``_check_fields`` checks every field against its DEFAULT_CONFIG default
    and ``CHOICES``, raising ``<path>: must be <kind>, got <value>``; then
    come the bounds that a type cannot state and the builds of the
    objects."""
    unknown: list[str] = []
    _check_fields(config, DEFAULT_CONFIG, "", "", unknown)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    for key, most in (("st1", 5), ("st2", None), ("st3", None), ("st4", 20)):
        shots = config[key]["shots"]
        if shots < 0 or (most is not None and shots > most):
            bound = ">= 0" if most is None else f"in [0, {most}]"
            raise ConfigError(f"{key} shots must be {bound}, got {shots!r}")
    for key in ("st1", "st3"):
        deployments = config[key]["deployments"]
        if len(set(deployments)) != len(deployments):
            raise ConfigError(f"{key} deployments must be unique, got {deployments}")
    if config["workers"] < 1:
        raise ConfigError(f"workers must be >= 1, got {config['workers']!r}")
    # Build every object a run builds from the config now, so a bad value
    # fails here, named by its config path, before any backend call.
    builds = (
        ("st2.plan", plan_from_config, config["st2"]["plan"]),
        ("st2.merge", policy_from_config, config["st2"]["merge"]),
        ("st4.plan", plan_from_config, config["st4"]["plan"]),
        ("st4.merge", policy_from_config, config["st4"]["merge"]),
        ("st4.recall", recall_from_config, config["st4"]["recall"]),
    )
    built = {}
    for path, build, section in builds:
        try:
            built[path] = build(section)
        except KeyError as exc:
            raise ConfigError(f"{path}: missing field {exc}") from exc
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    for key in ("st2", "st4"):
        _check_manual_k(f"{key}.merge.k", built[f"{key}.merge"], built[f"{key}.plan"])
    return built


def _check_manual_k(path: str, policy: MergePolicy, plan: SamplingPlan) -> None:
    """Every tally counts each run of ``plan``, so a manual threshold above
    that count would fail each case; fail at ``path`` before any call."""
    if policy.mode == "manual" and policy.k > plan.total_votes():
        raise ConfigError(
            f"{path}: manual threshold k={policy.k} exceeds the plan's "
            f"total_votes={plan.total_votes()}"
        )


# Where a run reads and writes, and how many threads it uses, never changes
# an output byte, so the config hash leaves these fields out.
RUN_ONLY_FIELDS = frozenset({"workers", "out_dir", "cache_dir"})


def config_hash(config: dict) -> str:
    """Hash of the fields that can change a run's outputs."""
    relevant = {k: v for k, v in config.items() if k not in RUN_ONLY_FIELDS}
    canonical = json.dumps(relevant, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def plan_from_config(plan_cfg: dict) -> SamplingPlan:
    members = tuple(
        PlanMember(
            deployment_name=m["deployment"],
            temperature=float(m.get("temperature", 0.0)),
            samples=m.get("samples", 1),
        )
        for m in plan_cfg["members"]
    )
    return SamplingPlan(members=members, extra_zero_temp_run=plan_cfg["extra_zero_temp_run"])


def policy_from_config(merge_cfg: dict) -> MergePolicy:
    mode = merge_cfg["mode"]
    if mode == "manual":
        return MergePolicy.manual(merge_cfg["k"])
    return MergePolicy(mode=mode)


def recall_from_config(cfg: dict) -> RecallConfig:
    return RecallConfig(enabled=cfg["enabled"])


class DeploymentRouter:
    """Route each request to the live backend for its deployment.

    Looks for EHRQA_<DEPLOYMENT>_ENDPOINT/_API_KEY first, then falls back
    to EHRQA_DEFAULT_* with one warning per deployment. Each deployment's
    client is built once, under a lock, however many calls ask for it at
    once.
    """

    def __init__(self):
        self._providers: dict[str, Generator] = {}
        self._lock = threading.Lock()

    def _provider(self, deployment: str) -> Generator:
        with self._lock:
            provider = self._providers.get(deployment)
            if provider is None:
                try:
                    provider = provider_from_env(deployment)
                except EhrqaError as own:
                    try:
                        provider = provider_from_env("default")
                    except EhrqaError as default:
                        raise EhrqaError(f"{own}; without them, {default}") from None
                    logger.warning(
                        "deployment %r has no credentials of its own; using EHRQA_DEFAULT_*",
                        deployment,
                    )
                self._providers[deployment] = provider
            return provider

    def generate(self, request):
        return self._provider(request.deployment_name).generate(request)


def _backend(config: dict, mock: Callable, live: Callable, recorded: Callable):
    """The backend ``provider_mode`` selects: ``mock()``, or
    ``recorded(cache, inner, mode)``, whose inner backend in record mode is
    the one ``record_source`` names. So a live reply is always written to
    the cache before a run reads it.

    A recording never mixes backends: one into a ``cache_dir`` marked with
    the other source raises a ConfigError before any backend call."""
    mode = config["provider_mode"]
    if mode == "mock":
        return mock()
    cache = ResponseCache(Path(config["cache_dir"]))
    inner = None
    if mode == "record":
        source = config["record_source"]
        marked = cache.mark(source)
        if marked != source:
            raise ConfigError(
                f"cache_dir: {config['cache_dir']} holds a recording from {marked!r}, and this "
                f"run records from {source!r}; record into another directory, or empty "
                "this one with `ehrqa cache prune`"
            )
        inner = mock() if source == "mock" else live()
    return recorded(cache, inner, mode)


def build_generator(config: dict) -> Generator:
    return _backend(config, PipelineMockProvider, DeploymentRouter, ReplayGenerator)


def build_embedder(config: dict) -> Embedder:
    model = config["embedding"]["deployment"]
    live = partial(provider_from_env, model, partial(HttpEmbeddingProvider, model=model))
    return _backend(config, HashEmbedder, live, partial(CachedEmbedder, model=model))


def write_jsonl(path: Path, records: list[dict]) -> None:
    lines = [json.dumps(r, ensure_ascii=False, sort_keys=True) for r in records]
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def load_dataset(config: dict) -> tuple[CaseFile, CaseFile]:
    ds = config["dataset"]
    if not ds["cases"]:
        raise ConfigError("config has no dataset.cases path")
    case_file = load_cases(ds["cases"], key_path=ds["key"])
    return case_file, load_cases(ds["dev_cases"]) if ds["dev_cases"] else case_file


@dataclasses.dataclass(frozen=True)
class RunSetup:
    """What every case of a run shares, built once per run from
    a ``resolve_config`` result: ``built`` holds the objects
    ``validate_config`` builds, and ``pool``, the few-shot pool, is in
    case_id order."""

    config: dict
    built: dict
    pool: list[Case]
    generator: Generator


# Which pool cases can be a few-shot example of each subtask that takes them.
SHOT_ELIGIBLE: dict[str, Callable[[Case], bool]] = {
    "st2": lambda c: bool(c.gold_evidence),
    "st3": lambda c: bool(c.clinician_answer_paragraph),
    "st4": lambda c: c.gold_alignments is not None and bool(c.clinician_answer_sentences),
}


def _shots(run: RunSetup, case: Case, subtask: str) -> list:
    """The first ``shots`` pool cases, in case_id order, that can be
    ``subtask`` examples, ``case`` itself left out; with st2's
    ``contrast_shots`` each that can be is made a contrast example."""
    cfg, eligible = run.config[subtask], SHOT_ELIGIBLE[subtask]
    pool = (c for c in run.pool if c.case_id != case.case_id and eligible(c))
    shots = list(islice(pool, cfg["shots"]))
    if subtask != "st2" or not cfg["contrast_shots"]:
        return shots
    contrast = []
    for shot in shots:
        try:
            contrast.append(make_contrast_example(shot))
        except EhrqaError:
            contrast.append(shot)
    return contrast


def _chain_args(run: RunSetup, subtasks: list[str]) -> dict[str, dict]:
    """For each of ``subtasks``, the ``run_case`` arguments that every case
    of ``run`` shares; ``_case_chain`` adds each case's own."""
    config, built, generator = run.config, run.built, run.generator
    st1_cfg, st2_cfg, st3_cfg, st4_cfg = (config[s] for s in SUBTASK_ORDER)
    embedding_only = st4_cfg["mode"] == "embedding_only"
    # st3 reranks only when it has more than one candidate.
    embeds = {
        "st3": st3_cfg["rerank"] and len(st3_cfg["deployments"]) > 1,
        "st4": st4_cfg["recall"]["enabled"] or embedding_only,
    }
    embedder = build_embedder(config) if any(embeds[s] for s in embeds if s in subtasks) else None
    if "st1" in subtasks:
        from . import st1  # st1 imports NumPy, which a run without it never loads
    # Built only for a subtask that runs; st4's threshold file is read here,
    # not when the config is resolved, for a sweep may write it in between.
    args = {
        "st1": lambda: {
            "pool": st1.St1Pool(c for c in run.pool if c.clinician_question),
            "providers": [(d, generator) for d in st1_cfg["deployments"]],
            "max_shots": st1_cfg["shots"],
        },
        "st2": lambda: {
            "plan": built["st2.plan"],
            "provider": generator,
            "policy": built["st2.merge"],
            "use_default_floor": st2_cfg["enhanced_postproc"],
        },
        "st3": lambda: {
            "provider": generator,
            "deployments": list(st3_cfg["deployments"]),
            "rerank": st3_cfg["rerank"],
            "embedder": embedder,
        },
        "st4": lambda: {
            "plan": None if embedding_only else built["st4.plan"],
            "provider": None if embedding_only else generator,
            "policy": _st4_policy(st4_cfg, built["st4.merge"], built["st4.plan"]),
            "recall": built["st4.recall"],
            "embedder": embedder,
        },
    }
    return {s: args[s]() for s in subtasks}


def _case_chain(case: Case, run: RunSetup, args: dict[str, dict]) -> dict[str, dict]:
    """Run every subtask of ``args``, a run's ``_chain_args``, for one case,
    chaining outputs forward: the case adds its leave-one-out shots and what
    the subtasks before it produced. Returns its record for each output, by
    name: an st2 or st4 vote tally's is ``votes/<subtask>``, and the counts
    of its ``core.degraded`` results are ``degradations``."""
    cid = case.case_id
    records: dict[str, dict] = {"degradations": Counter()}
    token = DEGRADATIONS.set((cid, records["degradations"]))
    try:
        question = case.clinician_question
        st2_ids: list[str] | None = None
        st3_answer: str | None = None

        if "st1" in args:
            from . import st1

            result = st1.run_case(case, **args["st1"])
            records["st1"] = {"case_id": cid, "clinician_question": result.clinician_question}
            records["st1_candidates"] = {
                "case_id": cid,
                "candidates": [dataclasses.asdict(s) for s in result.candidates],
            }
            question = result.clinician_question or question

        if "st2" in args:
            shots = _shots(run, case, "st2")
            result = st2.run_case(case, shots, clinician_question=question, **args["st2"])
            st2_ids = result.evidence_ids
            records["st2"] = {"case_id": cid, "evidence_ids": st2_ids}
            records["votes/st2"] = _votes_record(cid, result.tally)

        if "st3" in args:
            evidence_ids = st2_ids if st2_ids is not None else sorted(case.gold_evidence or [])
            shots = _shots(run, case, "st3")
            result = st3.run_case(
                case, evidence_ids, shots, clinician_question=question, **args["st3"]
            )
            st3_answer = result.answer_text
            records["st3"] = {
                "case_id": cid,
                "answer_text": st3_answer,
                "cited_ids": result.cited_ids,
                "candidate_scores": result.candidate_scores,
            }

        if "st4" in args:
            # The key's answer sentences, or st3's answer where the key has none.
            answers = list(case.clinician_answer_sentences) or st4.segment_answer(st3_answer or "")
            alignments = []
            if answers:
                shots = _shots(run, case, "st4")
                result = st4.run_case(
                    case, shots, answers=answers, clinician_question=question, **args["st4"]
                )
                alignments = [
                    {"answer_id": aid, "evidence_id": ev} for aid, ev in result.alignments
                ]
                if result.tally is not None:  # an embedding_only st4 casts no votes
                    records["votes/st4"] = _votes_record(cid, result.tally)
            records["st4"] = {"case_id": cid, "alignments": alignments}
    finally:
        DEGRADATIONS.reset(token)
    return records


def run_pipeline(config: dict) -> dict:
    """Execute the configured subtasks over every case; returns the manifest.

    ``config`` is a ``resolve_config`` result. Up to ``workers**2`` cases
    run at once, each making its generator calls one after another on its
    own thread, so no more than ``workers**2`` calls are in flight. A
    replay, whose calls only read the cache, runs its cases on the calling
    thread. Outputs are collected in case order, so concurrency never
    changes the written files; they include each case's st2 and st4 vote
    tally, cast before any merge, for ``run_sweep``.
    """
    subtasks = [s for s in SUBTASK_ORDER if s in config["subtasks"]]
    st4_cfg = config["st4"]
    embedding_only = st4_cfg["mode"] == "embedding_only"
    if "st4" in subtasks and embedding_only and not st4_cfg["recall"]["enabled"]:
        raise ConfigError(
            "st4.mode: embedding_only aligns by recall alone, but st4.recall.enabled is false"
        )
    built = validate_config(config)
    case_file, pool_file = load_dataset(config)
    cases = sorted(case_file.cases, key=case_sort_key)
    # Without st3 to answer in their place, st4 aligns the key's answer
    # sentences, so each case needs them; checked before any backend is built.
    bare = [c.case_id for c in cases if not c.clinician_answer_sentences]
    if bare and "st4" in subtasks and "st3" not in subtasks:
        raise ConfigError(
            "st4 without st3 aligns each case's answer_sentences, "
            f"and case(s) {', '.join(bare)} have none"
        )
    out_dir = Path(config["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    run = RunSetup(config, built, few_shot_pool(pool_file), build_generator(config))
    args = _chain_args(run, subtasks)
    # A replayed call reads the local cache, which no network wait holds up,
    # so more case threads than one would only contend for the GIL.
    threads = 1 if config["provider_mode"] == "replay" else config["workers"] ** 2
    per_case = _map_cases(partial(_case_chain, run=run, args=args), cases, threads)

    outputs = subtasks + ["st1_candidates"] * ("st1" in subtasks)
    outputs += [f"votes/{s}" for s in subtasks if s == "st2" or s == "st4" and not embedding_only]
    for name in outputs:
        # An st4 case with no answer sentences to align casts no votes.
        write_jsonl(out_dir / f"{name}.jsonl", [r[name] for r in per_case if name in r])
    manifest = {
        "config_hash": config_hash(config),
        "provider_mode": config["provider_mode"],
        "subtasks": subtasks,
        "cases": [c.case_id for c in cases],
        "outputs": sorted(f"{name}.jsonl" for name in outputs),
        "cache": run.generator.stats() if isinstance(run.generator, ReplayGenerator) else {},
        "degraded_cases": sum(1 for r in per_case if r["degradations"]),
        "degradations": dict(sorted(sum((r["degradations"] for r in per_case), Counter()).items())),
    }
    # st3 and st4 share one embedder; each cache wrapper counts its own calls.
    embedder = next((a["embedder"] for a in args.values() if "embedder" in a), None)
    if isinstance(embedder, CachedEmbedder):
        manifest["embedding_cache"] = embedder.stats()
    atomic_write_text(
        out_dir / "manifest.json",
        json.dumps(manifest, ensure_ascii=False, indent=2, sort_keys=True) + "\n",
    )
    return manifest


def _map_cases(fn: Callable[[Case], T], cases: list[Case], threads: int) -> list[T]:
    """``fn`` over ``cases`` on up to ``threads`` threads, results in case
    order. With one thread or one case no thread is started.

    Once a case fails no later case starts; the running ones finish, and
    the error of the first failed case in case order is raised, as a
    one-thread run would raise it.
    """
    if threads <= 1 or len(cases) <= 1:
        return [fn(case) for case in cases]
    first_failed = len(cases)
    lock = threading.Lock()

    def run(index: int, case: Case):
        # pool.map cancels the queued cases only once its iterator reaches
        # the failed one, and a worker takes the next case as soon as it
        # has failed one, so each case checks for an earlier failure.
        nonlocal first_failed
        if index > first_failed:
            return None
        try:
            return fn(case)
        except BaseException:
            with lock:
                first_failed = min(first_failed, index)
            raise

    with ThreadPoolExecutor(
        max_workers=min(threads, len(cases)), thread_name_prefix="ehrqa-case"
    ) as pool:
        return list(pool.map(run, range(len(cases)), cases))


def _st4_policy(cfg: dict, merge: MergePolicy, plan: SamplingPlan) -> MergePolicy:
    """st4's merge policy: a manual threshold read from ``threshold_file``
    when one is named, else ``merge``, the policy of its ``merge`` section."""
    if not cfg["threshold_file"]:
        return merge
    try:
        policy = MergePolicy.manual(st4.read_best_threshold(cfg["threshold_file"]))
    except (OSError, ValueError, ConfigError) as exc:  # UnicodeDecodeError is a ValueError
        raise ConfigError(f"st4.threshold_file: {exc}") from exc
    _check_manual_k("st4.threshold_file", policy, plan)
    return policy


def _votes_record(case_id: str, tally: vote.VoteTally) -> dict:
    """A case's tally as a votes file holds it: st4 nests its (answer_id,
    evidence_id) links as ``{answer_id: {evidence_id: count}}``."""
    votes: dict = {}
    for key, count in tally.votes.items():
        if isinstance(key, tuple):
            votes.setdefault(key[0], {})[key[1]] = count
        else:
            votes[key] = count
    return {"case_id": case_id, "total_votes": tally.total_votes, "votes": votes}


def _tally(record: dict, where: str, subtask: str) -> vote.VoteTally:
    """The tally a votes record holds. A missing or malformed field raises
    EhrqaError naming ``where`` (file, line and case) and the field."""
    if missing := [f for f in ("total_votes", "votes") if f not in record]:
        raise EhrqaError(f"{where} has no {missing[0]!r}")
    votes, links = record["votes"], subtask == "st4"
    if not isinstance(votes, dict) or links and not all(isinstance(v, dict) for v in votes.values()):
        raise EhrqaError(f"{where} has a malformed 'votes': {votes!r}")
    if links:
        votes = {(a, e): c for a, inner in votes.items() for e, c in inner.items()}
    try:
        return vote.VoteTally(votes, record["total_votes"])  # which checks each count
    except ConfigError as exc:
        raise EhrqaError(f"{where} has a malformed tally: {exc}") from exc


def run_sweep(run_dir: str | Path, gold: str | Path, subtask: str, out_dir: str | Path) -> dict:
    """Dev-gold threshold sweep of a voting subtask: the tallies a run wrote
    to ``run_dir/votes/<subtask>.jsonl``, swept against the cases of the
    gold case file ``gold``. It reads no config or cache and makes no
    backend call. Writes the best threshold and ``<subtask>_sweep.json`` to
    ``out_dir``."""
    if subtask not in ("st2", "st4"):
        raise ConfigError("sweep supports st2 and st4 only")
    # An st4 case also needs answer sentences to align, as an st4 shot does.
    has_gold = SHOT_ELIGIBLE["st4"] if subtask == "st4" else lambda c: c.gold_evidence is not None
    fields = "'gold_alignments' and 'answer_sentences'" if subtask == "st4" else "'gold_evidence'"
    gold_cases = {c.case_id: c for c in load_cases(gold).cases if has_gold(c)}
    path = Path(run_dir) / "votes" / f"{subtask}.jsonl"
    dev_runs = []
    for lineno, record in read_records(path, f"the votes of an {subtask} run"):
        where = f"{path}:{lineno}: case {record['case_id']}"
        if record["case_id"] not in gold_cases:
            raise EhrqaError(
                f"{where} has no dev gold for the {subtask} sweep: it needs {fields} in {gold}"
            )
        dev_runs.append((_tally(record, where, subtask), gold_cases[record["case_id"]]))

    if subtask == "st2":
        best, frontier = vote.sweep([(t, c.gold_evidence, c.note_id_set) for t, c in dev_runs], "k")
        atomic_write_text(Path(out_dir) / "best_k.txt", f"{best}\n")
        best_key = "best_k"
    else:
        runs = [(t, c.gold_alignments, c) for t, c in dev_runs]
        best, frontier = st4.sweep_threshold(runs, out_path=Path(out_dir) / st4.THRESHOLD_FILENAME)
        best_key = "best_threshold"
    result = {"subtask": subtask, best_key: best, "frontier": frontier}
    atomic_write_text(
        Path(out_dir) / f"{subtask}_sweep.json",
        json.dumps(result, ensure_ascii=False, indent=2, sort_keys=True) + "\n",
    )
    return result
