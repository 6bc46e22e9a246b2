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
import hashlib
import json
import logging
import os
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import st1, st2, st3, st4
from .core import (
    Case,
    ConfigError,
    ConstraintConfig,
    MergePolicy,
    PlanMember,
    SamplingPlan,
)
from .dataset import CaseFile, case_sort_key, few_shot_pool, load_cases
from .metrics import micro_prf
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
    env_var_names,
    provider_from_env,
)
from .st4 import RecallConfig

logger = logging.getLogger(__name__)

PROVIDER_MODES = ("live", "record", "replay", "mock")
SUBTASK_ORDER = ("st1", "st2", "st3", "st4")

DEFAULT_CONFIG: dict = {
    "dataset": {"cases": None, "dev_cases": None, "format": "canonical", "key": None, "split": "dev"},
    "subtasks": ["st2"],
    "provider_mode": "mock",
    "record_source": "live",
    "cache_dir": "cache",
    "out_dir": "out",
    "workers": 4,
    "random_free": True,
    "constraints": {"st1_max_words": 15, "st3_max_words": 75, "st3_word_band_low": 70},
    "embedding": {"deployment": "embedder", "dim": 32},
    "st1": {
        "deployments": ["reformulator-a", "reformulator-b"],
        "shots": 5,
        "note_grounding": False,
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
        "confidence_floor": None,
        "enhanced_postproc": False,
    },
    "st3": {
        "deployments": ["o3", "gpt-5.2", "gpt-5.1"],
        "shots": 10,
        "rerank": True,
        "stage2_deployment": None,
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
        "full_answer_context": True,
        "recall": {"enabled": False, "tau": 0.68},
        "threshold_file": None,
        "answers_from": "auto",
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
        "st2": {"merge": {"mode": "union"}, "enhanced_postproc": False, "confidence_floor": None},
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
        "st4": {"recall": {"enabled": True, "tau": 0.68}},
    },
    "st4-embedding-only": {
        "subtasks": ["st4"],
        "st4": {"mode": "embedding_only", "recall": {"enabled": True, "tau": 0.68}},
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


def validate_config(config: dict) -> None:
    if config["provider_mode"] not in PROVIDER_MODES:
        raise ConfigError(f"unknown provider_mode {config['provider_mode']!r}")
    if not config.get("random_free", True):
        raise ConfigError("only random-free runs are supported")
    for subtask in config["subtasks"]:
        if subtask not in SUBTASK_ORDER:
            raise ConfigError(f"unknown subtask {subtask!r}")
    if config["st1"]["shots"] < 0 or config["st1"]["shots"] > 5:
        raise ConfigError("st1 shots must be in [0, 5]")
    if config["st4"]["shots"] < 0 or config["st4"]["shots"] > 20:
        raise ConfigError("st4 shots must be in [0, 20]")
    for key in ("st2", "st3"):
        if config[key]["shots"] < 0:
            raise ConfigError(f"{key} shots must be >= 0")


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def plan_from_config(plan_cfg: dict) -> SamplingPlan:
    members = tuple(
        PlanMember(
            deployment_name=m["deployment"],
            temperature=float(m.get("temperature", 0.0)),
            samples=int(m.get("samples", 1)),
        )
        for m in plan_cfg["members"]
    )
    return SamplingPlan(
        members=members, extra_zero_temp_run=bool(plan_cfg.get("extra_zero_temp_run", False))
    )


def policy_from_config(merge_cfg: dict) -> MergePolicy:
    mode = merge_cfg["mode"]
    if mode == "manual":
        return MergePolicy.manual(int(merge_cfg["k"]))
    return MergePolicy(mode=mode)


def constraints_from_config(cfg: dict) -> ConstraintConfig:
    return ConstraintConfig(
        st1_max_words=int(cfg.get("st1_max_words", 15)),
        st3_max_words=int(cfg.get("st3_max_words", 75)),
        st3_word_band_low=int(cfg.get("st3_word_band_low", 70)),
    )


class DeploymentRouter:
    """Route each request to the live backend for its deployment.

    Looks for EHRQA_<DEPLOYMENT>_ENDPOINT/_API_KEY first, then falls back
    to EHRQA_DEFAULT_*.
    """

    def __init__(self):
        self._providers: dict[str, Generator] = {}

    def generate(self, request):
        provider = self._providers.get(request.deployment_name)
        if provider is None:
            try:
                provider = provider_from_env(request.deployment_name)
            except Exception:
                provider = provider_from_env("default")
            self._providers[request.deployment_name] = provider
        return provider.generate(request)


def build_generator(config: dict) -> Generator:
    mode = config["provider_mode"]
    if mode == "mock":
        return PipelineMockProvider()
    cache = ResponseCache(Path(config["cache_dir"]))
    if mode == "replay":
        return ReplayGenerator(cache, mode="replay")
    if mode == "record":
        if config.get("record_source", "live") == "mock":
            inner: Generator = PipelineMockProvider()
        else:
            inner = DeploymentRouter()
        return ReplayGenerator(cache, inner=inner, mode="record")
    return DeploymentRouter()


def _live_embedder(model: str) -> HttpEmbeddingProvider:
    endpoint_var, key_var = env_var_names(model)
    endpoint, key = os.environ.get(endpoint_var), os.environ.get(key_var)
    if not endpoint or not key:
        raise ConfigError(f"live embedder needs {endpoint_var} and {key_var}")
    return HttpEmbeddingProvider(endpoint, key, model=model)


def build_embedder(config: dict) -> Embedder:
    mode = config["provider_mode"]
    dim = int(config["embedding"].get("dim", 32))
    if mode == "mock":
        return HashEmbedder(dim=dim)
    cache = ResponseCache(Path(config["cache_dir"]))
    model = config["embedding"].get("deployment", "embedder")
    if mode == "replay":
        return CachedEmbedder(cache, mode="replay", model=model)
    if mode == "record":
        if config.get("record_source", "live") == "mock":
            inner: Embedder = HashEmbedder(dim=dim)
        else:
            inner = _live_embedder(model)
        return CachedEmbedder(cache, inner=inner, mode="record", model=model)
    return _live_embedder(model)


def atomic_write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def write_jsonl(path: Path, records: list[dict]) -> None:
    lines = [json.dumps(r, ensure_ascii=False, sort_keys=True) for r in records]
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def load_dataset(config: dict) -> tuple[CaseFile, CaseFile]:
    ds = config["dataset"]
    if not ds.get("cases"):
        raise ConfigError("config has no dataset.cases path")
    cases_path = Path(ds["cases"])
    case_file = load_cases(
        cases_path,
        format=ds.get("format", "canonical"),
        key_path=ds.get("key"),
        split_label=ds.get("split", "dev"),
    )
    pool_file = case_file
    if ds.get("dev_cases"):
        pool_file = load_cases(Path(ds["dev_cases"]), split_label="dev")
    return case_file, pool_file


def _st2_shots(pool: list[Case], cfg: dict) -> list:
    """Leading shots of a leave-one-out pool, in case_id order, that have gold evidence."""
    shots = [c for c in pool if c.gold_evidence][: cfg["shots"]]
    if cfg.get("contrast_shots"):
        contrast = []
        for shot in shots:
            try:
                contrast.append(make_contrast_example(shot))
            except Exception:
                contrast.append(shot)
        return contrast
    return shots


def _case_chain(
    case: Case,
    config: dict,
    subtasks: list[str],
    pool_cases: tuple[Case, ...],
    st1_pool: st1.St1Pool | None,
    generator: Generator,
    embedder: Embedder | None,
    constraints: ConstraintConfig,
    workers: int,
) -> dict[str, dict]:
    """Run every selected subtask for one case, chaining outputs forward.

    ``pool_cases`` is the few-shot pool sorted by case_id; ``st1_pool``
    holds st1's features of its cases that have a clinician question.
    Both are built once per run, and each case is left out of them here.
    """
    pool = [c for c in pool_cases if c.case_id != case.case_id]
    records: dict[str, dict] = {}
    st1_question: str | None = None
    st2_ids: list[str] | None = None
    st3_answer: str | None = None

    if "st1" in subtasks:
        cfg = config["st1"]
        providers = [(d, generator) for d in cfg["deployments"]]
        result = st1.run_case(
            case,
            st1_pool,
            providers,
            constraints=constraints,
            max_shots=cfg["shots"],
            note_grounding=bool(cfg.get("note_grounding", False)),
            max_workers=workers,
        )
        st1_question = result.clinician_question
        records["st1"] = {"case_id": case.case_id, "clinician_question": st1_question}
        records["st1_debug"] = {
            "case_id": case.case_id,
            "candidates": [
                {
                    "candidate": s.candidate,
                    "type_match": s.type_match,
                    "lexical": s.lexical,
                    "total": s.total,
                    "constraint_ok": s.constraint_ok,
                }
                for s in result.candidates
            ],
        }

    clinician_question = st1_question or case.clinician_question

    if "st2" in subtasks:
        cfg = config["st2"]
        result = st2.run_case(
            case,
            _st2_shots(pool, cfg),
            plan_from_config(cfg["plan"]),
            generator,
            policy_from_config(cfg["merge"]),
            clinician_question=clinician_question,
            confidence_floor=cfg.get("confidence_floor"),
            use_default_floor=bool(cfg.get("enhanced_postproc", False)),
            max_workers=workers,
        )
        st2_ids = result.evidence_ids
        records["st2"] = {"case_id": case.case_id, "evidence_ids": st2_ids}

    if "st3" in subtasks:
        cfg = config["st3"]
        evidence_ids = st2_ids if st2_ids is not None else sorted(case.gold_evidence or [])
        shots = [c for c in pool if c.clinician_answer_paragraph][: cfg["shots"]]
        result = st3.run_case(
            case,
            evidence_ids,
            shots,
            generator,
            deployments=list(cfg["deployments"]),
            constraints=constraints,
            clinician_question=clinician_question,
            stage2_deployment=cfg.get("stage2_deployment"),
            rerank=bool(cfg.get("rerank", True)),
            embedder=embedder,
        )
        st3_answer = result.answer_text
        records["st3"] = {
            "case_id": case.case_id,
            "answer_text": st3_answer,
            "cited_ids": result.cited_ids,
            "candidate_scores": result.candidate_scores,
        }

    if "st4" in subtasks:
        cfg = config["st4"]
        answers = _st4_answers(case, cfg, st3_answer)
        if not answers:
            records["st4"] = {"case_id": case.case_id, "alignments": []}
            return records
        embedding_only = cfg.get("mode") == "embedding_only"
        result = st4.run_case(
            case,
            _st4_shots(pool, cfg),
            None if embedding_only else plan_from_config(cfg["plan"]),
            None if embedding_only else generator,
            _st4_policy(cfg),
            recall=RecallConfig(
                enabled=bool(cfg["recall"].get("enabled", False)),
                tau=float(cfg["recall"].get("tau", 0.68)),
            ),
            embedder=embedder,
            full_answer_context=bool(cfg.get("full_answer_context", True)),
            answers=answers,
            clinician_question=clinician_question,
            max_workers=workers,
        )
        records["st4"] = {
            "case_id": case.case_id,
            "alignments": [
                {"answer_id": aid, "evidence_id": ev} for aid, ev in result.alignments
            ],
        }
    return records


def run_pipeline(config: dict) -> dict:
    """Execute the configured subtasks over every case; returns the manifest.

    Cases run in parallel up to the worker bound; outputs are collected in
    case order, so concurrency never changes the written files.
    """
    case_file, pool_file = load_dataset(config)
    generator = build_generator(config)
    needs_embedder = (
        ("st3" in config["subtasks"] and config["st3"].get("rerank"))
        or ("st4" in config["subtasks"] and config["st4"]["recall"].get("enabled"))
        or ("st4" in config["subtasks"] and config["st4"].get("mode") == "embedding_only")
    )
    embedder = build_embedder(config) if needs_embedder else None
    constraints = constraints_from_config(config["constraints"])
    workers = int(config.get("workers", 4))
    out_dir = Path(config["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)

    subtasks = [s for s in SUBTASK_ORDER if s in config["subtasks"]]
    cases = sorted(case_file.cases, key=case_sort_key)
    pool_cases = tuple(sorted(pool_file.cases, key=case_sort_key))
    st1_pool = (
        st1.St1Pool(c for c in pool_cases if c.clinician_question)
        if "st1" in subtasks
        else None
    )

    def chain(case: Case) -> dict[str, dict]:
        return _case_chain(
            case, config, subtasks, pool_cases, st1_pool, generator, embedder,
            constraints, workers,
        )

    if workers <= 1 or len(cases) <= 1:
        per_case = [chain(c) for c in cases]
    else:
        with ThreadPoolExecutor(max_workers=min(workers, len(cases))) as pool:
            per_case = list(pool.map(chain, cases))

    outputs: dict[str, list[dict]] = {s: [] for s in subtasks}
    debug_candidates: list[dict] = []
    for records in per_case:
        for subtask in subtasks:
            if subtask in records:
                outputs[subtask].append(records[subtask])
        if "st1_debug" in records:
            debug_candidates.append(records["st1_debug"])

    written: list[str] = []
    for subtask in subtasks:
        path = out_dir / f"{subtask}.jsonl"
        write_jsonl(path, outputs[subtask])
        written.append(path.name)
    if "st1" in subtasks:
        path = out_dir / "st1_candidates.jsonl"
        write_jsonl(path, debug_candidates)
        written.append(path.name)

    cache_stats = {}
    if isinstance(generator, ReplayGenerator):
        cache_stats = generator.cache.stats()
    manifest = {
        "config_hash": config_hash(config),
        "provider_mode": config["provider_mode"],
        "subtasks": subtasks,
        "cases": [c.case_id for c in cases],
        "outputs": sorted(written),
        "cache": cache_stats,
    }
    atomic_write_text(
        out_dir / "manifest.json",
        json.dumps(manifest, ensure_ascii=False, indent=2, sort_keys=True) + "\n",
    )
    return manifest


def _st4_shots(pool: list[Case], cfg: dict) -> list[Case]:
    """Leading shots of a leave-one-out pool, in case_id order, that have gold alignments."""
    return [
        c for c in pool if c.gold_alignments is not None and c.clinician_answer_sentences
    ][: cfg["shots"]]


def _st4_policy(cfg: dict) -> MergePolicy:
    if cfg.get("threshold_file"):
        k = st4.read_best_threshold(cfg["threshold_file"])
        return MergePolicy.manual(k)
    return policy_from_config(cfg["merge"])


def _st4_answers(case: Case, cfg: dict, st3_answer: str | None):
    source = cfg.get("answers_from", "auto")
    if source == "key":
        return list(case.clinician_answer_sentences)
    if source == "st3":
        return st4.segment_answer(st3_answer or "")
    if case.clinician_answer_sentences:
        return list(case.clinician_answer_sentences)
    return st4.segment_answer(st3_answer or "")


def run_sweep(config: dict, subtask: str) -> dict:
    """Dev-gold threshold sweep for the voting subtasks."""
    if subtask not in ("st2", "st4"):
        raise ConfigError("sweep supports st2 and st4 only")
    case_file, pool_file = load_dataset(config)
    generator = build_generator(config)
    workers = int(config.get("workers", 4))
    out_dir = Path(config["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    cases = sorted(case_file.cases, key=case_sort_key)

    if subtask == "st4":
        cfg = config["st4"]
        plan = plan_from_config(cfg["plan"])
        dev_runs = []
        for case in cases:
            if case.gold_alignments is None:
                raise ConfigError(f"case {case.case_id} has no gold alignments; sweep needs dev gold")
            if not case.clinician_answer_sentences:
                raise ConfigError(f"case {case.case_id} has no answer sentences")
            tally = st4.run_ensemble(
                case,
                _st4_shots(few_shot_pool(pool_file, exclude_case_id=case.case_id), cfg),
                plan,
                generator,
                full_answer_context=bool(cfg.get("full_answer_context", True)),
                max_workers=workers,
            )
            gold = [(aid, sorted(ev)) for aid, ev in case.gold_alignments]
            dev_runs.append((tally, gold, case))
        best, frontier = st4.sweep_threshold(
            dev_runs, out_path=out_dir / st4.THRESHOLD_FILENAME
        )
        result = {"subtask": "st4", "best_threshold": best, "frontier": frontier}
    else:
        cfg = config["st2"]
        plan = plan_from_config(cfg["plan"])
        pairs = []
        for case in cases:
            if case.gold_evidence is None:
                raise ConfigError(f"case {case.case_id} has no gold evidence; sweep needs dev gold")
            shots = _st2_shots(few_shot_pool(pool_file, exclude_case_id=case.case_id), cfg)
            tally = st2.run_ensemble(case, shots, plan, generator, max_workers=workers)
            pairs.append((tally, case))
        max_votes = max(t.total_runs for t, _ in pairs)
        frontier = []
        best, best_f1 = 1, -1.0
        for k in range(1, max_votes + 1):
            eval_pairs = []
            for tally, case in pairs:
                pred = {
                    i
                    for i, count in tally.votes.items()
                    if count >= k and i in set(case.note_ids)
                }
                eval_pairs.append((pred, case.gold_evidence or set()))
            prf = micro_prf(eval_pairs)
            frontier.append(
                {"k": k, "micro_p": prf.precision, "micro_r": prf.recall, "micro_f1": prf.f1}
            )
            if prf.f1 > best_f1:
                best, best_f1 = k, prf.f1
        atomic_write_text(out_dir / "best_k.txt", f"{best}\n")
        result = {"subtask": "st2", "best_k": best, "frontier": frontier}

    atomic_write_text(
        out_dir / f"{subtask}_sweep.json",
        json.dumps(result, ensure_ascii=False, indent=2, sort_keys=True) + "\n",
    )
    return result
