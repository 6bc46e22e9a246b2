"""Command-line entry point.

Subcommands:
  run    execute the configured subtasks over a case file
  sweep  vote-threshold sweep on dev gold (st2 or st4)
  eval   score prediction files against a gold case file
  cache  inspect or prune the record/replay cache

Configuration is a JSON file; --preset overlays a named built-in
configuration (ablation rows) and individual flags override both.
Credentials are environment-only: EHRQA_<NAME>_ENDPOINT / EHRQA_<NAME>_API_KEY.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .core import EhrqaError
from .dataset import load_cases
from .pipeline import (
    PRESETS,
    atomic_write_text,
    resolve_config,
    run_pipeline,
    run_sweep,
)
from .providers import ResponseCache
from .report import (
    check_same_cases,
    format_table,
    generation_scores,
    id_set_scores,
    link_scores,
    per_case_generation_rows,
    per_case_id_rows,
    per_case_link_rows,
    score_alignments,
    score_generation,
    score_id_sets,
)


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise EhrqaError(f"config file not found: {p}")
    try:
        config = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise EhrqaError(f"config file {p} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise EhrqaError(f"config file {p} must contain a JSON object")
    return config


def _config_from_args(args: argparse.Namespace) -> dict:
    overrides: dict = {}
    if getattr(args, "provider_mode", None):
        overrides["provider_mode"] = args.provider_mode
    if getattr(args, "out", None):
        overrides["out_dir"] = args.out
    if getattr(args, "workers", None):
        overrides["workers"] = args.workers
    if getattr(args, "cases", None):
        overrides.setdefault("dataset", {})["cases"] = args.cases
    if getattr(args, "subtask", None):
        overrides["subtasks"] = [args.subtask]
    return resolve_config(
        _load_config_file(args.config), preset=getattr(args, "preset", None), overrides=overrides
    )


def cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    manifest = run_pipeline(config)
    print(json.dumps(manifest, indent=2, sort_keys=True))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    result = run_sweep(config, args.subtask)
    best_key = "best_threshold" if args.subtask == "st4" else "best_k"
    print(f"{best_key}: {result[best_key]}")
    for row in result["frontier"]:
        theta = row.get("theta", row.get("k"))
        print(
            f"  t={theta}  uP={100 * row['micro_p']:.2f}  "
            f"uR={100 * row['micro_r']:.2f}  uF1={100 * row['micro_f1']:.2f}"
        )
    return 0


def _read_jsonl(path: Path) -> list[dict]:
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def cmd_eval(args: argparse.Namespace) -> int:
    gold_file = load_cases(args.gold)
    preds = _read_jsonl(Path(args.pred))
    subtask = args.subtask

    if subtask == "st2":
        pred = {r["case_id"]: set(r["evidence_ids"]) for r in preds}
        gold = {
            c.case_id: set(c.gold_evidence or set())
            for c in gold_file.cases
            if c.gold_evidence is not None
        }
        scores = id_set_scores(pred, gold)
        row, per_case = score_id_sets(scores), per_case_id_rows(scores)
    elif subtask == "st4":
        pred = {
            r["case_id"]: [(a["answer_id"], list(a["evidence_id"])) for a in r["alignments"]]
            for r in preds
        }
        gold = {
            c.case_id: [(aid, sorted(ev)) for aid, ev in c.gold_alignments]
            for c in gold_file.cases
            if c.gold_alignments is not None
        }
        scores = link_scores(pred, gold)
        row, per_case = score_alignments(scores), per_case_link_rows(scores)
    elif subtask == "st1":
        pred_q = {r["case_id"]: r["clinician_question"] for r in preds}
        gold_q = {
            c.case_id: c.clinician_question
            for c in gold_file.cases
            if c.clinician_question
        }
        check_same_cases(pred_q, gold_q)
        pairs = {cid: (pred_q[cid], gold_q[cid]) for cid in gold_q}
        sources = {c.case_id: c.patient_question for c in gold_file.cases if c.case_id in gold_q}
        scores = generation_scores(pairs, sources=sources)
        row, per_case = score_generation(scores), per_case_generation_rows(scores)
    elif subtask == "st3":
        pred_a = {r["case_id"]: r["answer_text"] for r in preds}
        gold_a = {
            c.case_id: c.clinician_answer_paragraph
            for c in gold_file.cases
            if c.clinician_answer_paragraph
        }
        check_same_cases(pred_a, gold_a)
        pairs = {cid: (pred_a[cid], gold_a[cid]) for cid in gold_a}
        sources = {
            c.case_id: " ".join(s.text for s in c.note)
            for c in gold_file.cases
            if c.case_id in gold_a
        }
        scores = generation_scores(pairs, sources=sources)
        row, per_case = score_generation(scores), per_case_generation_rows(scores)
    else:
        raise EhrqaError(f"unknown subtask {subtask!r}")

    table = format_table(f"{subtask} ({args.pred})", [(subtask, row)])
    print(table, end="")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        report = {"corpus": row, "per_case": per_case}
        atomic_write_text(
            out_dir / f"{subtask}_report.json",
            json.dumps(report, ensure_ascii=False, indent=2, sort_keys=True) + "\n",
        )
        per_case_table = format_table(
            f"{subtask} per case", sorted(per_case.items())
        )
        atomic_write_text(out_dir / f"{subtask}_report.txt", table + "\n" + per_case_table)
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    cache = ResponseCache(Path(args.cache_dir))
    if args.action == "inspect":
        entries = cache.entries()
        print(f"{len(entries)} cached response(s) in {args.cache_dir}")
        for key in entries[: args.limit]:
            print(f"  {key}")
        return 0
    removed = cache.prune()
    print(f"removed {removed} cached response(s)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ehrqa", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run configured subtasks over a case file")
    run_p.add_argument("--config", help="JSON config file")
    run_p.add_argument("--preset", choices=sorted(PRESETS), help="named built-in configuration")
    run_p.add_argument("--cases", help="case file path (overrides config)")
    run_p.add_argument("--subtask", choices=["st1", "st2", "st3", "st4"])
    run_p.add_argument("--provider-mode", dest="provider_mode", choices=["live", "record", "replay", "mock"])
    run_p.add_argument("--out", help="output directory")
    run_p.add_argument("--workers", type=int)
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", help="vote-threshold sweep on dev gold")
    sweep_p.add_argument("--config", help="JSON config file")
    sweep_p.add_argument("--preset", choices=sorted(PRESETS))
    sweep_p.add_argument("--cases", help="case file path (overrides config)")
    sweep_p.add_argument("--subtask", choices=["st2", "st4"], required=True)
    sweep_p.add_argument("--provider-mode", dest="provider_mode", choices=["live", "record", "replay", "mock"])
    sweep_p.add_argument("--out", help="output directory")
    sweep_p.add_argument("--workers", type=int)
    sweep_p.set_defaults(func=cmd_sweep)

    eval_p = sub.add_parser("eval", help="score predictions against gold")
    eval_p.add_argument("--pred", required=True, help="prediction JSONL file")
    eval_p.add_argument("--gold", required=True, help="gold case file (canonical)")
    eval_p.add_argument("--subtask", choices=["st1", "st2", "st3", "st4"], required=True)
    eval_p.add_argument("--out", help="directory for report files")
    eval_p.set_defaults(func=cmd_eval)

    cache_p = sub.add_parser("cache", help="inspect or prune the response cache")
    cache_p.add_argument("action", choices=["inspect", "prune"])
    cache_p.add_argument("--cache-dir", default="cache")
    cache_p.add_argument("--limit", type=int, default=20)
    cache_p.set_defaults(func=cmd_cache)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EhrqaError as exc:
        report = {"error": str(exc), "type": type(exc).__name__}
        print(json.dumps(report, ensure_ascii=False), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
