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

from .core import EhrqaError, atomic_write_text
from .dataset import as_alignments, as_ids, as_text, load_cases, read_records
from .metrics import flatten_links
from .pipeline import PRESETS, PROVIDER_MODES, SUBTASK_ORDER, resolve_config
from .pipeline import run_pipeline, run_sweep
from .providers import ResponseCache
from .report import (
    check_same_cases,
    format_table,
    generation_scores,
    id_set_scores,
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


def _config_from_args(args: argparse.Namespace, **overrides) -> dict:
    if args.provider_mode:
        overrides["provider_mode"] = args.provider_mode
    if args.out:
        overrides["out_dir"] = args.out
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.cases:
        overrides["dataset"] = {"cases": args.cases}
    return resolve_config(_load_config_file(args.config), preset=args.preset, overrides=overrides)


def cmd_run(args: argparse.Namespace) -> int:
    subtasks = {"subtasks": [args.subtask]} if args.subtask else {}
    config = _config_from_args(args, **subtasks)
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


def _read_predictions(path: Path, field: str, convert) -> dict:
    """case_id -> ``convert(record[field])`` for each record of a prediction
    JSONL file.

    A file or line that ``read_records`` rejects, a record without the
    field, a field ``convert`` rejects, or a case_id seen twice raises
    ``EhrqaError`` naming the file, the line, the case_id and the field.
    """
    preds: dict = {}
    for lineno, record in read_records(path, "predictions"):
        cid = record["case_id"]
        where = f"{path}:{lineno}: case_id {cid!r}"
        if cid in preds:
            raise EhrqaError(f"{where} has more than one {field!r} record")
        if field not in record:
            raise EhrqaError(f"{where} has no {field!r}")
        try:
            preds[cid] = convert(record[field])
        except (KeyError, TypeError) as exc:
            raise EhrqaError(f"{where} has a malformed {field!r}: {exc}") from exc
    return preds


def _links(value) -> set[tuple[str, str]]:
    """An st4 record's alignments as (answer_id, evidence_id) links."""
    return flatten_links(as_alignments(value, "evidence_id"))


# One row per subtask: the prediction field and its reader, a case's gold
# (None when the case has none), a case's SARI source text (text subtasks
# only; the others score as ID sets), and the corpus-row and per-case-row
# scorers. The lambdas look the scorers up in this module when they run.
EVAL_ROWS = {
    "st1": (
        "clinician_question", as_text, lambda c: c.clinician_question or None,
        lambda c: c.patient_question,
        lambda s: score_generation(s), lambda s: per_case_generation_rows(s),
    ),
    "st2": (
        "evidence_ids", as_ids, lambda c: c.gold_evidence, None,
        lambda s: score_id_sets(s), lambda s: per_case_id_rows(s),
    ),
    "st3": (
        "answer_text", as_text, lambda c: c.clinician_answer_paragraph or None,
        lambda c: " ".join(s.text for s in c.note),
        lambda s: score_generation(s), lambda s: per_case_generation_rows(s),
    ),
    "st4": (
        "alignments", _links,
        lambda c: None if c.gold_alignments is None else flatten_links(c.gold_alignments), None,
        lambda s: score_alignments(s), lambda s: per_case_link_rows(s),
    ),
}


def cmd_eval(args: argparse.Namespace) -> int:
    subtask = args.subtask
    if subtask not in EVAL_ROWS:
        raise EhrqaError(f"unknown subtask {subtask!r}")
    field, read, gold_of, source_of, corpus_row, case_rows = EVAL_ROWS[subtask]
    cases = load_cases(args.gold).cases
    pred = _read_predictions(Path(args.pred), field, read)
    gold = {c.case_id: g for c in cases if (g := gold_of(c)) is not None}
    check_same_cases(pred, gold)
    if source_of is None:
        scores = id_set_scores(pred, gold)
    else:
        pairs = {cid: (pred[cid], gold[cid]) for cid in gold}
        sources = {c.case_id: source_of(c) for c in cases if c.case_id in gold}
        scores = generation_scores(pairs, sources=sources)
    row, per_case = corpus_row(scores), case_rows(scores)

    table = format_table(f"{subtask} corpus", [(subtask, row)])
    print(table, end="")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        report = {"corpus": row, "per_case": per_case}
        atomic_write_text(
            out_dir / f"{subtask}_report.json",
            json.dumps(report, ensure_ascii=False, indent=2, sort_keys=True) + "\n",
        )
        per_case_table = format_table(f"{subtask} per case", sorted(per_case.items()))
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

    # The options run and sweep share; each overrides the config.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--preset", choices=sorted(PRESETS), help="named built-in configuration")
    common.add_argument("--cases", help="case file path (overrides config)")
    common.add_argument("--provider-mode", choices=PROVIDER_MODES)
    common.add_argument("--out", help="output directory")
    common.add_argument(
        "--workers", type=int,
        help="cases at once when calls can wait: up to WORKERS**2 for run, WORKERS for sweep; "
        "replay runs on one thread",
    )

    run_p = sub.add_parser("run", parents=[common], help="run configured subtasks over a case file")
    run_p.add_argument("--subtask", choices=SUBTASK_ORDER, help="run this subtask alone")
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", parents=[common], help="vote-threshold sweep on dev gold")
    sweep_p.add_argument(
        "--subtask", choices=["st2", "st4"], required=True,
        help="the subtask to sweep; st1 runs first when the config lists it",
    )
    sweep_p.set_defaults(func=cmd_sweep)

    eval_p = sub.add_parser("eval", help="score predictions against gold")
    eval_p.add_argument("--pred", required=True, help="prediction JSONL file")
    eval_p.add_argument("--gold", required=True, help="gold case file (canonical)")
    eval_p.add_argument("--subtask", choices=SUBTASK_ORDER, required=True)
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
