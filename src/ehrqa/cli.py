"""Command-line entry point.

Subcommands:
  run    execute the configured subtasks over a case file
  sweep  vote-threshold sweep of a run's st2 or st4 votes on dev gold
  eval   score prediction files against a gold case file
  cache  inspect or prune the record/replay cache

Only run takes a configuration: a JSON file, which --preset overlays with a
named built-in configuration (ablation rows) and individual flags override.
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
from .providers import CachedEmbedder, ReplayGenerator, ResponseCache
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
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise EhrqaError(f"{path}: cannot read config file: {exc}") from exc
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise EhrqaError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise EhrqaError(f"config file {path} must contain a JSON object")
    return config


def cmd_run(args: argparse.Namespace) -> int:
    flags = {
        "subtasks": args.subtask and [args.subtask],
        "provider_mode": args.provider_mode,
        "out_dir": args.out,
        "workers": args.workers,
        "dataset": args.cases and {"cases": args.cases},
    }
    overrides = {key: value for key, value in flags.items() if value is not None}
    config = resolve_config(_load_config_file(args.config), preset=args.preset, overrides=overrides)
    manifest = run_pipeline(config)
    print(json.dumps(manifest, indent=2, sort_keys=True))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    result = run_sweep(args.run, args.gold, args.subtask, args.out)
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
    field, or a field ``convert`` rejects raises ``EhrqaError`` naming the
    file, the line, the case_id and the field.
    """
    preds: dict = {}
    for lineno, record in read_records(path, "predictions"):
        cid = record["case_id"]
        where = f"{path}:{lineno}: case_id {cid!r}"
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
    if not Path(args.cache_dir).is_dir():
        raise EhrqaError(f"{args.cache_dir}: no cache directory there")
    cache = ResponseCache(Path(args.cache_dir))
    # .json and .f64, in that order: every kind of file either wrapper reads.
    suffixes = list(dict.fromkeys(ReplayGenerator.suffixes + CachedEmbedder.suffixes))
    orphans, source = len(cache.entries(cache.TEMP)), cache.source()
    if args.action == "inspect":
        entries = {suffix: cache.entries(suffix) for suffix in suffixes}
        counts = ", ".join(f"{len(keys)} {suffix}" for suffix, keys in entries.items())
        total = sum(map(len, entries.values()))
        print(f"{total} cache entr(ies) in {args.cache_dir}: {counts}")
        if source is not None:
            print(f"recorded from {source}")
        if orphans:
            print(f"{orphans} orphaned {cache.TEMP} file(s), left by a writer that was killed")
        names = [key + suffix for suffix, keys in entries.items() for key in keys]
        for name in names[: args.limit]:
            print(f"  {name}")
        return 0
    print(f"removed {cache.prune(suffixes)} cache entr(ies)")
    if orphans:
        print(f"removed {cache.prune([cache.TEMP])} orphaned {cache.TEMP} file(s)")
    if source is not None:
        cache.unmark()
        print(f"removed the marker (recorded from {source})")
    return 0


def _count(text: str) -> int:
    """A flag's whole number of 0 or more, written in digits alone."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"must be a whole number of 0 or more, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ehrqa", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # Each option but --config and --preset overrides the config.
    run_p = sub.add_parser("run", help="run configured subtasks over a case file")
    run_p.add_argument("--config", help="JSON config file")
    run_p.add_argument("--preset", choices=sorted(PRESETS), help="named built-in configuration")
    run_p.add_argument("--cases", help="case file path")
    run_p.add_argument("--provider-mode", choices=PROVIDER_MODES)
    run_p.add_argument("--out", help="output directory")
    run_p.add_argument(
        "--workers", type=int,
        help="up to WORKERS**2 cases at once, each making its calls one after another; "
        "a replay runs on one thread",
    )
    run_p.add_argument("--subtask", choices=SUBTASK_ORDER, help="run this subtask alone")
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", help="vote-threshold sweep of a run's votes on dev gold")
    sweep_p.add_argument("--run", required=True, help="output directory of an st2 or st4 run")
    sweep_p.add_argument("--gold", required=True, help="gold case file (canonical)")
    sweep_p.add_argument("--subtask", choices=["st2", "st4"], required=True)
    sweep_p.add_argument("--out", required=True, help="directory for the sweep files")
    sweep_p.set_defaults(func=cmd_sweep)

    eval_p = sub.add_parser("eval", help="score predictions against gold")
    eval_p.add_argument("--pred", required=True, help="prediction JSONL file")
    eval_p.add_argument("--gold", required=True, help="gold case file (canonical)")
    eval_p.add_argument("--subtask", choices=SUBTASK_ORDER, required=True)
    eval_p.add_argument("--out", help="directory for report files")
    eval_p.set_defaults(func=cmd_eval)

    cache_p = sub.add_parser(
        "cache", help="inspect or prune the response cache",
        description="inspect counts a cache directory's entries and orphaned .tmp files and "
        "names the backend it was recorded from; prune deletes all of those, the marker "
        "included. Prune only a directory that no run is writing.",
    )
    cache_p.add_argument("action", choices=["inspect", "prune"])
    cache_p.add_argument("--cache-dir", default="cache")
    cache_p.add_argument("--limit", type=_count, default=20)
    cache_p.set_defaults(func=cmd_cache)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (EhrqaError, OSError) as exc:  # an output path it cannot write, say
        report = {"error": str(exc), "type": type(exc).__name__}
        print(json.dumps(report, ensure_ascii=False), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
