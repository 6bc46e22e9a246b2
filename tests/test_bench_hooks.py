"""The traced benchmark rebinds ehrqa module attributes by name; a refactor
that renames or drops one must fail here, not only in a traced bench run."""

import argparse
import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


# Hooks that no CLI path reaches yet, each with the ROADMAP item that
# settles it.
UNREACHED = {
    "st1.token_overlap_f1": "item 5",
    "report.macro_prf": "item 5",
    "report.link_prf": "item 5",
}


def hook_name(owner, attr):
    """``st1.token_overlap_f1`` for a module attribute, ``ResponseCache.get``
    for a class one."""
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"


def load_bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # run.py imports its sibling modules
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look it up
    spec.loader.exec_module(run)
    return run


def test_every_bench_hook_resolves_and_is_restored(monkeypatch):
    run = load_bench(monkeypatch)
    tracer = run.tracing.Tracer()
    run.instrument(tracer, run.load_program())  # raises AttributeError on a missing hook
    patches = list(tracer._patches)
    assert patches
    for owner, attr, original in patches:
        assert current(owner, attr) is not original, f"{owner.__name__}.{attr} not rebound"
    tracer.restore()
    for owner, attr, original in patches:
        assert current(owner, attr) is original, f"{owner.__name__}.{attr} not restored"


def test_every_bench_hook_is_reached(monkeypatch, tmp_path):
    """A hook that no run reaches records no span, and its layer metric
    reads 0 on working code: a record run of all four subtasks, an st4
    sweep and the eval of every output must call each rebound hook."""
    run = load_bench(monkeypatch)
    p = run.load_program()
    tracer = run.tracing.Tracer()
    run.instrument(tracer, p)
    hooks = {hook_name(owner, attr) for owner, attr, _ in tracer._patches}
    reached = set()
    try:
        for owner, attr, _ in tracer._patches:
            traced = getattr(owner, attr)

            def counted(*args, _name=hook_name(owner, attr), _traced=traced, **kwargs):
                reached.add(_name)
                return _traced(*args, **kwargs)

            setattr(owner, attr, counted)
        cases = p.dataset.toy_dataset_path()
        config = p.pipeline.resolve_config({
            "dataset": {"cases": str(cases)},
            "subtasks": ["st1", "st2", "st3", "st4"],
            "provider_mode": "record",
            "record_source": "mock",
            "cache_dir": str(tmp_path / "cache"),
            "out_dir": str(tmp_path / "out"),
            "workers": 1,
            "st3": {"rerank": True},
            "st4": {"recall": {"enabled": True}},
        })
        with run.standin.Backends(p.pipeline):
            p.pipeline.run_pipeline(config)
            p.pipeline.run_sweep({**config, "out_dir": str(tmp_path / "sweep")}, "st4")
        for subtask in ("st1", "st2", "st3", "st4"):
            p.cli.cmd_eval(argparse.Namespace(
                pred=str(tmp_path / "out" / f"{subtask}.jsonl"), gold=str(cases),
                subtask=subtask, out=str(tmp_path / "reports"),
            ))
    finally:
        tracer.restore()
    assert sorted(hooks - reached) == sorted(UNREACHED)
