"""The traced benchmark rebinds ehrqa module attributes by name; a refactor
that renames or drops one must fail here, not only in a traced bench run."""

import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_every_bench_hook_resolves_and_is_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # run.py imports its sibling modules
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look it up
    spec.loader.exec_module(run)

    tracer = run.tracing.Tracer()
    run.instrument(tracer, run.load_program())  # raises AttributeError on a missing hook
    patches = list(tracer._patches)
    assert patches
    for owner, attr, original in patches:
        assert current(owner, attr) is not original, f"{owner.__name__}.{attr} not rebound"
    tracer.restore()
    for owner, attr, original in patches:
        assert current(owner, attr) is original, f"{owner.__name__}.{attr} not restored"
