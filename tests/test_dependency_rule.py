"""The package runs on the standard library and NumPy alone: every import
in ``src/ehrqa``, at the top of a module or inside a function, names a
standard-library module, ``numpy`` or a module of the package, and
``pyproject.toml`` declares ``numpy`` as its one dependency. These checks
read the source, so an import of anything else fails here even where no
test reaches it.

NumPy is imported only by the code that computes with arrays, so the
commands that compute none never load it; those checks run each command
in a fresh interpreter, since this one has NumPy loaded already."""

import ast
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ehrqa
from ehrqa.cli import main
from ehrqa.dataset import toy_dataset_path

SRC = Path(ehrqa.__file__).parent
PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def _imports():
    """(module:line, top-level name) of each absolute import of the package."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                yield f"{path.stem}:{node.lineno}", name.split(".")[0]


def test_every_import_is_the_standard_library_numpy_or_the_package():
    found = list(_imports())
    assert found  # the walk reads the package
    assert [(where, name) for where, name in found if name not in ALLOWED] == []


def test_numpy_is_the_one_declared_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    if not PYPROJECT.exists():
        pytest.skip("no pyproject.toml beside the tests")
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    names = [re.match(r"[A-Za-z0-9._-]+", spec).group() for spec in project["dependencies"]]
    assert names == ["numpy"]


def _loaded(code: str, modules=("numpy",)) -> list[str]:
    """Which of ``modules`` are in ``sys.modules`` once ``code`` has run in
    a fresh interpreter; ``code`` failing fails the test."""
    report = f"import sys; print([m for m in {modules!r} if m in sys.modules])"
    result = subprocess.run(
        [sys.executable, "-c", f"{code}\n{report}"], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    assert result.returncode == 0, result.stderr
    return ast.literal_eval(result.stdout.splitlines()[-1])


def test_importing_the_package_loads_no_http_module():
    """The live transport imports ``urllib.request`` when it is first
    called, so a mock or replay run never pays for it."""
    assert _loaded("import ehrqa.cli, ehrqa.pipeline", ("urllib.request", "http.client")) == []


def _main(*argv, exit_code: int = 0) -> str:
    """Code that runs ``ehrqa`` with ``argv`` and checks its exit code."""
    return f"from ehrqa.cli import main\nassert main({[str(a) for a in argv]!r}) == {exit_code}"


TOY = toy_dataset_path()


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """A mock recording of st1-st4 on the toy set, st3 reranking and st4
    adding recall links: its predictions and its cache, which holds
    embedding entries as well."""
    root = tmp_path_factory.mktemp("recorded")
    config = root / "config.json"
    config.write_text(json.dumps({
        "subtasks": ["st1", "st2", "st3", "st4"], "record_source": "mock",
        "cache_dir": str(root / "cache"), "st4": {"recall": {"enabled": True}},
    }))
    assert main(["run", "--config", str(config), "--cases", str(TOY),
                 "--provider-mode", "record", "--out", str(root / "out"), "--workers", "1"]) == 0
    assert list((root / "cache").glob("*.f64"))
    return root


def _config(path: Path, **fields) -> Path:
    path.write_text(json.dumps(fields))
    return path


def test_importing_the_package_loads_no_numpy():
    assert _loaded("import ehrqa.cli, ehrqa.pipeline") == []


@pytest.mark.parametrize("subtask", ["st1", "st2", "st3", "st4"])
def test_eval_loads_no_numpy(recorded, tmp_path, subtask):
    pred = recorded / "out" / f"{subtask}.jsonl"
    assert _loaded(_main(
        "eval", "--pred", pred, "--gold", TOY, "--subtask", subtask, "--out", tmp_path
    )) == []
    assert (tmp_path / f"{subtask}_report.json").exists()


def test_cache_inspect_and_prune_load_no_numpy(recorded, tmp_path):
    cache = shutil.copytree(recorded / "cache", tmp_path / "cache")
    assert _loaded(_main("cache", "inspect", "--cache-dir", cache)) == []
    assert _loaded(_main("cache", "prune", "--cache-dir", cache)) == []
    assert list(cache.iterdir()) == []


def test_st2_runs_and_sweeps_load_no_numpy(recorded, tmp_path):
    """A sweep reads a run's votes alone, so neither an st2 nor an st4 sweep
    loads NumPy, even of an st1-st4 run whose st1, rerank and recall did."""
    run = ("run", "--cases", TOY, "--subtask", "st2")
    assert _loaded(_main(*run, "--provider-mode", "mock", "--out", tmp_path / "mock")) == []
    config = _config(
        tmp_path / "config.json", cache_dir=str(tmp_path / "cache"), record_source="mock"
    )
    assert _loaded(
        _main(*run, "--config", config, "--provider-mode", "record", "--out", tmp_path / "record")
        + "\n"
        + _main(*run, "--config", config, "--provider-mode", "replay", "--out", tmp_path / "replay")
    ) == []
    assert (tmp_path / "replay" / "st2.jsonl").read_bytes() == (
        tmp_path / "mock" / "st2.jsonl"
    ).read_bytes()
    sweep = ("sweep", "--gold", TOY, "--out", tmp_path / "sweep")
    assert _loaded(_main(*sweep, "--run", tmp_path / "replay", "--subtask", "st2")) == []
    for subtask in ("st2", "st4"):
        assert _loaded(_main(*sweep, "--run", recorded / "out", "--subtask", subtask)) == []
    assert sorted(p.name for p in (tmp_path / "sweep").iterdir()) == [
        "best_k.txt", "best_vote_threshold.txt", "st2_sweep.json", "st4_sweep.json"
    ]


def test_st3_without_rerank_and_st4_without_recall_load_no_numpy(tmp_path):
    config = _config(
        tmp_path / "config.json", subtasks=["st3", "st4"], st3={"rerank": False},
        st4={"recall": {"enabled": False}},
    )
    assert _loaded(_main(
        "run", "--config", config, "--cases", TOY, "--provider-mode", "mock", "--out", tmp_path
    )) == []


def test_a_config_error_loads_no_numpy(tmp_path):
    config = _config(tmp_path / "config.json", workers=0)
    assert _loaded(_main("run", "--config", config, "--cases", TOY, exit_code=1)) == []


@pytest.mark.parametrize("subtask, config", [
    ("st1", {}),
    ("st3", {"st3": {"rerank": True}}),
    ("st4", {"st4": {"recall": {"enabled": True}}}),
])
def test_a_run_that_computes_with_arrays_loads_numpy(tmp_path, subtask, config):
    """The other side of the checks above: each of these builds an array."""
    path = _config(tmp_path / "config.json", **config)
    assert _loaded(_main(
        "run", "--config", path, "--cases", TOY, "--subtask", subtask,
        "--provider-mode", "mock", "--out", tmp_path / "out",
    )) == ["numpy"]
