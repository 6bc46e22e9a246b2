"""The package runs on the standard library and NumPy alone: every import
in ``src/ehrqa``, at the top of a module or inside a function, names a
standard-library module, ``numpy`` or a module of the package, and
``pyproject.toml`` declares ``numpy`` as its one dependency. These checks
read the source, so an import of anything else fails here even where no
test reaches it."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ehrqa

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


def test_importing_the_package_loads_no_http_module():
    """The live transport imports ``urllib.request`` when it is first
    called, so a mock or replay run never pays for it."""
    code = (
        "import sys, ehrqa.cli, ehrqa.pipeline; "
        "print(sorted(m for m in ('urllib.request', 'http.client') if m in sys.modules))"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    ).stdout
    assert loaded == "[]\n"
