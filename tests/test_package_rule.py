"""The package holds only what a run reaches: every module-level function
and class in ``src/ehrqa`` is named by some other top-level statement of
the package (``__init__.py`` counts) or of ``bench/``. Test doubles and
helpers that only the tests call live in ``tests/``. These checks read the
source, so a helper whose last caller goes fails here."""

import ast
from pathlib import Path

import ehrqa

SRC = Path(ehrqa.__file__).parent
BENCH = Path(__file__).parent.parent / "bench"

# Kept for the readers of the README and the tests: the bundled toy set.
ALLOWED = {"dataset.toy_dataset_path"}


def _named(node) -> set[str]:
    """Every name ``node`` mentions: names, attributes, imported names and
    whole string constants (the bench rebinds attributes by their name)."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name.rsplit(".", 1)[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.add(sub.value)
    return found


def _statements():
    """Each top-level statement of the package and the bench, as (module,
    the name it defines or None, the names it mentions)."""
    for path in sorted(SRC.glob("*.py")) + sorted(BENCH.glob("*.py")):
        module = path.stem if path.parent == SRC else f"bench/{path.stem}"
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            defines = getattr(node, "name", None)
            yield module, defines, _named(node)


def test_every_package_function_and_class_has_a_caller_outside_itself():
    statements = list(_statements())
    unnamed = []
    for module, defines, _ in statements:
        if defines is None or module.startswith("bench/"):
            continue
        named_elsewhere = any(
            defines in names
            for other_module, other, names in statements
            if (other_module, other) != (module, defines)
        )
        if not named_elsewhere and f"{module}.{defines}" not in ALLOWED:
            unnamed.append(f"{module}.{defines}")
    assert unnamed == []


def test_the_rule_reads_every_module():
    modules = {module for module, _, _ in _statements()}
    assert {"providers", "st1", "__init__", "bench/run"} <= modules
    assert any(defines == "ResponseCache" for _, defines, _ in _statements())
