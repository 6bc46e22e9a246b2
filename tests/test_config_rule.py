"""Defaults live only in DEFAULT_CONFIG: a run reads a resolved config, in
which every field is present, so a ``.get`` with a fallback in pipeline.py
would restate a default or hide a missing field. Each field's type is
checked by one walk of the config against DEFAULT_CONFIG, so
``validate_config`` checks no type of its own. These checks read the
source, so a new one fails here."""

import ast

from tests.test_failure_rule import SRC

# deep_merge reads a dict that may lack the key; a plan member may omit
# ``temperature`` and ``samples``, since merging does not reach into
# lists; the router reads its cache of clients.
MAY_CALL_GET = {"deep_merge", "plan_from_config", "DeploymentRouter._provider"}


def _functions(tree: ast.Module):
    """(qualified name, node) of each top-level function and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def _get_calls(node) -> list[int]:
    return [
        n.lineno
        for n in ast.walk(node)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr == "get"
    ]


def test_pipeline_calls_get_only_where_a_key_may_be_missing():
    tree = ast.parse((SRC / "pipeline.py").read_text(encoding="utf-8"))
    functions = dict(_functions(tree))
    assert MAY_CALL_GET <= set(functions)
    owner = {line: name for name, node in functions.items() for line in _get_calls(node)}
    found = [
        f"{owner.get(line, '<module>')}:{line}"
        for line in sorted(set(_get_calls(tree)))
        if owner.get(line) not in MAY_CALL_GET
    ]
    assert found == []


def test_validate_config_checks_no_type_itself():
    tree = ast.parse((SRC / "pipeline.py").read_text(encoding="utf-8"))
    validate = dict(_functions(tree))["validate_config"]
    calls = [
        n.lineno
        for n in ast.walk(validate)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "isinstance"
    ]
    assert calls == []
