"""One thread pool per run: the pipeline maps its cases over one
ThreadPoolExecutor, and every generator call runs inline on its case's
thread. These checks read the source, so a second pool, or an executor
handed down to the subtasks again, fails here."""

import ast

from tests.test_failure_rule import _modules


def _name(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def test_one_thread_pool_is_constructed():
    pools = [
        f"{module}:{node.lineno}"
        for module, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _name(node.func) == "ThreadPoolExecutor"
    ]
    assert len(pools) == 1, pools
    assert pools[0].startswith("pipeline:")


def test_no_parameter_takes_an_executor():
    found = [
        f"{module}.{node.name}({arg.arg})"
        for module, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs)
        if arg.annotation is not None
        and any(_name(n) == "Executor" for n in ast.walk(arg.annotation))
    ]
    assert found == []
