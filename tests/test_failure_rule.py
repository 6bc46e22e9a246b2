"""One failure rule for the package: a subtask degrades only on the backend
errors its call can raise (ProviderError, ParseError), and everything else,
cache errors included, fails the run. These checks read the source, so a
new catch-all handler or a CacheMissError special case fails here."""

import ast
from pathlib import Path

import ehrqa

SRC = Path(ehrqa.__file__).parent
CATCH_ALL = {"Exception", "BaseException"}


def _names(node) -> set[str]:
    if node is None:
        return {"BaseException"}  # a bare except
    parts = node.elts if isinstance(node, ast.Tuple) else [node]
    return {p.id for p in parts if isinstance(p, ast.Name)}


def _reraises(handler: ast.ExceptHandler) -> bool:
    last = handler.body[-1]
    return isinstance(last, ast.Raise) and last.exc is None


class _CatchAllFinder(ast.NodeVisitor):
    """Each try whose handler swallows every exception, as
    (module.scope, the guarded statements)."""

    def __init__(self, module: str):
        self.scope = [module]
        self.found: list[tuple[str, str]] = []

    def _enter(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _enter

    def visit_Try(self, node: ast.Try) -> None:
        for handler in node.handlers:
            if _names(handler.type) & CATCH_ALL and not _reraises(handler):
                guarded = "\n".join(ast.unparse(stmt) for stmt in node.body)
                self.found.append((".".join(self.scope), guarded))
        self.generic_visit(node)


def _modules():
    for path in sorted(SRC.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def test_only_the_http_transport_call_catches_every_exception():
    found = []
    for module, tree in _modules():
        finder = _CatchAllFinder(module)
        finder.visit(tree)
        found += finder.found
    assert found == [
        ("providers._HttpClient._post", "response = self._transport(url, payload, headers)")
    ]


def test_no_code_picks_cache_errors_out_of_caught_ones():
    special_cases = [
        f"{module}:{node.lineno}"
        for module, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and len(node.args) == 2
        and "CacheMissError" in _names(node.args[1])
    ]
    assert special_cases == []
