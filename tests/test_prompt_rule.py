"""One prompt path: every prompt is a template asset whose slots
``prompting.render_prompt`` fills. These checks read the source and the
packaged templates, so a message built by hand outside the renderer, or an
asset that no subtask loads, fails here."""

import ast

from ehrqa import prompting
from tests.test_failure_rule import SRC, _modules
from tests.test_thread_rule import _name


def test_messages_are_built_only_by_the_renderer():
    built = [
        f"{module}:{node.lineno}"
        for module, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _name(node.func) == "Message"
    ]
    assert built
    assert [b for b in built if not b.startswith("prompting:")] == []


def test_every_template_asset_is_loaded_by_a_subtask(monkeypatch):
    loaded = set()
    read = prompting._asset

    def recording(name):
        loaded.add(name)
        return read(name)

    monkeypatch.setattr(prompting, "_asset", recording)
    for subtask in prompting.SUBTASKS:
        prompting.load_template.__wrapped__(subtask)
    assert loaded == {p.name for p in (SRC / "templates").glob("*.txt")}
