"""Defaults live only in DEFAULT_CONFIG: a run reads a resolved config, in
which every field is present, so a ``.get`` with a fallback in pipeline.py
would restate a default or hide a missing field. Each field's type is
checked by one walk of the config against DEFAULT_CONFIG, so
``validate_config`` checks no type of its own. These checks read the
source, so a new one fails here."""

import ast
import json
from collections import defaultdict

from ehrqa.pipeline import DEFAULT_CONFIG, PRESETS, SUBTASK_ORDER, resolve_config
from tests.test_bench_hooks import load_bench
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


# A field that every preset and bench config leaves at one value selects
# no second behaviour, so it is kept only for one of these reasons.
ONE_VALUE_ALLOWED = {
    "dataset.dev_cases": "an input file",
    "dataset.format": "how the input files are read",
    "dataset.key": "an input file",
    "dataset.split": "the acceptance suite sets it",
    "embedding.deployment": "a deployment name",
    "st4.threshold_file": "the path a sweep writes",
}


def _leaves(config: dict, path: str = ""):
    """(path, JSON text of the value) of each leaf; the objects of a list
    are walked as ``[]``, and any other list is one value."""
    for key, value in config.items():
        here = f"{path}.{key}" if path else key
        if isinstance(value, dict):
            yield from _leaves(value, here)
        elif isinstance(value, list) and value and all(isinstance(v, dict) for v in value):
            for item in value:
                yield from _leaves(item, f"{here}[]")
        else:
            yield here, json.dumps(value, sort_keys=True)


def _field(path: str) -> str:
    """``path`` with its subtask section left out: the subtasks read their
    ``shots``, ``deployments``, ``plan`` and ``merge`` by one code path each."""
    head, _, rest = path.partition(".")
    return f"st*.{rest}" if head in SUBTASK_ORDER else path


def test_every_config_field_takes_two_values_in_use(monkeypatch, tmp_path):
    run = load_bench(monkeypatch)
    program = run.load_program()
    configs = [DEFAULT_CONFIG, *(resolve_config(preset=name) for name in PRESETS)]
    for name, workload in run.WORKLOADS.items():
        bench = run.Bench(program, name, seed=7, work=tmp_path / name)
        # The reference run, the timed run, and a replay's recording.
        calls = [("mock", 1), (workload.mode, workload.workers)]
        calls += [("record", workload.workers)] * (workload.mode == "replay")
        configs += [bench.config(mode, workers, tmp_path / "out") for mode, workers in calls]
    values = defaultdict(set)
    for config in configs:
        for path, value in _leaves(config):
            values[_field(path)].add(value)
    one_value = {path for path, _ in _leaves(DEFAULT_CONFIG) if len(values[_field(path)]) < 2}
    assert sorted(one_value) == sorted(ONE_VALUE_ALLOWED)


def test_each_allowed_one_value_field_is_a_config_field():
    assert set(ONE_VALUE_ALLOWED) <= {path for path, _ in _leaves(DEFAULT_CONFIG)}


def test_the_subtask_sections_share_their_field_paths():
    assert _field("st2.shots") == _field("st4.shots") == "st*.shots"
    assert _field("st2.plan.members[].samples") == _field("st4.plan.members[].samples")
    assert _field("dataset.format") == "dataset.format"


def test_the_members_of_a_list_are_walked_as_one_path():
    config = {"plan": {"members": [{"deployment": "a"}, {"deployment": "b"}]},
              "deployments": ["x", "y"]}
    assert sorted(_leaves(config)) == [
        ("deployments", '["x", "y"]'),
        ("plan.members[].deployment", '"a"'),
        ("plan.members[].deployment", '"b"'),
    ]
