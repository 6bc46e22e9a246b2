"""Prompt work is memoised on the objects it is rendered from: a message's
UTF-8 JSON on the message, and the cache key's hash state after a lead on
the lead's last message; a shot's text and its st4 turn on the shot case.
The memos never change what is rendered, keyed or how those objects
compare, and each message is encoded, each shot turn filled, and each
shared lead hashed once per deployment, in a run."""

import dataclasses
import gc
import json
import sys
import threading
import weakref
from collections import Counter
from types import SimpleNamespace

import pytest

from ehrqa import pipeline, prompting, providers
from ehrqa.dataset import toy_dataset_path
from ehrqa.prompting import Message, load_template, render_prompt
from ehrqa.providers import GenRequest, PipelineMockProvider, request_cache_key
from tests.test_cli import tree_bytes
from tests.test_concurrency import nine_cases
from tests.test_exact_references import reference_request_cache_key, render_without_memos
from tests.test_prompting import shot_case, target_case

ST2_TO_ST4 = {"subtasks": ["st2", "st3", "st4"], "st3": {"rerank": True},
              "st4": {"recall": {"enabled": True}}}


def run_config(tmp_path, cases, name, mode="mock", workers=1, **fields):
    return pipeline.resolve_config({
        "dataset": {"cases": str(cases)},
        "provider_mode": mode,
        "record_source": "mock",
        "cache_dir": str(tmp_path / f"cache-{name}"),
        "out_dir": str(tmp_path / name),
        "workers": workers,
        **ST2_TO_ST4,
        **fields,
    })


class RecordingMock(PipelineMockProvider):
    """The pipeline mock, keeping every request it answers."""

    def __init__(self):
        self.requests = []

    def generate(self, request):
        self.requests.append(request)
        return super().generate(request)


def sent_prompts(config) -> dict[str, tuple]:
    """Each request's messages, by request tag, of a mock run of ``config``."""
    mock = RecordingMock()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "build_generator", lambda config: mock)
        pipeline.run_pipeline(config)
    return {r.request_tag: r.messages for r in mock.requests}


def test_same_case_ids_with_other_notes_get_their_own_prompts(tmp_path, monkeypatch):
    """Memos live on case objects, not on case_ids: a second case file that
    reuses the first's case_ids with other notes renders its own notes."""
    first = distinct_cases(tmp_path / "first.jsonl")
    records = [json.loads(line) for line in first.read_text("utf-8").splitlines()]
    for record in records:
        for sentence in record["note"]:
            sentence["text"] = f"Changed: {sentence['text']}"
    second = tmp_path / "second.jsonl"
    second.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")

    prompts_first = sent_prompts(run_config(tmp_path, first, "a"))
    prompts_second = sent_prompts(run_config(tmp_path, second, "b"))
    assert prompts_first.keys() == prompts_second.keys()
    for tag, messages in prompts_second.items():
        assert messages != prompts_first[tag], tag
        if "/st3s2/" not in tag:  # a rewrite sees only the draft's cited sentences
            assert "Changed: " in "".join(m.content for m in messages), tag
    monkeypatch.setattr(prompting, "_memo", lambda owner, key, make: make())
    assert prompts_second == sent_prompts(run_config(tmp_path, second, "c"))


def test_memos_leave_equality_hash_repr_and_asdict_unchanged():
    """Neither the render memos on a shot nor the JSON and key-state memos
    on a message change how either compares, hashes or prints."""
    shot, twin = shot_case(), shot_case()
    before = (hash(shot), repr(shot), dataclasses.asdict(shot))
    for subtask in ("st1", "st2", "st3_stage1", "st4"):
        messages = render_prompt(
            load_template(subtask), target_case(), [shot], extra={"evidence_block": "1. x"}
        )
        copies = [Message(m.role, m.content) for m in messages]
        messages_before = [(hash(m), repr(m), dataclasses.asdict(m)) for m in messages]
        request = GenRequest("m1", tuple(messages), request_tag=f"t1/{subtask}/m1/0")
        assert request_cache_key(request) == reference_request_cache_key(request)
        for message, copy, message_before in zip(messages, copies, messages_before):
            assert message.json_bytes == json.dumps(
                [message.role, message.content], ensure_ascii=False
            ).encode("utf-8")
            assert (hash(message), repr(message), dataclasses.asdict(message)) == message_before
            assert message == copy and hash(message) == hash(copy)
        if subtask == "st4":  # system message and one shot turn lead the prompt
            assert any(isinstance(key[1], tuple) for key in vars(messages[-2])["_render_memo"])
    assert vars(shot)["_render_memo"]  # the renders above did memoise on the shot
    assert (hash(shot), repr(shot), dataclasses.asdict(shot)) == before
    assert shot == twin and hash(shot) == hash(twin) and repr(shot) == repr(twin)


def distinct_cases(path):
    """Nine cases whose prompts all differ: two requests with one cache key
    and two tags would record whichever tag is written last."""
    records = [json.loads(line) for line in nine_cases(path).read_text("utf-8").splitlines()]
    for record in records:
        for sentence in record["note"]:
            sentence["text"] = f"Case {record['case_id']}: {sentence['text']}"
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return path


def test_outputs_and_recordings_are_byte_identical_at_any_worker_count(tmp_path):
    cases = distinct_cases(tmp_path / "cases.jsonl")
    trees = {}
    for workers in (1, 2, 8):
        for mode in ("mock", "record"):
            name = f"{mode}-w{workers}"
            pipeline.run_pipeline(run_config(tmp_path, cases, name, mode, workers))
            trees[name] = tree_bytes(tmp_path / name)
        trees[f"cache-w{workers}"] = tree_bytes(tmp_path / f"cache-record-w{workers}")
    for kind in ("mock", "record", "cache"):
        assert trees[f"{kind}-w1"] == trees[f"{kind}-w2"] == trees[f"{kind}-w8"], kind
    assert trees["cache-w1"]


def test_a_replay_encodes_each_message_and_fills_each_shot_turn_once(tmp_path, monkeypatch):
    """A toy st2-st4 replay: ``request_cache_key`` calls ``json.dumps`` once
    per distinct message object it sees, the st4 shot turns of all cases
    are the same message objects, and each shot turn or shot text is
    rendered once, however many cases take that shot."""
    cases = toy_dataset_path()
    pipeline.run_pipeline(run_config(tmp_path, cases, "record", "record"))
    replay = run_config(
        tmp_path, cases, "replay", "replay", cache_dir=str(tmp_path / "cache-record")
    )
    # The st4 system message lives on the process-wide template: forget its
    # JSON so that this run encodes it too.
    st4_template = load_template("st4")
    vars(st4_template).pop("_render_memo", None)

    keyed, dumps, inside = [], Counter(), [False]
    real_key, real_dumps = providers.request_cache_key, json.dumps

    def counting_key(request):
        keyed.append(request)
        inside[0] = True
        try:
            return real_key(request)
        finally:
            inside[0] = False

    def counting_dumps(*args, **kwargs):
        dumps["in key"] += inside[0]
        return real_dumps(*args, **kwargs)

    fills, shot_texts, st4_shot_uses = Counter(), Counter(), Counter()
    real_fill, real_render = prompting._fill, pipeline.st4.render_prompt

    def counting_fill(template, case, values):
        if template.subtask == "st4" and "answer_block" not in values:  # a shot turn
            fills[case.case_id, "full_answer_block" in values] += 1
        return real_fill(template, case, values)

    def counting_st4_render(template, case, shots=(), extra=None):
        st4_shot_uses.update(s.case_id for s in shots)
        return real_render(template, case, shots, extra)

    monkeypatch.setattr(providers, "request_cache_key", counting_key)
    monkeypatch.setattr(json, "dumps", counting_dumps)
    monkeypatch.setattr(prompting, "_fill", counting_fill)
    monkeypatch.setattr(pipeline.st4, "render_prompt", counting_st4_render)
    for subtask, render_one in list(prompting._SHOT_RENDERERS.items()):
        def counting_shot(shot, _render=render_one, _subtask=subtask):
            shot_texts[_subtask, prompting._shot_case(shot).case_id] += 1
            return _render(shot)

        monkeypatch.setitem(prompting._SHOT_RENDERERS, subtask, counting_shot)
    manifest = pipeline.run_pipeline(replay)
    monkeypatch.undo()

    assert manifest["cache"]["misses"] == 0
    messages = {id(m): m for r in keyed for m in r.messages}
    assert len(keyed) > len(messages)  # requests share messages
    assert dumps["in key"] == len(messages)

    st4_messages = {id(m) for r in keyed if "/st4/" in r.request_tag for m in r.messages}
    cases_with_st4 = {r.request_tag.split("/")[0] for r in keyed if "/st4/" in r.request_tag}
    # one system message, one user/assistant pair per shot case, one prompt per case
    assert len(st4_messages) == 1 + 2 * len(st4_shot_uses) + len(cases_with_st4)

    assert sum(st4_shot_uses.values()) > len(st4_shot_uses)  # shots recur across cases
    assert fills == Counter({(cid, True): 1 for cid in st4_shot_uses})
    assert shot_texts and set(shot_texts.values()) == {1}


def test_threads_racing_on_a_shot_share_one_memoised_turn():
    """Sixteen threads render st4 prompts over the same fresh shots at
    once, with a short switch interval: every thread gets the same shot
    turn objects, whichever thread stored them first."""
    shots = [dataclasses.replace(shot_case(), case_id=f"s{i}") for i in range(1, 6)]
    template = load_template("st4")
    expected = render_without_memos(template, target_case(), shots, extra={"answer_block": "1. y"})
    results, start = [None] * 16, threading.Barrier(16)

    def render(i):
        start.wait()
        results[i] = render_prompt(template, target_case(), shots, extra={"answer_block": "1. y"})

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=render, args=(i,)) for i in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(messages == expected for messages in results)
    for position in range(1, 1 + 2 * len(shots)):  # the shot turns, after the system message
        assert len({id(messages[position]) for messages in results}) == 1


def test_a_keyed_lead_is_freed_with_its_last_user():
    """The key memo on a lead's last message holds no reference back to
    that message: with the cyclic GC off, the lead dies with its request."""
    lead = (Message("system", "s"), Message("user", "u"), Message("assistant", "a"))
    request = GenRequest("m1", (*lead, Message("user", "q")))
    expected = reference_request_cache_key(request)
    assert request_cache_key(request) == request_cache_key(request) == expected
    last = weakref.ref(lead[-1])
    gc.disable()
    try:
        del lead, request
        assert last() is None
    finally:
        gc.enable()


def test_threads_racing_on_a_lead_get_correct_keys():
    """Sixteen threads key the same fresh st4 requests at once, with a short
    switch interval: whichever thread stores a lead's hash state first,
    every thread gets every request's reference key."""
    shots = [dataclasses.replace(shot_case(), case_id=f"s{i}") for i in range(1, 6)]
    template = load_template("st4")
    requests = []
    for i in range(4):
        target = dataclasses.replace(target_case(), case_id=f"t{i}")
        messages = render_prompt(template, target, shots[i:], extra={"answer_block": f"{i}. y"})
        requests += [GenRequest(deployment, tuple(messages), temperature=0.7, sample_index=s,
                                request_tag=f"t{i}/st4/{deployment}/{s}")
                     for deployment in ("m1", "m2") for s in range(3)]
    expected = [reference_request_cache_key(r) for r in requests]
    results, start = [None] * 16, threading.Barrier(16)

    def key_all(i):
        start.wait()
        results[i] = [request_cache_key(r) for r in requests]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=key_all, args=(i,)) for i in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(keys == expected for keys in results)


class CountingSha256:
    """A SHA-256 that records every piece of bytes fed to it, copies
    included, in ``fed``."""

    def __init__(self, fed, state):
        self.fed, self.state = fed, state

    def update(self, data):
        self.fed.append(data)
        self.state.update(data)

    def copy(self):
        return CountingSha256(self.fed, self.state.copy())

    def hexdigest(self):
        return self.state.hexdigest()


def test_a_replay_hashes_each_shared_shot_turn_once_per_deployment_and_lead(
    tmp_path, monkeypatch
):
    """A toy st1-st4 replay with st4 self-consistency sampling: the UTF-8
    JSON of each st4 shot turn is fed to SHA-256 once per (deployment,
    lead) that carries it, not once per request, and every key still finds
    its recorded entry."""
    cases = toy_dataset_path()
    subtasks = {
        "subtasks": ["st1", "st2", "st3", "st4"],
        "st4": {"plan": pipeline.PRESETS["st4-selfconsistency"]["st4"]["plan"],
                "recall": {"enabled": True}},
    }
    pipeline.run_pipeline(run_config(tmp_path, cases, "record", "record", **subtasks))
    replay = run_config(tmp_path, cases, "replay", "replay",
                        cache_dir=str(tmp_path / "cache-record"), **subtasks)
    fed, keyed = [], []
    real_key, real_hashlib = providers.request_cache_key, providers.hashlib

    def sha256(data=b""):
        counting = CountingSha256(fed, real_hashlib.sha256())
        counting.update(data)
        return counting

    def recording_key(request):
        keyed.append(request)
        return real_key(request)

    monkeypatch.setattr(providers, "hashlib", SimpleNamespace(sha256=sha256))
    monkeypatch.setattr(providers, "request_cache_key", recording_key)
    manifest = pipeline.run_pipeline(replay)
    monkeypatch.undo()

    assert manifest["cache"]["misses"] == 0
    st4 = [r for r in keyed if "/st4/" in r.request_tag]
    system = st4[0].messages[0]
    turns = {id(m): m for r in st4 for m in r.messages[1:-1]}
    assert turns and all(m.role in ("user", "assistant") for m in turns.values())
    times_fed = Counter(id(data) for data in fed)
    carried_by = Counter()
    for request in st4:
        assert request.messages[0] is system
        carried_by.update(id(m) for m in request.messages[1:-1])
    for turn_id, turn in turns.items():
        leads = {
            (r.deployment_name, r.max_output_tokens, tuple(map(id, r.messages[:-1])))
            for r in st4 if turn_id in map(id, r.messages[:-1])
        }
        assert times_fed[id(turn.json_bytes)] == len(leads) <= carried_by[turn_id]
    assert sum(times_fed[id(m.json_bytes)] for m in turns.values()) < sum(carried_by.values())
