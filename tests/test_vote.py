import pytest
from hypothesis import given
from hypothesis import strategies as st

from ehrqa.core import CacheMissError, EhrqaError, SubtaskError
from ehrqa.metrics import micro_prf
from ehrqa.parsing import parse_id_array
from ehrqa.providers import GenRequest, gather_responses
from ehrqa.prompting import Message
from ehrqa.vote import VoteTally, sweep
from tests.conftest import ScriptedProvider

# Note sentence IDs "1".."6"; votes may also name "7".."9", which no note has.
NOTE_IDS = [str(i) for i in range(1, 7)]
ANY_ID = st.integers(min_value=1, max_value=9).map(str)


@st.composite
def dev_cases(draw, key):
    """(tally, gold, note IDs) with a per-case total_votes and possibly no votes."""
    total = draw(st.integers(min_value=1, max_value=6))
    votes = draw(st.dictionaries(key, st.integers(min_value=1, max_value=total), max_size=10))
    gold = draw(st.sets(key, max_size=6))
    note_ids = NOTE_IDS[: draw(st.integers(min_value=1, max_value=len(NOTE_IDS)))]
    return VoteTally(votes=votes, total_votes=total), gold, note_ids


def brute_force(cases, note_id):
    """Micro PRF recounted from scratch at every threshold."""
    max_votes = max(tally.total_votes for tally, _, _ in cases)
    return [
        micro_prf(
            (
                {k for k, c in tally.votes.items() if c >= theta and note_id(k) in note_ids},
                gold,
            )
            for tally, gold, note_ids in cases
        )
        for theta in range(1, max_votes + 1)
    ]


def check_against_brute_force(cases, note_id):
    best, frontier = sweep(cases, "theta", note_id=note_id)
    expected = brute_force(cases, note_id)
    assert [row["theta"] for row in frontier] == list(range(1, len(expected) + 1))
    for row, prf in zip(frontier, expected):
        assert (row["micro_p"], row["micro_r"], row["micro_f1"]) == (
            prf.precision,
            prf.recall,
            prf.f1,
        )
    f1s = [prf.f1 for prf in expected]
    assert best == f1s.index(max(f1s)) + 1  # the smallest argmax


@given(st.lists(dev_cases(ANY_ID), min_size=1, max_size=5))
def test_sweep_equals_recount_for_sentence_ids(cases):
    check_against_brute_force(cases, note_id=lambda key: key)


@given(st.lists(dev_cases(st.tuples(st.sampled_from("123"), ANY_ID)), min_size=1, max_size=5))
def test_sweep_equals_recount_for_links(cases):
    check_against_brute_force(cases, note_id=lambda link: link[1])


def test_sweep_needs_a_case():
    with pytest.raises(EhrqaError, match="at least one dev case"):
        sweep([], "k")


def request(tag):
    return GenRequest("m", (Message("user", "q"),), request_tag=tag)


def test_failed_and_unparseable_runs_vote_for_nothing(caplog):
    requests = [request(f"c1/st2/m/{i}") for i in range(3)]
    # the third call fails
    provider = ScriptedProvider({"c1/st2/m/0": '["2"]', "c1/st2/m/1": "no array here"})
    with caplog.at_level("WARNING"):
        runs = gather_responses(provider, requests, parse_id_array, "c1", "st2")
    assert runs == [{"2"}, (), ()]
    assert "st2 run c1/st2/m/1 unparseable, counting as empty" in caplog.text
    assert "request c1/st2/m/2 failed" in caplog.text


def test_a_case_without_a_usable_run_fails_after_asking_every_member(caplog):
    requests = [request(f"c1/st2/m/{i}") for i in range(3)]
    provider = ScriptedProvider({"c1/st2/m/1": "no array here"})  # the other calls fail
    with caplog.at_level("WARNING"), pytest.raises(SubtaskError) as raised:
        gather_responses(provider, requests, parse_id_array, "c1", "st2")
    assert str(raised.value) == "case c1: no st2 member gave a usable reply"
    assert provider.calls == [r.request_tag for r in requests]


def test_a_cache_that_cannot_serve_a_run_fails_it():
    def respond(request):
        if request.request_tag == "c1/st2/m/1":
            raise CacheMissError("unreadable cache entry abc")
        return '["2"]'

    requests = [request(f"c1/st2/m/{i}") for i in range(3)]
    provider = ScriptedProvider(handler=respond)
    with pytest.raises(CacheMissError, match="abc"):
        gather_responses(provider, requests, parse_id_array, "c1", "st2")
    assert provider.calls == ["c1/st2/m/0", "c1/st2/m/1"]  # raised at once
