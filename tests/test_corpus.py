import pytest

from glbounds import (
    ExpectedMembership,
    corpus_entries,
    evaluate_jet2,
    parse,
)
from oracles import nonneg_convex_witness


def test_catalogue_shape():
    entries = corpus_entries()
    assert len(entries) >= 6
    names = [e.name for e in entries]
    assert len(set(names)) == len(names)
    by_name = dict(zip(names, entries))
    assert by_name["quadratic"].expression == "x^2"
    assert by_name["quadratic"].membership is ExpectedMembership.CERTIFIED
    assert by_name["sine"].membership is ExpectedMembership.EXPECT_FAIL


def test_expressions_parse_and_jets_succeed_interior():
    for entry in corpus_entries():
        e = parse(entry.expression)
        a, b = entry.interval.a, entry.interval.b
        for i in range(1000):
            x = a + (b - a) * (i + 0.5) / 1000.0
            v = evaluate_jet2(e, x)[0]
            assert v == v  # finite, not nan


@pytest.mark.parametrize("q", [1.0, 2.0])
def test_members_pass_grid_scan(membership_report, q):
    for entry in corpus_entries():
        if entry.membership is ExpectedMembership.EXPECT_FAIL:
            continue
        assert membership_report(entry.name, q).passed, f"{entry.name} q={q}"


def test_expect_fail_entry_fails_at_q1(membership_report):
    failing = [e for e in corpus_entries() if e.membership is ExpectedMembership.EXPECT_FAIL]
    assert failing
    for entry in failing:
        assert not membership_report(entry.name, 1.0).passed


@pytest.mark.parametrize("q", [1.0, 2.0])
def test_certified_entries_carry_convexity_witness(q):
    # Certified status rests on a proof sketch, not on the triple scan
    for entry in corpus_entries():
        if entry.membership is not ExpectedMembership.CERTIFIED:
            continue
        e = parse(entry.expression)
        g = lambda x: abs(evaluate_jet2(e, x)[2]) ** q
        assert nonneg_convex_witness(g, entry.interval), f"{entry.name} q={q}"
