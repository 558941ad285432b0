"""The equality-solving grounder against the generate-and-test reference.

Both must produce the same atoms in the same intern order, the same
clauses with the same origins, and the same notes, on the corpus and on
seeded random typed programs.  Wherever the reference stays within its
budget, so must the grounder under test.  The slices enumerated as term
ids must equal the reference's AST slices, term for term and in order.
"""

import random

import pytest

from hopes import ground_instantiate, parse_program, typecheck
from hopes.ast import expr_to_str
from hopes.herbrand import BudgetExceeded, EmptyUniverse

from conftest import CORPUS, load, random_checked_program
from reference_grounder import (
    TermEnumerator,
    reference_count,
    reference_ground_instantiate,
    reference_iter_ground_instances,
    reference_slice_total,
)

def assert_same_grounding(tp, k, budget=1_000_000):
    expected = reference_ground_instantiate(tp, k, budget)
    got = ground_instantiate(tp, k, budget)
    assert got.atoms == expected.atoms
    assert got.clauses == expected.clauses
    # origins bind term ids; decoded, they are the reference's ASTs
    exprs = got.terms.decode(tp.predicate_decls)
    origins = [
        (idx, tuple([(n, exprs[t]) for n, t in binding]))
        for idx, binding in (c.origin for c in got.clauses)
    ]
    assert origins == [c.origin for c in expected.clauses]
    assert got.notes == expected.notes
    assert got.to_text() == expected.to_text()


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_matches_reference(name):
    tp = load(name)
    for k in range(1, 7):
        assert_same_grounding(tp, k)


SHAPES = [
    # the solved formal comes first, so live instances leave the
    # enumeration out of product order
    "#func f : i -> i.\n#pred p : i -> i -> o.\n#pred q : i -> i -> o.\n"
    "q(a, b). q(b, a). q(a, a). q(b, f(a)).\np(f(X), Y) :- q(Y, X).\n",
    "#func g : i -> i -> i.\n#pred p : i -> o.\n#pred q : i -> o.\n"
    "q(a). q(b). q(g(a, a)).\np(g(X, Y)) :- q(X), q(Y).\n",
    # a body variable solved from a head formal
    "#func f : i -> i.\n#pred p : i -> o.\n#pred q : i -> o.\n"
    "q(f(a)). q(a).\np(X) :- Y = f(X), q(Y).\n",
    # chains: a solved variable in the term of another equality
    "#func f : i -> i.\n#pred p : i -> i -> o.\np(X, Y) :- X = a, Y = f(X).\n",
    "#func f : i -> i.\n#pred p : i -> i -> o.\np(X, Y) :- Y = f(X), X = a.\n",
    "#func f : i -> i.\n#pred p : i -> i -> o.\np(f(Y), Y) :- Y = a.\n",
    # the same formal twice, a formal in its own term, a reversed equality
    "#pred p : i -> o.\np(X) :- X = a, X = b.\np(X) :- X = a, X = a.\nq(b).\n#pred q : i -> o.\n",
    "#func f : i -> i.\n#pred p : i -> o.\np(X) :- X = f(X).\np(X) :- X = X.\np(X) :- a = X.\n",
    # equalities after other literals stay generate-and-test
    "#pred p : i -> o.\n#pred q : i -> o.\nq(a). q(b).\np(X) :- q(X), X = a, ~q(X).\n",
]


@pytest.mark.parametrize("text", SHAPES)
def test_equality_shapes_match_reference(text):
    tp = typecheck(parse_program(text))
    for k in (1, 2, 3, 4):
        assert_same_grounding(tp, k)


def test_random_programs_match_reference():
    rng = random.Random(20170131)
    compared = 0
    for _ in range(200):
        _, tp = random_checked_program(rng)
        for k in (1, 2, 3):
            # the smallest budget the reference accepts, which the
            # grounder under test must accept as well
            budget = max(reference_count(tp, k), reference_slice_total(tp, k))
            if budget <= 1500:
                assert_same_grounding(tp, k, budget)
                compared += 1
    assert compared > 400


def test_budget_refuses_only_what_the_reference_refuses():
    # each fact's full product is 2 x 2 = 4, over its two formals
    tp = typecheck(parse_program("#pred e : i -> i -> o.\ne(a, b).\ne(b, a).\n"))
    assert reference_count(tp, 1) == 4
    assert_same_grounding(tp, 1, budget=4)
    with pytest.raises(BudgetExceeded):
        ground_instantiate(tp, 1, budget=3)
    # the clause has no variable; the slices hold a0, f(a0), f(f(a0)) and r
    tp = typecheck(parse_program("#func f : i -> i.\n#pred r : o.\nr.\n"))
    assert (reference_count(tp, 3), reference_slice_total(tp, 3)) == (1, 4)
    assert_same_grounding(tp, 3, budget=4)
    for grounder in (ground_instantiate, reference_ground_instantiate):
        with pytest.raises(BudgetExceeded, match="universe slices at depth 3 hold 4 terms"):
            grounder(tp, 3, budget=3)
    with pytest.raises(BudgetExceeded, match="universe slices at depth 3 hold 4 terms"):
        list(reference_iter_ground_instances(tp, 3, budget=3))


def test_instances_check_the_slices_before_building_them():
    # 106,216 terms at depth 23, counted but never built
    tp = typecheck(parse_program("#func f : i -> i -> i.\n#pred q : i -> o.\n#pred r : o.\nr.\n"))
    message = "universe slices at depth 23 hold 106216 terms, over the budget of 10"
    with pytest.raises(BudgetExceeded, match=message):
        ground_instantiate(tp, 23, budget=10)


def test_random_programs_cover_the_interesting_shapes():
    rng = random.Random(20170131)
    texts, tps = zip(*(random_checked_program(rng) for _ in range(200)))
    assert any("#func" in t for t in texts)
    assert any(":- X = " in t or ":- Y = " in t for t in texts)  # a user equality first
    assert any(", X = " in t or ", Z = " in t for t in texts)  # ... and after other literals
    assert any("P(" in t or "R(" in t for t in texts)  # higher-order variables applied
    assert any(
        "empty universe" in n for tp in tps for n in reference_ground_instantiate(tp, 2).notes
    )


def assert_same_slices(tp, k):
    """Every closure type's slice of term ids, rendered, is the
    reference's slice in text and order, and decodes to its ASTs."""
    enum = TermEnumerator(tp)
    store = ground_instantiate(tp, k, budget=10**9).terms
    exprs = store.decode(tp.predicate_decls)
    assert set(store.slices) == enum.closure
    for typ, ids in store.slices.items():
        try:
            expected = enum.universe(typ, k)
        except EmptyUniverse:
            expected = ()
        assert [store.text[t] for t in ids] == [expr_to_str(e) for e in expected], (typ, k)
        assert tuple([exprs[t] for t in ids]) == expected


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_slices_match_reference(name):
    tp = load(name)
    for k in range(1, 7):
        assert_same_slices(tp, k)


def test_random_program_slices_match_reference():
    rng = random.Random(19990101)
    for _ in range(150):
        _, tp = random_checked_program(rng)
        for k in (1, 2, 3):
            assert_same_slices(tp, k)
