import re
import time

import pytest

from hopes.ast import expr_to_str
from hopes.herbrand import BudgetExceeded, GroundProgram, ground_instantiate
from hopes.parser import parse_program, parse_term
from hopes.typecheck import typecheck
from hopes.types import IOTA, O, arrow

from conftest import CORPUS, load, load_ground
from reference_grounder import normalize_equality
from reference_paper import head_expr, substitute


def names(tp, typ, k):
    """The slice of a type at depth k, as the store prints its terms."""
    terms = ground_instantiate(tp, k).terms
    return [terms.text[t] for t in terms.slices.get(typ, ())]


def test_individual_universe():
    tp = load("identity")
    for k in (1, 2, 5):
        assert names(tp, IOTA, k) == ["a", "b"]


def test_predicate_universe_grows_with_depth():
    tp = load("identity")
    assert names(tp, arrow(IOTA, O), 1) == ["q"]
    assert names(tp, arrow(IOTA, O), 3) == ["q", "id(q)", "id(id(q))"]
    u4 = names(tp, arrow(IOTA, O), 4)
    assert u4 == ["q", "id(q)", "id(id(q))", "id(id(id(q)))"]


def test_universe_ordered_by_size_then_text():
    tp = load("naturals")
    assert names(tp, IOTA, 3) == ["z", "s(z)", "s(s(z))"]
    u4 = names(tp, IOTA, 4)
    sizes = [len(re.findall(r"\w+", t)) for t in u4]  # symbol occurrences
    assert max(sizes) <= 4
    assert sorted(zip(sizes, u4)) == list(zip(sizes, u4))


def test_empty_universe_has_no_terms():
    tp = load("defaults")  # no symbols of type (i -> o) -> o anywhere
    assert names(tp, arrow(arrow(IOTA, O), O), 3) == []


def test_universe_monotone_in_depth():
    for name in CORPUS:
        tp = load(name)
        for k in (1, 2, 3):
            assert set(names(tp, O, k)) <= set(names(tp, O, k + 1))


def test_normalize_equality():
    assert normalize_equality(parse_term("a"), parse_term("a"))
    assert not normalize_equality(parse_term("a"), parse_term("b"))
    assert normalize_equality(parse_term("f(a, b)"), parse_term("f(a, b)"))
    assert not normalize_equality(parse_term("f(a)"), parse_term("f(f(a))"))


def test_identity_grounding_exact():
    g = load_ground("identity", 3)
    clause_texts = {g.clause_str(c) for c in g.clauses}
    assert {
        "q(a).",
        "q(b).",
        "p(q) :- q(a).",
        "id(q)(a) :- q(a).",
        "id(q)(b) :- q(b).",
        "p(id(q)) :- id(q)(a).",
        "id(id(q))(a) :- id(q)(a).",
        "id(id(q))(b) :- id(q)(b).",
    } <= clause_texts
    assert len(g.clauses) == 11


def test_self_support_grounds_to_self_loop():
    g = load_ground("self_support", 3)
    assert g.to_text() == "p(a) :- p(a).\n"


def test_choice_pair_grounding_exact():
    g = load_ground("choice_pair", 2)
    assert sorted(g.clause_str(c) for c in g.clauses) == [
        "p(a).",
        "q(a).",
        "r(p) :- ~s(p).",
        "r(q) :- ~s(q).",
        "s(p) :- ~r(p).",
        "s(q) :- ~r(q).",
    ]


def test_false_equality_kills_clause_but_registers_head():
    g = load_ground("stratified_ho", 2)
    # q(X) :- X = a over U_i = {a} keeps only the true instance
    assert "q(a)." in {g.clause_str(c) for c in g.clauses}
    assert "q(a)" in g.atoms


def test_atom_table_covers_type_o_slice():
    g = load_ground("identity", 3)
    o_slice = [g.terms.text[t] for t in g.terms.slices[O]]
    assert o_slice and g.atoms[: len(o_slice)] == tuple(o_slice)


def test_atom_interning_injective_and_canonical():
    g = load_ground("identity", 3)
    assert len(set(g.atoms)) == len(g.atoms)
    for atom in g.atoms:
        assert expr_to_str(parse_term(atom)) == atom


def test_ground_clauses_are_substitution_instances():
    tp = load("subset")
    g = load_ground("subset", 3)
    exprs = g.terms.decode(tp.predicate_decls)
    for c in g.clauses:
        idx, binding = c.origin
        clause = tp.clauses[idx]
        head = substitute(head_expr(clause), {n: exprs[t] for n, t in binding})
        assert expr_to_str(head) == g.atoms[c.head]


def test_grounding_deterministic():
    a = load_ground("subset", 3)
    b = load_ground("subset", 3)
    assert a.atoms == b.atoms
    assert a.clauses == b.clauses
    assert a.to_text() == b.to_text()


@pytest.mark.parametrize("name", CORPUS)
def test_grounding_monotone_in_depth(name):
    texts = {}
    for k in (2, 3, 4):
        g = load_ground(name, k)
        texts[k] = {g.clause_str(c) for c in g.clauses}
    assert texts[2] <= texts[3] <= texts[4]


def test_budget_exceeded():
    tp = load("naturals")
    with pytest.raises(BudgetExceeded) as err:
        ground_instantiate(tp, 4, budget=3)
    assert err.value.count > 3


def test_empty_universe_clause_is_skipped_with_note():
    from hopes.parser import parse_program
    from hopes.typecheck import typecheck

    # r quantifies over (i -> o) -> o predicates, of which there are none
    text = """
    #pred p : o.
    #pred r : ((i -> o) -> o) -> o.
    p :- r(Z).
    """
    g = ground_instantiate(typecheck(parse_program(text)), 3)
    assert g.clauses == ()
    assert any("empty universe" in note for note in g.notes)
    assert "p" in g.atoms  # the base atom is still in the table


def test_skip_notes_scale_linearly():
    # each of 20,000 clauses has a variable over an empty slice and so
    # its own note, naming its index; appending them costs linear time
    tp = typecheck(parse_program("#pred q : (i -> i -> o) -> o.\n" + "q(X).\n" * 20000))
    start = time.perf_counter()
    g = ground_instantiate(tp, 1)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.5, elapsed
    assert g.clauses == ()
    assert g.notes[2:] == tuple(
        f"clause {i} has no instances at depth 1: variable X ranges over an empty"
        " universe (no ground terms of type i -> i -> o within depth 1)"
        for i in range(1, 20001)
    )


def test_no_ground_atoms_note_only_without_atoms():
    # no zero-arity predicate, so the o slice is empty, but the fact's
    # head is an atom
    g = ground_instantiate(typecheck(parse_program("#pred e : i -> i -> o.\ne(c0, c1).\n")), 2)
    assert len(g.atoms) == 4
    assert g.notes == ()
    # the only clause has no instances: no atom at all, and the note
    # comes before the clause's own
    text = "#pred p : (i -> i -> o) -> o.\np(R) :- R(a, a).\n"
    g = ground_instantiate(typecheck(parse_program(text)), 3)
    assert g.atoms == ()
    assert g.notes[0] == "no ground atoms exist at depth 3"
    assert "variable R ranges over an empty universe" in g.notes[1]


def test_build_helper_round_trip():
    g = GroundProgram.build(["x", "y"], [("x", [], ["y"]), ("y", ["x"], [])])
    assert g.atoms == ("x", "y")
    assert g.clauses[0].literals == ((True, 1),)
    assert g.clauses[1].literals == ((False, 0),)
    assert g.clause_str(g.clauses[0]) == "x :- ~y."


# Rows of the baseline that generate-and-test grounding made cubic.  The
# limits are generous because the speed of shared hosts drifts by up to
# a factor of two.


def test_naturals_at_depth_200_grounds_quickly():
    tp = load("naturals")
    start = time.perf_counter()
    g = ground_instantiate(tp, 200)
    assert time.perf_counter() - start < 2.0
    assert len(g.clauses) == 400


def test_naturals_at_depth_1000_grounds_in_a_tenth_of_a_second():
    # each slice is enumerated in the term store and sorted by the text
    # the store already holds; sorting ASTs by their rendering took 0.4 s
    tp = load("naturals")
    start = time.perf_counter()
    g = ground_instantiate(tp, 1000)
    assert time.perf_counter() - start < 0.1
    assert len(g.clauses) == 2000


def test_binary_fact_table_grounds_quickly():
    text = "#pred e : i -> i -> o.\n" + "".join(f"e(c{i}, c{i + 1}).\n" for i in range(100))
    tp = typecheck(parse_program(text))
    start = time.perf_counter()
    g = ground_instantiate(tp, 1)
    assert time.perf_counter() - start < 2.0
    assert len(g.clauses) == 100
    assert len(g.atoms) == 101 * 101  # every head tuple is registered
