import gc
import time

import pytest

from hopes.ast import Eq, Var
from hopes.herbrand import ground_instantiate
from hopes.parser import parse_program
from hopes.typecheck import TypeCheckError, typecheck
from hopes.types import IOTA, O, arrow

from conftest import CORPUS, load, program_path


def check(text: str):
    return typecheck(parse_program(text))


def test_predicate_variable_inference():
    tp = check("#pred p : (i -> o) -> o. p(Q) :- Q(a).")
    clause = tp.clauses[0]
    assert clause.formals[0].typ == arrow(IOTA, O)
    # the body atom Q(a) has type o, its argument is an individual
    atom = clause.body[0]
    assert atom.typ == O
    assert atom.arg.typ == IOTA


def test_body_variable_inference():
    tp = check(
        "#pred nonsubset : (i -> o) -> (i -> o) -> o.\n"
        "nonsubset(S1)(S2) :- S1(X), ~(S2 X)."
    )
    clause = tp.clauses[0]
    x_uses = [lit for lit in clause.body]
    assert x_uses[0].arg == Var("X", IOTA)
    assert clause.formals[0].typ == arrow(IOTA, O)


def test_fact_head_normalization():
    tp = check("#pred q : i -> o. q(a).")
    clause = tp.clauses[0]
    assert clause.head_pred == "q"
    assert len(clause.formals) == 1
    assert isinstance(clause.body[0], Eq)
    assert tp.individual_constants == ("a",)


def test_constructor_head_normalization():
    tp = check("#func s : i -> i. #pred nat : i -> o. nat(s(X)) :- nat(X).")
    clause = tp.clauses[0]
    assert len(clause.formals) == 1
    assert isinstance(clause.body[0], Eq)
    assert len(clause.body) == 2


def test_repeated_head_variable_rejected():
    with pytest.raises(TypeCheckError) as err:
        check("#pred q : i -> i -> o. q(X, X).")
    assert "repeated" in str(err.value)


def test_self_application_rejected():
    with pytest.raises(TypeCheckError):
        check("#pred p : (i -> o) -> o. p(Q) :- Q(Q).")


def test_undeclared_head_predicate():
    with pytest.raises(TypeCheckError) as err:
        check("p(a).")
    assert "declared predicate" in str(err.value)


def test_head_arity_must_be_full():
    with pytest.raises(TypeCheckError):
        check("#pred q : i -> i -> o. q(X).")


def test_predicate_typed_head_argument_rejected():
    with pytest.raises(TypeCheckError):
        check("#pred p : (i -> o) -> o. #pred q : i -> o. p(q).")


def test_function_symbol_needs_arguments():
    with pytest.raises(TypeCheckError) as err:
        check("#func f : i -> i. #pred p : i -> o. p(f).")
    assert "applied" in str(err.value)


def test_function_symbol_arity():
    with pytest.raises(TypeCheckError):
        check("#func f : i -> i -> i. #pred p : i -> o. p(f(a)).")


def test_ambiguous_variable_type():
    with pytest.raises(TypeCheckError) as err:
        check("#pred r : (i -> o) -> o. #pred p : o. p :- r(Q(X)).")
    assert "ambiguous" in str(err.value)


def test_negation_requires_type_o():
    with pytest.raises(TypeCheckError):
        check("#pred p : o. #pred q : i -> o. p :- ~q.")


def test_equality_requires_individuals():
    with pytest.raises(TypeCheckError):
        check("#pred p : o. #pred q : i -> o. p :- q = q.")


def test_bad_declared_types():
    with pytest.raises(TypeCheckError):
        check("#pred p : i.")
    with pytest.raises(TypeCheckError):
        check("#pred p : (i -> o) -> i.")
    with pytest.raises(TypeCheckError):
        check("#func f : i.")
    with pytest.raises(TypeCheckError):
        check("#func f : (i -> o) -> i.")


def test_constant_injection_when_none_used():
    tp = check("#pred p : o. p.")
    assert tp.individual_constants == ("a0",)
    assert any("a0" in note for note in tp.notes)


def test_constants_collected_and_sorted():
    tp = check("#pred q : i -> o. q(b). q(a). q(c).")
    assert tp.individual_constants == ("a", "b", "c")


def test_formal_types_match_declaration():
    tp = load("subset")
    for clause in tp.clauses:
        declared = tp.predicate_decls[clause.head_pred]
        args = []
        t = declared
        while t.kind == "arrow":
            args.append(t.left)
            t = t.right
        assert [v.typ for v in clause.formals] == args


@pytest.mark.parametrize("name", CORPUS)
def test_inference_is_deterministic(name):
    text = program_path(name).read_text()
    a = typecheck(parse_program(text))
    b = typecheck(parse_program(text))
    assert a.clauses == b.clauses
    assert a.individual_constants == b.individual_constants


@pytest.mark.parametrize("name", CORPUS)
def test_every_application_argument_is_argument_typed(name):
    from hopes.ast import App
    from hopes.types import is_argument

    def walk(e):
        if isinstance(e, App):
            assert e.fun.typ.kind == "arrow"
            assert is_argument(e.arg.typ)
            walk(e.fun)
            walk(e.arg)
        for attr in ("inner", "lhs", "rhs"):
            if hasattr(e, attr):
                walk(getattr(e, attr))
        if hasattr(e, "args"):
            for a in e.args:
                walk(a)

    tp = load(name)
    for clause in tp.clauses:
        for lit in clause.body:
            walk(lit)


def test_front_end_scales_on_propositional_clauses():
    """Type checking and grounding 20,000 clauses without variables.

    On a shared 2-vCPU host the best of three runs took 0.24-0.42 s
    here, against 0.31-0.60 s when the checker built each clause tree
    twice and each such clause went through the clause compiler.  The
    collector is off while timing: how long its passes take depends on
    everything else the test process holds."""
    n = 20_000
    lines = [f"#pred a_{i} : o." for i in range(n + 1)]
    lines += [f"a_{i} :- ~a_{i + 1}." for i in range(n)]
    program = parse_program("\n".join(lines) + "\n")
    times = []
    for _ in range(3):
        gc.disable()
        try:
            started = time.perf_counter()
            g = ground_instantiate(typecheck(program), 1)
            times.append(time.perf_counter() - started)
        finally:
            gc.enable()
    assert len(g.clauses) == n
    assert min(times) < 0.5, times


def test_front_end_scales_on_facts():
    """Parsing, type checking and grounding 20,000 facts at depth 1.

    On a shared 2-vCPU host the best of three runs took 0.72-0.87 s
    here (five runs), against 0.73-1.29 s when every tree node was a
    frozen dataclass.  Parsing took 0.13-0.17 s of that, type checking
    0.08-0.15 s and grounding the rest.  The bound leaves room
    for the host's speed, which drifts by up to a factor of two.  The
    collector is off while timing, as above."""
    n = 20_000
    text = "#pred p : i -> o.\n" + "".join(f"p(c{i}).\n" for i in range(n))
    times = []
    for _ in range(3):
        gc.disable()
        try:
            started = time.perf_counter()
            g = ground_instantiate(typecheck(parse_program(text)), 1)
            times.append(time.perf_counter() - started)
        finally:
            gc.enable()
    assert len(g.clauses) == n
    assert min(times) < 1.5, times
