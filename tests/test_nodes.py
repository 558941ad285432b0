"""Equality, hashing and shape of the tree nodes and ground clauses.

Nodes are compared and hashed by class and fields, so a node built
twice is one key in a set or a dict.  They are not frozen: the type
checker sets the types of the nodes it builds before ``typecheck``
returns, and nothing changes a node after that.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import hopes
from hopes.ast import App, Clause, Eq, FunApp, IndConst, Name, Neg, PredConst, RawClause, Var
from hopes.herbrand import GroundClause
from hopes.parser import parse_program
from hopes.typecheck import typecheck
from hopes.types import IOTA, O, arrow

I_TO_O = arrow(IOTA, O)


def built_twice():
    """Two equal trees of every node class, sharing no node."""

    def build():
        f = PredConst("f", I_TO_O)
        x = Var("X", IOTA)
        a = IndConst("a", IOTA)
        return [
            Name("p"),
            a,
            f,
            x,
            FunApp("s", (a,), IOTA),
            App(f, x, O),
            Neg(App(f, a, O), O),
            Eq(x, a, O),
            RawClause(App(Name("f"), Name("a")), (Neg(Name("q")),)),
            Clause("f", (x,), (Eq(x, a, O),)),
            GroundClause(0, ((True, 1),)),
        ]

    return build(), build()


def test_equality_depends_on_the_class():
    assert Var("X") != IndConst("X")
    assert Name("p") != PredConst("p")
    f, a = PredConst("f", I_TO_O), IndConst("a", IOTA)
    assert App(f, a) != App(f, a, IOTA)
    assert App(f, a, IOTA) == App(f, a, IOTA)


def test_positions_and_origins_are_not_compared():
    head, body = Name("p"), (Neg(Name("q")),)
    assert RawClause(head, body, 1, 1) == RawClause(head, body, 7, 3)
    assert hash(RawClause(head, body, 1, 1)) == hash(RawClause(head, body, 7, 3))
    assert RawClause(head, body) != RawClause(head, ())
    assert GroundClause(0, ((True, 1),), (0, (("X", 2),))) == GroundClause(0, ((True, 1),), None)
    assert hash(GroundClause(0, ((True, 1),), (4, ()))) == hash(GroundClause(0, ((True, 1),)))
    assert GroundClause(0, ((True, 1),)) != GroundClause(0, ((False, 1),))


def test_equal_nodes_built_apart_are_one_key():
    first, second = built_twice()
    for x, y in zip(first, second):
        assert x is not y and x == y and hash(x) == hash(y), x
        assert len({x, y}) == 1
        assert {x: 1}[y] == 1


def test_checked_clauses_built_apart_are_one_key():
    text = "#pred p : (i -> o) -> o. #pred q : i -> o. p(Q) :- Q(a), ~q(b). q(a)."
    first, second = typecheck(parse_program(text)), typecheck(parse_program(text))
    assert first.clauses == second.clauses
    assert len(set(first.clauses) | set(second.clauses)) == len(first.clauses)


def hopes_classes():
    for info in pkgutil.iter_modules(hopes.__path__):
        module = importlib.import_module(f"hopes.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__:
                yield cls


def test_no_class_is_frozen_and_per_clause_nodes_hold_no_dict():
    """A frozen ``__init__`` sets each field through ``object.__setattr__``,
    which made building nodes most of the front end's per-clause cost."""
    frozen = [
        cls.__qualname__
        for cls in hopes_classes()
        if dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen
    ]
    assert frozen == []
    for node in built_twice()[0]:
        assert not hasattr(node, "__dict__"), type(node).__name__
