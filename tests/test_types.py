import pickle

from hopes.parser import parse_program
from hopes.typecheck import typecheck
from hopes.types import (
    IOTA,
    O,
    TypeExpr,
    argument_types,
    arity,
    arrow,
    arrow_chain,
    is_argument,
    is_functional,
    is_predicate,
    type_to_str,
)

from reference_paper import classify_type

I_TO_O = arrow(IOTA, O)


def test_classify_examples():
    assert classify_type(arrow(IOTA, IOTA)) == "functional"
    assert classify_type(arrow(I_TO_O, O)) == "predicate"
    assert classify_type(arrow(I_TO_O, IOTA)) == "invalid"
    assert classify_type(IOTA) == "functional"  # iota is also an argument type
    assert classify_type(O) == "predicate"


def test_class_membership():
    assert is_functional(IOTA)
    assert is_argument(IOTA)
    assert not is_predicate(IOTA)
    assert is_predicate(O) and is_argument(O) and not is_functional(O)
    assert is_argument(arrow(I_TO_O, O))
    assert not is_argument(arrow(IOTA, IOTA))  # functional arrows are not arguments
    # argument positions must themselves be argument types
    assert not is_predicate(arrow(arrow(IOTA, IOTA), O))


def test_printing():
    assert type_to_str(IOTA) == "i"
    assert type_to_str(arrow(IOTA, arrow(IOTA, O))) == "i -> i -> o"
    assert type_to_str(arrow(I_TO_O, O)) == "(i -> o) -> o"
    assert type_to_str(arrow(I_TO_O, arrow(IOTA, O))) == "(i -> o) -> i -> o"


def test_argument_types_and_arity():
    t = arrow_chain([I_TO_O, IOTA], O)
    assert argument_types(t) == [I_TO_O, IOTA]
    assert arity(t) == 2
    assert argument_types(O) == []
    assert arity(IOTA) == 0


def test_equal_types_built_apart_hash_and_look_up_equal():
    built = arrow(arrow(TypeExpr("iota"), TypeExpr("o")), arrow(IOTA, O))
    declared = typecheck(parse_program("#pred p : (i -> o) -> i -> o.\n")).predicate_decls["p"]
    assert built is not declared and built == declared
    assert hash(built) == hash(declared) == hash(arrow_chain([I_TO_O, IOTA], O))
    assert {built: 1}[declared] == 1
    unpickled = pickle.loads(pickle.dumps(built))
    assert unpickled == built and hash(unpickled) == hash(built)
    assert hash(arrow(IOTA, O)) != hash(arrow(O, IOTA))
    assert repr(built) == "(i -> o) -> i -> o"
