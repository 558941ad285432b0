import time

import pytest

from hopes.ast import App, Eq, Name, Neg, Var, expr_to_str, program_to_str
from hopes.parser import ParseError, parse_program, parse_term
from hopes.types import IOTA, O, arrow

from conftest import CORPUS, program_path
from test_tokenizer_oracle import scan


def test_smallest_program():
    prog = parse_program("#pred q : i -> o. q(a).")
    assert prog.predicate_decls == {"q": arrow(IOTA, O)}
    assert len(prog.clauses) == 1
    clause = prog.clauses[0]
    assert clause.head == App(Name("q"), Name("a"))
    assert clause.body == ()


def test_application_sugar_is_one_ast():
    assert parse_term("p(a, b)") == parse_term("p(a)(b)") == parse_term("p a b")
    assert parse_term("p (q a)") == parse_term("p(q(a))")


def test_subset_clause_structure():
    text = """
    #pred subset : (i -> o) -> (i -> o) -> o.
    #pred nonsubset : (i -> o) -> (i -> o) -> o.
    subset(S1)(S2) :- ~(nonsubset S1 S2).
    nonsubset(S1)(S2) :- S1(X), ~(S2 X).
    """
    prog = parse_program(text)
    assert len(prog.clauses) == 2
    first, second = prog.clauses
    assert first.body == (Neg(App(App(Name("nonsubset"), Var("S1")), Var("S2"))),)
    assert second.body[0] == App(Var("S1"), Var("X"))
    assert second.body[1] == Neg(App(Var("S2"), Var("X")))


def test_equality_literal():
    prog = parse_program("#pred q : i -> o. q(X) :- X = a.")
    assert prog.clauses[0].body == (Eq(Var("X"), Name("a")),)


def test_zero_arity_clause_and_negation():
    prog = parse_program("#pred p : o. #pred r : o. p. r :- ~p.")
    assert prog.clauses[0].head == Name("p")
    assert prog.clauses[1].body == (Neg(Name("p")),)


def test_comments_and_whitespace():
    prog = parse_program("% leading note\n#pred p : o.\np. % trailing\n% done\n")
    assert len(prog.clauses) == 1


def test_type_parsing_right_associative():
    prog = parse_program("#pred f : (i -> o) -> i -> o.")
    t = prog.predicate_decls["f"]
    assert t == arrow(arrow(IOTA, O), arrow(IOTA, O))


def test_parse_error_unclosed_args():
    with pytest.raises(ParseError) as err:
        parse_program("#pred p : (i -> o) -> o. p(Q :- .")
    assert err.value.line == 1
    assert "expected" in str(err.value)


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_program("#pred p : o.\np :- ~.\n")
    assert err.value.line == 2


def test_parse_error_bad_directive():
    with pytest.raises(ParseError):
        parse_program("#foo p : o.")


def test_duplicate_declaration_rejected():
    with pytest.raises(ParseError):
        parse_program("#pred p : o. #pred p : i -> o.")


def test_unknown_character():
    with pytest.raises(ParseError):
        parse_program("#pred p : o. p :- ?.")


@pytest.mark.parametrize("name", CORPUS)
def test_print_parse_round_trip(name):
    """Printing a parsed program and re-parsing gives an equal AST."""
    prog = parse_program(program_path(name).read_text())
    assert parse_program(program_to_str(prog)) == prog


def test_term_round_trip():
    # printing is canonical and re-parses to the same tree
    for text in ["q", "id(q)", "id(id(q))(b)", "f(a, g(b))", "p(q(a))", "p a b"]:
        tree = parse_term(text)
        assert parse_term(expr_to_str(tree)) == tree
    # canonical form uses one pair of parens per argument
    assert expr_to_str(parse_term("p(a, b)")) == "p(a)(b)"
    assert expr_to_str(parse_term("nonsubset S1 S2")) == "nonsubset(S1)(S2)"


# lexical rules, as docs/LANGUAGE.md states them ---------------------------


def error_at(text: str) -> tuple[str, int, int]:
    with pytest.raises(ParseError) as err:
        parse_program(text)
    return err.value.message, err.value.line, err.value.col


def test_whitespace_is_space_tab_cr_lf():
    assert len(parse_program("#pred p : o.\r\n\tp .\r\n").clauses) == 1
    for ch in "\f\v\xa0\u2003":
        assert error_at(f"#pred p : o. p{ch}.") == (f"unexpected character {ch!r}", 1, 15)


def test_identifier_starts_with_a_letter_or_underscore():
    assert parse_term("é2") == Name("é2")
    assert parse_term("Ék") == Var("Ék")
    assert parse_term("a²") == Name("a²")  # later characters may be any isalnum()
    assert error_at("9a.") == ("unexpected character '9'", 1, 1)
    assert error_at("p :- Ⅻ.") == ("unexpected character 'Ⅻ'", 1, 6)


def test_underscore_identifier_is_lowercase():
    assert parse_term("_x") == Name("_x")
    assert parse_term("_X") == Name("_X")


def test_directive_name_is_the_run_of_letters():
    prog = parse_program("#pred_x : o. _x.")
    assert prog.predicate_decls == {"_x": O}
    assert scan("#pred_x") == [
        ("HASHPRED", "#pred", 1, 1),
        ("IDENT", "_x", 1, 6),
        ("EOF", "", 1, 8),
    ]
    assert error_at("#pred2 : o.") == ("unexpected character '2'", 1, 6)
    assert error_at("#predx : o.") == ("unknown directive '#predx'", 1, 1)
    assert error_at("p. #_x") == ("unknown directive '#'", 1, 4)


def test_columns_count_characters_from_one_and_a_tab_is_one():
    assert error_at("#pred p : o.\n\tp :- $.") == ("unexpected character '$'", 2, 7)
    assert error_at("#pred p : o.\np :- é é ~.") == ("found '~'", 2, 10)
    prog = parse_program("#pred p : o.\n\t p.\n  ék.")
    assert [(c.line, c.col) for c in prog.clauses] == [(2, 3), (3, 3)]


def test_end_of_input_after_a_trailing_comment_stays_at_the_percent():
    assert error_at("#pred p : o.\np :- % no body") == ("unexpected end of input", 2, 6)
    assert error_at("#pred p : o.\np :- % no body\n") == ("unexpected end of input", 3, 1)


# front-end scaling: positions are found without rescanning the text ------


FACTS = "#pred p : i -> o.\n" + "".join(f"p(c{i}).\n" for i in range(20000))


def test_parse_20000_facts_fast():
    start = time.perf_counter()
    prog = parse_program(FACTS)
    elapsed = time.perf_counter() - start
    assert len(prog.clauses) == 20000
    assert (prog.clauses[-1].line, prog.clauses[-1].col) == (20001, 1)
    assert elapsed < 0.5, elapsed


def test_tokenize_20000_facts_fast():
    start = time.perf_counter()
    tokens = scan(FACTS)
    elapsed = time.perf_counter() - start
    assert tokens[-1] == ("EOF", "", 20002, 1)
    assert elapsed < 1.0, elapsed


def test_error_on_the_last_line_of_20000_facts():
    assert error_at(FACTS + "p(c20000) :- .") == ("found '.'", 20002, 14)
    assert error_at(FACTS + "  p(c20000) $") == ("unexpected character '$'", 20002, 13)
