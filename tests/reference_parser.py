"""The token-list parser that ``parser.parse_program`` replaced.

Kept as the oracle of ``test_parser_oracle.py``.  It reads the ``Token``
list of ``reference_tokenizer.reference_tokenize``, one ``Token`` per
step, and takes every position from the tokens.  The index-based parser
must give the same ``Program``, with the same clause positions, or raise
``ParseError`` with the same text, line, column and ``expected``.
"""

from __future__ import annotations

from hopes.ast import App, Eq, Expression, Name, Neg, Program, RawClause, Var
from hopes.parser import MAX_NESTING, ParseError
from hopes.types import IOTA, MAX_TYPE_NESTING, O, TypeExpr, arrow_chain, type_depth

from reference_tokenizer import Token, reference_tokenize


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"found {tok.value!r}" if tok.kind != "EOF" else "unexpected end of input",
                tok.line,
                tok.col,
                expected=(what,),
            )
        return self.advance()

    # types -----------------------------------------------------------

    def parse_type(self) -> TypeExpr:
        """type := atype ('->' atype)*, folded to the right.

        Parentheses nest without recursion: each open '(' pushes the
        chain read so far, so redundant parentheses cost no stack, and a
        type tree deeper than MAX_TYPE_NESTING is refused.
        """
        start = self.peek()
        stack: list[list[TypeExpr]] = []
        parts: list[TypeExpr] = []  # the arrow chain being read
        while True:
            tok = self.advance()
            if tok.kind == "LP":
                stack.append(parts)
                parts = []
                continue
            if tok.kind == "IDENT" and tok.value in ("i", "o"):
                t = IOTA if tok.value == "i" else O
            else:
                raise ParseError(
                    f"found {tok.value!r}" if tok.kind != "EOF" else "unexpected end of input",
                    tok.line,
                    tok.col,
                    expected=("'i'", "'o'", "'('"),
                )
            # t is a complete atype: close every chain that ends here
            while True:
                parts.append(t)
                if self.peek().kind == "ARROW":
                    self.advance()
                    break
                t = arrow_chain(parts[:-1], parts[-1])
                if not stack:
                    deepest = type_depth(t)
                    if deepest > MAX_TYPE_NESTING:
                        raise ParseError(
                            f"type nests {deepest} levels deep, over the limit of {MAX_TYPE_NESTING}",
                            start.line,
                            start.col,
                        )
                    return t
                self.expect("RP", "')'")
                parts = stack.pop()

    # terms ------------------------------------------------------------

    def at_term_start(self) -> bool:
        return self.peek().kind in ("IDENT", "VARIDENT", "LP")

    def parse_term(self) -> Expression:
        return self._term(single=False)

    def parse_aterm(self) -> Expression:
        return self._term(single=True)

    def _term(self, single: bool) -> Expression:
        """term := aterm aterm*, or one aterm when `single`.

        Parentheses nest without recursion: each open '(' pushes the
        enclosing term built so far, together with the function it
        applies (a call suffix) or None (a parenthesized primary), so
        arbitrarily deep terms parse in constant stack.
        """
        stack: list[tuple[Expression | None, Expression | None]] = []
        term: Expression | None = None  # the juxtaposition being built
        while True:
            tok = self.peek()
            if tok.kind == "LP":
                self.advance()
                stack.append((term, None))
                term = None
                continue
            if tok.kind == "IDENT":
                self.advance()
                e: Expression = Name(tok.value)
            elif tok.kind == "VARIDENT":
                self.advance()
                e = Var(tok.value)
            else:
                raise ParseError(
                    f"found {tok.value!r}" if tok.kind != "EOF" else "unexpected end of input",
                    tok.line,
                    tok.col,
                    expected=("identifier", "variable", "'('"),
                )
            # e is a complete primary: take its call suffixes, then close
            # every term that ends here
            while True:
                if self.peek().kind == "LP":  # p(a, b) sugars to p(a)(b)
                    self.advance()
                    stack.append((term, e))
                    term = None
                    break
                term = e if term is None else App(term, e)
                if self.at_term_start() and not (single and not stack):
                    break
                if not stack:
                    return term
                outer, fun = stack.pop()
                if fun is None:
                    self.expect("RP", "')'")
                    e, term = term, outer
                    continue
                fun = App(fun, term)
                if self.peek().kind == "COMMA":
                    self.advance()
                    stack.append((outer, fun))
                    term = None
                    break
                self.expect("RP", "',' or ')'")
                e, term = fun, outer

    # clauses ------------------------------------------------------------

    def parse_literal(self) -> Expression:
        if self.peek().kind == "TILDE":
            self.advance()
            return Neg(self.parse_aterm())
        lhs = self.parse_term()
        if self.peek().kind == "EQUALS":
            self.advance()
            return Eq(lhs, self.parse_term())
        return lhs

    def parse_clause(self) -> RawClause:
        start, first = self.peek(), self.pos
        head = self.parse_term()
        body: list[Expression] = []
        if self.peek().kind == "COLONDASH":
            self.advance()
            body.append(self.parse_literal())
            while self.peek().kind == "COMMA":
                self.advance()
                body.append(self.parse_literal())
        self.expect("DOT", "'.'")
        # every level of a tree takes at least one token
        deepest = 0 if self.pos - first <= MAX_NESTING else max(_nesting(e) for e in (head, *body))
        if deepest > MAX_NESTING:
            raise ParseError(
                f"clause nests {deepest} levels deep, over the limit of {MAX_NESTING}",
                start.line,
                start.col,
            )
        return RawClause(head, tuple(body), start.line, start.col)

    def parse_program(self) -> Program:
        prog = Program()
        while self.peek().kind != "EOF":
            tok = self.peek()
            if tok.kind in ("HASHPRED", "HASHFUNC"):
                self.advance()
                name = self.expect("IDENT", "symbol name")
                self.expect("COLON", "':'")
                t = self.parse_type()
                self.expect("DOT", "'.'")
                decls = prog.predicate_decls if tok.kind == "HASHPRED" else prog.function_decls
                if name.value in prog.predicate_decls or name.value in prog.function_decls:
                    raise ParseError(f"duplicate declaration of {name.value!r}", name.line, name.col)
                decls[name.value] = t
            else:
                prog.clauses.append(self.parse_clause())
        return prog


def _nesting(e: Expression) -> int:
    """Depth of a parsed expression tree, measured without recursion."""
    deepest = 0
    stack = [(e, 1)]
    while stack:
        x, depth = stack.pop()
        deepest = max(deepest, depth)
        if isinstance(x, App):
            stack += ((x.fun, depth + 1), (x.arg, depth + 1))
        elif isinstance(x, Neg):
            stack.append((x.inner, depth + 1))
        elif isinstance(x, Eq):
            stack += ((x.lhs, depth + 1), (x.rhs, depth + 1))
    return deepest


def reference_parse_program(text: str) -> Program:
    return _Parser(reference_tokenize(text)).parse_program()


def reference_parse_term(text: str) -> Expression:
    p = _Parser(reference_tokenize(text))
    e = p.parse_term()
    p.expect("EOF", "end of input")
    return e
