"""Concrete syntax.

    program    := item*
    item       := directive | clause
    directive  := '#pred' IDENT ':' type '.' | '#func' IDENT ':' type '.'
    type       := atype ('->' type)?          right-associative
    atype      := 'i' | 'o' | '(' type ')'
    clause     := term (':-' body)? '.'
    body       := literal (',' literal)*
    literal    := '~' aterm | term ('=' term)?
    term       := aterm aterm*                 application by juxtaposition
    aterm      := primary ('(' term (',' term)* ')')*
    primary    := IDENT | VARIDENT | '(' term ')'

Lowercase identifiers name constants and declared symbols, uppercase
identifiers name variables.  ``p(a, b)``, ``p(a)(b)`` and ``p a b`` all
denote the same curried application.  Negation takes a single aterm, so
a multi-word negated atom needs parentheses: ``~(subset S1 S2)``.
Comments run from ``%`` to end of line.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .ast import App, Eq, Expression, Name, Neg, Program, RawClause, Var
from .types import IOTA, MAX_TYPE_NESTING, O, TypeExpr, arrow_chain, type_depth

# Terms parse in constant stack, but later stages (type inference, the
# dataclass equality and hashing of expressions) walk them recursively,
# so a clause whose terms nest deeper than this is refused up front.
MAX_NESTING = 500


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        self.message = message
        self.line = line
        self.col = col
        self.expected = expected
        where = f"line {line}, column {col}"
        hint = f" (expected {' or '.join(expected)})" if expected else ""
        super().__init__(f"{where}: {message}{hint}")


class Token(NamedTuple):
    kind: str
    value: str
    line: int
    col: int


# Tried in order at each position, so ':-' wins over ':'.  WORD is
# \w+, that is isalnum() or '_' per character, and HASH is '#' then \w*:
# the tokenizer narrows both where the grammar asks for isalpha().
_TOKEN = re.compile(
    r"(?P<NL>\n)|(?P<WS>[ \t\r]+)|(?P<COMMENT>%[^\n]*)|(?P<HASH>#\w*)"
    r"|(?P<COLONDASH>:-)|(?P<ARROW>->)|(?P<LP>\()|(?P<RP>\))|(?P<COMMA>,)"
    r"|(?P<DOT>\.)|(?P<COLON>:)|(?P<TILDE>~)|(?P<EQUALS>=)|(?P<WORD>\w+)"
)
_DIRECTIVES = {"#pred": "HASHPRED", "#func": "HASHFUNC"}


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind, value = m.lastgroup, m.group()
        if kind == "NL":
            line, col, pos = line + 1, 1, pos + 1
            continue
        if kind == "COMMENT":
            # the column stays at the '%', which only an EOF token can show
            pos = m.end()
            continue
        if kind == "HASH":
            # a directive name is the isalpha() letters after the '#'
            end = 1
            while end < len(value) and value[end].isalpha():
                end += 1
            value = value[:end]
            if value not in _DIRECTIVES:
                raise ParseError(f"unknown directive {value!r}", line, col)
            tokens.append(Token(_DIRECTIVES[value], value, line, col))
        elif kind == "WORD":
            # an identifier starts with an isalpha() letter or '_'
            if not (value[0].isalpha() or value[0] == "_"):
                raise ParseError(f"unexpected character {value[0]!r}", line, col)
            tokens.append(Token("VARIDENT" if value[0].isupper() else "IDENT", value, line, col))
        elif kind != "WS":
            tokens.append(Token(kind, value, line, col))
        pos += len(value)
        col += len(value)
    tokens.append(Token("EOF", "", line, col))
    return tokens


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


def parse_program(text: str) -> Program:
    """Parse a whole program; raises ParseError with line and column."""
    return _Parser(tokenize(text)).parse_program()


def parse_term(text: str) -> Expression:
    """Parse a single term (used for queries and tests)."""
    p = _Parser(tokenize(text))
    e = p.parse_term()
    p.expect("EOF", "end of input")
    return e
