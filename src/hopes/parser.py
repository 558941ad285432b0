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

The scan runs in C: one ``split`` by a pattern that captures every
token gives the token texts, alternating with the whitespace between
them, and a running sum of the parts' lengths gives each token's
offset.  A kind table gives each token its kind: identifiers and
one-character marks by their first character, ``:-``, ``->``, ``:``,
``#pred`` and ``#func`` by their whole text.  Only what the table does
not know takes a careful per-token path: comments, any other ``#``
word, identifiers that start with a non-ASCII character, and stray
characters.  The parser walks the parallel kind and text lists by index
and builds no token objects.  Line and column are computed from offsets
only where they are read: at clause starts, advancing from the previous
clause start, and in errors.
"""

from __future__ import annotations

import itertools
import re

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


# Matches every token, comment and stray character; whitespace (space,
# tab, CR, LF) is all it skips.  ':-' and '->' are tried before the
# one-character catch-all, and a word is \w+: isalnum() or '_' per
# character.  The group makes a split keep the tokens.
_TOKEN = re.compile(r"(\w+|:-|->|#\w*|%[^\n]*|[^ \t\r\n])")

# The kind table: a token's first character decides its kind when it is
# an ASCII letter, '_' or a one-character punctuation mark; the other
# marks and the two directives are looked up whole.  Whatever neither
# table knows (a comment, another '#' word, an identifier starting with
# a non-ASCII character, a stray character) goes to `_careful`.
_FIRST = {
    **dict.fromkeys("abcdefghijklmnopqrstuvwxyz_", "IDENT"),
    **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZ", "VARIDENT"),
    "(": "LP",
    ")": "RP",
    ",": "COMMA",
    ".": "DOT",
    "~": "TILDE",
    "=": "EQUALS",
}
_DIRECTIVES = {"#pred": "HASHPRED", "#func": "HASHFUNC"}
_WHOLE = {":-": "COLONDASH", "->": "ARROW", ":": "COLON", **_DIRECTIVES}


class _Lines:
    """Line and column of offsets asked for in increasing order.

    Each step counts only the newlines between the previous offset and
    this one, so a sweep over a whole text stays linear.  Columns count
    characters from 1; a tab is one column.
    """

    def __init__(self, text: str):
        self.text = text
        self.off = 0
        self.line = 1
        self.line_start = 0

    def at(self, off: int) -> tuple[int, int]:
        text = self.text
        newlines = text.count("\n", self.off, off)
        if newlines:
            self.line += newlines
            self.line_start = text.rfind("\n", self.off, off) + 1
        self.off = off
        return self.line, off - self.line_start + 1


def _error(text: str, off: int, message: str, expected: tuple[str, ...] = ()) -> ParseError:
    return ParseError(message, *_Lines(text).at(off), expected)


def _scan(text: str) -> tuple[list[str], list[str], list[int]]:
    """Parallel lists of token kinds, texts and offsets, ending in EOF."""
    parts = _TOKEN.split(text)  # a whitespace run, maybe empty, around every token
    values = parts[1::2]
    offsets = list(itertools.islice(itertools.accumulate(map(len, parts)), 0, len(parts) - 1, 2))
    first, whole = _FIRST.get, _WHOLE.get
    kinds = [first(v[0]) or whole(v) for v in values]
    eof = len(text)
    if None in kinds:
        kinds, values, offsets, eof = _careful(text, kinds, values, offsets)
    kinds.append("EOF")
    values.append("")
    offsets.append(eof)
    return kinds, values, offsets


def _careful(
    text: str, kinds: list[str | None], values: list[str], offsets: list[int]
) -> tuple[list[str], list[str], list[int], int]:
    """Resolve, in text order, the tokens the kind table does not know.

    A comment is dropped; when it runs to the end of the text, EOF stays
    at its '%'.  A '#' word is a directive whose name is the isalpha()
    letters after the '#', so '#pred_x' is '#pred' and then '_x'.  An
    identifier starts with an isalpha() letter or '_'.  Anything else is
    a stray character.  The first of these errors raises.
    """
    ks: list[str] = []
    vs: list[str] = []
    offs: list[int] = []
    eof = len(text)
    done = 0
    for i in [i for i, kind in enumerate(kinds) if kind is None]:
        ks += kinds[done:i]
        vs += values[done:i]
        offs += offsets[done:i]
        done = i + 1
        value, off = values[i], offsets[i]
        if value[0] == "%":
            if off + len(value) == eof:
                eof = off
            continue
        if value[0] == "#":
            end = 1
            while end < len(value) and value[end].isalpha():
                end += 1
            name = value[:end]
            if name not in _DIRECTIVES:
                raise _error(text, off, f"unknown directive {name!r}")
            ks.append(_DIRECTIVES[name])
            vs.append(name)
            offs.append(off)
            value, off = value[end:], off + end
            if not value:
                continue
        ch = value[0]
        if not (ch.isalpha() or ch == "_"):
            raise _error(text, off, f"unexpected character {ch!r}")
        ks.append("VARIDENT" if ch.isupper() else "IDENT")
        vs.append(value)
        offs.append(off)
    ks += kinds[done:]
    vs += values[done:]
    offs += offsets[done:]
    return ks, vs, offs, eof


class _Parser:
    """Reads the scan by index; positions are computed only for clause
    starts and errors."""

    def __init__(self, text: str):
        self.text = text
        self.kinds, self.values, self.offsets = _scan(text)
        self.pos = 0
        self.lines = _Lines(text)  # clause starts come in increasing order

    def found(self, pos: int, expected: tuple[str, ...]) -> ParseError:
        """The error for an unexpected token at index `pos`."""
        if self.kinds[pos] == "EOF":
            message = "unexpected end of input"
        else:
            message = f"found {self.values[pos]!r}"
        return _error(self.text, self.offsets[pos], message, expected)

    def expect(self, kind: str, what: str) -> str:
        pos = self.pos
        if self.kinds[pos] != kind:
            raise self.found(pos, (what,))
        self.pos = pos + 1
        return self.values[pos]

    # types -----------------------------------------------------------

    def parse_type(self) -> TypeExpr:
        """type := atype ('->' atype)*, folded to the right.

        Parentheses nest without recursion: each open '(' pushes the
        chain read so far, so redundant parentheses cost no stack, and a
        type tree deeper than MAX_TYPE_NESTING is refused.
        """
        kinds, values = self.kinds, self.values
        start = pos = self.pos
        stack: list[list[TypeExpr]] = []
        parts: list[TypeExpr] = []  # the arrow chain being read
        while True:
            kind = kinds[pos]
            if kind == "LP":
                pos += 1
                stack.append(parts)
                parts = []
                continue
            if kind == "IDENT" and values[pos] in ("i", "o"):
                t = IOTA if values[pos] == "i" else O
                pos += 1
            else:
                raise self.found(pos, ("'i'", "'o'", "'('"))
            # t is a complete atype: close every chain that ends here
            while True:
                parts.append(t)
                if kinds[pos] == "ARROW":
                    pos += 1
                    break
                t = arrow_chain(parts[:-1], parts[-1])
                if not stack:
                    self.pos = pos
                    # every level of a type tree takes at least one 'i' or 'o'
                    deepest = 0 if pos - start <= MAX_TYPE_NESTING else type_depth(t)
                    if deepest > MAX_TYPE_NESTING:
                        raise _error(
                            self.text,
                            self.offsets[start],
                            f"type nests {deepest} levels deep, over the limit of {MAX_TYPE_NESTING}",
                        )
                    return t
                if kinds[pos] != "RP":
                    raise self.found(pos, ("')'",))
                pos += 1
                parts = stack.pop()

    # terms ------------------------------------------------------------

    def _term(self, single: bool) -> Expression:
        """term := aterm aterm*, or one aterm when `single`.

        Parentheses nest without recursion: each open '(' pushes the
        enclosing term built so far, together with the function it
        applies (a call suffix) or None (a parenthesized primary), so
        arbitrarily deep terms parse in constant stack.
        """
        kinds, values = self.kinds, self.values
        pos = self.pos
        stack: list[tuple[Expression | None, Expression | None]] = []
        term: Expression | None = None  # the juxtaposition being built
        while True:
            kind = kinds[pos]
            if kind == "LP":
                pos += 1
                stack.append((term, None))
                term = None
                continue
            if kind == "IDENT":
                e: Expression = Name(values[pos])
            elif kind == "VARIDENT":
                e = Var(values[pos])
            else:
                raise self.found(pos, ("identifier", "variable", "'('"))
            pos += 1
            # e is a complete primary: take its call suffixes, then close
            # every term that ends here
            while True:
                kind = kinds[pos]
                if kind == "LP":  # p(a, b) sugars to p(a)(b)
                    pos += 1
                    stack.append((term, e))
                    term = None
                    break
                term = e if term is None else App(term, e)
                if (kind == "IDENT" or kind == "VARIDENT") and not (single and not stack):
                    break
                if not stack:
                    self.pos = pos
                    return term
                outer, fun = stack.pop()
                if fun is None:
                    if kind != "RP":
                        raise self.found(pos, ("')'",))
                    pos += 1
                    e, term = term, outer
                    continue
                fun = App(fun, term)
                if kind == "COMMA":
                    pos += 1
                    stack.append((outer, fun))
                    term = None
                    break
                if kind != "RP":
                    raise self.found(pos, ("',' or ')'",))
                pos += 1
                e, term = fun, outer

    # clauses ------------------------------------------------------------

    def parse_literal(self) -> Expression:
        kinds = self.kinds
        if kinds[self.pos] == "TILDE":
            self.pos += 1
            return Neg(self._term(single=True))
        lhs = self._term(single=False)
        if kinds[self.pos] == "EQUALS":
            self.pos += 1
            return Eq(lhs, self._term(single=False))
        return lhs

    def parse_clause(self) -> RawClause:
        kinds = self.kinds
        first = self.pos
        line, col = self.lines.at(self.offsets[first])
        head = self._term(single=False)
        body: list[Expression] = []
        if kinds[self.pos] == "COLONDASH":
            self.pos += 1
            body.append(self.parse_literal())
            while kinds[self.pos] == "COMMA":
                self.pos += 1
                body.append(self.parse_literal())
        self.expect("DOT", "'.'")
        # every level of a tree takes at least one token
        deepest = 0 if self.pos - first <= MAX_NESTING else max(_nesting(e) for e in (head, *body))
        if deepest > MAX_NESTING:
            raise ParseError(f"clause nests {deepest} levels deep, over the limit of {MAX_NESTING}", line, col)
        return RawClause(head, tuple(body), line, col)

    def parse_program(self) -> Program:
        prog = Program()
        kinds = self.kinds
        while (kind := kinds[self.pos]) != "EOF":
            if kind == "HASHPRED" or kind == "HASHFUNC":
                self.pos += 1
                at = self.offsets[self.pos]
                name = self.expect("IDENT", "symbol name")
                self.expect("COLON", "':'")
                t = self.parse_type()
                self.expect("DOT", "'.'")
                decls = prog.predicate_decls if kind == "HASHPRED" else prog.function_decls
                if name in prog.predicate_decls or name in prog.function_decls:
                    raise _error(self.text, at, f"duplicate declaration of {name!r}")
                decls[name] = t
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
    return _Parser(text).parse_program()
