"""Abstract syntax for programs: expressions, clauses, programs.

Terms are built from individual constants, predicate constants,
variables, applications of function symbols (always fully applied) and
curried applications of predicate expressions.  Expressions extend terms
with negation ``~E`` (over type-o terms) and equality ``E1 = E2`` (over
individuals); neither may occur inside an argument.

The parser cannot tell an individual constant from a predicate constant
before declarations are consulted, so it emits ``Name`` nodes for every
lowercase identifier; the type checker resolves them into ``IndConst``,
``PredConst`` or ``FunApp`` spines.

Nodes are compared and hashed by class and fields.  They are not
frozen: the checker sets the types of the nodes it builds before
``typecheck`` returns, and no code changes a node after that, which is
what hashing them by their fields depends on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .types import TypeExpr


class Expression:
    """Base class for all expression nodes."""

    __slots__ = ()


@dataclass(slots=True, unsafe_hash=True)
class Name(Expression):
    """An unresolved lowercase identifier (pre-typecheck only)."""

    name: str


@dataclass(slots=True, unsafe_hash=True)
class IndConst(Expression):
    name: str
    typ: Optional[TypeExpr] = None


@dataclass(slots=True, unsafe_hash=True)
class PredConst(Expression):
    name: str
    typ: Optional[TypeExpr] = None


@dataclass(slots=True, unsafe_hash=True)
class Var(Expression):
    name: str
    typ: Optional[TypeExpr] = None


@dataclass(slots=True, unsafe_hash=True)
class FunApp(Expression):
    symbol: str
    args: tuple[Expression, ...]
    typ: Optional[TypeExpr] = None


@dataclass(slots=True, unsafe_hash=True)
class App(Expression):
    fun: Expression
    arg: Expression
    typ: Optional[TypeExpr] = None


@dataclass(slots=True, unsafe_hash=True)
class Neg(Expression):
    inner: Expression
    typ: Optional[TypeExpr] = None


@dataclass(slots=True, unsafe_hash=True)
class Eq(Expression):
    lhs: Expression
    rhs: Expression
    typ: Optional[TypeExpr] = None


_LEAF_TYPES = frozenset((Name, IndConst, PredConst, Var))


def _children(e: Expression) -> tuple[Expression, ...]:
    if isinstance(e, FunApp):
        return e.args
    if isinstance(e, App):
        return (e.fun, e.arg)
    if isinstance(e, Neg):
        return (e.inner,)
    if isinstance(e, Eq):
        return (e.lhs, e.rhs)
    return ()


# The walks below keep an explicit stack, so that arbitrarily deep terms
# never exhaust the interpreter's recursion limit.


def expr_to_str(e: Expression) -> str:
    """Canonical rendering: applications as h(x)(y), negation as ~E."""
    if type(e) in _LEAF_TYPES:
        return e.name
    out: list[str] = []
    stack: list[Expression | str] = [e]  # strings are emitted verbatim
    push, emit = stack.append, out.append
    while stack:
        x = stack.pop()
        kind = type(x)
        if kind is str:
            emit(x)
        elif kind in _LEAF_TYPES:
            emit(x.name)
        elif kind is App:
            # the whole spine at once: queue the arguments last to first,
            # then the head, which is emitted next
            while type(x) is App:
                arg = x.arg
                if type(arg) in _LEAF_TYPES:
                    push("(" + arg.name + ")")
                else:
                    push(")")
                    push(arg)
                    push("(")
                x = x.fun
            push(x)
        elif kind is FunApp:
            emit(x.symbol + "(")
            push(")")
            for i in range(len(x.args) - 1, -1, -1):
                push(x.args[i])
                if i:
                    push(", ")
        elif kind is Neg:
            emit("~")
            push(x.inner)
        elif kind is Eq:
            push(x.rhs)
            push(" = ")
            push(x.lhs)
        else:
            raise TypeError(f"not an expression: {x!r}")
    return "".join(out)


def spine(e: Expression) -> tuple[Expression, list[Expression]]:
    """Unwind curried applications: spine(p(a)(b)) = (p, [a, b])."""
    args: list[Expression] = []
    while isinstance(e, App):
        args.append(e.arg)
        e = e.fun
    args.reverse()
    return e, args


def expr_vars(*es: Expression) -> list[Var]:
    """Variables of expressions, in first-occurrence order."""
    seen: dict[str, Var] = {}
    stack = list(reversed(es))
    while stack:
        x = stack.pop()
        kind = type(x)
        if kind is Var:
            seen.setdefault(x.name, x)
        elif kind is App:
            stack += (x.arg, x.fun)
        elif kind is Neg:
            stack.append(x.inner)
        elif kind not in _LEAF_TYPES:
            stack.extend(reversed(_children(x)))
    return list(seen.values())


@dataclass(slots=True, unsafe_hash=True)
class RawClause:
    """A clause as parsed: arbitrary head term, body of literal expressions."""

    head: Expression
    body: tuple[Expression, ...]
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)

    def __str__(self) -> str:
        head = expr_to_str(self.head)
        if not self.body:
            return f"{head}."
        return f"{head} :- {', '.join(expr_to_str(b) for b in self.body)}."


@dataclass
class Program:
    """Parsed but not yet checked: declarations plus raw clauses."""

    predicate_decls: dict[str, TypeExpr] = field(default_factory=dict)
    function_decls: dict[str, TypeExpr] = field(default_factory=dict)
    clauses: list[RawClause] = field(default_factory=list)


@dataclass(slots=True, unsafe_hash=True)
class Clause:
    """A checked clause: p(V1)...(Vn) :- L1, ..., Lm with typed trees."""

    head_pred: str
    formals: tuple[Var, ...]
    body: tuple[Expression, ...]

    def __str__(self) -> str:
        head = self.head_pred + "".join(f"({v.name})" for v in self.formals)
        if not self.body:
            return f"{head}."
        return f"{head} :- {', '.join(expr_to_str(b) for b in self.body)}."


@dataclass(slots=True, unsafe_hash=True)
class TypedProgram:
    """A checked program; every clause is well-typed and head-normalized."""

    predicate_decls: dict[str, TypeExpr]
    function_decls: dict[str, TypeExpr]
    individual_constants: tuple[str, ...]
    clauses: tuple[Clause, ...]
    notes: tuple[str, ...] = ()
