"""The two-pass type checker that ``typecheck.typecheck`` replaced.

Kept as the oracle of ``test_typecheck_oracle.py``.  Its ``infer``
rebuilds every clause tree while unifying, and ``attach`` rebuilds it a
second time to stamp the resolved types.  The one-pass checker must
give an equal ``TypedProgram``, or raise ``TypeCheckError`` with the
same text, line and column.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from hopes.ast import (
    App,
    Clause,
    Eq,
    Expression,
    FunApp,
    IndConst,
    Name,
    Neg,
    PredConst,
    Program,
    RawClause,
    TypedProgram,
    Var,
    expr_to_str,
    expr_vars,
    spine,
)
from hopes.typecheck import RESERVED_CONSTANT, TypeCheckError
from hopes.types import (
    IOTA,
    MAX_TYPE_NESTING,
    O,
    TypeExpr,
    argument_types,
    arity,
    is_argument,
    is_functional,
    is_predicate,
    type_depth,
)


@dataclass(frozen=True)
class _Meta:
    """A type metavariable awaiting unification."""

    ident: int


@dataclass
class _Unifier:
    bindings: dict[int, object] = field(default_factory=dict)
    counter: int = 0

    def fresh(self) -> _Meta:
        self.counter += 1
        return _Meta(self.counter)

    def walk(self, t: object) -> object:
        while isinstance(t, _Meta) and t.ident in self.bindings:
            t = self.bindings[t.ident]
        return t

    # occurs, unify and resolve walk types with explicit stacks: an
    # inferred type grows with the body of its clause and may be far
    # deeper than any declared one before resolve_types refuses it

    def occurs(self, m: _Meta, t: object) -> bool:
        stack = [t]
        while stack:
            t = self.walk(stack.pop())
            if isinstance(t, _Meta):
                if t == m:
                    return True
            elif isinstance(t, TypeExpr) and t.kind == "arrow":
                stack += (t.right, t.left)
        return False

    def unify(self, a: object, b: object) -> bool:
        pairs = [(a, b)]  # depth first, left operands before right ones
        while pairs:
            a, b = pairs.pop()
            a, b = self.walk(a), self.walk(b)
            if a is b:
                continue
            if isinstance(b, _Meta) and not isinstance(a, _Meta):
                a, b = b, a
            if isinstance(a, _Meta):
                if a == b:
                    continue
                if self.occurs(a, b):
                    return False
                self.bindings[a.ident] = b
                continue
            if a.kind != b.kind:
                return False
            if a.kind == "arrow":
                pairs += ((a.right, b.right), (a.left, b.left))
        return True

    def resolve(self, t: object) -> TypeExpr | None:
        """Fully resolve a type; None if a metavariable is left over."""
        done: list[TypeExpr] = []
        stack: list[object] = [t]  # None marks an arrow whose sides are done
        while stack:
            x = stack.pop()
            if x is None:
                right = done.pop()
                done.append(TypeExpr("arrow", done.pop(), right))
                continue
            x = self.walk(x)
            if isinstance(x, _Meta):
                return None
            if x.kind == "arrow":
                stack += (None, x.right, x.left)
            else:
                done.append(x)
        return done[0]


class _ClauseChecker:
    def __init__(self, program: Program, raw: RawClause, fresh_formals: "itertools.count"):
        self.program = program
        self.raw = raw
        self.uni = _Unifier()
        self.var_types: dict[str, object] = {}
        self.fresh_formals = fresh_formals
        self.used_constants: set[str] = set()

    def fail(self, message: str) -> TypeCheckError:
        return TypeCheckError(message, self.raw.line, self.raw.col)

    def var_type(self, name: str) -> object:
        if name not in self.var_types:
            self.var_types[name] = self.uni.fresh()
        return self.var_types[name]

    def infer(self, e: Expression, typ: object) -> Expression:
        """Check e against the expected type, resolving Name nodes.

        Returns the rebuilt tree (types attached in a later pass).
        """
        if isinstance(e, Var):
            if not self.uni.unify(self.var_type(e.name), typ):
                raise self.fail(f"variable {e.name} is used at incompatible types")
            return Var(e.name)
        if isinstance(e, Name):
            if e.name in self.program.predicate_decls:
                declared = self.program.predicate_decls[e.name]
                if not self.uni.unify(declared, typ):
                    raise self.fail(
                        f"predicate {e.name} has type {declared}, which does not fit here"
                    )
                return PredConst(e.name, declared)
            if e.name in self.program.function_decls:
                raise self.fail(
                    f"function symbol {e.name} must be applied to "
                    f"{arity(self.program.function_decls[e.name])} argument(s)"
                )
            if not self.uni.unify(IOTA, typ):
                raise self.fail(f"individual constant {e.name} cannot have a non-individual type")
            self.used_constants.add(e.name)
            return IndConst(e.name, IOTA)
        if isinstance(e, App):
            # a spine headed by a declared function symbol becomes a FunApp
            head, args = spine(e)
            if isinstance(head, Name) and head.name in self.program.function_decls:
                ftype = self.program.function_decls[head.name]
                want = arity(ftype)
                if len(args) != want:
                    raise self.fail(
                        f"function symbol {head.name} takes {want} argument(s), got {len(args)}"
                    )
                # a loop, not a generator: one stack frame per nesting level
                typed_args = []
                for a in args:
                    typed_args.append(self.infer(a, IOTA))
                if not self.uni.unify(IOTA, typ):
                    raise self.fail(f"application of {head.name} is an individual, which does not fit here")
                return FunApp(head.name, tuple(typed_args), IOTA)
            arg_t = self.uni.fresh()
            fun = self.infer(e.fun, _arrow_meta(arg_t, typ))
            arg = self.infer(e.arg, arg_t)
            return App(fun, arg)
        if isinstance(e, (Neg, Eq)):
            raise self.fail("negation and equality cannot occur inside a term")
        raise self.fail(f"unexpected expression {expr_to_str(e)}")

    def check_literal(self, e: Expression) -> Expression:
        if isinstance(e, Neg):
            return Neg(self.infer(e.inner, O), O)
        if isinstance(e, Eq):
            return Eq(self.infer(e.lhs, IOTA), self.infer(e.rhs, IOTA), O)
        return self.infer(e, O)

    def check(self) -> Clause:
        head, args = spine(self.raw.head)
        if not isinstance(head, Name) or head.name not in self.program.predicate_decls:
            what = head.name if isinstance(head, (Name, Var)) else expr_to_str(head)
            raise self.fail(f"clause head must start with a declared predicate constant, got {what!r}")
        pred = head.name
        formal_types = argument_types(self.program.predicate_decls[pred])
        if len(args) != len(formal_types):
            raise self.fail(
                f"head of {pred} must apply it to {len(formal_types)} argument(s), got {len(args)}"
            )
        formals: list[Var] = []
        seen: set[str] = set()
        desugared: list[Expression] = []
        for arg, ft in zip(args, formal_types):
            if isinstance(arg, Var):
                if arg.name in seen:
                    raise self.fail(f"repeated variable {arg.name} in clause head")
                seen.add(arg.name)
                if not self.uni.unify(self.var_type(arg.name), ft):
                    raise self.fail(f"head variable {arg.name} is used at incompatible types")
                formals.append(Var(arg.name, ft))
            elif ft == IOTA:
                # a fresh formal skips every name the clause already uses
                used = {v.name for e in (self.raw.head, *self.raw.body) for v in expr_vars(e)}
                fresh = Var(f"V_{next(self.fresh_formals)}")
                while fresh.name in used:
                    fresh = Var(f"V_{next(self.fresh_formals)}")
                self.uni.unify(self.var_type(fresh.name), IOTA)
                formals.append(Var(fresh.name, IOTA))
                desugared.append(Eq(Var(fresh.name), self.infer(arg, IOTA), O))
            else:
                raise self.fail(
                    f"head argument {expr_to_str(arg)} of {pred} has predicate type {ft}; "
                    "only variables are allowed there"
                )
        body = list(desugared) + [self.check_literal(b) for b in self.raw.body]
        resolved = self.resolve_types()
        return Clause(
            head_pred=pred,
            formals=tuple(Var(v.name, resolved[v.name]) for v in formals),
            body=tuple(self.attach(b, resolved) for b in body),
        )

    def resolve_types(self) -> dict[str, TypeExpr]:
        out: dict[str, TypeExpr] = {}
        for name, t in self.var_types.items():
            resolved = self.uni.resolve(t)
            if resolved is None:
                raise self.fail(f"type of variable {name} is ambiguous; add a constraining use")
            deepest = type_depth(resolved)
            if deepest > MAX_TYPE_NESTING:
                raise self.fail(
                    f"type of variable {name} nests {deepest} levels deep, "
                    f"over the limit of {MAX_TYPE_NESTING}"
                )
            if not is_argument(resolved):
                raise self.fail(f"variable {name} has type {resolved}, which is not an argument type")
            out[name] = resolved
        return out

    def attach(self, e: Expression, var_types: dict[str, TypeExpr]) -> Expression:
        """Second pass: stamp resolved types onto every node."""
        if isinstance(e, Var):
            return Var(e.name, var_types[e.name])
        if isinstance(e, (IndConst, PredConst)):
            return e
        if isinstance(e, FunApp):
            args = []
            for a in e.args:
                args.append(self.attach(a, var_types))
            return FunApp(e.symbol, tuple(args), IOTA)
        if isinstance(e, App):
            fun = self.attach(e.fun, var_types)
            arg = self.attach(e.arg, var_types)
            ft = fun.typ
            if ft is None or ft.kind != "arrow":
                raise self.fail(f"{expr_to_str(e.fun)} is applied to an argument but is not a predicate")
            if not is_argument(arg.typ):
                raise self.fail(f"argument {expr_to_str(e.arg)} has non-argument type {arg.typ}")
            return App(fun, arg, ft.right)
        if isinstance(e, Neg):
            return Neg(self.attach(e.inner, var_types), O)
        if isinstance(e, Eq):
            return Eq(self.attach(e.lhs, var_types), self.attach(e.rhs, var_types), O)
        raise self.fail(f"unexpected expression {e!r}")


def _arrow_meta(left: object, right: object) -> TypeExpr:
    # TypeExpr tolerates metavariables in its fields; they never escape
    # the checker.
    return TypeExpr("arrow", left, right)


def reference_typecheck(program: Program) -> TypedProgram:
    """Check declarations and clauses; infer all variable types."""
    for name, t in program.predicate_decls.items():
        if not is_predicate(t):
            raise TypeCheckError(f"declared predicate {name} has non-predicate type {t}")
    for name, t in program.function_decls.items():
        if not is_functional(t) or t.kind != "arrow":
            raise TypeCheckError(
                f"declared function symbol {name} must have type i -> ... -> i, got {t}"
            )

    fresh = itertools.count(1)
    clauses: list[Clause] = []
    constants: set[str] = set()
    for raw in program.clauses:
        checker = _ClauseChecker(program, raw, fresh)
        clauses.append(checker.check())
        constants |= checker.used_constants

    notes: list[str] = []
    if not constants:
        constants = {RESERVED_CONSTANT}
        notes.append(
            f"program uses no individual constants; injected reserved constant {RESERVED_CONSTANT}"
        )

    return TypedProgram(
        predicate_decls=dict(program.predicate_decls),
        function_decls=dict(program.function_decls),
        individual_constants=tuple(sorted(constants)),
        clauses=tuple(clauses),
        notes=tuple(notes),
    )
