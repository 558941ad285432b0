"""Type checking and inference.

Every clause must have the shape ``p V1 ... Vn :- L1, ..., Lm`` where p
is a declared predicate constant of arity n and the Vi are distinct
variables.  Heads written with ground individual arguments, such as the
fact ``q(a)`` or ``nat(s(X))``, are normalized to that shape by
introducing a fresh formal and an equality literal: ``q(V) :- V = a``.
Grounding later erases the detour, so ``q(a)`` still grounds to exactly
the fact ``q(a)``.  Only individual-typed head arguments can be
rewritten this way, because equality is defined on individuals alone.
A fresh formal is named ``V_<n>``, n counted over the whole program;
an n whose name the clause already gives a variable is skipped.

Variable types are inferred per clause by unification.  Lowercase
identifiers resolve against the declarations: predicate constants keep
their declared type, function symbols must be fully applied, and any
undeclared lowercase identifier is an implicit individual constant.  A
program that uses no individual constant at all gets a reserved one
(``a0``) injected so that the individual universe is never empty.

Each clause gets one typed tree, built once while its names resolve.
A constant or a predicate is one node shared by the whole program, and
a variable one node per clause.  The nodes whose type follows from a
variable's (the variable's own, and each application it heads) are
given it by plain assignment once the clause's variable types are
resolved.  Every other node is typed when it is built, and a name
whose declared type is the expected one takes no unifier round.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .ast import (
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
    spine,
)
from .types import (
    IOTA,
    MAX_TYPE_NESTING,
    O,
    TypeExpr,
    argument_types,
    arity,
    arrow_chain,
    is_argument,
    is_functional,
    is_predicate,
    type_depth,
)

RESERVED_CONSTANT = "a0"


class TypeCheckError(Exception):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.message = message
        self.line = line
        self.col = col
        where = f"line {line}, column {col}: " if line else ""
        super().__init__(f"{where}{message}")


@dataclass(slots=True, unsafe_hash=True)
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


class _Checker:
    """Checks the clauses of one program, one clause at a time."""

    def __init__(self, program: Program):
        self.preds = program.predicate_decls
        self.funcs = program.function_decls
        self.uni = _Unifier()
        self.fresh_formals = itertools.count(1)
        self.predicates = {name: PredConst(name, t) for name, t in self.preds.items()}
        self.constants: dict[str, IndConst] = {}
        # the clause being checked: its variables and the spines they head
        self.var_types: dict[str, object] = {}
        self.var_nodes: dict[str, Var] = {}
        self.var_spines: list[tuple[str, list[App]]] = []

    def fail(self, message: str) -> TypeCheckError:
        return TypeCheckError(message, self.raw.line, self.raw.col)

    def fits(self, t: object, typ: object) -> bool:
        return t is typ or t == typ or self.uni.unify(t, typ)

    def var(self, name: str, typ: object, what: str) -> Var:
        """The clause's node for variable `name`, used at type `typ`."""
        node = self.var_nodes.get(name)
        if node is None:
            node = self.var_nodes[name] = Var(name)
            self.var_types[name] = typ
        elif not self.uni.unify(self.var_types[name], typ):
            raise self.fail(f"{what} {name} is used at incompatible types")
        return node

    def infer(self, e: Expression, typ: object) -> Expression:
        """Check e against the expected type, resolving Name nodes."""
        kind = type(e)
        if kind is Var:
            return self.var(e.name, typ, "variable")
        if kind is Name:
            name = e.name
            if name in self.preds:
                if not self.fits(self.preds[name], typ):
                    raise self.fail(f"predicate {name} has type {self.preds[name]}, which does not fit here")
                return self.predicates[name]
            if name in self.funcs:
                raise self.fail(f"function symbol {name} must be applied to {arity(self.funcs[name])} argument(s)")
            if not self.fits(IOTA, typ):
                raise self.fail(f"individual constant {name} cannot have a non-individual type")
            if name not in self.constants:
                self.constants[name] = IndConst(name, IOTA)
            return self.constants[name]
        if kind is App:
            head, args = spine(e)
            name = head.name if type(head) is Name else None
            if name in self.funcs:
                # a spine headed by a declared function symbol becomes a FunApp
                want = arity(self.funcs[name])
                if len(args) != want:
                    raise self.fail(f"function symbol {name} takes {want} argument(s), got {len(args)}")
                # a loop, not a generator: one stack frame per nesting level
                typed_args = []
                for a in args:
                    typed_args.append(self.infer(a, IOTA))
                if not self.fits(IOTA, typ):
                    raise self.fail(f"application of {name} is an individual, which does not fit here")
                return FunApp(name, tuple(typed_args), IOTA)
            if name in self.preds:
                rest = _applied(self.preds[name], len(args))
                if rest is None or not self.fits(rest, typ):
                    raise self.fail(f"predicate {name} has type {self.preds[name]}, which does not fit here")
                node, t = self.predicates[name], self.preds[name]
                for a in args:
                    node = App(node, self.infer(a, t.left), t.right)
                    t = t.right
                return node
            # any other head must be a variable, of type a1 -> ... -> an -> typ;
            # TypeExpr tolerates metavariables, which never leave the checker
            metas = [self.uni.fresh() for _ in args]
            node = self.infer(head, arrow_chain(metas, typ))
            apps = []
            for a, m in zip(args, metas):
                node = App(node, self.infer(a, m))
                apps.append(node)
            self.var_spines.append((head.name, apps))
            return node
        if kind is Neg or kind is Eq:
            raise self.fail("negation and equality cannot occur inside a term")
        raise self.fail(f"unexpected expression {expr_to_str(e)}")

    def literal(self, e: Expression) -> Expression:
        kind = type(e)
        if kind is Neg:
            return Neg(self.infer(e.inner, O), O)
        if kind is Eq:
            return Eq(self.infer(e.lhs, IOTA), self.infer(e.rhs, IOTA), O)
        return self.infer(e, O)

    def check(self, raw: RawClause) -> Clause:
        self.raw = raw
        self.var_types.clear()
        self.var_nodes.clear()
        self.var_spines.clear()
        head, args = spine(raw.head)
        pred = head.name if type(head) is Name else None
        if pred not in self.preds:
            what = head.name if isinstance(head, (Name, Var)) else expr_to_str(head)
            raise self.fail(f"clause head must start with a declared predicate constant, got {what!r}")
        formal_types = argument_types(self.preds[pred])
        if len(args) != len(formal_types):
            raise self.fail(f"head of {pred} must apply it to {len(formal_types)} argument(s), got {len(args)}")
        formals: list[Var | None] = []
        terms = []  # (position, typed term) of each head argument that is not a variable
        for arg, ft in zip(args, formal_types):
            if type(arg) is Var:
                if any(f is not None and f.name == arg.name for f in formals):
                    raise self.fail(f"repeated variable {arg.name} in clause head")
                formals.append(self.var(arg.name, ft, "head variable"))
            elif ft == IOTA:
                terms.append((len(formals), self.infer(arg, IOTA)))
                formals.append(None)
            else:
                raise self.fail(
                    f"head argument {expr_to_str(arg)} of {pred} has predicate type {ft}; "
                    "only variables are allowed there"
                )
        body = [self.literal(b) for b in raw.body]
        # a fresh formal and an equality for each head argument that is
        # not a variable; every name the clause uses is known by now
        for j, (i, term) in enumerate(terms):
            name = f"V_{next(self.fresh_formals)}"
            while name in self.var_nodes:
                name = f"V_{next(self.fresh_formals)}"
            formals[i] = Var(name, IOTA)
            body.insert(j, Eq(formals[i], term, O))
        if self.var_types:
            self.resolve_types()
        return Clause(pred, tuple(formals), tuple(body))

    def resolve_types(self) -> None:
        """Resolve every variable's type and assign it to the nodes that
        wait for it: the variable's own, and the applications it heads."""
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
            self.var_nodes[name].typ = resolved
        for name, apps in self.var_spines:
            t = self.var_nodes[name].typ
            for node in apps:
                t = t.right
                node.typ = t
        self.uni.bindings.clear()


def _applied(t: TypeExpr, n: int) -> TypeExpr | None:
    """The type of a t-typed term applied to n arguments; None when t
    takes fewer."""
    for _ in range(n):
        if t.kind != "arrow":
            return None
        t = t.right
    return t


def typecheck(program: Program) -> TypedProgram:
    """Check declarations and clauses; infer all variable types."""
    for name, t in program.predicate_decls.items():
        if not is_predicate(t):
            raise TypeCheckError(f"declared predicate {name} has non-predicate type {t}")
    for name, t in program.function_decls.items():
        if not is_functional(t) or t.kind != "arrow":
            raise TypeCheckError(
                f"declared function symbol {name} must have type i -> ... -> i, got {t}"
            )

    checker = _Checker(program)
    clauses = [checker.check(raw) for raw in program.clauses]
    constants = set(checker.constants)

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
