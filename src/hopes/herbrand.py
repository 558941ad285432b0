"""Ground universes and program instantiation, bounded by term depth.

Higher-order programs have infinite ground universes as soon as a
function symbol or a universe-enlarging predicate (such as an identity
combinator) appears, so everything here is computed *up to a bound*:
the slice ``U|k`` of a type's universe holds the ground terms built
from at most k symbol occurrences.  Application nodes are free; only
constants, predicate names and function symbols count.

Grounding substitutes universe slices for clause variables, normalizes
ground equalities (identical terms are true, distinct ones false: a
true equality disappears from the body, a false one kills the whole
clause instance), and interns every atom it sees.  Atom ids are dense
integers; the atom table starts with the full type-o slice so that the
model assigns a value even to atoms no clause derives.  A clause killed
by a false equality still registers its head atom.

Ground terms are hash-consed: each distinct term gets an integer id,
keyed on its symbol and the ids of its children, and is printed once,
when it is first built.  Equality of ground terms is equality of ids.
Slices are enumerated in the store, each size's terms sorted by their
text, and a ground clause's origin binds each variable to a term id.
Only ``_Terms.decode`` turns ids back into typed terms, for readers of
origins; the grounder never does.  A leading body
equality ``V = t`` (the shape the type checker gives facts and
non-variable head arguments) is solved rather than enumerated: V takes
the id of t's instance, which is live only when that term lies in V's
slice.  The store of terms stays on the ground
program, with the slice of every type in the closure, so that the
extensionality check applies terms to terms by id without enumerating
anything again.

The work per clause (substitutions enumerated after solving, and head
tuples registered) is counted from the slice sizes and checked against
a budget before any term is built, and so is the number of terms in
all the slices together; exceeding it raises ``BudgetExceeded`` rather
than looping for hours.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator

from .ast import (
    App,
    Clause,
    Eq,
    Expression,
    FunApp,
    IndConst,
    Neg,
    PredConst,
    TypedProgram,
    Var,
    expr_vars,
)
from .types import IOTA, O, TypeExpr, arity

DEFAULT_BUDGET = 1_000_000


class EmptyUniverse(Exception):
    def __init__(self, typ: TypeExpr, depth_bound: int):
        self.typ = typ
        self.depth_bound = depth_bound
        super().__init__(f"no ground terms of type {typ} within depth {depth_bound}")


class BudgetExceeded(Exception):
    """A clause needs more substitutions than the budget, or, when
    ``clause`` is None, the universe slices at ``depth`` hold more terms."""

    def __init__(self, clause: str | None, count: int, budget: int, depth: int = 0):
        self.clause = clause
        self.count = count
        self.budget = budget
        need = (
            f"universe slices at depth {depth} hold {count} terms"
            if clause is None
            else f"clause '{clause}' needs {count} substitutions"
        )
        super().__init__(f"{need}, over the budget of {budget}")


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All ways to write total as an ordered sum of `parts` positive ints."""
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


class _Universe:
    """The type closure of a program and its universe slices at depth k.

    The closure holds every type reachable from the predicate
    declarations, plus i and o.  A term of n symbols is a constant or a
    predicate name when n is 1; otherwise it applies a function symbol
    to arguments whose sizes sum to n - 1 (at type i), or applies a
    smaller term to an argument (a curried application).  ``counts``
    runs this recursion over numbers only, so every slice's size is
    known before any term is built, and it indexes the sizes at which
    each type has terms, so an application walks only those.
    """

    def __init__(self, tp: TypedProgram, k: int):
        self.k = k
        closure: set[TypeExpr] = {IOTA, O}
        stack = list(tp.predicate_decls.values())
        while stack:
            t = stack.pop()
            if t in closure:
                continue
            closure.add(t)
            if t.kind == "arrow":
                stack.append(t.left)
                stack.append(t.right)
        self.closure = sorted(closure, key=str)
        self.arrows_into: dict[TypeExpr, list[TypeExpr]] = {}
        for t in self.closure:
            if t.kind == "arrow":
                self.arrows_into.setdefault(t.right, []).append(t)
        # the terms of one symbol: constants at i, predicates at their type
        self.names: dict[TypeExpr, list[str]] = {IOTA: sorted(tp.individual_constants)}
        for name, t in sorted(tp.predicate_decls.items()):
            self.names.setdefault(t, []).append(name)
        self.functions = [(f, arity(t)) for f, t in sorted(tp.function_decls.items())]

        # counts[t][n]: the terms of type t with n symbols; nonempty[t]:
        # the sizes n with such terms, ascending
        self.counts = {t: [0] * (k + 1) for t in self.closure}
        self.nonempty: dict[TypeExpr, list[int]] = {t: [] for t in self.closure}
        for n in range(1, k + 1):
            for t in self.closure:
                if n == 1:
                    self.counts[t][n] = len(self.names.get(t, ()))
                else:
                    self.counts[t][n] = sum(
                        math.prod([self.counts[pt][ps] for pt, ps in parts])
                        for _, parts in self.parts(t, n)
                    )
                if self.counts[t][n]:
                    self.nonempty[t].append(n)  # parts() reads only sizes below n
        # the number of terms in each slice; a type outside the closure has none
        self.total = {t: sum(c) for t, c in self.counts.items()}

    def check_budget(self, budget: int) -> None:
        """Refuse slices that hold more terms together than the budget,
        before any of them is built."""
        total = sum(self.total.values())
        if total > budget:
            raise BudgetExceeded(None, total, budget, self.k)

    def parts(self, typ: TypeExpr, n: int) -> Iterator[tuple[str | None, tuple]]:
        """How a term of type typ with n >= 2 symbols is built: a
        function symbol with the (type, size) of each argument, or None
        with the (type, size) of a function and of its argument."""
        if typ == IOTA:
            for f, n_args in self.functions:
                for sizes in _compositions(n - 1, n_args):
                    yield f, tuple([(IOTA, s) for s in sizes])
        for at in self.arrows_into.get(typ, ()):
            for s in self.nonempty[at]:
                if s >= n:
                    break
                yield None, ((at, s), (at.left, n - s))

    def enumerate(self, terms: _Terms) -> dict[TypeExpr, tuple[int, ...]]:
        """Build every slice of the closure in the store: its term ids
        ordered by (size, canonical text)."""
        node, by_text = terms.node, terms.text.__getitem__
        buckets: dict[TypeExpr, list[list[int]]] = {t: [[]] for t in self.closure}
        for n in range(1, self.k + 1):
            for t in self.closure:
                if n == 1:
                    bucket = [node(name) for name in self.names.get(t, ())]
                else:
                    bucket = []
                    for f, parts in self.parts(t, n):
                        pools = itertools.product(*[buckets[pt][ps] for pt, ps in parts])
                        bucket += [node(key if f is None else (f, key)) for key in pools]
                bucket.sort(key=by_text)
                buckets[t].append(bucket)
        return {t: tuple(itertools.chain.from_iterable(b)) for t, b in buckets.items()}


@dataclass(frozen=True)
class GroundClause:
    head: int
    literals: tuple[tuple[bool, int], ...]  # (negated, atom id), in source order
    # (clause index, (variable, term id) pairs)
    origin: tuple[int, tuple[tuple[str, int], ...]] | None = field(
        default=None, compare=False
    )

    @property
    def pos(self) -> tuple[int, ...]:
        return tuple(a for negated, a in self.literals if not negated)

    @property
    def neg(self) -> tuple[int, ...]:
        return tuple(a for negated, a in self.literals if negated)


class _cached:
    """``functools.cached_property``, but stored with ``setattr``.
    Writing through ``__dict__``, as ``cached_property`` does, turns
    the object's attribute storage into a plain dict on CPython 3.11,
    and every later attribute read on it becomes about 2.5 times
    slower."""

    def __init__(self, fn):
        self.fn = fn
        self.__doc__ = fn.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.fn(obj)
        setattr(obj, self.name, value)
        return value


@dataclass
class GroundProgram:
    atoms: tuple[str, ...]
    clauses: tuple[GroundClause, ...]
    depth_bound: int | None = None
    notes: tuple[str, ...] = field(default=(), compare=False)
    # the grounder's term store; None for a program assembled from names
    terms: _Terms | None = field(default=None, compare=False, repr=False)

    @_cached
    def atom_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.atoms)}

    @_cached
    def by_head(self) -> tuple[tuple[GroundClause, ...], ...]:
        """For each atom id, its clauses in program order."""
        by_head: list[list[GroundClause]] = [[] for _ in self.atoms]
        for c in self.clauses:
            by_head[c.head].append(c)
        return tuple(map(tuple, by_head))

    def clause_str(self, c: GroundClause) -> str:
        head = self.atoms[c.head]
        if not c.literals:
            return f"{head}."
        lits = ", ".join(("~" if negated else "") + self.atoms[a] for negated, a in c.literals)
        return f"{head} :- {lits}."

    def to_text(self) -> str:
        return "\n".join(self.clause_str(c) for c in self.clauses) + ("\n" if self.clauses else "")

    @classmethod
    def build(
        cls,
        atom_names: list[str],
        clause_specs: list[tuple[str, list[str], list[str]]],
        depth_bound: int | None = None,
    ) -> "GroundProgram":
        """Assemble a propositional program directly (tests, random programs)."""
        index = {name: i for i, name in enumerate(atom_names)}
        clauses = [
            GroundClause(
                index[head],
                tuple([(False, index[a]) for a in pos] + [(True, index[a]) for a in neg]),
            )
            for head, pos, neg in clause_specs
        ]
        return cls(tuple(atom_names), tuple(clauses), depth_bound)


def _clause_variables(clause: Clause) -> dict[str, TypeExpr]:
    """Every variable of a clause with its type: the head formals first,
    then the body variables in first-occurrence order."""
    types = {v.name: v.typ for v in clause.formals}
    for v in expr_vars(*clause.body):
        types.setdefault(v.name, v.typ)
    return types


def _skip_note(idx: int, name: str, typ: TypeExpr, k: int) -> str:
    return (
        f"clause {idx + 1} has no instances at depth {k}: "
        f"variable {name} ranges over an empty universe ({EmptyUniverse(typ, k)})"
    )


def _subterms(e: Expression) -> tuple[Expression, ...]:
    if isinstance(e, FunApp):
        return e.args
    if isinstance(e, App):
        return (e.fun, e.arg)
    raise TypeError(f"not a ground term: {e!r}")


class _Terms:
    """Hash-consed ground terms.

    A term's key is its name (a constant or a predicate name), the pair
    (function symbol, argument ids), or the pair (function id, argument
    id) of a curried application.  Equal terms get equal ids, and each
    term is printed once, when it is first built.
    """

    def __init__(self) -> None:
        self.ids: dict[object, int] = {}
        self.text: list[str] = []
        self.atom_of: dict[int, int] = {}  # term id -> atom id
        # every type of the closure -> its slice at the bound, as term
        # ids in enumeration order (empty for an empty slice)
        self.slices: dict[TypeExpr, tuple[int, ...]] = {}

    def node(self, key) -> int:
        t = self.ids.get(key)
        if t is None:
            t = self.ids[key] = len(self.text)
            text = self.text
            if isinstance(key, str):
                text.append(key)
            elif isinstance(key[0], str):
                text.append(f"{key[0]}({', '.join([text[a] for a in key[1]])})")
            else:
                text.append(f"{text[key[0]]}({text[key[1]]})")
        return t

    def decode(self, decls: dict[str, TypeExpr]) -> list[Expression]:
        """Every term of the store as a typed AST, indexed by id.  A name
        declared in `decls` is a predicate of that type, any other name
        an individual constant.  A term gets its id after its children,
        so one pass in id order decodes each term once."""
        out: list[Expression] = []
        for key in self.ids:  # in id order
            if isinstance(key, str):
                typ = decls.get(key)
                out.append(IndConst(key, IOTA) if typ is None else PredConst(key, typ))
            elif isinstance(key[0], str):
                out.append(FunApp(key[0], tuple([out[a] for a in key[1]]), IOTA))
            else:
                fun = out[key[0]]
                out.append(App(fun, out[key[1]], fun.typ.right))
        return out

    def term(self, e: Expression) -> int:
        """The id of a term without variables."""
        if type(e) is PredConst or type(e) is IndConst:
            return self.node(e.name)
        regs: list[int] = []
        return regs[self.compile(e, {}, regs, [])]

    def compile(self, e: Expression, slots: dict[str, int], regs: list[int], code: list) -> int:
        """Compile a term with variables into `code`; return the register
        that holds the term's id once the code has run over an
        environment whose variable slots are bound.

        Variable-free subterms are built now and become constants, so the
        code only builds the nodes above a variable.  An instruction is
        (target, function symbol or None for an application, operands).
        """
        out: list[tuple[int, bool]] = []  # (term id or register, is a term id)
        stack: list[tuple[Expression, bool]] = [(e, False)]
        while stack:
            x, ready = stack.pop()
            kind = type(x)
            if kind is Var:
                out.append((slots[x.name], False))
            elif kind is IndConst or kind is PredConst:
                out.append((self.node(x.name), True))
            elif not ready:
                stack.append((x, True))
                for c in reversed(_subterms(x)):
                    stack.append((c, False))
            else:
                symbol = x.symbol if kind is FunApp else None
                n = len(x.args) if symbol is not None else 2
                parts = out[len(out) - n:]
                del out[len(out) - n:]
                ids = tuple([v for v, known in parts if known])
                if len(ids) == n:
                    out.append((self.node(ids if symbol is None else (symbol, ids)), True))
                else:
                    operands = tuple([_constant(regs, v) if known else v for v, known in parts])
                    code.append((_constant(regs, -1), symbol, operands))
                    out.append((code[-1][0], False))
        v, known = out[0]
        return _constant(regs, v) if known else v

    def run(self, code: list, env: list[int]) -> None:
        ids = self.ids
        for target, symbol, operands in code:
            if symbol is None:
                key = (env[operands[0]], env[operands[1]])
            else:
                key = (symbol, tuple([env[r] for r in operands]))
            t = ids.get(key)
            env[target] = self.node(key) if t is None else t


def _constant(regs: list[int], value: int) -> int:
    regs.append(value)
    return len(regs) - 1


def _solve_leading(clause: Clause) -> tuple[int, dict[str, Expression], list[Eq]]:
    """Split the leading equalities of a clause body into solved ones and
    tests.  Returns the length of the leading block, the solved variables
    with their terms in solving order, and the equalities left to test.

    ``V = t`` is solved when the variable V is not solved already and
    occurs neither in t nor in the term of an earlier solved equality,
    so t mentions only enumerated variables and ones solved before V.
    """
    lead = 0
    while lead < len(clause.body) and isinstance(clause.body[lead], Eq):
        lead += 1
    solved: dict[str, Expression] = {}
    tests: list[Eq] = []
    in_terms: set[str] = set()
    for eq in clause.body[:lead]:
        v = eq.lhs
        t_vars = {x.name for x in expr_vars(eq.rhs)}
        if (
            isinstance(v, Var)
            and v.name not in solved
            and v.name not in in_terms
            and v.name not in t_vars
        ):
            solved[v.name] = eq.rhs
            in_terms |= t_vars
        else:
            tests.append(eq)
    return lead, solved, tests


class _Grounder:
    """The state of one ground_instantiate call."""

    def __init__(self, tp: TypedProgram, k: int, budget: int):
        self.tp = tp
        self.k = k
        self.budget = budget
        self.universe = _Universe(tp, k)
        self.terms = _Terms()
        self.atom_of = self.terms.atom_of
        self.atom_terms: list[int] = []  # atom id -> term id
        self.clauses: list[GroundClause] = []
        self.seen: set[tuple[int, tuple[tuple[bool, int], ...]]] = set()
        self.notes: list[str] = list(tp.notes)
        self.positions: dict[TypeExpr, dict[int, int]] = {}
        # predicates whose heads are registered over their whole formal
        # product: every clause of one predicate has the same formal slices
        self.registered: set[str] = set()

    def atom(self, t: int) -> int:
        a = self.atom_of.get(t)
        if a is None:
            a = self.atom_of[t] = len(self.atom_terms)
            self.atom_terms.append(t)
        return a

    def pos(self, typ: TypeExpr) -> dict[int, int]:
        """Each term id of a slice -> its index in the slice."""
        p = self.positions.get(typ)
        if p is None:
            p = self.positions[typ] = {t: i for i, t in enumerate(self.terms.slices[typ])}
        return p

    def add(self, idx: int, head: int, literals: list[tuple[bool, int]], binding) -> None:
        key = (head, tuple(literals))
        if key in self.seen:
            return
        self.seen.add(key)
        self.clauses.append(GroundClause(head, key[1], (idx, binding)))

    def plan(self, idx: int, clause: Clause):
        """Check a clause's work against the budget from slice sizes.
        Returns None when a variable's slice is empty (noted), else the
        variables' types, the leading block and whether to walk heads."""
        types = _clause_variables(clause)
        if not types:
            if 1 > self.budget:
                raise BudgetExceeded(str(clause), 1, self.budget)
            return types, None, False
        size = self.universe.total.get
        sizes = [size(t, 0) for t in types.values()]
        if 0 in sizes:
            name = list(types)[sizes.index(0)]
            self.notes.append(_skip_note(idx, name, types[name], self.k))
            return None
        leading = _solve_leading(clause)
        count = math.prod([s for n, s in zip(types, sizes) if n not in leading[1]])
        walk = clause.head_pred not in self.registered
        if walk:
            count = max(count, math.prod(sizes[: len(clause.formals)]))
        if count > self.budget:
            raise BudgetExceeded(str(clause), count, self.budget)
        self.registered.add(clause.head_pred)
        return types, leading, walk

    def ground(self) -> GroundProgram:
        # every clause, then the slices, pass the budget before any term is built
        plans = [self.plan(idx, clause) for idx, clause in enumerate(self.tp.clauses)]
        self.universe.check_budget(self.budget)
        terms = self.terms
        terms.slices = self.universe.enumerate(terms)
        for t in terms.slices[O]:
            self.atom(t)
        for idx, plan in enumerate(plans):
            if plan is not None:
                self.clause(idx, self.tp.clauses[idx], *plan)
        if not self.atom_terms:
            # after the type checker's notes, before the clauses' own
            self.notes.insert(len(self.tp.notes), f"no ground atoms exist at depth {self.k}")
        text = terms.text
        return GroundProgram(
            tuple([text[t] for t in self.atom_terms]),
            tuple(self.clauses),
            self.k,
            tuple(self.notes),
            terms,
        )

    def variable_free(self, idx: int, clause: Clause) -> None:
        """The single instance of a clause without variables."""
        term, atom = self.terms.term, self.atom
        head = atom(self.terms.node(clause.head_pred))
        literals: list[tuple[bool, int]] = []
        for lit in clause.body:
            kind = type(lit)
            if kind is Eq:
                if term(lit.lhs) != term(lit.rhs):
                    return
            elif kind is Neg:
                literals.append((True, atom(term(lit.inner))))
            else:
                literals.append((False, atom(term(lit))))
        self.add(idx, head, literals, ())

    def clause(self, idx: int, clause: Clause, types: dict[str, TypeExpr], leading, walk: bool) -> None:
        if not types:
            return self.variable_free(idx, clause)
        names = list(types)
        slices = {n: self.terms.slices[t] for n, t in types.items()}
        nf = len(clause.formals)
        lead, solved, tests = leading
        enumerated = [n for n in names if n not in solved]

        # Registers: the enumerated variables, then constants and the
        # nodes the code builds.  A solved variable lives in the register
        # of its term, so the leading code binds it.
        terms = self.terms
        slot = {n: i for i, n in enumerate(enumerated)}
        regs = [-1] * len(slot)
        lead_code: list = []
        solve = []
        for v, t in solved.items():
            slot[v] = terms.compile(t, slot, regs, lead_code)
            solve.append((slot[v], self.pos(types[v])))
        checks = [
            (terms.compile(eq.lhs, slot, regs, lead_code), terms.compile(eq.rhs, slot, regs, lead_code))
            for eq in tests
        ]
        body_code: list = []
        body: list[tuple[bool | None, int, int]] = []  # (negated, register, register); None: equality
        for lit in clause.body[lead:]:
            if isinstance(lit, Eq):
                body.append(
                    (None, terms.compile(lit.lhs, slot, regs, body_code), terms.compile(lit.rhs, slot, regs, body_code))
                )
            elif isinstance(lit, Neg):
                body.append((True, terms.compile(lit.inner, slot, regs, body_code), 0))
            else:
                body.append((False, terms.compile(lit, slot, regs, body_code), 0))
        formal_slots = [slot[n] for n in names[:nf]]
        binding = [(n, slot[n]) for n in names]
        pred = terms.node(clause.head_pred)
        ids, node, run, atom = terms.ids, terms.node, terms.run, self.atom

        def head(formals) -> int:
            t = pred
            for f in formals:
                key = (t, f)
                h = ids.get(key)
                t = node(key) if h is None else h
            return atom(t)

        def emit(h: int, env: list[int]) -> None:
            run(body_code, env)
            literals: list[tuple[bool, int]] = []
            for negated, a, b in body:
                if negated is None:
                    if env[a] != env[b]:
                        return  # the literals before it stay interned
                else:
                    literals.append((negated, atom(env[a])))
            self.add(idx, h, literals, tuple([(n, env[s]) for n, s in binding]))

        # Live instances, keyed by their index in the product over all
        # variables: the order in which generate-and-test visits them.
        # Without solved variables the enumeration is that order.
        strides: list[tuple[int, dict[int, int], int]] = []
        stride = 1
        for n in reversed(names if solved else ()):
            strides.append((slot[n], self.pos(types[n]), stride))
            stride *= len(slices[n])
        tail = regs[len(enumerated):]
        live: list[tuple[int, list[int]]] = []
        for i, combo in enumerate(itertools.product(*[slices[n] for n in enumerated])):
            env = [*combo, *tail]
            if lead_code:
                run(lead_code, env)
            if all(env[r] in pos for r, pos in solve) and all(env[a] == env[b] for a, b in checks):
                live.append((sum(pos[env[s]] * st for s, pos, st in strides) if solved else i, env))
        if solved:
            live.sort(key=lambda entry: entry[0])
        if not walk:
            for _, env in live:
                emit(head([env[s] for s in formal_slots]), env)
            return
        # Register every head in product order, a killed instance's too,
        # each followed by the live instances that share it.
        body_stride = math.prod(len(slices[n]) for n in names[nf:])
        j = 0
        for fi, formals in enumerate(itertools.product(*[slices[n] for n in names[:nf]])):
            h = head(formals)
            while j < len(live) and live[j][0] // body_stride == fi:
                emit(h, live[j][1])
                j += 1


def ground_instantiate(
    tp: TypedProgram, k: int, budget: int = DEFAULT_BUDGET
) -> GroundProgram:
    """The ground program at depth k, with interned atoms."""
    return _Grounder(tp, k, budget).ground()
