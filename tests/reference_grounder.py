"""The generate-and-test grounder and the AST term enumerator, kept as
the references that ``hopes.herbrand`` is checked against.  The
instance enumerator also drives ``reference_engine.check_model_ho``.

``TermEnumerator`` builds every slice as AST nodes, size by size, and
sorts each size's terms by their rendered text; the enumerator in
``hopes.herbrand`` builds the same slices as term ids.  The grounder
enumerates every clause variable over its whole slice, renders both
sides of each equality to text to compare them, and interns atoms by
their text.  Its budget bounds the full product of each clause's
slices, and the terms of all the slices together.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from hopes.ast import (
    App,
    Eq,
    Expression,
    FunApp,
    IndConst,
    Neg,
    PredConst,
    TypedProgram,
    expr_to_str,
    expr_vars,
)
from hopes.herbrand import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    EmptyUniverse,
    GroundClause,
    GroundProgram,
    _clause_variables,
    _compositions,
)
from hopes.types import IOTA, O, TypeExpr, arity

from reference_paper import head_expr, substitute


def normalize_equality(lhs: Expression, rhs: Expression) -> bool:
    """Ground equality is syntactic identity."""
    return expr_to_str(lhs) == expr_to_str(rhs)


class TermEnumerator:
    """Memoized by-size term generation for one program."""

    def __init__(self, tp: TypedProgram):
        self.tp = tp
        self.memo: dict[tuple[TypeExpr, int], tuple[Expression, ...]] = {}
        self.constants = tuple(sorted(tp.individual_constants))
        self.functions = tuple(sorted(tp.function_decls.items()))

        # every type reachable from the declarations, plus i and o
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
        self.closure = frozenset(closure)
        self.arrows_into: dict[TypeExpr, list[TypeExpr]] = {}
        for t in closure:
            if t.kind == "arrow":
                self.arrows_into.setdefault(t.right, []).append(t)
        for lst in self.arrows_into.values():
            lst.sort(key=str)

        self.preds_by_type: dict[TypeExpr, list[str]] = {}
        for name, t in tp.predicate_decls.items():
            self.preds_by_type.setdefault(t, []).append(name)
        for lst in self.preds_by_type.values():
            lst.sort()

    def terms_of(self, typ: TypeExpr, size: int) -> tuple[Expression, ...]:
        if size < 1:
            return ()
        key = (typ, size)
        if key in self.memo:
            return self.memo[key]
        out: list[Expression] = []
        if size == 1:
            if typ == IOTA:
                out.extend(IndConst(c, IOTA) for c in self.constants)
            out.extend(PredConst(p, typ) for p in self.preds_by_type.get(typ, ()))
        if typ == IOTA and size >= 2:
            for fname, ftype in self.functions:
                n = arity(ftype)
                for parts in _compositions(size - 1, n):
                    pools = [self.terms_of(IOTA, p) for p in parts]
                    for args in itertools.product(*pools):
                        out.append(FunApp(fname, args, IOTA))
        for at in self.arrows_into.get(typ, ()):
            for fun_size in range(1, size):
                for fun in self.terms_of(at, fun_size):
                    for arg in self.terms_of(at.left, size - fun_size):
                        out.append(App(fun, arg, typ))
        out.sort(key=expr_to_str)
        result = tuple(out)
        self.memo[key] = result
        return result

    def universe(self, typ: TypeExpr, k: int) -> tuple[Expression, ...]:
        terms: list[Expression] = []
        for size in range(1, k + 1):
            terms.extend(self.terms_of(typ, size))
        if not terms:
            raise EmptyUniverse(typ, k)
        return tuple(terms)


def reference_iter_ground_instances(
    tp: TypedProgram, k: int, budget: int = DEFAULT_BUDGET
) -> Iterator[tuple[int, dict[str, Expression], list[str]]]:
    """Yield (clause index, variable binding, notes) for every in-bound
    substitution of every clause.  Notes report clauses skipped because a
    variable's universe slice is empty at this depth.  Before the first
    substitution, the terms of all the slices are checked against the
    budget too."""
    checked = False
    for idx, binding, notes in _instances(tp, k, budget):
        if binding is not None and not checked:
            total = reference_slice_total(tp, k)
            if total > budget:
                raise BudgetExceeded(None, total, budget, k)
            checked = True
        yield idx, binding, notes


def _instances(
    tp: TypedProgram, k: int, budget: int
) -> Iterator[tuple[int, dict[str, Expression], list[str]]]:
    """The substitutions, each clause's checked against the budget."""
    enum = TermEnumerator(tp)
    for idx, clause in enumerate(tp.clauses):
        types = _clause_variables(clause)
        names = list(types)
        slices: list[tuple[Expression, ...]] = []
        skip_note = None
        for name in names:
            try:
                slices.append(enum.universe(types[name], k))
            except EmptyUniverse as exc:
                skip_note = (
                    f"clause {idx + 1} has no instances at depth {exc.depth_bound}: "
                    f"variable {name} ranges over an empty universe ({exc})"
                )
                break
        if skip_note is not None:
            yield idx, None, [skip_note]
            continue
        count = 1
        for s in slices:
            count *= len(s)
        if count > budget:
            raise BudgetExceeded(str(clause), count, budget)
        for combo in itertools.product(*slices):
            yield idx, dict(zip(names, combo)), []


def reference_ground_instantiate(
    tp: TypedProgram, k: int, budget: int = DEFAULT_BUDGET
) -> GroundProgram:
    """The ground program at depth k, with interned atoms."""
    atoms: dict[str, int] = {}
    atom_order: list[str] = []

    def intern(e: Expression) -> int:
        s = expr_to_str(e)
        if s not in atoms:
            atoms[s] = len(atom_order)
            atom_order.append(s)
        return atoms[s]

    notes: list[str] = list(tp.notes)
    try:
        for atom in TermEnumerator(tp).universe(O, k):
            intern(atom)
    except EmptyUniverse:
        pass

    clauses: list[GroundClause] = []
    seen: set[tuple[int, tuple[tuple[bool, int], ...]]] = set()
    head_exprs = {i: head_expr(c) for i, c in enumerate(tp.clauses)}

    for idx, binding, inst_notes in _instances(tp, k, budget):
        notes.extend(n for n in inst_notes if n not in notes)
        if binding is None:
            continue
        clause = tp.clauses[idx]
        head_id = intern(substitute(head_exprs[idx], binding))
        literals: list[tuple[bool, int]] = []
        dead = False
        for lit in clause.body:
            if isinstance(lit, Eq):
                if not normalize_equality(substitute(lit.lhs, binding), substitute(lit.rhs, binding)):
                    dead = True
                    break
                continue  # a true equality contributes nothing
            if isinstance(lit, Neg):
                literals.append((True, intern(substitute(lit.inner, binding))))
            else:
                literals.append((False, intern(substitute(lit, binding))))
        if dead:
            continue
        key = (head_id, tuple(literals))
        if key in seen:
            continue
        seen.add(key)
        clauses.append(
            GroundClause(head_id, tuple(literals), origin=(idx, tuple(binding.items())))
        )

    # after every clause's own check, as the grounder under test does it
    total = reference_slice_total(tp, k)
    if total > budget:
        raise BudgetExceeded(None, total, budget, k)
    if not atom_order:
        notes.insert(len(tp.notes), f"no ground atoms exist at depth {k}")
    return GroundProgram(tuple(atom_order), tuple(clauses), k, tuple(notes))


def reference_count(tp: TypedProgram, k: int) -> int:
    """The smallest budget every clause's own check accepts at depth k:
    the largest full product of one clause's variable slices."""
    enum = TermEnumerator(tp)
    largest = 1
    for clause in tp.clauses:
        types = {v.name: v.typ for v in clause.formals}
        for lit in clause.body:
            for v in expr_vars(lit):
                types.setdefault(v.name, v.typ)
        count = 1
        try:
            for typ in types.values():
                count *= len(enum.universe(typ, k))
        except EmptyUniverse:
            continue
        largest = max(largest, count)
    return largest


def reference_slice_total(tp: TypedProgram, k: int) -> int:
    """The number of terms in all the slices of the closure at depth k,
    which ``reference_ground_instantiate`` checks against the budget
    too."""
    enum = TermEnumerator(tp)
    return sum(len(enum.terms_of(t, n)) for t in enum.closure for n in range(1, k + 1))
