"""The generate-and-test grounder, kept as the reference that the
equality-solving grounder in ``hopes.herbrand`` is checked against.

It enumerates every clause variable over its whole slice, renders both
sides of each equality to text to compare them, and interns atoms by
their text.  Its budget bounds the full product of the slices.
"""

from __future__ import annotations

from hopes.ast import Eq, Expression, Neg, TypedProgram, expr_to_str, expr_vars, substitute
from hopes.herbrand import (
    DEFAULT_BUDGET,
    EmptyUniverse,
    GroundClause,
    GroundProgram,
    TermEnumerator,
    iter_ground_instances,
    normalize_equality,
)
from hopes.types import O


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
    head_exprs = {i: c.head_expr() for i, c in enumerate(tp.clauses)}

    for idx, binding, inst_notes in iter_ground_instances(tp, k, budget):
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

    if not atom_order:
        notes.insert(len(tp.notes), f"no ground atoms exist at depth {k}")
    return GroundProgram(tuple(atom_order), tuple(clauses), k, tuple(notes))


def reference_count(tp: TypedProgram, k: int) -> int:
    """The smallest budget the reference grounder accepts at depth k:
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
