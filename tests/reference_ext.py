"""The string-based extensionality checker, kept as the reference that
the compiled check in ``hopes.analysis`` is compared against.

It enumerates every slice again with the reference ``TermEnumerator``,
renders the terms to text, builds applications as strings and looks
them up in the atom table, for every valuation anew.  Besides
reflexivity it still walks the interchangeability sweep on its own:
related predicates applied to related argument tuples, each partial
application defined by the relation's rule, must give equal atom
values.  The compiled check has no sweep, because reflexivity implies
it; equal reports show that nothing is lost.
"""

from __future__ import annotations

from hopes.analysis import ExtReport, ExtViolation
from hopes.ast import TypedProgram, expr_to_str
from hopes.herbrand import GroundProgram
from hopes.truth import TruthValue
from hopes.types import IOTA, O, TypeExpr, is_predicate

from reference_grounder import EmptyUniverse, TermEnumerator
from reference_paper import ExtRelation


class _ExtChecker:
    def __init__(self, tp: TypedProgram, g: GroundProgram, values: list[TruthValue], k: int):
        self.tp = tp
        self.g = g
        self.values = values
        self.k = k
        self.enum = TermEnumerator(tp)
        self.relations: dict[TypeExpr, ExtRelation] = {}
        self.slices: dict[TypeExpr, tuple[str, ...]] = {}

    def slice_of(self, typ: TypeExpr) -> tuple[str, ...]:
        # an empty slice is an empty domain, never an error: a relation
        # over it is vacuous and applications into it are undefined
        if typ not in self.slices:
            try:
                self.slices[typ] = tuple(
                    expr_to_str(t) for t in self.enum.universe(typ, self.k)
                )
            except EmptyUniverse:
                self.slices[typ] = ()
        return self.slices[typ]

    def value_of(self, atom: str) -> TruthValue | None:
        i = self.g.atom_index.get(atom)
        return None if i is None else self.values[i]

    def defined(self, term: str, typ: TypeExpr) -> bool:
        # type-o results are defined wherever the atom table has a value,
        # which includes clause-head atoms beyond the k-symbol slice
        if typ == O:
            return term in self.g.atom_index
        return term in self.slice_of(typ)

    def related(self, a: str, b: str, typ: TypeExpr) -> bool:
        if typ == IOTA:
            return a == b
        if typ == O:
            return self.value_of(a) == self.value_of(b)
        return self.relation(typ).related(a, b)

    def relation(self, typ: TypeExpr) -> ExtRelation:
        if typ in self.relations:
            return self.relations[typ]
        if typ == IOTA:
            terms = self.slice_of(typ)
            rel = ExtRelation(typ, self.k, terms, frozenset((t, t) for t in terms))
        elif typ == O:
            terms = self.slice_of(typ)
            rel = ExtRelation(
                typ,
                self.k,
                terms,
                frozenset(
                    (a, b)
                    for a in terms
                    for b in terms
                    if self.value_of(a) == self.value_of(b)
                ),
            )
        else:
            arg_t, res_t = typ.left, typ.right
            terms = self.slice_of(typ)
            arg_pairs = self.argument_pairs(arg_t)
            pairs = set()
            vacuous = set()
            for d in terms:
                for d2 in terms:
                    checked = 0
                    ok = True
                    for e, e2 in arg_pairs:
                        app1, app2 = f"{d}({e})", f"{d2}({e2})"
                        if not (self.defined(app1, res_t) and self.defined(app2, res_t)):
                            continue
                        checked += 1
                        if not self.related(app1, app2, res_t):
                            ok = False
                            break
                    if ok:
                        pairs.add((d, d2))
                        if checked == 0:
                            vacuous.add((d, d2))
            rel = ExtRelation(typ, self.k, terms, frozenset(pairs), frozenset(vacuous))
        self.relations[typ] = rel
        return rel

    def argument_pairs(self, typ: TypeExpr) -> list[tuple[str, str]]:
        if typ == IOTA:
            return [(t, t) for t in self.slice_of(typ)]
        if typ == O:
            terms = self.slice_of(typ)
            return [
                (a, b) for a in terms for b in terms if self.value_of(a) == self.value_of(b)
            ]
        rel = self.relation(typ)
        return sorted(rel.pairs)

    def drill(self, d1: str, d2: str, typ: TypeExpr) -> tuple[str, str, tuple]:
        """Explain why d1 and d2 fail to be related at an arrow type:
        find the first related argument pair that separates them and the
        atoms where the values finally differ."""
        arg_t, res_t = typ.left, typ.right
        for e, e2 in self.argument_pairs(arg_t):
            app1, app2 = f"{d1}({e})", f"{d2}({e2})"
            if not (self.defined(app1, res_t) and self.defined(app2, res_t)):
                continue
            if self.related(app1, app2, res_t):
                continue
            if res_t == O:
                return (
                    e,
                    e2,
                    (
                        (app1, str(self.value_of(app1))),
                        (app2, str(self.value_of(app2))),
                    ),
                )
            _, _, atoms = self.drill(app1, app2, res_t)
            return e, e2, atoms
        return "?", "?", ()


def reference_ext_relation(
    tp: TypedProgram,
    g: GroundProgram,
    values: list[TruthValue],
    rho: TypeExpr,
    k: int,
) -> ExtRelation:
    """The extensional-equality relation at one argument type.

    Raises EmptyUniverse when no ground term of the type exists within
    the bound.
    """
    checker = _ExtChecker(tp, g, values, k)
    if not checker.slice_of(rho):
        raise EmptyUniverse(rho, k)
    return checker.relation(rho)


def reference_check_extensional(
    tp: TypedProgram, g: GroundProgram, values: list[TruthValue], k: int
) -> ExtReport:
    """Reflexivity of extensional equality at every argument type in the
    declarations, plus the interchangeability sweep: related predicates
    applied to related argument tuples must give equal atom values,
    where every application on the way is defined by the rule the
    relation uses (in the result slice, or in the atom table at o)."""
    checker = _ExtChecker(tp, g, values, k)
    violations: list[ExtViolation] = []
    vacuous: list[tuple[str, str, str]] = []
    checked: list[str] = []
    skipped: list[str] = []

    argument_types = (t for t in checker.enum.closure if is_predicate(t) or t == IOTA)
    for typ in sorted(argument_types, key=str):
        if not checker.slice_of(typ):
            skipped.append(str(typ))
            continue
        checked.append(str(typ))
        if typ == IOTA or typ == O:
            continue  # reflexive by definition: identity, equal values
        rel = checker.relation(typ)
        for t, t2 in sorted(rel.vacuous):
            vacuous.append((str(typ), t, t2))
        for term in rel.terms:
            if not rel.related(term, term):
                e, e2, atoms = checker.drill(term, term, typ)
                violations.append(ExtViolation(str(typ), term, e, e2, atoms))

        # interchangeability: walk full application chains of this type,
        # keeping the pairs of applications that are both defined
        chain: list[tuple[list[tuple[str, str]], TypeExpr]] = []
        res = typ
        while res.kind == "arrow":
            chain.append((checker.argument_pairs(res.left), res.right))
            res = res.right
        if res != O:
            continue
        for d, d2 in sorted(rel.pairs):
            tuples: list[tuple[str, str]] = [(d, d2)]
            for pairs, res_t in chain:
                defined = []
                for l, r in tuples:
                    for e, e2 in pairs:
                        app1, app2 = f"{l}({e})", f"{r}({e2})"
                        if checker.defined(app1, res_t) and checker.defined(app2, res_t):
                            defined.append((app1, app2))
                tuples = defined
            for app1, app2 in tuples:
                v1, v2 = checker.value_of(app1), checker.value_of(app2)
                if v1 != v2:
                    violations.append(
                        ExtViolation(
                            str(typ),
                            d if d == d2 else f"{d} / {d2}",
                            app1,
                            app2,
                            ((app1, str(v1)), (app2, str(v2))),
                        )
                    )

    return ExtReport(
        extensional=not violations,
        depth=k,
        checked_types=tuple(checked),
        violations=tuple(violations),
        vacuous=tuple(vacuous),
        skipped_types=tuple(skipped),
    )
