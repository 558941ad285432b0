"""Extensionality and stratification analysis.

Extensional equality at an argument type relates ground expressions
that behave alike: individuals when identical, type-o terms when their
values under a given valuation agree, and predicates when they send
related arguments to related results (applications falling outside the
known atom table or the enumerated slice are skipped, since both sides
must be defined for the comparison to say anything).  A valuation is
*extensional* when these relations are reflexive at every argument
type appearing in the program's declarations; a predicate failing
reflexivity treats two indistinguishable arguments differently, which
is the hallmark of intensional (non-extensional) behavior.  Pairs that
end up related only because no comparable application was defined are
reported with a vacuity flag rather than silently trusted.

Stratification is checked on two levels:

* source level: a constraint graph over the declared predicate
  constants, with a lax edge q -> p for a positive body literal and a
  strict edge for a negated one.  A literal headed by a predicate
  variable Q could at runtime be any predicate whose type can reach
  Q's type through argument stripping, so such a literal adds an edge
  from every declared constant with a fitting type.  The program is
  stratified when no strongly connected component contains a strict
  edge; strata are then read off the condensation.

* ground level: the same test on the bounded ground program's atom
  dependency graph, which is a finite check of local stratification up
  to the depth bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ast import Eq, Expression, Neg, PredConst, TypedProgram, Var, expr_to_str, spine
from .herbrand import EmptyUniverse, GroundProgram, TermEnumerator
from .truth import TruthValue
from .types import IOTA, O, TypeExpr, is_predicate

Edge = tuple[str, str, str]  # (source, "<" or "<=", target)


def type_geq(pi: TypeExpr, other: TypeExpr) -> bool:
    """Can pi reach `other` by stripping zero or more argument types?"""
    t = pi
    while True:
        if t == other:
            return True
        if t.kind != "arrow":
            return False
        t = t.right


# ---------------------------------------------------------------------------
# strongly connected components (iterative Tarjan, emitted in reverse
# topological order of the condensation)
# ---------------------------------------------------------------------------


def _sccs(nodes: list, succ: dict) -> list[list]:
    index: dict = {}
    low: dict = {}
    on_stack: set = set()
    stack: list = []
    out: list[list] = []

    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(succ.get(root, ())))]
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ.get(w, ()))))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                out.append(comp)
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
    return out


def _find_cycle(start: str, goal: str, succ: dict, allowed: set) -> list:
    """Shortest path goal -> ... -> start inside one component (BFS)."""
    if start == goal:
        return [goal]
    frontier = [goal]
    parent = {goal: None}
    while frontier:
        nxt = []
        for u in frontier:
            for w in succ.get(u, ()):
                if w in allowed and w not in parent:
                    parent[w] = u
                    if w == start:
                        path = [w]
                        while parent[path[-1]] is not None:
                            path.append(parent[path[-1]])
                        return list(reversed(path))
                    nxt.append(w)
        frontier = nxt
    return [goal, start]  # unreachable for edges within one SCC


def _stratify_graph(
    nodes: list, edges: dict[tuple, bool]
) -> tuple[dict, int] | list[Edge]:
    """Assign strata, or return a witness cycle through a strict edge.

    ``edges`` maps (source, target) to True when some strict edge joins
    the pair.  Result is (strata dict, stratum count) on success.
    """
    ordered = sorted(edges.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1])))
    succ: dict = {}
    for (u, v), _strict in ordered:
        succ.setdefault(u, []).append(v)
    comps = _sccs(nodes, succ)
    comp_of = {}
    for i, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = i

    for (u, v), strict in ordered:
        if strict and comp_of[u] == comp_of[v]:
            members = set(comps[comp_of[u]])
            back = _find_cycle(u, v, succ, members)  # path v ->* u
            cycle: list[Edge] = [(u, "<", v)]
            for a, b in zip(back, back[1:]):
                cycle.append((a, "<" if edges.get((a, b)) else "<=", b))
            return cycle

    # components come out in reverse topological order: walking them
    # from the last one settles every level before it is pushed on
    levels = [1] * len(comps)
    for ci in range(len(comps) - 1, -1, -1):
        for u in comps[ci]:
            for v in succ.get(u, ()):
                cv = comp_of[v]
                if cv != ci:
                    levels[cv] = max(levels[cv], levels[ci] + edges[(u, v)])
    strata = {v: levels[comp_of[v]] for v in comp_of}
    return strata, max(levels, default=1)


# ---------------------------------------------------------------------------
# source-level stratification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StrataAssignment:
    strata: dict[str, int]
    count: int


@dataclass(frozen=True)
class StratViolation:
    cycle: tuple[Edge, ...]

    def __str__(self) -> str:
        steps = ", ".join(f"{u} {rel} {v}" for u, rel, v in self.cycle)
        return f"cycle through negation: {steps}"


def check_stratified(tp: TypedProgram) -> StrataAssignment | StratViolation:
    """Decide stratification over the declared predicate constants."""
    nodes = sorted(tp.predicate_decls)
    edges: dict[tuple[str, str], bool] = {}

    def add(src: str, dst: str, strict: bool) -> None:
        edges[(src, dst)] = edges.get((src, dst), False) or strict

    def sources_of(atom: Expression) -> list[str]:
        head = spine(atom)[0]
        if isinstance(head, PredConst):
            return [head.name]
        if isinstance(head, Var):
            qtype = head.typ
            return [q for q in nodes if type_geq(tp.predicate_decls[q], qtype)]
        return []

    for clause in tp.clauses:
        p = clause.head_pred
        for lit in clause.body:
            if isinstance(lit, Eq):
                continue
            strict = isinstance(lit, Neg)
            atom = lit.inner if strict else lit
            for q in sources_of(atom):
                add(q, p, strict)

    result = _stratify_graph(nodes, edges)
    if isinstance(result, list):
        return StratViolation(tuple(result))
    strata, count = result
    return StrataAssignment(strata, count)


# ---------------------------------------------------------------------------
# ground-level (bounded local) stratification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalStratResult:
    stratified: bool
    witness: tuple[Edge, ...] | None = None
    strata: dict[str, int] | None = None
    count: int = 0


def check_locally_stratified_bounded(g: GroundProgram) -> LocalStratResult:
    """Local stratification of the depth-bounded ground program."""
    nodes = list(g.atoms)
    edges: dict[tuple[str, str], bool] = {}
    for c in g.clauses:
        head = g.atoms[c.head]
        for negated, a in c.literals:
            key = (g.atoms[a], head)
            edges[key] = edges.get(key, False) or negated
    result = _stratify_graph(nodes, edges)
    if isinstance(result, list):
        return LocalStratResult(False, witness=tuple(result))
    strata, count = result
    return LocalStratResult(True, strata=strata, count=count)


# ---------------------------------------------------------------------------
# extensional equality
# ---------------------------------------------------------------------------


@dataclass
class ExtRelation:
    typ: TypeExpr
    depth_bound: int
    terms: tuple[str, ...]
    pairs: frozenset[tuple[str, str]]
    vacuous: frozenset[tuple[str, str]] = frozenset()

    def related(self, a: str, b: str) -> bool:
        return (a, b) in self.pairs


@dataclass(frozen=True)
class ExtViolation:
    typ: str
    subject: str
    arg_left: str
    arg_right: str
    atoms: tuple[tuple[str, str], ...]  # (atom, value) pairs that differ

    def __str__(self) -> str:
        diffs = ", ".join(f"{a}={v}" for a, v in self.atoms)
        return (
            f"{self.subject} is not extensionally equal to itself at type {self.typ}: "
            f"related arguments {self.arg_left} and {self.arg_right} "
            f"give different values ({diffs})"
        )


@dataclass
class ExtReport:
    extensional: bool
    depth: int
    checked_types: tuple[str, ...]
    violations: tuple[ExtViolation, ...]
    vacuous: tuple[tuple[str, str, str], ...]  # (type, left, right)
    skipped_types: tuple[str, ...] = ()


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


def ext_relation(
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


def check_extensional(
    tp: TypedProgram, g: GroundProgram, values: list[TruthValue], k: int
) -> ExtReport:
    """Reflexivity of extensional equality at every argument type in the
    declarations, plus the derived interchangeability sweep: related
    predicates applied to related argument tuples must give equal atom
    values."""
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

        # interchangeability: walk full application chains of this type
        arg_chain: list[TypeExpr] = []
        res = typ
        while res.kind == "arrow":
            arg_chain.append(res.left)
            res = res.right
        if res != O:
            continue
        chain_pairs = [checker.argument_pairs(at) for at in arg_chain]
        for d, d2 in sorted(rel.pairs):
            tuples: list[tuple[str, str]] = [(d, d2)]
            for pairs in chain_pairs:
                tuples = [
                    (f"{l}({e})", f"{r}({e2})") for l, r in tuples for e, e2 in pairs
                ]
            for app1, app2 in tuples:
                v1, v2 = checker.value_of(app1), checker.value_of(app2)
                if v1 is None or v2 is None:
                    continue
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

    # deduplicate violations that name the same differing atom pair
    unique: list[ExtViolation] = []
    seen: set[tuple] = set()
    for v in violations:
        key = (v.typ, v.subject, frozenset(a for a, _ in v.atoms))
        if key not in seen:
            seen.add(key)
            unique.append(v)

    return ExtReport(
        extensional=not unique,
        depth=k,
        checked_types=tuple(checked),
        violations=tuple(unique),
        vacuous=tuple(vacuous),
        skipped_types=tuple(skipped),
    )
