"""Extensionality and stratification analysis.

Extensional equality at an argument type relates ground expressions
that behave alike: individuals when identical, type-o terms when their
values under a given valuation agree, and predicates when they send
related arguments to related results.  Only defined applications are
compared, since both sides must be defined for the comparison to say
anything: an application is defined when its result lies in the slice
of its result type or, at type o, in the atom table.  A valuation is
*extensional* when these relations are reflexive at every argument
type appearing in the program's declarations; a predicate failing
reflexivity treats two indistinguishable arguments differently, which
is the hallmark of intensional (non-extensional) behavior.
Reflexivity already gives interchangeability: related predicates send
related, defined arguments to related results, and so on down the
arrow chain to equal atom values, so applying related predicates to
related argument tuples needs no check of its own.  Pairs that end up
related only because no comparable application was defined are
reported with a vacuity flag rather than silently trusted.  Everything
that does not depend on the valuation is compiled once per ground
program, when an ``ExtPlan`` is built: the slices, the applications
of each compared arrow type, the atoms each compared type reads, and
the order in which a check compares the types, each after the types it
reads.  Checking many valuations, such as every stable model, then
only compares values, in one pass over that order.

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

Both levels answer with a ``StrataAssignment`` or a ``StratViolation``.

Both graphs are lists over node ids of the (strict, source) pairs of
the edges into each node.  A violation's witness starts from the
strict edge inside a component whose (source name, target name) comes
first, and is closed by the shortest path back from its target to its
source: a breadth-first search inside the component that tries
successors in name order.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .ast import Eq, Neg, PredConst, TypedProgram, Var, spine
from .herbrand import GroundProgram
from .truth import TruthValue
from .types import IOTA, TypeExpr, is_predicate

Edge = tuple[str, str, str]  # (source, "<" or "<=", target)
_Deps = Sequence[Sequence[tuple[bool, int]]]  # per node v, (strict, u) for each edge u -> v


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
# dependency graphs: per node, the (strict, source) pairs of the edges into
# it; strongly connected components by iterative Tarjan, dependencies first
# ---------------------------------------------------------------------------


def _sccs(deps: _Deps) -> list[list[int]]:
    """The components of the graph on nodes ``0 .. len(deps) - 1``.
    Roots are tried in node order and the edges into a node in list
    order; each component comes out after every component it depends
    on."""
    done = len(deps)  # the index of a node whose component is out
    index = [-1] * len(deps)
    low = [0] * len(deps)
    stack: list[int] = []
    out: list[list[int]] = []
    count = 0

    for root in range(len(deps)):
        if index[root] >= 0:
            continue
        index[root] = low[root] = count
        count += 1
        stack.append(root)
        work = [(root, iter(deps[root]))]
        while work:
            v, it = work[-1]
            for _, w in it:
                if index[w] < 0:
                    index[w] = low[w] = count
                    count += 1
                    stack.append(w)
                    work.append((w, iter(deps[w])))
                    break
                if index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        index[w] = done
                        comp.append(w)
                        if w == v:
                            break
                    out.append(comp)
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
    return out


def _find_cycle(start, goal, succ, allowed: set) -> list:
    """Shortest path goal -> ... -> start inside one component (BFS);
    ``succ[u]`` lists the successors of every node of the component."""
    if start == goal:
        return [goal]
    frontier = [goal]
    parent = {goal: None}
    while frontier:
        nxt = []
        for u in frontier:
            for w in succ[u]:
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


def _stratify_graph(deps: _Deps, names: Sequence[str]) -> tuple[dict[str, int], int] | list[Edge]:
    """Assign strata, or return a witness cycle through a strict edge.

    Node v is named ``names[v]``.  Result is (strata dict, stratum
    count) on success.  Levels are pulled from the components a
    component depends on, which come out before it; names are read only
    for the strict edges inside a component and to trace the witness.
    """
    comps = _sccs(deps)
    comp_of = [0] * len(deps)
    levels: list[int] = []
    inner: list[tuple[int, int]] = []  # the strict edges inside a component
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
        level = 1
        for v in comp:
            for strict, u in deps[v]:
                cu = comp_of[u]
                if cu != ci:
                    if levels[cu] + strict > level:
                        level = levels[cu] + strict
                elif strict:
                    inner.append((u, v))
        levels.append(level)
    if not inner:
        return {name: levels[comp_of[v]] for v, name in enumerate(names)}, max(levels, default=1)

    u, v = min(inner, key=lambda e: (names[e[0]], names[e[1]]))
    members = set(comps[comp_of[u]])
    succ: dict[int, list[int]] = {a: [] for a in members}
    strict_edges = set()
    for b in members:
        for strict, a in deps[b]:
            if a in members:
                succ[a].append(b)
                if strict:
                    strict_edges.add((a, b))
    for out in succ.values():
        out.sort(key=names.__getitem__)
    back = _find_cycle(u, v, succ, members)
    return [(names[u], "<", names[v])] + [
        (names[a], "<" if (a, b) in strict_edges else "<=", names[b]) for a, b in zip(back, back[1:])
    ]


# ---------------------------------------------------------------------------
# source-level and ground-level (bounded local) stratification
# ---------------------------------------------------------------------------


@dataclass(slots=True, unsafe_hash=True)
class StrataAssignment:
    strata: dict[str, int]
    count: int


@dataclass(slots=True, unsafe_hash=True)
class StratViolation:
    cycle: tuple[Edge, ...]

    def __str__(self) -> str:
        steps = ", ".join(f"{u} {rel} {v}" for u, rel, v in self.cycle)
        return f"cycle through negation: {steps}"


def _stratify(deps: _Deps, names: Sequence[str]) -> StrataAssignment | StratViolation:
    """``_stratify_graph``'s answer as a result of either level."""
    result = _stratify_graph(deps, names)
    if isinstance(result, list):
        return StratViolation(tuple(result))
    return StrataAssignment(*result)


def check_stratified(tp: TypedProgram) -> StrataAssignment | StratViolation:
    """Decide stratification over the declared predicate constants,
    numbered in name order."""
    nodes = sorted(tp.predicate_decls)
    rank = {p: i for i, p in enumerate(nodes)}
    deps: list[list[tuple[bool, int]]] = [[] for _ in nodes]
    for clause in tp.clauses:
        into = deps[rank[clause.head_pred]]
        for lit in clause.body:
            if isinstance(lit, Eq):
                continue
            strict = isinstance(lit, Neg)
            head = spine(lit.inner if strict else lit)[0]
            if isinstance(head, PredConst):
                into.append((strict, rank[head.name]))
            elif isinstance(head, Var):
                decls = tp.predicate_decls
                into += [(strict, q) for q, p in enumerate(nodes) if type_geq(decls[p], head.typ)]

    return _stratify(deps, nodes)


def check_locally_stratified_bounded(g: GroundProgram) -> StrataAssignment | StratViolation:
    """Local stratification of the depth-bounded ground program, over
    its atoms: the edges into an atom are the (negated, atom) literals
    of its clauses, in program order."""
    return _stratify([[lit for c in cs for lit in c.literals] for cs in g.by_head], g.atoms)


# ---------------------------------------------------------------------------
# extensional equality
# ---------------------------------------------------------------------------


@dataclass(slots=True, unsafe_hash=True)
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


class _Type:
    """A type of the closure in a compiled plan: its slice as term ids,
    with each id's position, the terms' text and the positions in text
    order; for a type in the plan's ``order``, its support and, at an
    arrow type, the applications of the slice to the argument slice.
    ``memo`` is what the last valuation compared here gave."""

    __slots__ = ("name", "kind", "left", "right", "ids", "positions", "names", "by_text",
                 "table", "support", "memo")

    def __init__(self, typ: TypeExpr, ids: tuple[int, ...], text: list[str]):
        self.name = str(typ)
        self.kind = typ.kind
        self.left: _Type | None = None  # an arrow type's argument and result types
        self.right: _Type | None = None
        self.ids = ids
        self.positions = {t: i for i, t in enumerate(ids)}
        self.names = tuple([text[t] for t in ids])
        self.by_text = sorted(range(len(ids)), key=self.names.__getitem__)
        self.table: list[list[int]] = []
        self.support: tuple[int, ...] | None = None
        self.memo: _Memo | None = None


class _Memo:
    """Extensional equality at one type under one valuation, kept with
    that valuation's values on the type's support: the relation and its
    vacuous pairs, the related pairs in the order an argument tries
    them (slice order, or text order at an arrow type), and at an arrow
    type its report entries (vacuous notes, violations)."""

    __slots__ = ("key", "related", "vacuous", "pairs", "notes", "violations")

    def __init__(self, key: tuple, t: _Type, related: list[set[int]], vacuous: set[tuple[int, int]]):
        self.key = key
        self.related = related
        self.vacuous = vacuous
        order = t.by_text if t.kind == "arrow" else range(len(t.ids))
        self.pairs = [(d, d2) for d in order for d2 in order if d2 in related[d]]
        self.notes: list[tuple[str, str, str]] = []
        self.violations: list[ExtViolation] = []


class ExtPlan:
    """The extensionality check of one ground program, compiled.

    Slices and applications do not depend on the valuation, so the
    constructor fixes them once per ground program, from the term store
    that ``ground_instantiate`` left on it (a ``ValueError`` without
    one): the slice of every type in the closure, as term ids, and
    ``order``, the types a check compares, each after the types its
    relation reads.  These are the checked arrow types, their argument
    types and their result types other than o, so the relation at o,
    quadratic in its slice, is compared only when some arrow type takes
    o as its argument.  A type of ``order`` keeps its support and, at
    an arrow type, its table: the applications of its slice to the
    argument slice.  An application counts as defined when its result
    lies in its result slice or, at type o, in the atom table; the
    relation and the explanation of a violation read the same tables,
    so they share this one rule.  ``check`` then only compares values;
    text is rendered only for what it reports.

    The relation at a type reads the values of its *support* only: no
    atom at i, the atoms of the slice at o, and at an arrow type the
    argument type's support with the atoms of its table when the result
    is o, or else with the result type's support.  Each type keeps the
    last valuation's relation, argument pairs and report entries, and a
    valuation that agrees with it on the support reuses them: of many
    valuations checked in turn, such as every stable model, only those
    that change a value in a type's support compare it again.  One
    entry per type is kept, whatever the number of valuations.
    """

    def __init__(self, g: GroundProgram):
        store = g.terms
        if store is None:
            raise ValueError("no term store on this ground program")
        self.atoms = g.atoms
        self.k = g.depth_bound
        self.atom_of = store.atom_of
        self.types = {typ: _Type(typ, ids, store.text) for typ, ids in store.slices.items()}
        for typ, t in self.types.items():
            if t.kind == "arrow":
                t.left, t.right = self.types[typ.left], self.types[typ.right]
        argument_types = sorted(
            (t for typ, t in self.types.items() if is_predicate(typ) or typ == IOTA),
            key=lambda t: t.name,
        )
        self.checked = [t for t in argument_types if t.ids]
        self.skipped_types = tuple(t.name for t in argument_types if not t.ids)
        self.order: list[_Type] = []
        for t in self.checked:
            if t.kind == "arrow":
                self._compile(t, store.ids)

    def _compile(self, t: _Type, ids: dict) -> None:
        """Append t to ``order`` after the types it reads, with its
        support (the atom ids whose values its relation reads, in id
        order) and, at an arrow type, its table: one row per slice
        position d and one entry per position e of the argument slice,
        the result of applying d to e, as an atom id when the result
        type is o and as a position in the result slice otherwise, or
        -1 when it is undefined."""
        if t.support is not None:  # already in order
            return
        atoms = set()
        if t.kind == "o":
            atoms.update(self.atom_of[x] for x in t.ids if x in self.atom_of)
        elif t.kind == "arrow":
            self._compile(t.left, ids)
            atoms.update(t.left.support)
            at_o = t.right.kind == "o"
            where = self.atom_of if at_o else t.right.positions
            t.table = [[where.get(ids.get((d, e), -1), -1) for e in t.left.ids] for d in t.ids]
            if at_o:
                atoms.update(a for row in t.table for a in row if a >= 0)
            else:
                self._compile(t.right, ids)
                atoms.update(t.right.support)
        t.support = tuple(sorted(atoms))
        self.order.append(t)

    def check(self, values: Sequence[TruthValue]) -> ExtReport:
        """One pass over ``order``: a type whose support holds other
        values than its memo's is compared again, after the types it
        reads; then the report is read off the checked types' memos."""
        values = [*values, None]  # index -1 is an undefined application
        for t in self.order:
            key = tuple(map(values.__getitem__, t.support))
            if t.memo is not None and t.memo.key == key:
                continue
            memo = t.memo = _Memo(key, t, *self.compare(t, values))
            if t.kind == "arrow":
                if memo.vacuous:
                    memo.notes = [
                        (t.name, t.names[d], t.names[d2])
                        for d in t.by_text
                        for d2 in t.by_text
                        if (d, d2) in memo.vacuous
                    ]
                memo.violations = [
                    ExtViolation(t.name, t.names[d], *self.drill(d, d, t, values))
                    for d, mates in enumerate(memo.related)
                    if d not in mates
                ]

        violations: list[ExtViolation] = []
        vacuous: list[tuple[str, str, str]] = []
        for t in self.checked:
            if t.kind == "arrow":  # i and o are reflexive: identity, equal values
                vacuous += t.memo.notes
                violations += t.memo.violations
        return ExtReport(
            extensional=not violations,
            depth=self.k,
            checked_types=tuple(t.name for t in self.checked),
            violations=tuple(violations),
            vacuous=tuple(vacuous),
            skipped_types=self.skipped_types,
        )

    def compare(self, t: _Type, values: list) -> tuple[list[set[int]], set[tuple[int, int]]]:
        """The relation at t over slice positions, and its vacuous
        pairs, under ``values`` with a trailing None; at an arrow type it
        reads the memos of the argument and result types."""
        n = len(t.ids)
        vacuous: set[tuple[int, int]] = set()
        if t.kind == "iota":
            related = [{d} for d in range(n)]
        elif t.kind == "o":
            atom_of = self.atom_of
            v = [values[atom_of.get(x, -1)] for x in t.ids]
            related = [{d2 for d2 in range(n) if v[d2] == v[d]} for d in range(n)]
        else:
            pairs = t.left.memo.pairs
            lefts = [e for e, _ in pairs]
            rights = [e2 for _, e2 in pairs]
            # results as values (type o) or as result positions, None
            # where undefined: -1 indexes the trailing None
            if t.right.kind == "o":
                res, lookup = None, values
            else:
                res, lookup = t.right.memo.related, [*range(len(t.right.ids)), None]
            results = [list(map(lookup.__getitem__, row)) for row in t.table]
            left = [list(map(r.__getitem__, lefts)) for r in results]
            right = [list(map(r.__getitem__, rights)) for r in results]
            related = []
            for d, a in enumerate(left):
                defined = any(x is not None for x in a)
                mates = set()
                for d2, b in enumerate(right):
                    if res is None and a == b:
                        ok, checked = True, defined
                    else:
                        ok, checked = _agree(a, b, res)
                    if ok:
                        mates.add(d2)
                        if not checked:
                            vacuous.add((d, d2))
                related.append(mates)
        return related, vacuous

    def drill(self, d1: int, d2: int, t: _Type, values: list) -> tuple[str, str, tuple]:
        """Explain why d1 and d2 fail to be related at an arrow type:
        find the first related argument pair that separates them and the
        atoms where the values finally differ."""
        table, at_o = t.table, t.right.kind == "o"
        for e, e2 in t.left.memo.pairs:
            r1, r2 = table[d1][e], table[d2][e2]
            if r1 < 0 or r2 < 0:
                continue
            if at_o:
                if values[r1] == values[r2]:
                    continue
                found = ((self.atoms[r1], str(values[r1])), (self.atoms[r2], str(values[r2])))
            else:
                if r2 in t.right.memo.related[r1]:
                    continue
                found = self.drill(r1, r2, t.right, values)[2]
            return t.left.names[e], t.left.names[e2], found
        return "?", "?", ()


def _agree(a: list, b: list, res: list[set[int]] | None) -> tuple[bool, bool]:
    """Compare the results of two terms over the argument pairs: values
    by equality when `res` is None, result positions by the relation
    `res` otherwise; None is an undefined result and is skipped.
    Returns (related, some pair was compared)."""
    checked = False
    for x, y in zip(a, b):
        if x is None or y is None:
            continue
        checked = True
        if not (x == y if res is None else y in res[x]):
            return False, True
    return True, checked


def check_extensional(g: GroundProgram, values: Sequence[TruthValue]) -> ExtReport:
    """Reflexivity of extensional equality at every argument type in the
    declarations, with at most one violation per type and term.  It
    implies interchangeability: related predicates applied to related,
    defined argument tuples give equal atom values."""
    return ExtPlan(g).check(values)
