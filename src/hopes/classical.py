"""Classical readings of a ground program.

This module deliberately re-derives everything from first principles:
the well-founded model below is computed by an alternating fixpoint
over two-valued reducts and never consults the staged engine, so the
two constructions can be tested against each other.

* ``collapse`` maps a refined model onto three values: every graded
  truth becomes True, every graded falsity becomes False, the middle
  value becomes Undef.
* ``wf_oracle`` computes the well-founded model directly, one strongly
  connected component of the atom dependency graph at a time, in the
  order Tarjan's algorithm emits them: dependencies first.  The
  well-founded semantics is modular over these components (the
  splitting property), so when a component is solved the atoms of
  earlier components have their final values.  A clause with a
  literal false over them is dropped, a literal true over them is
  removed, and a literal over an Undef atom lets its clause fire in
  the upper (non-false) pass but never in the lower (true) pass.  Only
  the literals inside the component alternate: from an empty lower
  estimate, the least model of the reduct against the lower estimate
  is the upper one, and the least model against the upper estimate is
  the next lower one, until the lower estimate stops growing.  Each
  clause is visited as often as its own component alternates, so
  chains and acyclic programs take linear time.
* ``stable_models`` enumerates the two-valued stable models: total
  assignments that reproduce themselves as the least model of their
  own reduct.  Every stable model extends the well-founded model, so
  the search fixes the atoms that model makes true or false and
  branches only on its Undef atoms, over the residual program: each
  clause of an Undef atom with no literal false under the well-founded
  model, keeping only its Undef literals.  Per-clause counters of
  pending and false literals, and per-atom counts of live clauses,
  propagate each assignment through the clauses the atom occurs in (a
  clause with every literal true makes its head true, an atom with
  every clause dead is false).  A leaf that this propagation leaves
  consistent is a supported model of the residual: each true atom has
  a clause with every literal true, and no false atom has one.  Each
  total candidate lies between the well-founded model's true and
  non-false atoms, and the reduct operator is antimonotone, so the
  least model of its reduct agrees with the well-founded model on every
  decided atom, and the candidate is stable exactly when its Undef
  atoms are a stable model of the residual.  When the residual is tight
  (no cycle through positive literals, self-loops included, in its
  graph over the Undef atoms, decided once per run), every supported
  model of it is stable (Fages 1994; Erdem & Lifschitz, TPLP 2003), so
  each consistent leaf is accepted as it stands.  Otherwise the leaf
  check compares the residual's least model with the candidate on the
  Undef atoms.  The count of Undef atoms is capped, since the search
  is meant for desk-sized programs.  The well-founded true atoms, which
  every model shares, are frozen and named once; a model adds only its
  own true Undef atoms to both.  The search decides the Undef atoms in
  the order of their names, True before False, so the models come out
  in the order of their sorted names and are never sorted afterwards
  (no stable model contains another; see ``stable_models``).  Every
  atom before a decision's place in that order is already set, so the
  scan for the next free atom resumes after the last decision.

One residual builder (``_residual``) and one linear least-model loop
(``_least``, Dowling & Gallier 1984) serve both: ``wf_oracle`` per
component and ``stable_models`` over the Undef atoms.
"""

from __future__ import annotations

from bisect import bisect
from enum import Enum

from .analysis import _dependencies, _sccs
from .engine import InfModel
from .herbrand import GroundProgram

DEFAULT_STABLE_CAP = 24


class Tv3(Enum):
    TRUE = "True"
    FALSE = "False"
    UNDEF = "Undef"

    def __str__(self) -> str:
        return self.value


TwoValuedInterp = frozenset[int]


class TooManyAtoms(Exception):
    def __init__(self, count: int, cap: int):
        self.count = count
        self.cap = cap
        atoms, exceed = ("atom", "exceeds") if count == 1 else ("atoms", "exceed")
        super().__init__(
            f"{count} {atoms} left undefined by the well-founded model {exceed}"
            f" the stable-model enumeration cap of {cap}"
        )


def collapse(m: InfModel) -> list[Tv3]:
    """Forget the grades: Tn -> True, Fn -> False, 0 -> Undef."""
    return [
        Tv3.TRUE if v.is_true else Tv3.FALSE if v.is_false else Tv3.UNDEF
        for v in m.values
    ]


def _residual(atoms, by_head, value: list, waiting: list[list[int]]):
    """The clauses of ``atoms`` over the atoms inside, those whose
    ``value`` is None.  Each other atom has its final value: a clause
    with a literal false over one is dropped, a literal true over one is
    removed, and a literal over an Undef one is removed but marks its
    clause uncertain.

    Returns the heads of the clauses with no literal left inside,
    certain (``sure``) and uncertain (``maybe``), and for the others:
    per clause its head and its count of positive literals inside, the
    clauses with none (``ready``), the negated atoms inside of each
    clause that has one, and the uncertain clauses (``undef``).  Each
    atom inside gets, in ``waiting``, the clauses with it as a positive
    literal."""
    TRUE, UNDEF = Tv3.TRUE, Tv3.UNDEF  # enum lookups are slow
    sure: list[int] = []
    maybe: list[int] = []
    heads: list[int] = []
    counts: list[int] = []
    ready: list[int] = []
    negated: list[tuple[int, list[int]]] = []
    undef: list[int] = []
    for a in atoms:
        for c in by_head[a]:
            pos: list[int] = []
            neg: list[int] = []
            certain = True
            for is_neg, b in c.literals:
                v = value[b]
                if v is None:  # inside
                    if is_neg:
                        neg.append(b)
                    else:
                        pos.append(b)
                elif v is UNDEF:
                    certain = False
                elif (v is TRUE) == is_neg:
                    break
            else:
                if not pos and not neg:
                    (sure if certain else maybe).append(a)
                    continue
                k = len(heads)
                heads.append(a)
                counts.append(len(pos))
                for b in pos:
                    waiting[b].append(k)
                if not pos:
                    ready.append(k)
                if neg:
                    negated.append((k, neg))
                if not certain:
                    undef.append(k)
    return sure, maybe, heads, counts, ready, negated, undef


def wf_oracle(g: GroundProgram) -> list[Tv3]:
    """The well-founded model, solved one component of the atom
    dependency graph at a time, dependencies first (Dix, Fundamenta
    Informaticae 1995), each by the alternating fixpoint of Van Gelder
    (PODS 1989) over the literals inside it."""
    TRUE, FALSE, UNDEF = Tv3.TRUE, Tv3.FALSE, Tv3.UNDEF  # enum lookups are slow
    by_head = g.by_head
    value: list = [None] * len(by_head)  # None until its component is solved
    # per atom of the component being solved: its lower (true) and
    # upper (non-false) estimate, and the clauses of the component
    # waiting on it as a positive literal
    lower = [False] * len(by_head)
    upper = [False] * len(by_head)
    waiting: list[list[int]] = [[] for _ in by_head]
    for comp in _sccs(_dependencies(g)):
        sure, maybe, heads, counts, ready, negated, undef = _residual(comp, by_head, value, waiting)
        if not heads:  # no literal left inside: the clauses settle it
            for a in comp:
                value[a] = FALSE
            for a in maybe:
                value[a] = UNDEF
            for a in sure:
                value[a] = TRUE
            continue
        # lower grows and upper shrinks from round to round, so an
        # unchanged count of lower atoms is the fixpoint; without a
        # negated literal inside, the guess is never read
        settled = 0
        while True:
            _least(comp, sure + maybe, heads, counts, ready, negated, [], waiting, lower, upper)
            count = _least(comp, sure, heads, counts, ready, negated, undef, waiting, upper, lower)
            if count == settled or not negated:
                break
            settled = count
        for a in comp:
            value[a] = TRUE if lower[a] else UNDEF if upper[a] else FALSE
    return value


def _least(
    comp,
    seeds: list[int],
    heads: list[int],
    counts: list[int],
    ready: list[int],
    negated: list[tuple[int, list[int]]],
    dead: list[int],
    waiting: list[list[int]],
    guess: list,
    out: list[bool],
) -> int:
    """Least model of a residual program (Dowling & Gallier 1984): the
    seeds are true, and so is the head of every clause whose positive
    literals are, once the clauses with a negated atom in the guess and
    the ``dead`` ones are dropped.  Written into ``out`` for the atoms
    ``comp`` inside; returns their count of true atoms."""
    pending = counts.copy()
    for k, neg in negated:
        for b in neg:
            if guess[b]:
                pending[k] = -1  # dead: never counts down to zero
                break
    for k in dead:
        pending[k] = -1
    for a in comp:
        out[a] = False
    stack = []
    for a in seeds:
        if not out[a]:
            out[a] = True
            stack.append(a)
    for k in ready:
        if not pending[k] and not out[heads[k]]:
            out[heads[k]] = True
            stack.append(heads[k])
    count = len(stack)
    while stack:
        for k in waiting[stack.pop()]:
            pending[k] -= 1
            if not pending[k] and not out[heads[k]]:
                out[heads[k]] = True
                stack.append(heads[k])
                count += 1
    return count


class _Model(frozenset):
    """A stable model's atom ids, with its atom names sorted in ``names``."""

    __slots__ = ("names",)


def stable_models(
    g: GroundProgram, cap: int = DEFAULT_STABLE_CAP
) -> list[TwoValuedInterp]:
    """All stable models, ordered by their sorted atom names, which each
    model carries as ``names``.  ``TooManyAtoms`` when the well-founded
    model leaves more than ``cap`` atoms Undef.

    Every model is the well-founded true atoms, frozen and named once,
    plus its own true Undef atoms, whose names are inserted into the
    shared sorted names.  The models need no sort: stable models are
    minimal models (Gelfond & Lifschitz 1988, Theorem 1), so none
    contains another, and of two models the one that holds the first
    name at which their own atoms differ sorts first by all its names
    (the other holds a later name in that place, not none).  That name
    is the first Undef atom, by name, that the two disagree on, so the
    search decides the Undef atoms in the order of their names and
    tries True first: at the decision that splits the two, every
    earlier atom is set, and the decided atom is that name.  The scan
    for the next free atom therefore resumes after the last decision.

    A consistent leaf of the search is a supported model of the
    residual program.  If the residual's positive graph has no cycle
    (it is tight), supported models are stable (Fages, "Consistency of
    Clark's completion and existence of stable models", 1994; Erdem &
    Lifschitz, "Tight logic programs", TPLP 2003), and every such leaf
    is a model; otherwise each leaf is checked against the least model
    of its reduct over the residual."""
    atoms = g.atoms
    wf = wf_oracle(g)
    undef = sorted([a for a, v in enumerate(wf) if v is Tv3.UNDEF], key=atoms.__getitem__)
    if len(undef) > cap:
        raise TooManyAtoms(len(undef), cap)
    wf_true = [a for a, v in enumerate(wf) if v is Tv3.TRUE]

    # The residual program over the Undef atoms, whose value None means
    # unassigned.  Every other atom is decided, so no clause is
    # uncertain, and none has every literal true, or its head would be
    # true.  For the search, pending counts the literals of each clause
    # not yet true and falsified those already false (it is dead while
    # that is above zero); live counts the clauses of each atom that are
    # not dead.
    value: list = [None if v is Tv3.UNDEF else v for v in wf]
    waiting: list[list[int]] = [[] for _ in wf]
    _, _, heads, counts, ready, negated, _ = _residual(undef, g.by_head, value, waiting)
    occurs = [[(k, False) for k in ks] for ks in waiting]
    pending = counts.copy()
    for k, neg in negated:
        pending[k] += len(neg)
        for a in neg:
            occurs[a].append((k, True))
    falsified = [0] * len(heads)
    live = [0] * len(wf)
    for a in heads:
        live[a] += 1
    # Tight: the residual's positive graph, an edge from each positive
    # literal to its clause's head, has no cycle, not even a self-loop;
    # given to _sccs reversed, as lists of heads, with the same cycles.
    tight = True
    if undef:
        number = {a: i for i, a in enumerate(undef)}
        heads_of = [[(False, number[heads[k]]) for k in waiting[a]] for a in undef]
        tight = all(len(c) == 1 and (False, c[0]) not in heads_of[c[0]] for c in _sccs(heads_of))

    def assign(atom: int, v: bool, trail: list[int]) -> bool:
        """Set atom to v and every atom that forces: the head of a clause
        whose literals are all true is true, an atom whose clauses are
        all dead is false.  Record each atom set on trail; False on a
        contradiction."""
        todo = [(atom, v)]
        while todo:
            atom, v = todo.pop()
            if value[atom] is not None:
                if value[atom] != v:
                    return False
                continue
            value[atom] = v
            trail.append(atom)
            for k, is_neg in occurs[atom]:
                if v != is_neg:
                    pending[k] -= 1
                    if not pending[k]:
                        todo.append((heads[k], True))
                else:
                    falsified[k] += 1
                    if falsified[k] == 1:
                        live[heads[k]] -= 1
                        if not live[heads[k]]:
                            todo.append((heads[k], False))
        return True

    def undo(trail: list[int]) -> None:
        for atom in trail:
            for k, is_neg in occurs[atom]:
                if value[atom] != is_neg:
                    pending[k] += 1
                else:
                    falsified[k] -= 1
                    if not falsified[k]:
                        live[heads[k]] += 1
            value[atom] = None

    # Depth-first over the Undef atoms, True before False, with an
    # explicit stack of decisions: (position in undef, on its second
    # branch, atoms it set).  Every atom before a decision's position is
    # set, so the scan for the next free atom resumes after it.  An
    # accepted model is the shared true atoms and their sorted names,
    # each Undef atom true in it added at its place among them.
    base = frozenset(wf_true)
    shared = sorted([atoms[a] for a in wf_true])
    place = {a: bisect(shared, atoms[a]) for a in undef}
    models: list[_Model] = []
    out = [False] * len(wf)
    decisions: list[tuple[int, bool, list[int]]] = []
    consistent = True
    while True:
        if consistent:
            free = decisions[-1][0] + 1 if decisions else 0
            while free < len(undef) and value[undef[free]] is not None:
                free += 1
            if free < len(undef):
                decisions.append((free, False, []))
                consistent = assign(undef[free], True, decisions[-1][2])
                continue
            # a consistent leaf is a supported model of the residual,
            # stable when the residual is tight; otherwise stable when
            # it is the least model of its own reduct, which agrees with
            # the well-founded model on every decided atom, so only its
            # Undef atoms, the residual's least model, are compared
            if not tight:
                _least(undef, [], heads, counts, ready, negated, [], waiting, value, out)
            if tight or all(out[a] == value[a] for a in undef):
                own = [a for a in undef if value[a]]
                names = shared.copy()
                for a in reversed(own):  # from the last place back
                    names.insert(place[a], atoms[a])
                m = _Model(base.union(own))
                m.names = tuple(names)
                models.append(m)
        while decisions and decisions[-1][1]:
            undo(decisions.pop()[2])
        if not decisions:
            break
        pos, _, trail = decisions.pop()
        undo(trail)
        decisions.append((pos, True, []))
        consistent = assign(undef[pos], False, decisions[-1][2])
    return models
