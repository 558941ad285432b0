"""Classical readings of a ground program.

This module deliberately re-derives everything from first principles:
the well-founded model below is computed by the textbook alternating
fixpoint over two-valued reducts and never consults the staged engine,
so the two constructions can be tested against each other.

* ``collapse`` maps a refined model onto three values: every graded
  truth becomes True, every graded falsity becomes False, the middle
  value becomes Undef.
* ``wf_oracle`` computes the well-founded model directly: iterate
  I -> least-model-of-reduct twice; the even iterates climb to the set
  of well-founded truths, one more application yields the non-false
  atoms.
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
  every clause dead is false).  Each total candidate is checked against
  the full program, over clause lists built once per search.  The
  count of Undef atoms is capped, since the search is meant for
  desk-sized programs.
"""

from __future__ import annotations

from enum import Enum

from .herbrand import GroundClause, GroundProgram
from .engine import InfModel

DEFAULT_STABLE_CAP = 24


class Tv3(Enum):
    TRUE = "True"
    FALSE = "False"
    UNDEF = "Undef"

    def __str__(self) -> str:
        return self.value


TwoValuedInterp = frozenset[int]


class HasNegation(Exception):
    pass


class TooManyAtoms(Exception):
    def __init__(self, count: int, cap: int):
        self.count = count
        self.cap = cap
        super().__init__(
            f"{count} atoms left undefined by the well-founded model exceed"
            f" the stable-model enumeration cap of {cap}"
        )


def collapse(m: InfModel) -> list[Tv3]:
    """Forget the grades: Tn -> True, Fn -> False, 0 -> Undef."""
    return [
        Tv3.TRUE if v.is_true else Tv3.FALSE if v.is_false else Tv3.UNDEF
        for v in m.values
    ]


def reduct(g: GroundProgram, i: TwoValuedInterp) -> GroundProgram:
    """Cancel negation against a guess: drop every clause whose negated
    atom is in the guess, strip the surviving negative literals."""
    clauses = tuple(
        GroundClause(c.head, tuple((False, a) for negated, a in c.literals if not negated))
        for c in g.clauses
        if not any(negated and a in i for negated, a in c.literals)
    )
    return GroundProgram(g.atoms, clauses, g.depth_bound)


class _Reduct:
    """The least model of the reduct of one program against any guess,
    in time linear in the program (Dowling & Gallier 1984), without
    building the reduct.  The clause lists are built once: per clause
    its head and its count of positive literals, the negated atoms of
    each clause that has one, and per atom the clauses waiting on it.
    Each guess then only resets the counts: a clause with a negated
    atom in the guess is dead, an atom that becomes true decrements the
    clauses waiting on it, and a live clause whose count reaches zero
    makes its head true."""

    def __init__(self, g: GroundProgram):
        self.size = len(g.atoms)
        self.heads: list[int] = []
        self.counts: list[int] = []
        self.negated: list[tuple[int, list[int]]] = []
        self.ready: list[int] = []  # clauses without a positive literal
        self.waiting: list[list[int]] = [[] for _ in g.atoms]
        for k, c in enumerate(g.clauses):
            pos = [a for negated, a in c.literals if not negated]
            neg = [a for negated, a in c.literals if negated]
            self.heads.append(c.head)
            self.counts.append(len(pos))
            for a in pos:
                self.waiting[a].append(k)
            if neg:
                self.negated.append((k, neg))
            if not pos:
                self.ready.append(k)

    def least_model(self, i: TwoValuedInterp) -> TwoValuedInterp:
        pending = self.counts.copy()
        for k, neg in self.negated:
            for a in neg:
                if a in i:
                    pending[k] = -1  # dead: never counts down to zero
                    break
        heads, waiting = self.heads, self.waiting
        true = [False] * self.size
        stack: list[int] = []
        for k in self.ready:
            if not pending[k] and not true[heads[k]]:
                true[heads[k]] = True
                stack.append(heads[k])
        while stack:
            for k in waiting[stack.pop()]:
                pending[k] -= 1
                if not pending[k] and not true[heads[k]]:
                    true[heads[k]] = True
                    stack.append(heads[k])
        return frozenset(a for a, t in enumerate(true) if t)


def _gl(g: GroundProgram, i: TwoValuedInterp) -> TwoValuedInterp:
    """Least model of the reduct of ``g`` against the guess ``i``."""
    return _Reduct(g).least_model(i)


def least_model_positive(g: GroundProgram) -> TwoValuedInterp:
    """Least model of a negation-free program."""
    if any(negated for c in g.clauses for negated, _ in c.literals):
        raise HasNegation("least_model_positive expects a negation-free program")
    return _gl(g, frozenset())


def wf_oracle(g: GroundProgram) -> list[Tv3]:
    """The well-founded model via the alternating fixpoint."""
    gl = _Reduct(g).least_model
    lower: TwoValuedInterp = frozenset()
    while True:
        new_lower = gl(gl(lower))
        if new_lower == lower:
            break
        lower = new_lower
    non_false = gl(lower)
    return [
        Tv3.TRUE if a in lower else Tv3.UNDEF if a in non_false else Tv3.FALSE
        for a in range(len(g.atoms))
    ]


def is_stable(g: GroundProgram, i: TwoValuedInterp) -> bool:
    """A guess is stable when it is the least model of its own reduct."""
    return _gl(g, i) == i


def stable_models(
    g: GroundProgram, cap: int = DEFAULT_STABLE_CAP
) -> list[TwoValuedInterp]:
    """All stable models, ordered by their sorted atom-name tuples.
    ``TooManyAtoms`` when the well-founded model leaves more than
    ``cap`` atoms Undef."""
    wf = wf_oracle(g)
    undef = [a for a, v in enumerate(wf) if v is Tv3.UNDEF]
    if len(undef) > cap:
        raise TooManyAtoms(len(undef), cap)
    wf_true = [a for a, v in enumerate(wf) if v is Tv3.TRUE]

    # The residual program: for each clause, pending counts its literals
    # not yet true and falsified those already false (it is dead while
    # that is above zero); live counts the clauses of each atom that are
    # not dead.
    heads: list[int] = []
    pending: list[int] = []
    falsified: list[int] = []
    live = [0] * len(g.atoms)
    occurs: list[list[tuple[int, bool]]] = [[] for _ in g.atoms]
    for c in g.clauses:
        if wf[c.head] is not Tv3.UNDEF:
            continue
        rest = []
        for negated, a in c.literals:
            if wf[a] is Tv3.UNDEF:
                rest.append((negated, a))
            elif (wf[a] is Tv3.TRUE) == negated:
                break
        else:
            for negated, a in rest:
                occurs[a].append((len(heads), negated))
            heads.append(c.head)
            pending.append(len(rest))
            falsified.append(0)
            live[c.head] += 1

    value: list[bool | None] = [None] * len(g.atoms)
    gl = _Reduct(g).least_model

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
            for k, negated in occurs[atom]:
                if v != negated:
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
            for k, negated in occurs[atom]:
                if value[atom] != negated:
                    pending[k] += 1
                else:
                    falsified[k] -= 1
                    if not falsified[k]:
                        live[heads[k]] += 1
            value[atom] = None

    # Depth-first over the Undef atoms, False before True, with an
    # explicit stack of decisions: (atom, branch, atoms it set).
    models: list[TwoValuedInterp] = []
    decisions: list[tuple[int, bool, list[int]]] = []
    consistent = True
    while True:
        if consistent:
            free = next((a for a in undef if value[a] is None), None)
            if free is not None:
                decisions.append((free, False, []))
                consistent = assign(free, False, decisions[-1][2])
                continue
            candidate = frozenset(wf_true + [a for a in undef if value[a]])
            if gl(candidate) == candidate:  # is_stable, over clause lists built once
                models.append(candidate)
        while decisions and decisions[-1][1]:
            undo(decisions.pop()[2])
        if not decisions:
            break
        atom, _, trail = decisions.pop()
        undo(trail)
        decisions.append((atom, True, []))
        consistent = assign(atom, True, decisions[-1][2])
    models.sort(key=lambda m: tuple(sorted(g.atoms[a] for a in m)))
    return models
