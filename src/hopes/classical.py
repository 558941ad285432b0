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
  own reduct.  The search branches over atoms with unit propagation
  (an atom with all clauses blocked must be false, an atom with a
  satisfied clause must be true) and is capped, since it is meant for
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
            f"{count} atoms exceed the stable-model enumeration cap of {cap}"
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


def least_model_positive(g: GroundProgram) -> TwoValuedInterp:
    """Least model of a negation-free program by forward chaining."""
    if any(negated for c in g.clauses for negated, _ in c.literals):
        raise HasNegation("least_model_positive expects a negation-free program")
    true: set[int] = set()
    changed = True
    while changed:
        changed = False
        for c in g.clauses:
            if c.head not in true and all(a in true for _, a in c.literals):
                true.add(c.head)
                changed = True
    return frozenset(true)


def _gl(g: GroundProgram, i: TwoValuedInterp) -> TwoValuedInterp:
    return least_model_positive(reduct(g, i))


def wf_oracle(g: GroundProgram) -> list[Tv3]:
    """The well-founded model via the alternating fixpoint."""
    lower: TwoValuedInterp = frozenset()
    while True:
        new_lower = _gl(g, _gl(g, lower))
        if new_lower == lower:
            break
        lower = new_lower
    non_false = _gl(g, lower)
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
    """All stable models, ordered by their sorted atom-name tuples."""
    n = len(g.atoms)
    if n > cap:
        raise TooManyAtoms(n, cap)
    by_head = g.by_head

    models: list[TwoValuedInterp] = []

    def propagate(assign: list[bool | None]) -> bool:
        """Unit propagation; False on contradiction."""
        changed = True
        while changed:
            changed = False
            for a in range(n):
                dead_count = 0
                satisfied = False
                for c in by_head[a]:
                    dead = any(
                        (not negated and assign[b] is False)
                        or (negated and assign[b] is True)
                        for negated, b in c.literals
                    )
                    if dead:
                        dead_count += 1
                        continue
                    if all(
                        (not negated and assign[b] is True)
                        or (negated and assign[b] is False)
                        for negated, b in c.literals
                    ):
                        satisfied = True
                if assign[a] is None:
                    if dead_count == len(by_head[a]):
                        assign[a] = False
                        changed = True
                    elif satisfied:
                        assign[a] = True
                        changed = True
                elif assign[a] is True and dead_count == len(by_head[a]):
                    return False
                elif assign[a] is False and satisfied:
                    return False
        return True

    def search(assign: list[bool | None]) -> None:
        if not propagate(assign):
            return
        try:
            pivot = assign.index(None)
        except ValueError:
            candidate = frozenset(a for a in range(n) if assign[a])
            if is_stable(g, candidate):
                models.append(candidate)
            return
        for choice in (False, True):
            branch = list(assign)
            branch[pivot] = choice
            search(branch)

    search([None] * n)
    models.sort(key=lambda m: tuple(sorted(g.atoms[a] for a in m)))
    return models
