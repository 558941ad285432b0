"""The stable-model search that ``hopes.classical.stable_models`` used to
run, kept as the reference that the well-founded-seeded search is
checked against, with the reduct that its leaf check and the
alternating fixpoint of ``reference_wf`` read.

It ignores the well-founded model: it branches over every atom, caps
the count of all atoms, and propagates by rescanning every clause of
every atom until nothing changes.  Its leaf check reads the reduct
through ``reduct`` below and takes the least model by repeated
forward-chaining sweeps, so it shares no least-model code with the
search it checks.
"""

from __future__ import annotations

from hopes.classical import DEFAULT_STABLE_CAP, TooManyAtoms, TwoValuedInterp
from hopes.herbrand import GroundClause, GroundProgram


def reduct(g: GroundProgram, i: TwoValuedInterp) -> GroundProgram:
    """Cancel negation against a guess: drop every clause whose negated
    atom is in the guess, strip the surviving negative literals."""
    clauses = tuple(
        GroundClause(c.head, tuple((False, a) for negated, a in c.literals if not negated))
        for c in g.clauses
        if not any(negated and a in i for negated, a in c.literals)
    )
    return GroundProgram(g.atoms, clauses, g.depth_bound)


def reference_least_model(g: GroundProgram) -> TwoValuedInterp:
    """Least model of a negation-free program by repeated sweeps."""
    true: set[int] = set()
    changed = True
    while changed:
        changed = False
        for c in g.clauses:
            if c.head not in true and all(a in true for _, a in c.literals):
                true.add(c.head)
                changed = True
    return frozenset(true)


def reference_is_stable(g: GroundProgram, i: TwoValuedInterp) -> bool:
    return reference_least_model(reduct(g, i)) == i


def reference_stable_models(
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
            if reference_is_stable(g, candidate):
                models.append(candidate)
            return
        for choice in (False, True):
            branch = list(assign)
            branch[pivot] = choice
            search(branch)

    search([None] * n)
    models.sort(key=lambda m: tuple(sorted(g.atoms[a] for a in m)))
    return models
