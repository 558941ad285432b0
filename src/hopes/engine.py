"""The infinite-valued minimum model of a ground program.

One step of consequence is the usual one lifted to the refined domain:
the value of an atom is the least upper bound, over its clauses, of the
minimum of the body literal values (negative literals read through
``neg``).  Facts have value T0 and atoms with no clauses fall to F0.

The model itself is built stage by stage.  Stage alpha receives an
interpretation in which every atom decided earlier keeps its final
value (all of order below alpha) and every undecided atom is parked at
F_alpha.  The stage then settles which of the undecided atoms acquire
their final value *at* order alpha:

* an atom is true at alpha when a clause supports it: every positive
  body literal is either already true with order below alpha or also
  true at this stage, and every negative literal negates an atom that
  settled false strictly below alpha.  This is a least fixpoint, so
  mutual positive support among newly true atoms is allowed, but truth
  never rests on an unproven assumption.

* an atom is false at alpha when every one of its clauses is blocked.
  A clause is blocked once some literal already fails: a positive
  literal over an atom settled false below alpha or sitting in the
  candidate false set, or a negative literal over an atom that settled
  true at order beta with beta + 1 <= alpha.  The largest candidate
  set all of whose members keep every clause blocked survives, a
  greatest fixpoint, so unfounded positive loops fall false together.

The first stage that decides nothing is the depth of the program; all
atoms still undecided there oscillate forever and take the middle
value 0.  The result is the least model of the program in the
pointwise stage ordering, and collapsing it to three values agrees
with the well-founded model.

``minimum_model`` computes all stages in one event-driven loop: a
stage visits only the clauses that its events touch, never every
undecided atom, because three pieces of state persist across stages
(Dowling & Gallier 1984 for the truths; Berman, Schlipf &
Franco, "Computing the well-founded semantics faster", LPNMR 1995, for
the unfounded sets):

* per clause, a count of the literals not yet satisfied.  A positive
  literal counts down when its atom turns true, within the same stage;
  a negative literal counts down at the start of stage alpha + 1 when
  its atom settled false at alpha.  A clause whose count reaches zero
  makes its undecided head true at the current stage.

* per clause, a count of the literals that block it for good: a
  positive literal over an atom settled false, and, from the next
  stage on, a negative literal over an atom settled true.

* per undecided atom, a source: a clause with no blocking literal
  whose positive literals over undecided atoms all have sources of
  their own.  The source graph is acyclic, so an atom with a source is
  not unfounded.  A stage re-examines only the atoms whose source just
  became blocked and the atoms whose sources rest on them positively;
  those that no clause supports again form the greatest unfounded set
  and settle false.

A stage with no events decides nothing and ends the loop.  The atoms
that stage alpha decided are exactly those of value T_alpha or F_alpha,
so no record of a stage is kept: ``model --trace`` reads each stage off
the final values, and so does the interpretation a stage hands on.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import truth
from .herbrand import GroundProgram
from .truth import TruthValue, ZERO


class UnknownAtom(Exception):
    def __init__(self, atom: str, depth_bound: int | None):
        self.atom = atom
        self.depth_bound = depth_bound
        super().__init__(
            f"atom {atom} is not in the ground program"
            + (f" at depth {depth_bound}" if depth_bound is not None else "")
        )


@dataclass(slots=True, unsafe_hash=True)
class InfModel:
    ground: GroundProgram
    values: tuple[TruthValue, ...]
    depth: int

    def value_of(self, atom: str) -> TruthValue:
        if atom not in self.ground.atom_index:
            raise UnknownAtom(atom, self.ground.depth_bound)
        return self.values[self.ground.atom_index[atom]]


def minimum_model(g: GroundProgram) -> InfModel:
    """Run stages until one decides nothing; undecided atoms become 0."""
    n = len(g.atoms)
    clauses = g.clauses
    heads = [c.head for c in clauses]
    pending = [len(c.literals) for c in clauses]  # literals not yet satisfied
    blocking = [0] * len(clauses)  # literals that fail for good
    clauses_of: list[list[int]] = [[] for _ in range(n)]  # clause ids by head
    pos_in: list[list[int]] = [[] for _ in range(n)]  # clause ids, once per occurrence
    neg_in: list[list[int]] = [[] for _ in range(n)]
    for k, c in enumerate(clauses):
        clauses_of[c.head].append(k)
        for negated, a in c.literals:
            (neg_in if negated else pos_in)[a].append(k)
    value: list[int] = [0] * n  # 0 while undecided, else the final value
    source = [-1] * n  # the clause that supports an undecided atom
    ready = [heads[k] for k, p in enumerate(pending) if not p]
    lost: list[int] = list(range(n))  # at stage 0 no atom has a source yet
    alpha = 0
    while ready or lost:
        t_val, f_val = truth.true_at(alpha), truth.false_at(alpha)

        # new truths: heads of clauses with nothing pending; a positive
        # literal is satisfied as soon as its atom turns true
        newly_true: list[int] = []
        for a in ready:
            if not value[a]:
                value[a] = t_val
                newly_true.append(a)
        for a in newly_true:  # grows while it is walked
            for k in pos_in[a]:
                pending[k] -= 1
                if not pending[k] and not value[heads[k]]:
                    value[heads[k]] = t_val
                    newly_true.append(heads[k])

        # new falsities: the atoms that lost their source, and every atom
        # whose source rests on one of them positively ...
        unfounded: set[int] = set()
        stack = [a for a in lost if not value[a]]
        while stack:
            a = stack.pop()
            if a not in unfounded:
                unfounded.add(a)
                for k in pos_in[a]:
                    h = heads[k]
                    if source[h] == k and not value[h]:
                        stack.append(h)
        # ... less those that a clause with no blocking literal supports
        # again once its positive literals over them are supported
        waiting: dict[int, int] = {}
        supported: list[int] = []
        for a in unfounded:
            for k in clauses_of[a]:
                if not blocking[k]:
                    count = 0
                    for negated, b in clauses[k].literals:
                        if not negated and b in unfounded:
                            count += 1
                    if count:
                        waiting[k] = count
                    else:
                        supported.append(k)
        while supported:
            k = supported.pop()
            a = heads[k]
            if a in unfounded:
                unfounded.discard(a)
                source[a] = k
                for j in pos_in[a]:
                    if j in waiting:
                        waiting[j] -= 1
                        if not waiting[j]:
                            supported.append(j)

        if not newly_true and not unfounded:
            break
        for a in unfounded:
            value[a] = f_val
            for k in pos_in[a]:
                blocking[k] += 1
        alpha += 1

        # events of the next stage: a negative literal is satisfied, or
        # blocks, one stage after its atom settled
        ready = []
        for a in unfounded:
            for k in neg_in[a]:
                pending[k] -= 1
                if not pending[k]:
                    ready.append(heads[k])
        lost = []
        for a in newly_true:
            for k in neg_in[a]:
                blocking[k] += 1
                if source[heads[k]] == k:
                    lost.append(heads[k])

    return InfModel(g, tuple(v or ZERO for v in value), alpha)
