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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from . import truth
from .ast import Eq, Expression, Neg, TypedProgram, expr_to_str, substitute
from .herbrand import GroundProgram, iter_ground_instances, normalize_equality
from .truth import F0, T0, TruthValue, ZERO

Interpretation = list[TruthValue]


class UnknownAtom(Exception):
    def __init__(self, atom: str, depth_bound: int | None):
        self.atom = atom
        self.depth_bound = depth_bound
        super().__init__(
            f"atom {atom} is not in the ground program"
            + (f" at depth {depth_bound}" if depth_bound is not None else "")
        )


@dataclass(frozen=True)
class StageRecord:
    alpha: int
    newly_true: frozenset[int]
    newly_false: frozenset[int]
    snapshot: tuple[TruthValue, ...]


@dataclass(frozen=True)
class StageTrace:
    stages: tuple[StageRecord, ...]


@dataclass(frozen=True)
class InfModel:
    ground: GroundProgram
    values: tuple[TruthValue, ...]
    depth: int
    trace: StageTrace

    def value_of(self, atom: str) -> TruthValue:
        if atom not in self.ground.atom_index:
            raise UnknownAtom(atom, self.ground.depth_bound)
        return self.values[self.ground.atom_index[atom]]


def body_value(g: GroundProgram, c, interp: Interpretation) -> TruthValue:
    """Conjunction of the body under an interpretation; facts give T0."""
    if not c.literals:
        return T0
    return min(
        truth.neg(interp[a]) if negated else interp[a] for negated, a in c.literals
    )


def tp_step(g: GroundProgram, interp: Interpretation) -> Interpretation:
    """One application of the consequence operator."""
    return [truth.lub(body_value(g, c, interp) for c in clauses) for clauses in g.by_head]


def stage_fixpoint(
    g: GroundProgram, frozen: Interpretation, alpha: int
) -> tuple[frozenset[int], frozenset[int]]:
    """The atoms that settle true and false at order alpha.

    ``frozen`` holds final values (order < alpha) for decided atoms and
    F_alpha for the undecided ones.
    """
    # v < F_alpha: v settled false below alpha; v > T_alpha: settled true
    f_alpha, t_alpha = truth.false_at(alpha), truth.true_at(alpha)
    undecided = {a for a in range(len(g.atoms)) if frozen[a] == f_alpha}
    by_head = g.by_head

    # least fixpoint: newly true atoms
    true_set: set[int] = set()
    changed = True
    while changed:
        changed = False
        for a in undecided - true_set:
            for c in by_head[a]:
                for negated, b in c.literals:
                    v = frozen[b]
                    if not ((v < f_alpha) if negated else (v > t_alpha or b in true_set)):
                        break
                else:
                    true_set.add(a)
                    changed = True
                    break

    # greatest fixpoint: newly false atoms
    false_set = undecided - true_set
    changed = True
    while changed:
        changed = False
        for a in list(false_set):
            for c in by_head[a]:
                for negated, b in c.literals:
                    v = frozen[b]
                    if (v > t_alpha) if negated else (v < f_alpha or b in false_set):
                        break
                else:
                    false_set.discard(a)  # a clause with no blocking literal
                    changed = True
                    break

    return frozenset(true_set), frozenset(false_set)


def minimum_model(g: GroundProgram) -> InfModel:
    """Run stages until one decides nothing; undecided atoms become 0."""
    n = len(g.atoms)
    current: Interpretation = [F0] * n
    records: list[StageRecord] = []
    alpha = 0
    while True:
        newly_true, newly_false = stage_fixpoint(g, current, alpha)
        if not newly_true and not newly_false:
            break
        nxt = list(current)
        t_val, f_val = truth.true_at(alpha), truth.false_at(alpha)
        parked = truth.false_at(alpha + 1)
        for a in range(n):
            if a in newly_true:
                nxt[a] = t_val
            elif a in newly_false:
                nxt[a] = f_val
            elif current[a] == f_val:
                nxt[a] = parked
        records.append(StageRecord(alpha, newly_true, newly_false, tuple(nxt)))
        current = nxt
        alpha += 1
    depth = alpha
    final = tuple(
        v if truth.order(v) < depth else ZERO for v in current
    )
    return InfModel(g, final, depth, StageTrace(tuple(records)))


def is_model(
    g: GroundProgram, interp: Interpretation
) -> tuple[bool, list[tuple[int, TruthValue, TruthValue]]]:
    """Does every clause hold (head at least the body value)?

    Returns the verdict and the violating (clause index, head value,
    body value) triples.
    """
    violations = [
        (ci, interp[c.head], bv)
        for ci, c in enumerate(g.clauses)
        if interp[c.head] < (bv := body_value(g, c, interp))
    ]
    return (not violations, violations)


class Comparison(Enum):
    EQ_ALPHA = "equal"
    SQSUBSET_ALPHA = "strictly-below"
    SQSUBSETEQ_ALPHA = "below"
    INCOMPARABLE = "incomparable"


def _level_sets(interp: Interpretation, beta: int) -> tuple[frozenset[int], frozenset[int]]:
    t_beta, f_beta = truth.true_at(beta), truth.false_at(beta)
    ts = frozenset(a for a, v in enumerate(interp) if v == t_beta)
    fs = frozenset(a for a, v in enumerate(interp) if v == f_beta)
    return ts, fs


def compare_alpha(i: Interpretation, j: Interpretation, alpha: int) -> Comparison:
    """Relate two interpretations at order alpha.

    Equal means the true and false sets agree at every order up to and
    including alpha.  Strictly below means they agree below alpha and at
    alpha the first interpretation claims fewer truths and more
    falsehoods, at least one of the two strictly.
    """
    for beta in range(alpha):
        if _level_sets(i, beta) != _level_sets(j, beta):
            return Comparison.INCOMPARABLE
    ti, fi = _level_sets(i, alpha)
    tj, fj = _level_sets(j, alpha)
    if ti == tj and fi == fj:
        return Comparison.EQ_ALPHA
    if ti <= tj and fi >= fj:
        return Comparison.SQSUBSET_ALPHA
    return Comparison.INCOMPARABLE


def aleq(i: Interpretation, j: Interpretation) -> bool:
    """The stage ordering: equal, or strictly below at some finite order."""
    if list(i) == list(j):
        return True
    finite = [v.index for v in list(i) + list(j) if not v.is_zero]
    top = max(finite, default=0) + 1
    for alpha in range(top + 1):
        ti, fi = _level_sets(i, alpha)
        tj, fj = _level_sets(j, alpha)
        if ti == tj and fi == fj:
            continue
        return ti <= tj and fi >= fj
    return True  # all named levels agree, so the rest is 0 on both sides


def valuate_expression(tp: TypedProgram, m: InfModel, e: Expression) -> TruthValue:
    """The value of a ground query expression under a model."""
    if isinstance(e, Neg):
        return truth.neg(valuate_expression(tp, m, e.inner))
    if isinstance(e, Eq):
        return T0 if normalize_equality(e.lhs, e.rhs) else F0
    return m.value_of(expr_to_str(e))


def check_model_ho(
    tp: TypedProgram, m: InfModel, k: int, budget: int | None = None
) -> tuple[bool, list[tuple[str, TruthValue, TruthValue]]]:
    """Check the model property clause by clause over all depth-k
    substitutions of the source program (not just the stored ground
    clauses).  Returns the verdict and violating instances."""
    from .herbrand import DEFAULT_BUDGET

    violations: list[tuple[str, TruthValue, TruthValue]] = []
    head_exprs = {i: c.head_expr() for i, c in enumerate(tp.clauses)}
    for idx, binding, _notes in iter_ground_instances(
        tp, k, DEFAULT_BUDGET if budget is None else budget
    ):
        if binding is None:
            continue
        clause = tp.clauses[idx]
        head_val = valuate_expression(tp, m, substitute(head_exprs[idx], binding))
        body_vals = [
            valuate_expression(tp, m, substitute(lit, binding)) for lit in clause.body
        ]
        body_val = min(body_vals) if body_vals else T0
        if head_val < body_val:
            ground_clause = substitute(head_exprs[idx], binding)
            violations.append((expr_to_str(ground_clause), head_val, body_val))
    return (not violations, violations)
