"""The stage loop that ``hopes.engine.minimum_model`` used to run, kept
as the reference that the event-driven engine is checked against, and
the model condition checked on the source program.

Each stage rescans every undecided atom to a least fixpoint of new
truths and a greatest fixpoint of new falsities, and each stage record
stores a full copy of the interpretation it hands on, so time and
memory both grow quadratically on a negation chain.

``check_model_ho`` tests a model against every clause instance of the
source program at depth k, as Bezem's condition asks, not against the
stored ground clauses: it enumerates the instances with
``reference_grounder``, independently of the grounder under test.
"""

from __future__ import annotations

from dataclasses import dataclass

from hopes import truth
from hopes.ast import Eq, Expression, Neg, TypedProgram, expr_to_str
from hopes.engine import InfModel, Interpretation
from hopes.herbrand import DEFAULT_BUDGET, GroundProgram
from hopes.truth import F0, T0, TruthValue, ZERO

from reference_grounder import normalize_equality, reference_iter_ground_instances
from reference_paper import head_expr, substitute


@dataclass(frozen=True)
class StageRecord:
    alpha: int
    newly_true: frozenset[int]
    newly_false: frozenset[int]
    snapshot: tuple[TruthValue, ...]


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
    return InfModel(g, final, depth, tuple(records))


def valuate_expression(tp: TypedProgram, m: InfModel, e: Expression) -> TruthValue:
    """The value of a ground query expression under a model."""
    if isinstance(e, Neg):
        return truth.neg(valuate_expression(tp, m, e.inner))
    if isinstance(e, Eq):
        return T0 if normalize_equality(e.lhs, e.rhs) else F0
    return m.value_of(expr_to_str(e))


def check_model_ho(
    tp: TypedProgram, m: InfModel, k: int, budget: int = DEFAULT_BUDGET
) -> tuple[bool, list[tuple[str, TruthValue, TruthValue]]]:
    """Check the model property clause by clause over all depth-k
    substitutions of the source program (not just the stored ground
    clauses).  Returns the verdict and violating instances.

    An instance with a false equality has body F0 and holds whatever
    its head's value, so the equalities are decided before any atom is
    valued: such an instance may name atoms the grounder never
    interned."""
    violations: list[tuple[str, TruthValue, TruthValue]] = []
    head_exprs = {i: head_expr(c) for i, c in enumerate(tp.clauses)}
    for idx, binding, _notes in reference_iter_ground_instances(tp, k, budget):
        if binding is None:
            continue
        body = [substitute(lit, binding) for lit in tp.clauses[idx].body]
        if not all(normalize_equality(e.lhs, e.rhs) for e in body if isinstance(e, Eq)):
            continue
        head = substitute(head_exprs[idx], binding)
        head_val = valuate_expression(tp, m, head)
        body_val = min((valuate_expression(tp, m, lit) for lit in body), default=T0)
        if head_val < body_val:
            violations.append((expr_to_str(head), head_val, body_val))
    return (not violations, violations)
