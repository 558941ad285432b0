"""The paper's definitions, kept beside the tests that check its
results against them.

None of these is on a path the CLI runs: the one-step consequence
operator T_P and the model condition over ground clauses, the stage
order between interpretations (equal or strictly below at order
alpha, and the ordering built from it), the atoms each stage decided
and the interpretation it hands on, least upper bounds and the text
form of truth values, substitution into source expressions and the
printing of parsed programs, the classes of simple types, and
extensional equality at one type as a relation between terms.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from enum import Enum

from hopes import truth
from hopes.analysis import ExtPlan
from hopes.ast import App, Clause, Eq, Expression, FunApp, Neg, PredConst, Program, Var, _children
from hopes.engine import InfModel
from hopes.herbrand import GroundProgram
from hopes.truth import F0, T0, TruthValue, ZERO
from hopes.types import TypeExpr, is_argument, is_functional, is_predicate

Interpretation = list[TruthValue]  # a value per atom, by atom id

# ---------------------------------------------------------------------------
# truth values
# ---------------------------------------------------------------------------


def lub(values: Iterable[TruthValue]) -> TruthValue:
    """Least upper bound; the empty bound is F0."""
    return max(values, default=F0)


def parse_value(text: str) -> TruthValue:
    """Inverse of str(): 'T0', 'F3' and 'ZERO' come back as values."""
    if text == "ZERO":
        return ZERO
    if len(text) >= 2 and text[0] in "TF" and text[1:].isdigit():
        return TruthValue(1 if text[0] == "T" else -1, int(text[1:]))
    raise ValueError(f"not a truth value: {text!r}")


# ---------------------------------------------------------------------------
# T_P, the model condition and the stage order
# ---------------------------------------------------------------------------


def body_value(c, interp: Interpretation) -> TruthValue:
    """Conjunction of the body under an interpretation; facts give T0."""
    if not c.literals:
        return T0
    return min(
        truth.neg(interp[a]) if negated else interp[a] for negated, a in c.literals
    )


def tp_step(g: GroundProgram, interp: Interpretation) -> Interpretation:
    """One application of the consequence operator."""
    return [lub(body_value(c, interp) for c in clauses) for clauses in g.by_head]


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
        if interp[c.head] < (bv := body_value(c, interp))
    ]
    return (not violations, violations)


def stages(m: InfModel) -> list[tuple[int, frozenset[int], frozenset[int]]]:
    """``(alpha, newly_true, newly_false)`` for each stage alpha below
    ``m.depth``, read off the final values: stage alpha decided exactly
    the atoms of value T_alpha and F_alpha."""
    decided: list[tuple[set[int], set[int]]] = [(set(), set()) for _ in range(m.depth)]
    for a, v in enumerate(m.values):
        if not v.is_zero:
            decided[v.index][0 if v.is_true else 1].add(a)
    return [(alpha, frozenset(t), frozenset(f)) for alpha, (t, f) in enumerate(decided)]


def snapshot(alpha: int, values: Sequence[TruthValue]) -> tuple[TruthValue, ...]:
    """The interpretation stage alpha hands on, given the model's final
    ``values``: every atom of order at most alpha at its final value,
    every other atom at F_(alpha+1)."""
    f_alpha, t_alpha = truth.false_at(alpha), truth.true_at(alpha)
    parked = truth.false_at(alpha + 1)
    return tuple(v if v <= f_alpha or v >= t_alpha else parked for v in values)


class Comparison(Enum):
    EQ_ALPHA = "equal"
    SQSUBSET_ALPHA = "strictly-below"
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


# ---------------------------------------------------------------------------
# source expressions and programs
# ---------------------------------------------------------------------------


def substitute(e: Expression, binding: dict[str, Expression]) -> Expression:
    """Replace variables by name; leaves without a binding are shared."""
    # post-order: a node is rebuilt once the results of its children,
    # pushed onto `done` left to right, are all there
    done: list[Expression] = []
    stack: list[tuple[Expression, bool]] = [(e, False)]
    while stack:
        x, ready = stack.pop()
        if isinstance(x, Var):
            done.append(binding.get(x.name, x))
            continue
        kids = _children(x)
        if not kids:
            done.append(x)
        elif not ready:
            stack.append((x, True))
            stack.extend((c, False) for c in reversed(kids))
        else:
            parts = done[len(done) - len(kids):]
            del done[len(done) - len(kids):]
            if isinstance(x, FunApp):
                done.append(FunApp(x.symbol, tuple(parts), x.typ))
            elif isinstance(x, App):
                done.append(App(parts[0], parts[1], x.typ))
            elif isinstance(x, Neg):
                done.append(Neg(parts[0], x.typ))
            else:
                done.append(Eq(parts[0], parts[1], x.typ))
    return done[0]


def head_expr(clause: Clause) -> Expression:
    """A checked clause's head as an expression: p(V1)...(Vn)."""
    e: Expression = PredConst(clause.head_pred)
    for v in clause.formals:
        e = App(e, v)
    return e


def program_to_str(p: Program) -> str:
    """Print a parsed program so that re-parsing gives an equal AST."""
    lines = []
    for name, t in p.predicate_decls.items():
        lines.append(f"#pred {name} : {t}.")
    for name, t in p.function_decls.items():
        lines.append(f"#func {name} : {t}.")
    for c in p.clauses:
        lines.append(str(c))
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------


def classify_type(t: TypeExpr) -> str:
    """One of "functional", "predicate", "argument", "invalid".

    The classes overlap (i is both functional and an argument type); the
    first matching label in the order above is returned, so the result is
    canonical.
    """
    if is_functional(t):
        return "functional"
    if is_predicate(t):
        return "predicate"
    if is_argument(t):
        return "argument"
    return "invalid"


# ---------------------------------------------------------------------------
# extensional equality at one type
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


def ext_relation(plan: ExtPlan, values: Sequence[TruthValue], typ: TypeExpr) -> ExtRelation:
    """Extensional equality at one type under ``values``, as pairs of
    term texts, read off the compiled plan's relation over slice
    positions: after ``plan.check(values)``, the relation the check left
    on a type it compares, and otherwise (o, say, when no arrow type
    takes it) the type compared against the relations the check left.

    Raises EmptyUniverse when the slice of the type is empty.
    """
    # no type outside the closure has a ground term
    t = plan.types.get(typ)
    if t is None or not t.ids:
        from reference_grounder import EmptyUniverse  # which imports this module

        raise EmptyUniverse(typ, plan.k)
    plan.check(values)
    if t in plan.order:
        related, vacuous = t.related, t.vacuous
    else:
        related, vacuous = plan.compare(t, [*values, None])
    names = t.names
    return ExtRelation(
        typ,
        plan.k,
        names,
        frozenset((names[d], names[d2]) for d, mates in enumerate(related) for d2 in mates),
        frozenset((names[d], names[d2]) for d, d2 in vacuous),
    )
