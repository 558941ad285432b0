import random

import pytest

from hopes import ground_instantiate, parse_program, typecheck
from hopes.ast import Eq, Neg, expr_to_str
from hopes.engine import InfModel, UnknownAtom, minimum_model
from hopes.truth import F0, T0, ZERO, false_at, true_at

from conftest import CORPUS, build_ground, load, load_ground, parse_term, random_checked_program
from reference_engine import check_model_ho, stage_fixpoint, valuate_expression
from reference_grounder import (
    normalize_equality,
    reference_count,
    reference_iter_ground_instances,
    reference_slice_total,
)
from reference_paper import (
    Comparison,
    aleq,
    compare_alpha,
    is_model,
    parse_value,
    snapshot,
    stages,
    substitute,
    tp_step,
)


def model_of(name, k=3):
    g = load_ground(name, k)
    return g, minimum_model(g)


def value_map(g, values):
    return {a: str(v) for a, v in zip(g.atoms, values)}


def test_tp_step_from_bottom():
    g = load_ground("defaults", 3)
    stepped = value_map(g, tp_step(g, [F0] * len(g.atoms)))
    assert stepped == {"p": "T0", "q": "F0", "r": "T1", "s": "T1", "t": "T1"}


@pytest.mark.parametrize("name", CORPUS)
def test_minimum_model_is_fixpoint(name):
    g, m = model_of(name)
    assert tp_step(g, list(m.values)) == list(m.values)


def test_stage_fixpoints_layered():
    g = load_ground("defaults", 3)
    ai = g.atom_index
    n = len(g.atoms)

    frozen0 = [F0] * n
    t0, f0 = stage_fixpoint(g, frozen0, 0)
    assert t0 == {ai["p"]} and f0 == {ai["q"]}

    frozen1 = [false_at(1)] * n
    frozen1[ai["p"]], frozen1[ai["q"]] = T0, F0
    t1, f1 = stage_fixpoint(g, frozen1, 1)
    assert t1 == {ai["s"]} and f1 == {ai["r"]}

    frozen2 = [false_at(2)] * n
    frozen2[ai["p"]], frozen2[ai["q"]] = T0, F0
    frozen2[ai["s"]], frozen2[ai["r"]] = true_at(1), false_at(1)
    assert stage_fixpoint(g, frozen2, 2) == (frozenset(), frozenset())


def test_minimum_model_defaults():
    g, m = model_of("defaults")
    assert value_map(g, m.values) == {
        "p": "T0",
        "q": "F0",
        "r": "F1",
        "s": "T1",
        "t": "ZERO",
    }
    assert m.depth == 2


def test_minimum_model_subset():
    _, m = model_of("subset")
    assert m.depth == 3
    got = {
        atom: str(m.value_of(atom))
        for atom in (
            "nonsubset(p1)(p2)",
            "subset(p1)(p2)",
            "nonsubset(p2)(p1)",
            "subset(p2)(p1)",
            "nonsubset(p1)(p1)",
            "subset(p1)(p1)",
        )
    }
    assert got == {
        "nonsubset(p1)(p2)": "F1",
        "subset(p1)(p2)": "T2",
        "nonsubset(p2)(p1)": "T1",
        "subset(p2)(p1)": "F2",
        "nonsubset(p1)(p1)": "F1",
        "subset(p1)(p1)": "T2",
    }


def test_minimum_model_choice_pair_hangs_at_zero():
    g, m = model_of("choice_pair", 2)
    assert m.depth == 1
    assert str(m.value_of("p(a)")) == "T0"
    assert str(m.value_of("q(a)")) == "T0"
    for atom in ("r(p)", "r(q)", "s(p)", "s(q)"):
        assert m.value_of(atom) == ZERO


def test_minimum_model_self_support():
    g, m = model_of("self_support")
    assert value_map(g, m.values) == {"p(a)": "F0"}
    assert m.depth == 1


def test_minimum_model_oscillation_has_no_stages():
    g, m = model_of("even_loop")
    assert m.depth == 0
    assert stages(m) == []
    assert set(m.values) == {ZERO}


@pytest.mark.parametrize("name", CORPUS)
def test_minimum_model_is_model(name):
    g, m = model_of(name)
    ok, violations = is_model(g, list(m.values))
    assert ok and violations == []


def test_is_model_reports_violations():
    g = load_ground("defaults", 3)
    ok, violations = is_model(g, [F0] * len(g.atoms))
    assert not ok
    fact = next(ci for ci, c in enumerate(g.clauses) if not c.literals)
    assert (fact, F0, T0) in violations


def test_self_negation_admits_zero():
    g = build_ground(["p"], [("p", [], ["p"])])
    assert is_model(g, [ZERO])[0]
    # any false value is beaten by its own negation
    assert not is_model(g, [F0])[0]
    assert not is_model(g, [false_at(3)])[0]
    # a true head satisfies the clause outright, but sits above zero
    assert is_model(g, [T0])[0]
    assert aleq([ZERO], [T0])
    assert minimum_model(g).values == (ZERO,)


@pytest.mark.parametrize("name", CORPUS)
def test_facts_take_top_value(name):
    g, m = model_of(name)
    for c in g.clauses:
        if not c.literals:
            assert m.values[c.head] == T0


@pytest.mark.parametrize("name", CORPUS)
def test_every_recorded_stage_decides(name):
    g, m = model_of(name)
    assert all(v.is_zero or v.index < m.depth for v in m.values)
    for _, newly_true, newly_false in stages(m):
        assert newly_true or newly_false


def test_value_of_unknown_atom():
    _, m = model_of("identity")
    with pytest.raises(UnknownAtom):
        m.value_of("p(id(id(id(q))))")


def test_compare_alpha_defaults():
    g, m = model_of("defaults")
    bottom = [F0] * len(g.atoms)
    final = list(m.values)
    assert compare_alpha(final, final, 0) is Comparison.EQ_ALPHA
    assert compare_alpha(final, final, 5) is Comparison.EQ_ALPHA
    assert compare_alpha(bottom, final, 0) is Comparison.SQSUBSET_ALPHA
    assert compare_alpha(final, bottom, 0) is Comparison.INCOMPARABLE
    # disagreement below alpha poisons the comparison at alpha
    assert compare_alpha(bottom, final, 1) is Comparison.INCOMPARABLE


def test_compare_alpha_between_stage_snapshots():
    _, m = model_of("defaults")
    s0, s1 = (list(snapshot(alpha, m.values)) for alpha in range(m.depth))
    assert compare_alpha(s0, s1, 0) is Comparison.EQ_ALPHA
    assert compare_alpha(s0, s1, 1) is Comparison.SQSUBSET_ALPHA


def test_aleq_orders_bottom_below_model():
    g, m = model_of("defaults")
    bottom = [F0] * len(g.atoms)
    final = list(m.values)
    assert aleq(bottom, final)
    assert not aleq(final, bottom)
    assert aleq(final, final)


@pytest.mark.parametrize("name", CORPUS)
def test_stage_iterates_stay_under_snapshot(name):
    g, m = model_of(name, 2)
    base = [F0] * len(g.atoms)
    for alpha in range(m.depth):
        it = list(base)
        for _ in range(12):
            assert compare_alpha(it, list(snapshot(alpha, m.values)), alpha) in (
                Comparison.EQ_ALPHA,
                Comparison.SQSUBSET_ALPHA,
            )
            it = tp_step(g, it)
        base = list(snapshot(alpha, m.values))


@pytest.mark.parametrize("name", CORPUS)
def test_later_stages_preserve_earlier_levels(name):
    _, m = model_of(name)
    for early in range(m.depth):
        for late in range(early, m.depth):
            assert (
                compare_alpha(
                    list(snapshot(early, m.values)), list(snapshot(late, m.values)), early
                )
                is Comparison.EQ_ALPHA
            )
        assert (
            compare_alpha(list(snapshot(early, m.values)), list(m.values), early)
            is Comparison.EQ_ALPHA
        )


def test_valuate_expression():
    tp = load("defaults")
    g, m = model_of("defaults")

    assert str(valuate_expression(tp, m, parse_term("s"))) == "T1"
    assert str(valuate_expression(tp, m, Neg(parse_term("s")))) == "F2"
    assert str(valuate_expression(tp, m, Neg(parse_term("t")))) == "ZERO"
    assert valuate_expression(tp, m, Eq(parse_term("p"), parse_term("p"))) == T0
    assert valuate_expression(tp, m, Eq(parse_term("p"), parse_term("q"))) == F0

    tp2 = load("identity")
    g2, m2 = model_of("identity")
    assert valuate_expression(tp2, m2, parse_term("p(q)")) == T0
    assert valuate_expression(tp2, m2, parse_term("p(id(q))")) == T0


@pytest.mark.parametrize("name", CORPUS)
def test_check_model_ho_accepts_minimum_model(name):
    tp = load(name)
    g, m = model_of(name)
    ok, violations = check_model_ho(tp, m, 3)
    assert ok and violations == []


def test_check_model_ho_rejects_bottom():
    tp = load("subset")
    g = load_ground("subset", 3)
    fake = InfModel(g, tuple([F0] * len(g.atoms)), 0)
    ok, violations = check_model_ho(tp, fake, 3)
    assert not ok
    head, head_val, body_val = violations[0]
    assert head_val < body_val
    assert isinstance(head, str)


# p(b) :- b = a, q(f(b)) is killed by its equality, so the grounder
# never interns q(f(b)) at depth 1
KILLED = (
    "#func f : i -> i.\n#pred p : i -> o.\n#pred q : i -> o.\n#pred r : i -> o.\n"
    "r(b).\np(X) :- X = a, q(f(X)).\n"
)


def kills_an_unknown_atom(tp, g, k, budget) -> bool:
    """Does an instance with a false equality name an atom outside g?"""
    for idx, binding, _ in reference_iter_ground_instances(tp, k, budget):
        if binding is None:
            continue
        body = [substitute(lit, binding) for lit in tp.clauses[idx].body]
        if all(normalize_equality(e.lhs, e.rhs) for e in body if isinstance(e, Eq)):
            continue
        atoms = [e.inner if isinstance(e, Neg) else e for e in body if not isinstance(e, Eq)]
        if any(expr_to_str(a) not in g.atom_index for a in atoms):
            return True
    return False


@pytest.mark.parametrize("k", [1, 2, 3])
def test_check_model_ho_skips_instances_a_false_equality_kills(k):
    tp = typecheck(parse_program(KILLED))
    g = ground_instantiate(tp, k)
    assert kills_an_unknown_atom(tp, g, k, 10**6)
    assert check_model_ho(tp, minimum_model(g), k) == (True, [])


def test_minimum_model_passes_check_model_ho_on_random_programs():
    rng = random.Random(20170131)
    compared = killed = 0
    for _ in range(300):
        _, tp = random_checked_program(rng)
        for k in (1, 2, 3):
            budget = max(reference_count(tp, k), reference_slice_total(tp, k))
            if budget > 1500:
                continue
            g = ground_instantiate(tp, k, budget)
            assert check_model_ho(tp, minimum_model(g), k, budget) == (True, [])
            compared += 1
            killed += kills_an_unknown_atom(tp, g, k, budget)
    assert compared > 800
    assert killed > 60


def test_minimum_model_is_least():
    """Exhaustive check on tiny programs: no model sits below the
    computed one in the stage ordering."""
    rng = random.Random(411)
    palette = [parse_value(s) for s in ("F0", "F1", "F2", "ZERO", "T2", "T1", "T0")]
    atoms = ["x", "y", "z"]
    for _ in range(40):
        specs = []
        for _ in range(rng.randint(1, 4)):
            head = rng.choice(atoms)
            pos, neg = [], []
            for _ in range(rng.randint(0, 2)):
                (neg if rng.random() < 0.5 else pos).append(rng.choice(atoms))
            specs.append((head, pos, neg))
        g = build_ground(atoms, specs)
        m = minimum_model(g)
        for vx in palette:
            for vy in palette:
                for vz in palette:
                    interp = [vx, vy, vz]
                    if is_model(g, interp)[0]:
                        assert aleq(list(m.values), interp), (
                            g.to_text(),
                            value_map(g, m.values),
                            value_map(g, interp),
                        )
