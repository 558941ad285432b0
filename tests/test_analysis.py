import pytest

from hopes.analysis import (
    ExtPlan,
    StrataAssignment,
    StratViolation,
    check_extensional,
    check_locally_stratified_bounded,
    check_stratified,
    type_geq,
)
from hopes.classical import stable_models
from hopes.engine import minimum_model
from hopes.herbrand import EmptyUniverse
from hopes.truth import F0, T0, ZERO
from hopes.types import IOTA, O, arrow, arrow_chain

from conftest import CORPUS, load, load_ground
from reference_paper import ext_relation

STRATIFIED = ["identity", "subset", "stratified_ho", "self_support"]
UNSTRATIFIED = [name for name in CORPUS if name not in STRATIFIED]


def test_type_geq():
    io = arrow(IOTA, O)
    assert type_geq(io, io)
    assert type_geq(arrow_chain([IOTA, IOTA], O), io)
    assert type_geq(io, O)
    assert type_geq(O, O)
    assert not type_geq(arrow(io, O), io)
    assert not type_geq(IOTA, O)
    assert not type_geq(io, IOTA)


def test_stratified_assignments():
    r = check_stratified(load("stratified_ho"))
    assert isinstance(r, StrataAssignment)
    assert r.strata == {"q": 1, "p": 2} and r.count == 2

    r = check_stratified(load("subset"))
    assert r.strata == {"p1": 1, "p2": 1, "nonsubset": 2, "subset": 3}
    assert r.count == 3

    r = check_stratified(load("identity"))
    assert r.strata == {"p": 1, "q": 1, "id": 1} and r.count == 1

    r = check_stratified(load("self_support"))
    assert r.strata == {"p": 1} and r.count == 1


def test_stratification_violations():
    r = check_stratified(load("unstratified_ho"))
    assert isinstance(r, StratViolation)
    assert r.cycle == (("q", "<", "p"), ("p", "<=", "q"))
    assert str(r) == "cycle through negation: q < p, p <= q"

    assert check_stratified(load("defaults")).cycle == (("t", "<", "t"),)
    assert check_stratified(load("even_loop")).cycle == (
        ("p", "<", "q"),
        ("q", "<", "p"),
    )
    assert check_stratified(load("choice_pair")).cycle == (
        ("r", "<", "s"),
        ("s", "<", "r"),
    )
    assert check_stratified(load("naturals")).cycle == (("even", "<", "even"),)


def test_violation_cycles_alternate_through_negation():
    for name in UNSTRATIFIED:
        r = check_stratified(load(name))
        assert isinstance(r, StratViolation)
        assert any(rel == "<" for _, rel, _ in r.cycle)
        # the steps chain: each edge ends where the next begins, and the
        # last one closes back on the first source
        for (_, _, dst), (src, _, _) in zip(r.cycle, r.cycle[1:]):
            assert dst == src
        assert r.cycle[-1][2] == r.cycle[0][0]


def test_locally_stratified_bounded():
    for name in ("identity", "self_support"):
        assert isinstance(check_locally_stratified_bounded(load_ground(name, 3)), StrataAssignment)

    r = check_locally_stratified_bounded(load_ground("naturals", 3))
    assert isinstance(r, StrataAssignment)
    assert r.strata["even(z)"] == 1
    assert r.strata["even(s(z))"] == 2
    assert r.strata["even(s(s(z)))"] == 3

    r = check_locally_stratified_bounded(load_ground("defaults", 3))
    assert r == StratViolation((("t", "<", "t"),))

    r = check_locally_stratified_bounded(load_ground("choice_pair", 2))
    assert isinstance(r, StratViolation)
    assert set(e[0] for e in r.cycle) <= {"r(p)", "r(q)", "s(p)", "s(q)"}

    r = check_locally_stratified_bounded(load_ground("unstratified_ho", 2))
    assert isinstance(r, StratViolation)
    assert r.cycle == (
        ("q(a)(a)", "<", "p(q(a))"),
        ("p(q(a))", "<=", "q(a)(a)"),
    )


@pytest.mark.parametrize("name", STRATIFIED)
@pytest.mark.parametrize("k", [2, 3, 4])
def test_stratified_programs_are_locally_stratified(name, k):
    assert isinstance(check_locally_stratified_bounded(load_ground(name, k)), StrataAssignment)


@pytest.mark.parametrize("name", STRATIFIED)
@pytest.mark.parametrize("k", [2, 3, 4])
def test_stratified_programs_decide_every_atom(name, k):
    m = minimum_model(load_ground(name, k))
    assert ZERO not in m.values


def test_ext_relation_identity():
    g = load_ground("identity", 3)
    m = minimum_model(g)
    rel = ext_relation(ExtPlan(g), list(m.values), arrow(IOTA, O))
    assert rel.terms == ("q", "id(q)", "id(id(q))")
    # every predicate reachable through id behaves like q, so the
    # relation is total on this slice
    assert rel.related("q", "id(q)")
    assert rel.related("id(q)", "id(id(q))")
    assert len(rel.pairs) == 9
    assert rel.vacuous == frozenset()


def test_ext_relation_individuals_are_diagonal():
    g = load_ground("identity", 3)
    m = minimum_model(g)
    rel = ext_relation(ExtPlan(g), list(m.values), IOTA)
    assert rel.pairs == frozenset({("a", "a"), ("b", "b")})


def test_ext_relation_empty_universe():
    g = load_ground("identity", 3)
    m = minimum_model(g)
    with pytest.raises(EmptyUniverse):
        ext_relation(ExtPlan(g), list(m.values), arrow(arrow(IOTA, IOTA), O))


@pytest.mark.parametrize("name", CORPUS)
def test_minimum_models_are_extensional(name):
    g = load_ground(name, 3)
    m = minimum_model(g)
    report = check_extensional(g, list(m.values))
    assert report.extensional
    assert report.violations == ()


def test_shallow_depth_flags_vacuous_pairs():
    g = load_ground("identity", 1)
    m = minimum_model(g)
    report = check_extensional(g, list(m.values))
    assert report.extensional
    assert ("(i -> o) -> i -> o", "id", "id") in report.vacuous
    assert report.skipped_types == ("o",)


def stable_valuation(g, model):
    return [T0 if a in model else F0 for a in range(len(g.atoms))]


def test_mixed_stable_models_are_not_extensional():
    g = load_ground("choice_pair", 2)
    mixed = frozenset(g.atom_index[a] for a in ("p(a)", "q(a)", "s(p)", "r(q)"))
    report = check_extensional(g, stable_valuation(g, mixed))
    assert not report.extensional
    subjects = {v.subject for v in report.violations}
    assert subjects == {"r", "s"}
    atoms = {a for v in report.violations for a, _ in v.atoms}
    assert atoms == {"r(p)", "r(q)", "s(p)", "s(q)"}
    for v in report.violations:
        assert "not extensionally equal" in str(v)


def test_uniform_stable_models_are_extensional():
    g = load_ground("choice_pair", 2)
    names = [
        ("p(a)", "q(a)", "r(p)", "r(q)"),
        ("p(a)", "q(a)", "s(p)", "s(q)"),
    ]
    for pick in names:
        model = frozenset(g.atom_index[a] for a in pick)
        report = check_extensional(g, stable_valuation(g, model))
        assert report.extensional, pick


def test_every_choice_pair_stable_model_is_classified():
    g = load_ground("choice_pair", 2)
    flags = []
    for model in stable_models(g):
        report = check_extensional(g, stable_valuation(g, model))
        flags.append(report.extensional)
    assert sorted(flags) == [False, False, True, True]


def test_asymmetric_choice_stable_model_is_intensional():
    g = load_ground("asymmetric_choice", 2)
    models = stable_models(g)
    assert len(models) == 1
    report = check_extensional(g, stable_valuation(g, models[0]))
    assert not report.extensional
