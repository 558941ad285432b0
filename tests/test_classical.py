import itertools
import random

import pytest

from hopes.classical import TooManyAtoms, Tv3, collapse, stable_models, wf_oracle
from hopes.engine import minimum_model
from hopes.herbrand import GroundProgram

from conftest import CORPUS, load_ground, random_ground_program
from reference_stable import reduct, reference_is_stable, reference_least_model
from reference_wf import wf_oracle as reference_wf_oracle


def tv_map(g, tvs):
    return {a: str(v) for a, v in zip(g.atoms, tvs)}


def names(g, interp):
    return sorted(g.atoms[a] for a in interp)


def test_collapse_defaults():
    g = load_ground("defaults", 3)
    assert tv_map(g, collapse(minimum_model(g))) == {
        "p": "True",
        "q": "False",
        "r": "False",
        "s": "True",
        "t": "Undef",
    }


def test_wf_oracle_defaults():
    g = load_ground("defaults", 3)
    assert tv_map(g, wf_oracle(g)) == {
        "p": "True",
        "q": "False",
        "r": "False",
        "s": "True",
        "t": "Undef",
    }


def test_wf_oracle_small_programs():
    g = GroundProgram.build(["p", "q"], [("p", [], ["q"]), ("q", [], [])])
    assert tv_map(g, wf_oracle(g)) == {"p": "False", "q": "True"}

    g = GroundProgram.build(["t"], [("t", [], ["t"])])
    assert wf_oracle(g) == [Tv3.UNDEF]

    g = GroundProgram.build(["p", "q"], [("p", ["q"], []), ("q", ["p"], [])])
    assert wf_oracle(g) == [Tv3.FALSE, Tv3.FALSE]


def test_reduct_cancels_negation():
    g = load_ground("choice_pair", 2)
    guess = frozenset(
        g.atom_index[a] for a in ("p(a)", "q(a)", "s(p)", "r(q)")
    )
    r = reduct(g, guess)
    assert r.atoms == g.atoms
    assert sorted(r.clause_str(c) for c in r.clauses) == [
        "p(a).",
        "q(a).",
        "r(q).",
        "s(p).",
    ]
    assert all(not negated for c in r.clauses for negated, _ in c.literals)


def test_reduct_keeps_negation_free_programs():
    g = load_ground("identity", 3)
    assert reduct(g, frozenset()).clauses == g.clauses
    assert reduct(g, frozenset(range(len(g.atoms)))).clauses == g.clauses


def test_reduct_of_self_negation():
    g = GroundProgram.build(["p"], [("p", [], ["p"])])
    assert reduct(g, frozenset({0})).clauses == ()
    survived = reduct(g, frozenset())
    assert [survived.clause_str(c) for c in survived.clauses] == ["p."]


@pytest.mark.parametrize("name", CORPUS)
def test_reduct_idempotent(name):
    g = load_ground(name, 2)
    for guess in (frozenset(), frozenset(range(len(g.atoms)))):
        once = reduct(g, guess)
        assert reduct(once, guess).clauses == once.clauses


def test_least_model_positive():
    g = load_ground("identity", 3)
    assert reference_least_model(g) == frozenset(range(len(g.atoms)))

    g = GroundProgram.build(
        ["p", "q", "r"], [("p", [], []), ("q", ["p"], []), ("r", ["r"], [])]
    )
    assert names(g, reference_least_model(g)) == ["p", "q"]


def test_stable_even_loop():
    g = load_ground("even_loop", 2)
    models = stable_models(g)
    assert [names(g, m) for m in models] == [["p"], ["q"]]


def test_stable_choice_pair():
    g = load_ground("choice_pair", 2)
    models = stable_models(g)
    assert [names(g, m) for m in models] == [
        ["p(a)", "q(a)", "r(p)", "r(q)"],
        ["p(a)", "q(a)", "r(p)", "s(q)"],
        ["p(a)", "q(a)", "r(q)", "s(p)"],
        ["p(a)", "q(a)", "s(p)", "s(q)"],
    ]


def test_stable_asymmetric_choice():
    g = load_ground("asymmetric_choice", 2)
    models = stable_models(g)
    assert len(models) == 1
    assert names(g, models[0]) == ["p(a)", "q(a)", "r(q)", "s(p)"]


def test_stable_self_support():
    g = load_ground("self_support", 2)
    models = stable_models(g)
    assert models == [frozenset()]


def test_stable_self_negation_has_none():
    g = GroundProgram.build(["p"], [("p", [], ["p"])])
    assert stable_models(g) == []


def test_stable_matches_exhaustive_enumeration():
    checked = 0
    for name in CORPUS:
        g = load_ground(name, 2)
        n = len(g.atoms)
        if n > 12:
            continue
        brute = [
            frozenset(combo)
            for size in range(n + 1)
            for combo in itertools.combinations(range(n), size)
            if reference_is_stable(g, frozenset(combo))
        ]
        brute.sort(key=lambda m: tuple(sorted(g.atoms[a] for a in m)))
        assert stable_models(g) == brute
        checked += 1
    assert checked >= 5


def test_stable_negation_free_is_least_model():
    for name in CORPUS:
        g = load_ground(name, 2)
        if any(negated for c in g.clauses for negated, _ in c.literals):
            continue
        assert stable_models(g) == [reference_least_model(g)]


def test_stable_cap():
    # the cap counts the atoms the well-founded model leaves Undef: 30
    # facts have none, 13 even loops have 26
    atoms = [f"b{i}" for i in range(30)]
    g = GroundProgram.build(atoms, [(a, [], []) for a in atoms])
    assert stable_models(g) == [frozenset(range(30))]

    atoms = [f"{x}{i}" for i in range(13) for x in "pq"]
    g = GroundProgram.build(
        atoms,
        [(f"p{i}", [], [f"q{i}"]) for i in range(13)] + [(f"q{i}", [], [f"p{i}"]) for i in range(13)],
    )
    with pytest.raises(TooManyAtoms) as exc:
        stable_models(g)
    assert exc.value.count == 26
    assert len(stable_models(g, cap=26)) == 2**13


@pytest.mark.parametrize("name", CORPUS)
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_collapse_agrees_with_alternating_fixpoint(name, k):
    g = load_ground(name, k)
    assert collapse(minimum_model(g)) == reference_wf_oracle(g)


def test_collapse_agrees_on_random_programs():
    rng = random.Random(90125)
    for _ in range(200):
        g = random_ground_program(rng)
        assert collapse(minimum_model(g)) == reference_wf_oracle(g), g.to_text()


def test_stable_models_sit_between_wellfounded_bounds():
    rng = random.Random(5150)
    programs = [load_ground(name, 2) for name in CORPUS if len(load_ground(name, 2).atoms) <= 12]
    programs += [random_ground_program(rng, max_atoms=8, max_clauses=10) for _ in range(60)]
    for g in programs:
        wf = wf_oracle(g)
        wf_true = {a for a, v in enumerate(wf) if v is Tv3.TRUE}
        wf_false = {a for a, v in enumerate(wf) if v is Tv3.FALSE}
        for m in stable_models(g):
            assert wf_true <= m
            assert not (m & wf_false)


def test_total_wellfounded_model_is_the_unique_stable_model():
    for name in CORPUS:
        g = load_ground(name, 2)
        if len(g.atoms) > 20:
            continue
        wf = wf_oracle(g)
        if any(v is Tv3.UNDEF for v in wf):
            continue
        expected = frozenset(a for a, v in enumerate(wf) if v is Tv3.TRUE)
        assert stable_models(g) == [expected]


def test_stable_models_pass_their_own_check():
    rng = random.Random(2112)
    for _ in range(60):
        g = random_ground_program(rng, max_atoms=8, max_clauses=10)
        for m in stable_models(g):
            assert reference_is_stable(g, m)
