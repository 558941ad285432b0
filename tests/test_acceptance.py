"""End-to-end acceptance checks.

Each test exercises one advertised behavior of the toolkit and prints a
single "ACCEPTANCE <name>: PASS" line when it holds, so a verbose run
doubles as a checklist.  Timed tests enforce the documented budgets.
"""

import itertools
import random
import time

from hopes.analysis import (
    StrataAssignment,
    StratViolation,
    check_extensional,
    check_stratified,
)
from hopes.classical import collapse, stable_models, wf_oracle
from hopes.cli import main
from hopes.engine import minimum_model
from hopes.herbrand import GroundProgram
from hopes.truth import F0, T0, ZERO, neg, order

from conftest import CORPUS, load, load_ground, program_path, random_ground_program
from reference_paper import (
    Comparison,
    aleq,
    compare_alpha,
    is_model,
    lub,
    parse_value,
    snapshot,
    tp_step,
)

STRATIFIED = ["identity", "subset", "stratified_ho", "self_support"]


def stable_valuation(g, model):
    return [T0 if a in model else F0 for a in range(len(g.atoms))]


def test_graded_default_model(capsys):
    started = time.perf_counter()
    code = main(["model", str(program_path("defaults"))])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    assert code == 0
    assert out == "p = T0\nq = F0\ns = T1\nr = F1\nt = ZERO\ndepth = 2\n"
    assert elapsed < 1.0
    print("ACCEPTANCE graded-default-model: PASS")


def test_combinator_grounding():
    g = load_ground("identity", 3)
    clause_texts = {g.clause_str(c) for c in g.clauses}
    assert {
        "q(a).",
        "q(b).",
        "p(q) :- q(a).",
        "id(q)(a) :- q(a).",
        "id(q)(b) :- q(b).",
        "p(id(q)) :- id(q)(a).",
        "id(id(q))(a) :- id(q)(a).",
        "id(id(q))(b) :- id(q)(b).",
    } <= clause_texts
    m = minimum_model(g)
    for atom in ("p(q)", "p(id(q))", "id(q)(a)", "id(q)(b)"):
        assert m.value_of(atom) == T0
    print("ACCEPTANCE combinator-grounding: PASS")


def test_extensional_minimum_models():
    started = time.perf_counter()
    for name in CORPUS:
        for k in (1, 2, 3, 4):
            g = load_ground(name, k)
            m = minimum_model(g)
            report = check_extensional(g, list(m.values))
            assert report.extensional, (name, k, report.violations)
            assert report.violations == ()
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print("ACCEPTANCE extensional-minimum-models: PASS")


def test_collapse_matches_wellfounded():
    mismatches = 0
    for name in CORPUS:
        for k in (2, 3):
            g = load_ground(name, k)
            if collapse(minimum_model(g)) != wf_oracle(g):
                mismatches += 1
    rng = random.Random(20260816)
    for _ in range(1000):
        g = random_ground_program(rng, max_atoms=10, max_clauses=15)
        if collapse(minimum_model(g)) != wf_oracle(g):
            mismatches += 1
    assert mismatches == 0
    print("ACCEPTANCE collapse-matches-wellfounded: PASS")


def test_exclusive_choice_stable_models():
    g = load_ground("choice_pair", 2)
    models = stable_models(g)
    names = [sorted(g.atoms[a] for a in m) for m in models]

    # the choice is independent per argument, and the two mirrored mixed
    # picks both reproduce themselves through their reducts, so the
    # count is four: two uniform picks and two mixed ones
    assert len(models) == 4
    assert names == [
        ["p(a)", "q(a)", "r(p)", "r(q)"],
        ["p(a)", "q(a)", "r(p)", "s(q)"],
        ["p(a)", "q(a)", "r(q)", "s(p)"],
        ["p(a)", "q(a)", "s(p)", "s(q)"],
    ]

    reports = [check_extensional(g, stable_valuation(g, m)) for m in models]
    flags = [r.extensional for r in reports]
    assert flags == [True, False, False, True]
    assert sum(flags) == 2

    mixed = reports[2]  # {p(a), q(a), r(q), s(p)}
    witness_atoms = {a for v in mixed.violations for a, _ in v.atoms}
    assert {"s(q)", "r(p)"} <= witness_atoms
    print("ACCEPTANCE exclusive-choice-stable-models: PASS")


def test_guarded_choice_intensional():
    g = load_ground("asymmetric_choice", 2)
    models = stable_models(g)
    assert len(models) >= 1
    for m in models:
        report = check_extensional(g, stable_valuation(g, m))
        assert not report.extensional
    print("ACCEPTANCE guarded-choice-intensional: PASS")


def test_even_loop_stable_pair():
    g = load_ground("even_loop", 2)
    models = stable_models(g)
    assert [sorted(g.atoms[a] for a in m) for m in models] == [["p"], ["q"]]
    print("ACCEPTANCE even-loop-stable-pair: PASS")


def test_self_support_falls():
    g = load_ground("self_support", 3)
    assert g.to_text() == "p(a) :- p(a).\n"
    m = minimum_model(g)
    assert m.value_of("p(a)") == F0
    print("ACCEPTANCE self-support-falls: PASS")


def test_variable_negation_strata():
    r = check_stratified(load("stratified_ho"))
    assert isinstance(r, StrataAssignment)
    assert r.strata == {"q": 1, "p": 2}

    v = check_stratified(load("unstratified_ho"))
    assert isinstance(v, StratViolation)
    mentioned = {u for u, _, _ in v.cycle} | {w for _, _, w in v.cycle}
    assert {"p", "q"} <= mentioned
    assert any(rel == "<" for _, rel, _ in v.cycle)
    print("ACCEPTANCE variable-negation-strata: PASS")


def test_property_suites():
    started = time.perf_counter()

    # truth-domain laws on a sampled ladder
    ladder = [parse_value(s) for s in ("F0", "F1", "F2", "F9", "ZERO", "T9", "T2", "T1", "T0")]
    for a in ladder:
        for b in ladder:
            assert (a < b) + (a == b) + (a > b) == 1
            if a < b:
                assert neg(a) > neg(b)
        assert lub([F0, a]) == a
        assert min([a, a]) == a
        if not a.is_zero:
            assert order(neg(a)) == order(a) + 1
        else:
            assert neg(a) == a
    assert lub([]) == F0

    # bounded consequence iterates never overshoot a stage result
    for name in CORPUS:
        g = load_ground(name, 2)
        m = minimum_model(g)
        base = [F0] * len(g.atoms)
        for rec in m.stages:
            it = list(base)
            for _ in range(20):
                assert compare_alpha(it, list(snapshot(rec, m.values)), rec.alpha) in (
                    Comparison.EQ_ALPHA,
                    Comparison.SQSUBSET_ALPHA,
                )
                it = tp_step(g, it)
            base = list(snapshot(rec, m.values))

        # each stage's decisions persist through every later stage
        for i, early in enumerate(m.stages):
            for late in m.stages[i:]:
                assert (
                    compare_alpha(
                        list(snapshot(early, m.values)), list(snapshot(late, m.values)), early.alpha
                    )
                    is Comparison.EQ_ALPHA
                )
            assert (
                compare_alpha(list(snapshot(early, m.values)), list(m.values), early.alpha)
                is Comparison.EQ_ALPHA
            )

    # stratified programs decide every atom
    for name in STRATIFIED:
        for k in (2, 3, 4):
            assert ZERO not in minimum_model(load_ground(name, k)).values

    # micro-scale minimality: exhaustive interpretations over a
    # seven-value palette, every accepted model sits above the computed one
    rng = random.Random(1999)
    palette = [parse_value(s) for s in ("F0", "F1", "F2", "ZERO", "T2", "T1", "T0")]
    for _ in range(60):
        n_atoms = rng.randint(1, 3)
        atoms = ["x", "y", "z"][:n_atoms]
        specs = []
        for _ in range(rng.randint(1, 4)):
            head = rng.choice(atoms)
            pos, neg_ = [], []
            for _ in range(rng.randint(0, 2)):
                (neg_ if rng.random() < 0.5 else pos).append(rng.choice(atoms))
            specs.append((head, pos, neg_))
        g = GroundProgram.build(atoms, specs)
        m = minimum_model(g)
        for interp in itertools.product(palette, repeat=n_atoms):
            if is_model(g, list(interp))[0]:
                assert aleq(list(m.values), list(interp)), g.to_text()

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print("ACCEPTANCE property-suites: PASS")
