"""The compiled extensionality check against the string-based reference.

One plan is compiled per ground program and checked under many
valuations: the minimum model, every stable model and seeded random
valuations.  Each report must equal the reference's in every field
(verdict, violations in order, vacuous pairs, checked and skipped
types), and so must the relation at every type of the closure.  The
plan keeps each type's relation from one valuation to the next where
they agree on the atoms it reads, so the order of the valuations is
part of what is tested.
"""

import contextlib
import io
import itertools
import random

import pytest

from hopes import cli, parse_program, typecheck
from hopes.analysis import ExtPlan, check_extensional
from hopes.classical import TooManyAtoms, stable_models
from hopes.engine import minimum_model
from hopes.herbrand import BudgetExceeded, EmptyUniverse, GroundProgram, ground_instantiate
from hopes.truth import F0, T0, ZERO, TruthValue
from hopes.types import IOTA, O, arrow

from conftest import CORPUS, load, program_path
from reference_ext import _ExtChecker, reference_check_extensional, reference_ext_relation
from reference_grounder import TermEnumerator
from reference_paper import ext_relation
from test_grounder_oracle import random_checked_program

GRADES = [F0, T0, ZERO, TruthValue(1, 1), TruthValue(-1, 1)]


def valuations(g, rng, randoms):
    yield list(minimum_model(g).values)
    try:
        models = list(stable_models(g, cap=10))
    except TooManyAtoms:
        models = []
    for m in models[:8]:
        yield [T0 if a in m else F0 for a in range(len(g.atoms))]
    for _ in range(randoms):
        # few grades, so that many applications agree and relations are large
        grades = rng.sample(GRADES, rng.randint(1, 3))
        yield [rng.choice(grades) for _ in g.atoms]


def assert_same_as_reference(tp, g, k, rng, randoms=3) -> list:
    """Compare every valuation under one compiled plan; return the
    reference's reports."""
    return assert_plan_matches_reference(tp, g, k, ExtPlan(g), valuations(g, rng, randoms))


def assert_plan_matches_reference(tp, g, k, plan, sequence) -> list:
    """Check each valuation of `sequence` in turn under `plan`; return
    the reference's reports."""
    types = sorted(TermEnumerator(tp).closure, key=str) + [arrow(arrow(IOTA, IOTA), O)]
    reports = []
    for values in sequence:
        expected = reference_check_extensional(tp, g, values, k)
        assert plan.check(values) == expected
        # every relation, from one reference checker per valuation
        reference = _ExtChecker(tp, g, values, k)
        for typ in types:
            if reference.slice_of(typ):
                assert ext_relation(plan, values, typ) == reference.relation(typ), typ
            else:
                with pytest.raises(EmptyUniverse):
                    ext_relation(plan, values, typ)
        reports.append(expected)
    return reports


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_matches_reference(name):
    rng = random.Random(name)
    tp = load(name)
    for k in (1, 2, 3, 4):
        assert_same_as_reference(tp, ground_instantiate(tp, k), k, rng)


@pytest.mark.parametrize("name", CORPUS)
def test_entry_points_match_reference(name):
    tp = load(name)
    for k in (1, 2, 3, 4):
        g = ground_instantiate(tp, k)
        values = list(minimum_model(g).values)
        assert check_extensional(g, values) == reference_check_extensional(tp, g, values, k)
        plan = ExtPlan(g)
        for typ in sorted(TermEnumerator(tp).closure, key=str):
            assert relation_or_empty(ext_relation, plan, values, typ) == relation_or_empty(
                reference_ext_relation, tp, g, values, typ, k
            )


def relation_or_empty(fn, *args):
    try:
        return fn(*args)
    except EmptyUniverse as exc:
        return ("empty", exc.typ, exc.depth_bound)


def test_random_programs_match_reference():
    rng = random.Random(19990329)
    compared = 0
    minimum_violations = 0  # the minimum model reported non-extensional
    pair_violations = 0  # a violation between two different predicates
    vacuous = 0
    for _ in range(220):
        _, tp = random_checked_program(rng)
        for k in (1, 2, 3, 4):
            try:
                g = ground_instantiate(tp, k, budget=2000)
            except BudgetExceeded:
                continue
            reports = assert_same_as_reference(tp, g, k, rng, randoms=2)
            compared += 1
            minimum_violations += not reports[0].extensional
            pair_violations += any(" / " in v.subject for r in reports for v in r.violations)
            vacuous += any(r.vacuous for r in reports)
    assert compared >= 600
    # the minimum model is extensional (the paper's main theorem), and
    # the reference's own sweep finds nothing that reflexivity missed
    assert minimum_violations == 0
    assert pair_violations == 0
    assert vacuous >= 50


# At depth 2, p(f(a0)) has three symbols and lies outside the slice of
# i -> o, so the relation relates p and q at i -> i -> o without
# comparing p(f(a0))(a0) = F0 with q(f(a0))(a0) = T0; an application
# outside its result slice is undefined.
MISMATCH = """
#pred p : i -> i -> o.
#pred q : i -> i -> o.
#func f : i -> i.
q(f(Y), X).
p(X, Y) :- p(X, Z).
"""


def test_one_definedness_rule():
    tp = typecheck(parse_program(MISMATCH))
    typ = arrow(IOTA, arrow(IOTA, O))
    for k in (1, 2, 3, 4):
        g = ground_instantiate(tp, k)
        report = assert_same_as_reference(tp, g, k, random.Random(k))[0]
        assert report.extensional and report.violations == (), k
        relation = ext_relation(ExtPlan(g), list(minimum_model(g).values), typ)
        if k == 2:
            assert relation.related("p", "q") and relation.vacuous == frozenset()
        if k == 3:
            assert not relation.related("p", "q")


def test_one_plan_serves_every_stable_model():
    tp = load("choice_pair")
    g = ground_instantiate(tp, 2)
    plan = ExtPlan(g)
    flags = []
    for m in stable_models(g):
        values = [T0 if a in m else F0 for a in range(len(g.atoms))]
        report = plan.check(values)
        assert report == reference_check_extensional(tp, g, values, 2)
        flags.append(report.extensional)
    assert sorted(flags) == [False, False, True, True]


# choice_pair over three predicates, eight stable models, beside facts
# whose names sort before, between and after the Undef atoms r(qj), s(qj)
CHOICE = """#pred r : (i -> o) -> o.
#pred s : (i -> o) -> o.
#pred q0 : i -> o.
#pred q1 : i -> o.
#pred q2 : i -> o.
r(Q) :- ~s(Q).
s(Q) :- ~r(Q).
q0(a).
q1(a).
q2(a).
{facts}"""
FACTS = [[], ["a0", "ra", "t"], ["b", "rz", "sa", "z"]]


def test_stable_ext_checks_each_model_in_place(tmp_path, monkeypatch):
    """``hopes stable --ext`` keeps one value list under one plan: it
    sets the well-founded true atoms once and, per model, only the
    Undef atoms.  Each valuation it checks must be that model's own, and
    each report the reference's on that model's full valuation, on every
    stable model of the corpus at depths 1-4 (choice_pair among them),
    of choice programs with facts among their Undef atoms, and of
    seeded random typed programs."""
    checked = []
    check = ExtPlan.check

    def check_and_keep(self, values):
        report = check(self, values)
        checked.append((list(values), report))
        return report

    monkeypatch.setattr(ExtPlan, "check", check_and_keep)
    rng = random.Random(2017)
    texts = [program_path(name).read_text() for name in CORPUS]
    texts += [CHOICE.format(facts="".join(f"#pred {x} : o.\n{x}.\n" for x in facts)) for facts in FACTS]
    texts += [random_checked_program(rng)[0] for _ in range(120)]
    path = tmp_path / "p.hop"
    kinds = dict.fromkeys(["models", "several models", "not extensional", "choice_pair"], 0)
    for text, k in itertools.product(texts, (1, 2, 3, 4)):
        tp = typecheck(parse_program(text))
        try:
            g = ground_instantiate(tp, k, budget=2000)
            models = list(stable_models(g, cap=10))
        except (BudgetExceeded, TooManyAtoms):
            continue
        path.write_text(text)
        checked.clear()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(["stable", str(path), "--depth", str(k), "--ext", "--max-atoms", "10"]) == 0
        assert len(checked) == len(models), text
        for m, (values, report) in zip(models, checked):
            assert values == [T0 if a in m else F0 for a in range(len(g.atoms))], text
            assert report == reference_check_extensional(tp, g, values, k), text
            kinds["not extensional"] += not report.extensional
        kinds["models"] += len(models)
        kinds["several models"] += len(models) > 1
        kinds["choice_pair"] += text == texts[CORPUS.index("choice_pair")] and k in (2, 3) and len(models) == 4
    assert kinds["choice_pair"] == 2 and kinds["models"] >= 300, kinds
    assert kinds["several models"] >= 15 and kinds["not extensional"] >= 20, kinds


def forwards_and_back(g, rng) -> list:
    """Every stable model forwards and then backwards, with the minimum
    model and a random valuation in between.  The way from the minimum
    model to the random valuation changes one atom at a time, in random
    order, so that an atom missing from what a type's relation reads
    leaves a stale relation."""
    try:
        models = stable_models(g, cap=10)
    except TooManyAtoms:
        models = []
    atoms = range(len(g.atoms))
    forwards = [[T0 if a in m else F0 for a in atoms] for m in models]
    values = list(minimum_model(g).values)
    target = [rng.choice(GRADES) for _ in atoms]
    middle = [values]
    for a in rng.sample(atoms, len(atoms)):
        values = values.copy()
        values[a] = target[a]
        middle.append(values)
    return forwards + middle + forwards[::-1]


def test_memo_follows_each_valuation():
    # one plan per ground program, never compiled again, so each check
    # may meet the relations that the previous valuation left on a type
    rng = random.Random(20011)
    agree = differ = 0  # consecutive valuations, per type a check compares
    programs = [load("choice_pair")] + [random_checked_program(rng)[1] for _ in range(60)]
    for tp, k in itertools.product(programs, (1, 2, 3)):
        try:
            g = ground_instantiate(tp, k, budget=2000)
        except BudgetExceeded:
            continue
        plan = ExtPlan(g)
        sequence = forwards_and_back(g, rng)
        assert_plan_matches_reference(tp, g, k, plan, sequence)
        for before, after in zip(sequence, sequence[1:]):
            for t in plan.order:
                if all(before[a] == after[a] for a in t.support):
                    agree += 1
                else:
                    differ += 1
    assert agree >= 1000 and differ >= 500


def test_compile_needs_a_term_store():
    g = GroundProgram.build(["p", "q"], [("p", [], ["q"])], depth_bound=2)
    with pytest.raises(ValueError):
        ExtPlan(g)


@pytest.mark.parametrize("name", CORPUS)
def test_report_depth_is_the_grounding_depth(name):
    tp = load(name)
    for k in (1, 2, 3, 4):
        g = ground_instantiate(tp, k)
        assert check_extensional(g, list(minimum_model(g).values)).depth == g.depth_bound == k
