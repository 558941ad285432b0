"""The well-founded-seeded stable-model search against the reference
search it replaced.

The two searches must give the same models in the same order on the
corpus, on seeded random programs and on shapes where the well-founded
seed matters: a choice that leaves a supported but unfounded loop,
pure unfounded cycles, and programs whose well-founded model is total.
The search accepts the leaves of a tight residual without a least-model
pass, so the seeded programs must cover tight and non-tight residuals,
and a supported model that is not stable must still be refused.
"""

import random
import time

import pytest

from hopes import classical
from hopes.classical import TooManyAtoms, Tv3, stable_models, wf_oracle
from hopes.herbrand import GroundProgram

from conftest import CORPUS, load_ground, random_ground_program
from reference_stable import reference_stable_models
from reference_wf import wf_oracle as reference_wf


def names(g, models):
    return [sorted(g.atoms[a] for a in m) for m in models]


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_matches_reference(name):
    for k in range(1, 5):
        g = load_ground(name, k)
        try:
            expected = reference_stable_models(g)
        except TooManyAtoms:
            continue
        assert stable_models(g) == expected, (name, k)


def negation_heavy_program(rng: random.Random) -> GroundProgram:
    """A random program of short, mostly negative bodies, whose
    well-founded model leaves many atoms Undef (most of those of
    ``random_ground_program`` are total)."""
    n = rng.randint(2, 14)
    atoms = [f"a{i}" for i in range(n)]
    clauses = []
    for _ in range(rng.randint(n // 2, 2 * n)):
        pos, neg = [], []
        for _ in range(rng.choice([1, 1, 2, 3])):
            (neg if rng.random() < 0.7 else pos).append(rng.choice(atoms))
        clauses.append((rng.choice(atoms), pos, neg))
    return GroundProgram.build(atoms, clauses)


def residual_shape(g: GroundProgram) -> str:
    """``total`` when the well-founded model leaves no atom Undef, else
    whether the residual program is ``tight``: its positive graph, from
    each Undef positive literal of a clause of an Undef atom with no
    literal false to the clause's head, has no cycle."""
    wf = reference_wf(g)
    undef = {a for a, v in enumerate(wf) if v is Tv3.UNDEF}
    if not undef:
        return "total"
    succ = {a: [] for a in undef}
    for c in g.clauses:
        if c.head in undef and not any(wf[a] is (Tv3.TRUE if neg else Tv3.FALSE) for neg, a in c.literals):
            for neg, a in c.literals:
                if not neg and a in undef:
                    succ[a].append(c.head)
    state = {}  # on the DFS path (True) or finished (False)

    def cyclic(a) -> bool:
        state[a] = True
        for b in succ[a]:
            if state.get(b) or (b not in state and cyclic(b)):
                return True
        state[a] = False
        return False

    return "non-tight" if any(a not in state and cyclic(a) for a in sorted(undef)) else "tight"


def test_random_programs_match_reference():
    rng = random.Random(6174)
    programs = [random_ground_program(rng, max_atoms=14, max_clauses=rng.choice([8, 16, 24])) for _ in range(300)]
    programs += [negation_heavy_program(rng) for _ in range(600)]
    shapes = {"total": 0, "tight": 0, "non-tight": 0}
    for g in programs:
        shapes[residual_shape(g)] += 1
        assert stable_models(g) == reference_stable_models(g), g.to_text()
    assert shapes["tight"] >= 250 and shapes["non-tight"] >= 100, shapes


def test_unfounded_loop_behind_a_choice():
    # choosing a supports c and d through each other and through a; in
    # the model {b} the loop c, d is supported by nothing but itself
    g = GroundProgram.build(
        ["a", "b", "c", "d"],
        [("a", [], ["b"]), ("b", [], ["a"]), ("c", ["d"], []), ("d", ["c"], []), ("c", ["a"], [])],
    )
    assert names(g, stable_models(g)) == [["a", "c", "d"], ["b"]]
    assert stable_models(g) == reference_stable_models(g)


def supported_not_stable() -> GroundProgram:
    # p and q support each other; {p, q, x} is a supported model, but
    # with x true nothing founds the loop, so it is not stable
    return GroundProgram.build(
        ["p", "q", "x", "y"],
        [("p", ["q"], []), ("q", ["p"], []), ("p", [], ["x"]), ("x", [], ["y"]), ("y", [], ["x"])],
    )


def test_supported_model_of_a_loop_is_refused():
    g = supported_not_stable()
    assert names(g, stable_models(g)) == [["p", "q", "y"], ["x"]]
    assert stable_models(g) == reference_stable_models(g)


def even_loops(n: int = 12) -> GroundProgram:
    atoms = [f"{x}{i}" for i in range(n) for x in "pq"]
    clauses = [(f"p{i}", [], [f"q{i}"]) for i in range(n)] + [(f"q{i}", [], [f"p{i}"]) for i in range(n)]
    return GroundProgram.build(atoms, clauses)


def test_tight_residual_needs_no_least_model_pass(monkeypatch):
    """Counted, not timed: on the tight residual of 12 even loops the
    search runs no least-model pass, while on a non-tight one its
    leaves still do."""
    calls = []
    least = classical._least
    monkeypatch.setattr(classical, "_least", lambda *args: calls.append(1) or least(*args))

    def count(evaluate, g) -> int:
        calls.clear()
        evaluate(g)
        return len(calls)

    loops = even_loops()
    assert len(stable_models(loops)) == 4096
    assert count(stable_models, loops) == 0
    assert count(stable_models, supported_not_stable()) > 0


def test_pure_unfounded_cycles():
    atoms = [f"{x}{i}" for i in range(10) for x in "uv"]
    clauses = [(f"u{i}", [f"v{i}"], []) for i in range(10)] + [(f"v{i}", [f"u{i}"], []) for i in range(10)]
    clauses += [(f"u{i}", [], [f"u{i + 1}"]) for i in range(0, 10, 2)]
    g = GroundProgram.build(atoms, clauses)
    assert all(v is not Tv3.UNDEF for v in wf_oracle(g))
    assert stable_models(g) == reference_stable_models(g)
    assert len(stable_models(g)) == 1


def test_total_wellfounded_model():
    # a negation chain: the well-founded model decides every atom
    atoms = [f"a{i}" for i in range(20)]
    g = GroundProgram.build(atoms, [("a0", [], [])] + [(f"a{i}", [], [f"a{i - 1}"]) for i in range(1, 20)])
    wf = wf_oracle(g)
    assert Tv3.UNDEF not in wf
    assert stable_models(g) == [frozenset(a for a, v in enumerate(wf) if v is Tv3.TRUE)]
    assert stable_models(g) == reference_stable_models(g)


def test_loops_and_unfounded_cycles_scale():
    """12 even loops and 12 unfounded 2-cycles beside a negation chain
    of 2000 atoms: 2048 atoms, 24 of them Undef, 4096 models under the
    default cap.  The well-founded model decides the chain and the
    2-cycles, and the residual, the 12 even loops, is tight, so no leaf
    runs a least-model pass."""
    atoms, clauses = [], []
    for i in range(12):
        atoms += [f"p{i}", f"q{i}", f"u{i}", f"v{i}"]
        clauses += [(f"p{i}", [], [f"q{i}"]), (f"q{i}", [], [f"p{i}"])]
        clauses += [(f"u{i}", [f"v{i}"], []), (f"v{i}", [f"u{i}"], [])]
    atoms += [f"c{i}" for i in range(2000)]
    clauses += [("c0", [], [])] + [(f"c{i}", [], [f"c{i - 1}"]) for i in range(1, 2000)]
    g = GroundProgram.build(atoms, clauses)
    start = time.perf_counter()
    models = stable_models(g)
    elapsed = time.perf_counter() - start
    assert len(models) == 4096
    assert elapsed < 0.6, elapsed


def loops_beside_chain() -> GroundProgram:
    """The program of ``test_loops_and_unfounded_cycles_scale``."""
    atoms, clauses = [], []
    for i in range(12):
        atoms += [f"p{i}", f"q{i}", f"u{i}", f"v{i}"]
        clauses += [(f"p{i}", [], [f"q{i}"]), (f"q{i}", [], [f"p{i}"])]
        clauses += [(f"u{i}", [f"v{i}"], []), (f"v{i}", [f"u{i}"], [])]
    atoms += [f"c{i}" for i in range(2000)]
    clauses += [("c0", [], [])] + [(f"c{i}", [], [f"c{i - 1}"]) for i in range(1, 2000)]
    return GroundProgram.build(atoms, clauses)


def test_names_are_each_models_sorted_atom_names():
    """``names``, which the CLI prints, is built from the shared names of
    the well-founded true atoms and each model's own Undef atoms; it must
    equal the model's own atoms' names, sorted."""
    rng = random.Random(6174)
    programs = [random_ground_program(rng, max_atoms=14, max_clauses=rng.choice([8, 16, 24])) for _ in range(300)]
    programs += [negation_heavy_program(rng) for _ in range(600)]
    programs.append(loops_beside_chain())
    checked = 0
    for g in programs:
        for m in stable_models(g):
            assert m.names == tuple(sorted(g.atoms[a] for a in m)), g.to_text()
            checked += 1
    assert checked > 4096
