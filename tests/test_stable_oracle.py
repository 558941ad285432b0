"""The well-founded-seeded stable-model search against the reference
search it replaced.

The two searches must give the same models in the same order on the
corpus, on seeded random programs and on shapes where the well-founded
seed matters: a choice that leaves a supported but unfounded loop,
pure unfounded cycles, and programs whose well-founded model is total.
The search accepts the leaves of a tight residual without a least-model
pass, so the seeded programs must cover tight and non-tight residuals,
and a supported model that is not stable must still be refused.  It
searches each independent component of the residual once and combines
their models, so programs of several components, whose atoms interleave
in name order, must come out in the reference's order, and a component
with no model must leave the program with none.
"""

import bisect
import random
import time

import pytest

from hopes import classical
from hopes.classical import DEFAULT_STABLE_CAP, TooManyAtoms, Tv3, stable_models, wf_oracle
from hopes.herbrand import GroundProgram

from conftest import CORPUS, load_ground, random_ground_program, shrink, shrink_report
from reference_stable import reference_stable_models
from reference_wf import wf_oracle as reference_wf


def names(g, models):
    return [sorted(g.atoms[a] for a in m) for m in models]


def disagrees(g: GroundProgram, cap: int = DEFAULT_STABLE_CAP) -> bool:
    """Whether the search and the reference differ on g, in the models
    or in their names; a crash counts as a difference."""
    try:
        models, expected = stable_models(g, cap), reference_stable_models(g, cap)
        return list(models) != expected or [list(n) for n in models.names()] != names(g, expected)
    except Exception:
        return True


def report(g: GroundProgram, cap: int = DEFAULT_STABLE_CAP) -> str:
    """``shrink_report`` while the search still differs."""
    return shrink_report(g, lambda h: disagrees(h, cap))


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_matches_reference(name):
    for k in range(1, 5):
        g = load_ground(name, k)
        try:
            expected = reference_stable_models(g)
        except TooManyAtoms:
            continue
        assert list(stable_models(g)) == expected, (name, k)


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


def residual_components(g: GroundProgram) -> list[tuple[set[int], bool]]:
    """The components of the residual program, each with whether it is
    tight.  The residual is every clause of an atom the well-founded
    model leaves Undef with no literal false, over its Undef literals.
    Two Undef atoms are in one component when a chain of such clauses,
    each holding two of them as head or literal of either sign, links
    them.  A component is tight when its positive graph, from each
    Undef positive literal of a clause to the clause's head, has no
    cycle."""
    wf = reference_wf(g)
    undef = {a for a, v in enumerate(wf) if v is Tv3.UNDEF}
    linked = {a: set() for a in undef}
    succ = {a: [] for a in undef}
    for c in g.clauses:
        if c.head in undef and not any(wf[a] is (Tv3.TRUE if neg else Tv3.FALSE) for neg, a in c.literals):
            for neg, a in c.literals:
                if a in undef:
                    linked[a].add(c.head)
                    linked[c.head].add(a)
                    if not neg:
                        succ[a].append(c.head)
    components: list[set[int]] = []
    for a in sorted(undef):
        if any(a in comp for comp in components):
            continue
        comp, todo = {a}, [a]
        while todo:
            for b in linked[todo.pop()] - comp:
                comp.add(b)
                todo.append(b)
        components.append(comp)
    state = {}  # on the DFS path (True) or finished (False)

    def cyclic(a) -> bool:
        state[a] = True
        for b in succ[a]:
            if state.get(b) or (b not in state and cyclic(b)):
                return True
        state[a] = False
        return False

    return [(comp, not any(a not in state and cyclic(a) for a in sorted(comp))) for comp in components]


def residual_shape(g: GroundProgram) -> str:
    """``total`` when the well-founded model leaves no atom Undef, else
    whether the residual program is ``tight``: every component is."""
    parts = residual_components(g)
    if not parts:
        return "total"
    return "tight" if all(tight for _, tight in parts) else "non-tight"


def test_random_programs_match_reference():
    rng = random.Random(6174)
    programs = [random_ground_program(rng, max_atoms=14, max_clauses=rng.choice([8, 16, 24])) for _ in range(300)]
    programs += [negation_heavy_program(rng) for _ in range(600)]
    shapes = {"total": 0, "tight": 0, "non-tight": 0}
    for g in programs:
        shapes[residual_shape(g)] += 1
        assert list(stable_models(g)) == reference_stable_models(g), report(g)
    assert shapes["tight"] >= 250 and shapes["non-tight"] >= 100, shapes


# Blocks of clauses over the letters of their own atoms: an even loop
# (tight, two models), the non-tight gadget of a positive loop that a
# choice can leave unfounded (two models), a three-way choice (three
# models) and a lone odd loop (no model).
BLOCKS = {
    "even": [("x", [], ["y"]), ("y", [], ["x"])],
    "gadget": [("p", ["q"], []), ("q", ["p"], []), ("p", [], ["x"]), ("x", [], ["y"]), ("y", [], ["x"])],
    "triple": [("a", [], ["b", "c"]), ("b", [], ["a", "c"]), ("c", [], ["a", "b"])],
    "odd": [("x", [], ["x"])],
}


def multi_component_program(rng: random.Random) -> GroundProgram:
    """Three to five blocks over disjoint atoms, each a block of
    ``BLOCKS`` or a random negation-heavy one, beside three atoms that
    the well-founded model decides: the fact ``f``, ``n`` with no
    clause and ``t :- ~n``.  Block b's atoms are named by letter and b
    (``x0``, ``y0``, ``x1``), so the blocks interleave in name order,
    and numbered block by block.  A block's clauses may also read the
    decided atoms, mostly through a literal that is true (which the
    residual drops), now and then through one that is false (which
    drops the clause): those shared atoms must not join two blocks."""
    atoms = ["f", "n", "t"]
    specs = [("f", [], []), ("t", [], ["n"])]
    for b in range(rng.randint(3, 5)):
        kind = rng.choices(["even", "gadget", "triple", "odd", "random"], [4, 4, 2, 1, 2])[0]
        if kind == "random":
            letters = "abcd"[: rng.randint(2, 4)]
            block = []
            for _ in range(rng.randint(2, 6)):
                pos, neg = [], []
                for _ in range(rng.randint(1, 3)):
                    (neg if rng.random() < 0.7 else pos).append(rng.choice(letters))
                block.append((rng.choice(letters), pos, neg))
        else:
            block = BLOCKS[kind]
            letters = sorted({a for head, pos, neg in block for a in [head, *pos, *neg]})
        atoms += [f"{x}{b}" for x in letters]
        for head, pos, neg in block:
            pos, neg = [f"{x}{b}" for x in pos], [f"{x}{b}" for x in neg]
            r = rng.random()
            if r < 0.3:
                sign, a = rng.choice([(pos, "f"), (pos, "t"), (neg, "n")])
                sign.append(a)
            elif r < 0.35:
                sign, a = rng.choice([(pos, "n"), (neg, "f"), (neg, "t")])
                sign.append(a)
            specs.append((f"{head}{b}", pos, neg))
    return GroundProgram.build(atoms, specs)


def test_multi_component_programs_match_reference():
    """Same models, in the same order, with the same names, as the
    reference, on residuals of several components, with floors on each
    kind of program the split must get right."""
    rng = random.Random(1994)
    kinds = dict.fromkeys(["three or more", "non-tight beside tight", "shared true atoms", "no model"], 0)
    for _ in range(400):
        g = multi_component_program(rng)
        models, expected = stable_models(g), reference_stable_models(g)
        got = list(models)
        assert got == expected, report(g)
        assert [list(n) for n in models.names()] == names(g, expected), report(g)
        parts = residual_components(g)
        shared = {g.atom_index["f"], g.atom_index["t"]}
        kinds["three or more"] += len(parts) >= 3
        kinds["non-tight beside tight"] += any(t for _, t in parts) and not all(t for _, t in parts)
        kinds["shared true atoms"] += len(parts) >= 2 and len(got) >= 2 and all(shared <= m for m in got)
        kinds["no model"] += len(parts) >= 2 and not got
    assert kinds["three or more"] >= 250 and kinds["non-tight beside tight"] >= 200, kinds
    assert kinds["shared true atoms"] >= 150 and kinds["no model"] >= 120, kinds


def test_unfounded_loop_behind_a_choice():
    # choosing a supports c and d through each other and through a; in
    # the model {b} the loop c, d is supported by nothing but itself
    g = GroundProgram.build(
        ["a", "b", "c", "d"],
        [("a", [], ["b"]), ("b", [], ["a"]), ("c", ["d"], []), ("d", ["c"], []), ("c", ["a"], [])],
    )
    assert names(g, stable_models(g)) == [["a", "c", "d"], ["b"]]
    assert list(stable_models(g)) == reference_stable_models(g)


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
    assert list(stable_models(g)) == reference_stable_models(g)


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


def gadgets(n: int, joined: bool = False) -> GroundProgram:
    """n copies of ``supported_not_stable``'s program, which the
    well-founded model leaves wholly Undef: a residual of n non-tight
    components of four atoms each.  Joined, the copies share one more
    clause, ``z :- p0, ..., p(n-1).``, and the residual is one
    component."""
    atoms, clauses = [], []
    for i in range(n):
        p, q, x, y = (f"{a}{i}" for a in "pqxy")
        atoms += [p, q, x, y]
        clauses += [(p, [q], []), (q, [p], []), (p, [], [x]), (x, [], [y]), (y, [], [x])]
    if joined:
        atoms.append("z")
        clauses.append(("z", [f"p{i}" for i in range(n)], []))
    return GroundProgram.build(atoms, clauses)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_each_component_is_searched_once(monkeypatch, n):
    """Counted: each copy of the gadget is searched on its own, and its
    search has three consistent leaves, {p, q, x} (supported, not
    stable), {p, q, y} and {x}, each with one least-model pass, so n
    copies take 3n passes for their 2^n models (one search over the
    whole residual takes 3^n, 6,561 at n = 8)."""
    calls = []
    least = classical._least
    monkeypatch.setattr(classical, "_least", lambda *args: calls.append(1) or least(*args))
    g = gadgets(n)
    models = stable_models(g, cap=4 * n)
    assert len(calls) == 3 * n
    assert len(models) == 2**n
    assert list(models) == reference_stable_models(g, cap=4 * n)


def test_joined_component_checks_every_leaf(monkeypatch):
    """Counted: four gadget copies joined by ``z :- p0, p1, p2, p3.``
    form one non-tight component, which does not split.  Each copy has
    three consistent leaves and the search takes every combination, so
    it runs 3^4 = 81 least-model passes for its 2^4 = 16 models."""
    calls = []
    least = classical._least
    monkeypatch.setattr(classical, "_least", lambda *args: calls.append(1) or least(*args))
    g = gadgets(4, joined=True)
    models = stable_models(g)
    assert len(calls) == 81
    assert len(models) == 16
    assert list(models) == reference_stable_models(g)


def test_shrink_keeps_one_failing_clause():
    """``shrink`` on a planted failure, some clause with two negated
    literals: of each random program that has one, what is left is a
    single clause of two negated literals, over the same atoms."""

    def fails(h: GroundProgram) -> bool:
        return any(sum(n for n, _ in c.literals) >= 2 for c in h.clauses)

    rng = random.Random(2002)
    planted = [g for g in (negation_heavy_program(rng) for _ in range(60)) if fails(g)]
    assert len(planted) >= 20 and max(len(g.clauses) for g in planted) >= 10
    for g in planted:
        small = shrink(g, fails)
        assert [[n for n, _ in c.literals] for c in small.clauses] == [[True, True]], small.to_text()
        assert small.atoms == g.atoms


def test_pure_unfounded_cycles():
    atoms = [f"{x}{i}" for i in range(10) for x in "uv"]
    clauses = [(f"u{i}", [f"v{i}"], []) for i in range(10)] + [(f"v{i}", [f"u{i}"], []) for i in range(10)]
    clauses += [(f"u{i}", [], [f"u{i + 1}"]) for i in range(0, 10, 2)]
    g = GroundProgram.build(atoms, clauses)
    assert all(v is not Tv3.UNDEF for v in wf_oracle(g))
    assert list(stable_models(g)) == reference_stable_models(g)
    assert len(stable_models(g)) == 1


def test_total_wellfounded_model():
    # a negation chain: the well-founded model decides every atom
    atoms = [f"a{i}" for i in range(20)]
    g = GroundProgram.build(atoms, [("a0", [], [])] + [(f"a{i}", [], [f"a{i - 1}"]) for i in range(1, 20)])
    wf = wf_oracle(g)
    assert Tv3.UNDEF not in wf
    assert list(stable_models(g)) == [frozenset(a for a, v in enumerate(wf) if v is Tv3.TRUE)]
    assert list(stable_models(g)) == reference_stable_models(g)


def loops_beside_chain() -> GroundProgram:
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
    return GroundProgram.build(atoms, clauses)


def test_loops_and_unfounded_cycles_scale():
    """The search and every model's names, which the CLI prints, on
    ``loops_beside_chain``: the per-model work that the search leaves to
    ``names`` is timed with it."""
    g = loops_beside_chain()
    start = time.perf_counter()
    models = stable_models(g)
    printed = sum(1 for _ in models.names())
    elapsed = time.perf_counter() - start
    assert len(models) == printed == 4096
    assert elapsed < 0.6, elapsed


def interleaved_program(rng: random.Random) -> GroundProgram:
    """Even loops ``x :- ~y. y :- ~x.``, facts, atoms with no clause and
    maybe a lone odd loop, named from one shuffled pool, so that the
    facts, which the well-founded model makes true, sort before, between
    and after the loops' Undef atoms, and long runs of Undef atoms hold
    no fact."""
    pool = [f"{c}{i}" for c in "abcde" for i in range(8)]
    rng.shuffle(pool)
    loops, facts = rng.randint(0, 8), rng.choice([0, 1, 3, 10, 20])
    undef, facts, dead = pool[: 2 * loops], pool[2 * loops :][:facts], pool[-3:]
    clauses = [(x, [], [y]) for x, y in zip(undef[::2], undef[1::2])]
    clauses += [(y, [], [x]) for x, y in zip(undef[::2], undef[1::2])]
    clauses += [(f, [], []) for f in facts]
    if rng.random() < 0.1:
        clauses.append(("odd", [], ["odd"]))
    return GroundProgram.build([*undef, *facts, *dead, "odd"], clauses)


def test_names_are_each_models_sorted_atom_names():
    """``names``, which the CLI prints, is joined from pieces: per group
    of at most 8 consecutive Undef atoms, the well-founded true names
    before it and the group's names that the model holds, then the true
    names after the last group.  Each model's frozenset and names must
    equal the reference's model and its atoms' names, sorted, in the
    reference's order, with true names before, between and after the
    Undef atoms, groups cut at 8 atoms, no Undef atom, no atom and no
    model among the programs."""
    rng = random.Random(6174)
    programs = [random_ground_program(rng, max_atoms=14, max_clauses=rng.choice([8, 16, 24])) for _ in range(300)]
    programs += [negation_heavy_program(rng) for _ in range(600)]
    programs += [interleaved_program(rng) for _ in range(150)]
    programs += [loops_beside_chain(), GroundProgram.build([], [])]
    kinds = dict.fromkeys(["true before", "true between", "true after", "over 8 in a run"], 0)
    kinds.update(dict.fromkeys(["no Undef atom", "no atom", "no model"], 0))
    checked = 0
    for g in programs:
        models = stable_models(g)
        got, names = list(models), list(models.names())
        if len(g.atoms) < 100:  # the reference searches every atom: too slow for the chain
            assert got == reference_stable_models(g, cap=len(g.atoms)), report(g, len(g.atoms))
        assert names == [tuple(sorted(g.atoms[a] for a in m)) for m in got], g.to_text()
        checked += len(names)
        true = sorted(g.atoms[a] for a in models.true)
        undef = [g.atoms[a] for a in models.undef]
        places = [bisect.bisect(true, x) for x in undef]
        kinds["true before"] += bool(undef) and places[0] > 0
        kinds["true between"] += bool(undef) and places[-1] > places[0]
        kinds["true after"] += bool(undef) and places[-1] < len(true)
        kinds["over 8 in a run"] += any(places[i] == places[i + 8] for i in range(len(places) - 8))
        kinds["no Undef atom"] += not undef and len(names) == 1
        kinds["no atom"] += not g.atoms and names == [()]
        kinds["no model"] += not names
    assert checked > 12_000, checked
    assert min(kinds.values()) >= 1 and kinds["over 8 in a run"] >= 50, kinds
    assert kinds["true before"] >= 100 and kinds["true between"] >= 100 and kinds["true after"] >= 100, kinds
