"""The one-pass stratifier against the quadratic reference level loop.

Swapping the reference in for ``analysis._stratify_graph`` must leave
every result of ``check_stratified`` and
``check_locally_stratified_bounded`` unchanged: the same strata, the
same count and the same witness cycle, on the corpus and on seeded
random ground programs.
"""

import random
import time

import pytest

from hopes import analysis, ground_instantiate, parse_program, typecheck
from hopes.herbrand import GroundProgram

from conftest import CORPUS, build_ground, load, load_ground
from reference_stratify import reference_stratify_graph
from test_grounder_oracle import random_checked_program


def _both(monkeypatch, check, arg):
    fast = check(arg)
    with monkeypatch.context() as m:
        m.setattr(analysis, "_stratify_graph", reference_stratify_graph)
        slow = check(arg)
    return fast, slow


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_matches_reference(monkeypatch, name):
    fast, slow = _both(monkeypatch, analysis.check_stratified, load(name))
    assert fast == slow
    for k in range(1, 5):
        fast, slow = _both(monkeypatch, analysis.check_locally_stratified_bounded, load_ground(name, k))
        assert fast == slow


def random_graph(rng: random.Random, shape: str, shuffle: bool = False) -> GroundProgram:
    """A random ground program over atoms in blocks of four.  Literals
    point only to lower blocks ("dag"), positive ones also within the
    block of the head, so that every cycle is lax ("lax"), or anywhere
    ("any", and "dense", which draws few atoms and many clauses, so that
    a cycle often has several shortest back paths).  With ``shuffle``
    the atom names are shuffled against the atom ids."""
    dense = shape == "dense"
    n = rng.randint(2, 12) if dense else rng.randint(1, 30)
    atoms = [f"a{i}" for i in range(n)]
    if shuffle:
        rng.shuffle(atoms)
    clauses = []
    for _ in range(rng.randint(0, (3 if dense else 2) * n)):
        h = rng.randrange(n)
        pos, neg = [], []
        for _ in range(rng.randint(0, 3)):
            strict = rng.random() < 0.4
            if shape in ("any", "dense"):
                b = rng.randrange(n)
            elif shape == "lax" and not strict:
                b = rng.randrange(min(n, h // 4 * 4 + 4))
            elif h >= 4:
                b = rng.randrange(h // 4 * 4)
            else:
                continue
            (neg if strict else pos).append(atoms[b])
        clauses.append((atoms[h], pos, neg))
    return build_ground(atoms, clauses)


def test_random_graphs_match_reference(monkeypatch):
    rng = random.Random(20261017)
    verdicts = {shape: set() for shape in ("dag", "lax", "any")}
    for i in range(240):
        shape = ("dag", "lax", "any")[i % 3]
        g = random_graph(rng, shape)
        fast, slow = _both(monkeypatch, analysis.check_locally_stratified_bounded, g)
        assert fast == slow, (shape, g.to_text())
        stratified = isinstance(fast, analysis.StrataAssignment)
        verdicts[shape].add((stratified, stratified and fast.count > 2))
    # every shape yields deep strata, and only "any" yields strict cycles
    assert verdicts["dag"] == verdicts["lax"] == {(True, False), (True, True)}
    assert verdicts["any"] >= {(False, False), (True, True)}

    # With names shuffled against ids, name order and id order choose
    # different witness edges and, where a cycle has several shortest
    # back paths, different paths: both are taken in name order.
    rng = random.Random(16)
    long = 0
    for i in range(300):
        g = random_graph(rng, ("any", "dense")[i % 2], shuffle=True)
        fast, slow = _both(monkeypatch, analysis.check_locally_stratified_bounded, g)
        assert fast == slow, g.to_text()
        long += isinstance(fast, analysis.StratViolation) and len(fast.cycle) > 2
    assert long >= 40


def test_random_typed_programs_match_reference(monkeypatch):
    # negated literals, and literals headed by a predicate variable,
    # which add an edge from every declared predicate of a fitting type
    rng = random.Random(16)
    source = ground = 0
    for _ in range(300):
        text, tp = random_checked_program(rng)
        fast, slow = _both(monkeypatch, analysis.check_stratified, tp)
        assert fast == slow, text
        source += isinstance(fast, analysis.StratViolation)
        fast, slow = _both(monkeypatch, analysis.check_locally_stratified_bounded, ground_instantiate(tp, 2))
        assert fast == slow, text
        ground += isinstance(fast, analysis.StratViolation)
    assert source >= 50 and ground >= 20


def layered_dag(layers: int, width: int) -> tuple[list[str], list]:
    """Half of layer 0 are facts; every other atom has one clause of two
    literals over lower layers, each negated with probability one half."""
    rng = random.Random(0)
    atoms = [f"d{i}" for i in range(layers * width)]
    clauses = [(a, [], []) for a in atoms[: width // 2]]
    for k in range(1, layers):
        for a in atoms[k * width : (k + 1) * width]:
            pos, neg = [], []
            for b in rng.sample(atoms[: k * width], 2):
                (neg if rng.random() < 0.5 else pos).append(b)
            clauses.append((a, pos, neg))
    return atoms, clauses


def test_stratifiers_scale_linearly(monkeypatch):
    # 8000 atoms and about 16000 edges: the reference takes about 2 s on
    # the DAG.  A negative 2-cycle in the top layer makes a violation,
    # whose witness the reference finds without its level loop.
    atoms, clauses = layered_dag(40, 200)
    p, q = atoms[-2:]
    for extra in ([], [(p, [], [q]), (q, [], [p])]):
        g = build_ground(atoms, clauses + extra)
        start = time.perf_counter()
        local = analysis.check_locally_stratified_bounded(g)
        assert time.perf_counter() - start < 0.5
        assert isinstance(local, analysis.StrataAssignment) == (not extra)

        text = "".join(f"#pred {a} : o.\n" for a in atoms) + "".join(
            h + (" :- " + ", ".join(pos + ["~" + b for b in neg]) if pos or neg else "") + ".\n"
            for h, pos, neg in clauses + extra
        )
        tp = typecheck(parse_program(text))
        start = time.perf_counter()
        source = analysis.check_stratified(tp)
        assert time.perf_counter() - start < 0.5
        assert source == local
        if not extra:
            continue
        assert local == analysis.StratViolation(((p, "<", q), (q, "<", p)))
        with monkeypatch.context() as m:
            m.setattr(analysis, "_stratify_graph", reference_stratify_graph)
            assert analysis.check_locally_stratified_bounded(g) == local
            assert analysis.check_stratified(tp) == source
