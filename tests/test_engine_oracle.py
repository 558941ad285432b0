"""The event-driven engine against the stage loop it replaced.

Every stage record (alpha, newly true, newly false and the derived
snapshot), the values and the depth must equal those of
``tests/reference_engine.py``, and the three-valued collapse must equal
the independently computed well-founded model of
``tests/reference_wf.py``, on the corpus, on seeded random ground
programs, on negation-heavy programs whose Undef components feed
higher components, and on the benchmark's evaluation shapes (negation
chains, layered DAGs, random programs with negative cycles).  The
scaling guards at the end bound the time and memory of the shapes on
which the references grow quadratically.
"""

import random
import time
import tracemalloc

import pytest

from hopes import cli
from hopes.classical import Tv3, collapse, wf_oracle
from hopes.engine import minimum_model
from hopes.herbrand import GroundProgram

from conftest import CORPUS, load_ground, random_ground_program
from reference_engine import minimum_model as reference_minimum_model
from reference_paper import snapshot
from reference_wf import wf_oracle as reference_wf_oracle


def assert_same_as_reference(g: GroundProgram) -> list[Tv3]:
    """The checks above; returns the well-founded model."""
    got, expected = minimum_model(g), reference_minimum_model(g)
    assert got.values == expected.values, g.to_text()
    assert got.depth == expected.depth, g.to_text()
    assert [
        (r.alpha, r.newly_true, r.newly_false, snapshot(r, got.values)) for r in got.stages
    ] == [(r.alpha, r.newly_true, r.newly_false, r.snapshot) for r in expected.stages]
    wf = collapse(got)
    assert wf == reference_wf_oracle(g), g.to_text()
    return wf


def random_program(rng: random.Random, n: int, clauses: int, neg_rate: float, loops: int = 0):
    """Random bodies of up to four literals, each negated with
    probability ``neg_rate``, plus ``loops`` planted positive cycles
    whose members also have a way out through a negated atom."""
    atoms = [f"a{i}" for i in range(n)]
    specs = []
    for _ in range(clauses):
        pos, neg = [], []
        for _ in range(rng.randint(0, 4)):
            (neg if rng.random() < neg_rate else pos).append(rng.choice(atoms))
        specs.append((rng.choice(atoms), pos, neg))
    for _ in range(loops):
        cycle = rng.sample(atoms, rng.randint(1, min(4, n)))
        for i, a in enumerate(cycle):
            specs.append((a, [cycle[i - 1]], []))
        specs.append((rng.choice(cycle), [], [rng.choice(atoms)]))
    return GroundProgram.build(atoms, specs)


def chain(n: int) -> GroundProgram:
    """a0 is a fact and a_i :- ~a_(i-1): the model needs n stages."""
    atoms = [f"a{i:04d}" for i in range(n)]
    specs = [(atoms[0], [], [])] + [(atoms[i], [], [atoms[i - 1]]) for i in range(1, n)]
    return GroundProgram.build(atoms, specs)


def layered_dag(rng: random.Random, layers: int, width: int) -> GroundProgram:
    """Half of layer 0 are facts; every other atom has one clause of two
    literals over lower layers, each negated with probability one half."""
    atoms = [f"d{i:04d}" for i in range(layers * width)]
    specs = [(a, [], []) for a in rng.sample(atoms[:width], width // 2)]
    for i in range(width, layers * width):
        pos, neg = [], []
        for b in rng.sample(atoms[: i - i % width], 2):
            (neg if rng.random() < 0.5 else pos).append(b)
        specs.append((atoms[i], pos, neg))
    return GroundProgram.build(atoms, specs)


def cyclic_program(rng: random.Random, n: int) -> GroundProgram:
    """Two random bodies per atom in both directions, one fact in ten,
    and a planted odd negative cycle of three atoms and an even one of
    two."""
    atoms = [f"x{i:04d}" for i in range(n)]
    specs = [(a, [], []) for a in rng.sample(atoms, n // 10)]
    for a in atoms:
        for _ in range(2):
            pos, neg = [], []
            for b in rng.sample(atoms, 2):
                (neg if rng.random() < 0.5 else pos).append(b)
            specs.append((a, pos, neg))
    odd, even = rng.sample(atoms, 3), rng.sample(atoms, 2)
    specs += [(odd[i], [], [odd[(i + 1) % 3]]) for i in range(3)]
    specs += [(even[0], [], [even[1]]), (even[1], [], [even[0]])]
    return GroundProgram.build(atoms, specs)


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_matches_reference(name):
    for k in (1, 2, 3, 4):
        assert_same_as_reference(load_ground(name, k))


def test_random_programs_match_reference():
    rng = random.Random(20240607)
    for _ in range(1000):
        assert_same_as_reference(random_ground_program(rng))


@pytest.mark.parametrize("neg_rate", [0.2, 0.5, 0.8])
def test_random_programs_with_loops_match_reference(neg_rate):
    rng = random.Random(f"loops {neg_rate}")
    deep = 0
    for _ in range(400):
        n = rng.randint(1, 24)
        g = random_program(rng, n, rng.randint(0, 2 * n), neg_rate, loops=rng.randint(0, 3))
        assert_same_as_reference(g)
        deep += minimum_model(g).depth >= 3
    assert deep >= 20  # enough programs that need several stages


def undef_fed_program(rng: random.Random) -> GroundProgram:
    """Even loops (u0 :- ~u1, u1 :- ~u0) and odd loops (a lone v :- ~v
    or a negative three-cycle) whose atoms are Undef, a few facts and
    atoms with no clause, and above them a layer of random clauses that
    read the loops through positive and negated literals.  The upper
    layer also holds a negation chain closed into one component by a
    back edge whose clause is dropped (it reads ~t for a fact t), so
    that component needs several alternating rounds."""
    specs = []
    base = []
    for i in range(rng.randint(1, 3)):
        u = [f"e{i}_0", f"e{i}_1"]
        specs += [(u[0], [], [u[1]]), (u[1], [], [u[0]])]
        base += u
    for i in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            specs.append((f"o{i}", [], [f"o{i}"]))
            base.append(f"o{i}")
        else:
            o = [f"o{i}_{j}" for j in range(3)]
            specs += [(o[j], [], [o[(j + 1) % 3]]) for j in range(3)]
            base += o
    facts = [f"f{i}" for i in range(rng.randint(0, 2))]
    specs += [(f, [], []) for f in facts]
    empty = [f"z{i}" for i in range(rng.randint(0, 2))]
    base += facts + empty
    upper = [f"h{i:02d}" for i in range(rng.randint(1, 12))]
    for _ in range(rng.randint(1, 2 * len(upper))):
        pos, neg = [], []
        for _ in range(rng.randint(1, 4)):
            b = rng.choice(base + upper)
            (neg if rng.random() < 0.5 else pos).append(b)
        specs.append((rng.choice(upper), pos, neg))
    length = rng.randint(2, 8)
    links = [f"c{i}" for i in range(length)]
    specs += [(links[i], [], [links[i - 1]]) for i in range(1, length)]
    specs += [("t", [], []), (links[0], [links[-1]], ["t"])]
    specs.append((rng.choice(upper), [rng.choice(links)], [rng.choice(base)]))
    atoms = sorted({a for head, pos, neg in specs for a in [head, *pos, *neg]} | set(base))
    return GroundProgram.build(atoms, specs)


def test_undef_components_feeding_higher_ones_match_reference():
    rng = random.Random(1995)
    fed = 0
    for _ in range(1500):
        g = undef_fed_program(rng)
        values = assert_same_as_reference(g)
        fed += any(
            values[g.atom_index[a]] is Tv3.UNDEF for a in g.atoms if a.startswith("h")
        )
    assert fed >= 300  # enough programs where an upper atom inherits Undef


def test_shapes_match_reference():
    rng = random.Random(43)
    for g in (
        chain(1),
        chain(2),
        chain(200),
        layered_dag(rng, 8, 50),
        layered_dag(rng, 3, 200),
        cyclic_program(rng, 300),
        cyclic_program(rng, 40),
    ):
        assert_same_as_reference(g)


def test_snapshot_is_derived_from_the_final_values():
    m = minimum_model(chain(5))
    assert [str(v) for v in snapshot(m.stages[1], m.values)] == ["T0", "F1", "F2", "F2", "F2"]


# The reference engine takes 1.4 s and an 84 MB traced peak on the
# 3200-atom chain, and the CLI 1.5 s on it; the reference well-founded
# model takes 0.8-1 s, since it needs 1600 alternating rounds over the
# whole program, and `hopes wf` about 0.05 s more.  The bounds leave
# room for a slow host, not for quadratic growth.


def test_chain_scales():
    g = chain(3200)
    started = time.perf_counter()
    m = minimum_model(g)
    assert time.perf_counter() - started < 0.5
    assert m.depth == 3200
    tracemalloc.start()
    try:
        minimum_model(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_wf_chain_scales():
    started = time.perf_counter()
    values = wf_oracle(chain(3200))
    assert time.perf_counter() - started < 0.25
    assert values == [Tv3.TRUE, Tv3.FALSE] * 1600


def test_layered_dag_scales():
    g = layered_dag(random.Random(8), 8, 400)
    started = time.perf_counter()
    minimum_model(g)
    assert time.perf_counter() - started < 0.5


def chain_file(tmp_path, n: int):
    """``chain(n)`` as a source file, with a ``#pred`` line per atom."""
    atoms = [f"a{i:04d}" for i in range(n)]
    lines = [f"#pred {a} : o." for a in atoms] + [f"{atoms[0]}."]
    lines += [f"{atoms[i]} :- ~{atoms[i - 1]}." for i in range(1, n)]
    path = tmp_path / "chain.hop"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_cli_trace_on_long_chain(tmp_path, capsys):
    n = 3200
    path = chain_file(tmp_path, n)
    started = time.perf_counter()
    code = cli.main(["model", str(path), "--trace"])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    assert code == 0
    assert elapsed < 1.0
    assert sum(line.startswith("stage ") for line in out.splitlines()) == n


def test_cli_wf_on_long_chain(tmp_path, capsys):
    n = 3200
    path = chain_file(tmp_path, n)
    started = time.perf_counter()
    code = cli.main(["wf", str(path)])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    assert code == 0
    assert elapsed < 0.5
    assert len(out.splitlines()) == n
