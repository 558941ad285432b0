"""The event-driven engine against the stage loop it replaced.

Every stage record (alpha, newly true, newly false and the derived
snapshot), the values and the depth must equal those of
``tests/reference_engine.py``, and the three-valued collapse must equal
the independently computed well-founded model, on the corpus, on
seeded random ground programs and on the benchmark's evaluation shapes
(negation chains, layered DAGs, random programs with negative cycles).
The scaling guards at the end bound the time and memory of the shapes
on which the reference grows quadratically.
"""

import random
import time
import tracemalloc

import pytest

from hopes import cli
from hopes.classical import collapse
from hopes.engine import minimum_model
from hopes.herbrand import GroundProgram

from conftest import CORPUS, load_ground, random_ground_program
from reference_engine import minimum_model as reference_minimum_model
from reference_paper import snapshot
from reference_wf import wf_oracle as reference_wf_oracle


def assert_same_as_reference(g: GroundProgram) -> None:
    got, expected = minimum_model(g), reference_minimum_model(g)
    assert got.values == expected.values, g.to_text()
    assert got.depth == expected.depth, g.to_text()
    assert [
        (r.alpha, r.newly_true, r.newly_false, snapshot(r, got.values)) for r in got.stages
    ] == [(r.alpha, r.newly_true, r.newly_false, r.snapshot) for r in expected.stages]
    assert collapse(got) == reference_wf_oracle(g), g.to_text()


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


# The reference takes 1.4 s and an 84 MB traced peak on the 3200-atom
# chain, and the CLI 1.5 s on it; the bounds leave room for a slow host,
# not for quadratic growth.


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


def test_layered_dag_scales():
    g = layered_dag(random.Random(8), 8, 400)
    started = time.perf_counter()
    minimum_model(g)
    assert time.perf_counter() - started < 0.5


def test_cli_trace_on_long_chain(tmp_path, capsys):
    n = 3200
    atoms = [f"a{i:04d}" for i in range(n)]
    lines = [f"#pred {a} : o." for a in atoms] + [f"{atoms[0]}."]
    lines += [f"{atoms[i]} :- ~{atoms[i - 1]}." for i in range(1, n)]
    path = tmp_path / "chain.hop"
    path.write_text("\n".join(lines) + "\n")
    started = time.perf_counter()
    code = cli.main(["model", str(path), "--trace"])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    assert code == 0
    assert elapsed < 1.0
    assert sum(line.startswith("stage ") for line in out.splitlines()) == n
