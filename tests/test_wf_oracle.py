"""The well-founded model that ``wf_oracle`` reads off the graded
engine, as the collapse of the minimum model, against the independent
alternating fixpoint of ``tests/reference_wf.py``.

The full three-valued list must equal the reference's on the corpus,
on seeded random ground programs, on negation-heavy programs whose
Undef components feed higher components, and on the benchmark's
evaluation shapes.  The scaling guards at the end bound the
time of the negation chain, on which the reference grows quadratically.
"""

import random
import time

import pytest

from hopes import cli
from hopes.classical import Tv3, wf_oracle
from hopes.herbrand import GroundProgram

from conftest import CORPUS, load_ground, random_ground_program
from reference_wf import wf_oracle as reference_wf_oracle
from test_engine_oracle import chain, cyclic_program, layered_dag, random_program


def assert_same_as_reference(g: GroundProgram) -> list[Tv3]:
    got = wf_oracle(g)
    assert got == reference_wf_oracle(g), g.to_text()
    return got


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_matches_reference(name):
    for k in (1, 2, 3, 4):
        assert_same_as_reference(load_ground(name, k))


def test_random_programs_match_reference():
    rng = random.Random(19890329)
    for _ in range(2000):
        assert_same_as_reference(random_ground_program(rng))


@pytest.mark.parametrize("neg_rate", [0.2, 0.5, 0.8])
def test_random_programs_with_loops_match_reference(neg_rate):
    rng = random.Random(f"wf loops {neg_rate}")
    for _ in range(300):
        n = rng.randint(1, 24)
        assert_same_as_reference(
            random_program(rng, n, rng.randint(0, 2 * n), neg_rate, loops=rng.randint(0, 3))
        )


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


def test_evaluation_shapes_match_reference():
    rng = random.Random(211)
    for g in (
        chain(1),
        chain(2),
        chain(200),
        chain(400),
        layered_dag(rng, 8, 200),
        layered_dag(rng, 3, 200),
        cyclic_program(rng, 300),
        cyclic_program(rng, 300),
        cyclic_program(rng, 40),
    ):
        assert_same_as_reference(g)


# The reference takes 0.8-1 s on the 3200-atom chain, since it needs
# 1600 alternating rounds over the whole program, and the CLI about 0.05
# s more; the bounds leave room for a slow host, not for quadratic
# growth.


def test_chain_scales():
    g = chain(3200)
    started = time.perf_counter()
    values = wf_oracle(g)
    assert time.perf_counter() - started < 0.25
    assert values == [Tv3.TRUE, Tv3.FALSE] * 1600


def test_cli_wf_on_long_chain(tmp_path, capsys):
    n = 3200
    atoms = [f"a{i:04d}" for i in range(n)]
    lines = [f"#pred {a} : o." for a in atoms] + [f"{atoms[0]}."]
    lines += [f"{atoms[i]} :- ~{atoms[i - 1]}." for i in range(1, n)]
    path = tmp_path / "chain.hop"
    path.write_text("\n".join(lines) + "\n")
    started = time.perf_counter()
    code = cli.main(["wf", str(path)])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    assert code == 0
    assert elapsed < 0.5
    assert len(out.splitlines()) == n
