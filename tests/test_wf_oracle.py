"""The well-founded model that ``wf_oracle`` reads off the graded
engine, as the collapse of the minimum model, against the independent
alternating fixpoint of ``tests/reference_wf.py``.

The full three-valued list must equal the reference's on the corpus,
on seeded random ground programs and on the benchmark's evaluation
shapes.  The Undef-fed programs and the scaling guards on the
3,200-atom chain are in ``tests/test_engine_oracle.py``.
"""

import random

import pytest

from hopes.classical import Tv3, wf_oracle
from hopes.herbrand import GroundProgram

from conftest import CORPUS, load_ground, random_ground_program, shrink_report
from reference_wf import wf_oracle as reference_wf_oracle
from test_engine_oracle import chain, cyclic_program, layered_dag, random_program


def differs(g: GroundProgram) -> bool:
    """Whether ``wf_oracle`` and the reference differ on g; a crash
    counts as a difference."""
    try:
        return wf_oracle(g) != reference_wf_oracle(g)
    except Exception:
        return True


def assert_same_as_reference(g: GroundProgram) -> list[Tv3]:
    got = wf_oracle(g)
    assert got == reference_wf_oracle(g), shrink_report(g, differs)
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
