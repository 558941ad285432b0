"""``hopes ground --format json`` writes its records directly; the bytes
must equal ``json.dumps(indent=2, sort_keys=True)`` of the dicts it used
to build (``reference_render``)."""

import random

import pytest

from hopes import ground_instantiate, parse_program, typecheck
from hopes.cli import _ground_json, main
from hopes.parser import ParseError

from conftest import PROGRAMS, random_checked_program
from reference_render import reference_ground_json


def ground_json(capsys, path, k):
    code = main(["ground", str(path), "--depth", str(k), "--format", "json"])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("path", sorted(PROGRAMS.glob("*.hop")), ids=lambda p: p.stem)
def test_corpus_matches_reference(capsys, path):
    try:
        tp = typecheck(parse_program(path.read_text()))
    except ParseError:  # broken.hop: no ground program, no output
        for k in range(1, 5):
            assert ground_json(capsys, path, k) == (2, "")
        return
    for k in range(1, 5):
        want = reference_ground_json(ground_instantiate(tp, k), k)
        assert ground_json(capsys, path, k) == (0, want)


def test_random_programs_match_reference():
    rng = random.Random(20170131)
    for _ in range(200):
        _, tp = random_checked_program(rng)
        for k in (1, 2, 3):
            g = ground_instantiate(tp, k)
            assert _ground_json(g, k) == reference_ground_json(g, k)


HAND_CASES = {
    "non_ascii": ("#pred p : i -> o.\np(é).\n", '"p(\\u00e9)"'),
    "empty": ("", '"atoms": [],\n  "clauses": [],'),
    "fact": ("#pred p : o.\np.\n", '"neg": [],\n      "pos": []\n'),
    "both_kinds": (
        "#pred p : o.\n#pred q : o.\n#pred r : o.\nq.\np :- q, ~r.\n",
        '"neg": [\n        "r"\n      ],\n      "pos": [\n        "q"\n      ]',
    ),
    "skipped_with_note": (
        "#pred p : (i -> i -> o) -> o.\n#pred q : i -> o.\nq(a).\np(R) :- R(a, a).\n",
        "ranges over an empty universe",
    ),
}


@pytest.mark.parametrize("name", HAND_CASES)
def test_hand_cases_match_reference(capsys, tmp_path, name):
    text, fragment = HAND_CASES[name]
    path = tmp_path / "p.hop"
    path.write_text(text, encoding="utf-8")
    g = ground_instantiate(typecheck(parse_program(text)), 3)
    code, out = ground_json(capsys, path, 3)
    assert (code, out) == (0, reference_ground_json(g, 3))
    assert fragment in out
