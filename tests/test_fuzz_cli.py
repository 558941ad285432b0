"""Seeded random inputs through ``cli.main``, in process.

Whatever the input, every command must end with one of the documented
exit codes and let no exception escape; exit 1, the negative verdict,
may come only from ``stratify`` and ``ext``.  The inputs are random
token streams, random well-typed programs, programs whose terms or
types nest around their limits, and even loops around the stable-model
cap.
"""

import random

from hopes.classical import DEFAULT_STABLE_CAP
from hopes.cli import main
from hopes.parser import MAX_NESTING
from hopes.types import MAX_TYPE_NESTING

from conftest import random_typed_program
from test_cli import COMMANDS, _deep_types, _nested_fact

TOKENS = (
    ["#pred", "#func", "#bad", ":-", "->", "(", ")", ",", ".", ":", "~", "=", "%c\n", "\n", "$"]
    + ["p", "q", "r", "s", "i", "o", "a", "b", "X", "Y", "P", "_z"]
)


def token_stream(rng: random.Random) -> str:
    """A random token soup, or a random typed program with one word
    replaced by a token, so that parsing also fails deep in valid text."""
    if rng.random() < 0.5:
        return " ".join(rng.choice(TOKENS) for _ in range(rng.randint(0, 30)))
    words = random_typed_program(rng).split()
    if words:
        words[rng.randrange(len(words))] = rng.choice(TOKENS)
    return " ".join(words)


def deep_program(rng: random.Random) -> str:
    """A term or a type at its nesting limit, just past it, or far past."""
    if rng.random() < 0.3:
        return _nested_fact(rng.choice([MAX_NESTING - 2, MAX_NESTING - 1, 3000]))
    n = rng.choice([MAX_TYPE_NESTING, MAX_TYPE_NESTING + 1, MAX_NESTING - 1, 3000])
    if rng.random() < 0.2:
        return "#pred p : " + "(" * n + "i -> o" + ")" * n + ".\np(a).\n"
    shapes = _deep_types(n)
    return shapes[rng.choice(sorted(shapes))]


def loops_program(rng: random.Random) -> str:
    """Even loops ``p :- ~q, q :- ~p``, which the well-founded model
    leaves Undef, with fewer, as many or more atoms than the stable-model
    cap, beside unfounded cycles ``u :- v, v :- u``, which it makes false
    and the cap does not count."""
    loops = rng.randint(DEFAULT_STABLE_CAP // 2 - 1, DEFAULT_STABLE_CAP // 2 + 2)
    cycles = rng.randint(0, DEFAULT_STABLE_CAP)
    lines = [f"#pred {x}{i} : o." for i in range(loops) for x in "pq"]
    lines += [f"#pred {x}{i} : o." for i in range(cycles) for x in "uv"]
    lines += [f"p{i} :- ~q{i}.\nq{i} :- ~p{i}." for i in range(loops)]
    lines += [f"u{i} :- v{i}.\nv{i} :- u{i}." for i in range(cycles)]
    return "\n".join(lines) + "\n"


def test_cli_fuzz(capsys, tmp_path):
    rng = random.Random(31337)
    makers = [token_stream] * 3 + [random_typed_program] * 3 + [deep_program, loops_program]
    seen = set()
    for i in range(1000):
        text = rng.choice(makers)(rng)
        path = tmp_path / f"fuzz{i}.hop"
        path.write_text(text)
        command = rng.choice(COMMANDS)
        argv = [command, str(path), "--format", rng.choice(["text", "json"])]
        if command not in ("check", "stratify"):
            argv += ["--depth", str(rng.randint(1, 2))]
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), (argv, text, err)
        assert code != 1 or command in ("stratify", "ext"), (argv, text, err)
        seen.add(code)
    assert seen == {0, 1, 2, 3}
