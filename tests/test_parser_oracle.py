"""The index-based parser against the token-list parser it replaced.

Both must give the same ``Program``, with the same line and column for
every clause (``RawClause`` leaves these out of equality, so they are
compared on their own), or raise ``ParseError`` with the same text,
line, column and ``expected``.  The inputs are the corpus, random typed
programs, the CLI fuzz test's token soups, seeded random strings over
the tokenizer oracle's alphabet, and one-character deletions and
insertions in every corpus file.
"""

import random

from hopes.parser import ParseError, parse_program

from conftest import PROGRAMS, parse_term, random_typed_program
from reference_parser import reference_parse_program, reference_parse_term
from test_fuzz_cli import token_stream
from test_tokenizer_oracle import ALPHABET

PIECES = list(ALPHABET) + ["p(X)"]
CORPUS = [path.read_text() for path in sorted(PROGRAMS.glob("*.hop"))]


def outcome(parse, text: str):
    try:
        prog = parse(text)
    except ParseError as exc:
        return ("error", str(exc), exc.line, exc.col, exc.expected)
    return prog, [(c.line, c.col) for c in getattr(prog, "clauses", ())]


def agree(text: str) -> bool:
    """Assert agreement; True when the input parsed."""
    ours = outcome(parse_program, text)
    assert ours == outcome(reference_parse_program, text), repr(text)
    return ours[0] != "error"


def test_corpus():
    assert sum(agree(text) for text in CORPUS) == len(CORPUS) - 1  # all but broken.hop


def test_random_programs_and_token_soups():
    rng = random.Random(808)
    for _ in range(2000):
        agree(random_typed_program(rng))
        agree(token_stream(rng))


def test_random_strings():
    rng = random.Random(31337)
    parsed = 0
    for _ in range(40000):
        parsed += agree("".join(rng.choice(PIECES) for _ in range(rng.randint(0, 12))))
    assert parsed > 100  # the strings reach the parser's success paths too


def test_random_terms():
    rng = random.Random(2718)
    for _ in range(10000):
        text = "".join(rng.choice(PIECES) for _ in range(rng.randint(0, 8)))
        assert outcome(parse_term, text) == outcome(reference_parse_term, text), repr(text)


def test_corpus_deletions_and_insertions():
    rng = random.Random(1618)
    for text in CORPUS:
        for _ in range(1200):
            i = rng.randrange(len(text) + 1)
            agree(text[:i] + text[i + 1 :])
            agree(text[:i] + rng.choice(PIECES) + text[i:])
