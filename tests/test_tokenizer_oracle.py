"""The scanner against the character loop it replaced.

``parser._scan`` gives the tokens that ``parse_program`` reads, and
``parser._Lines`` their positions.  The scan and the loop must give the
same tokens, or raise
``ParseError`` with the same text at the same line and column, on the
corpus, random typed programs, the CLI fuzz test's token soups, seeded
random strings over the characters where the two identifier classes
(``isalpha()`` against the regular expression's ``\\w``) part, and a
sample of code points in the contexts where a character can start or
continue a token.
"""

import random

import pytest

from hopes.parser import ParseError, _Lines, _scan

from conftest import PROGRAMS, random_typed_program
from reference_tokenizer import reference_tokenize
from test_fuzz_cli import token_stream

# digits that are \w but not decimal, letters, letter-like numbers,
# marks, spaces that are not the tokenizer's, and the punctuation
ALPHABET = "aZ_x0 9²½Ⅻ٣éßǅ́ \f\v\t\r\n%#.,:-~=()>$" + "pred func"

CONTEXTS = ["{}", "a{}", "{}a", "_{}1", "#{}", "#pred{}", "p(a). % {}", "X{}Y"]


def scan(text: str) -> list[tuple[str, str, int, int]]:
    """The scan as (kind, text, line, column) tuples."""
    kinds, values, offsets = _scan(text)
    at = _Lines(text).at
    return [(kind, value, *at(off)) for kind, value, off in zip(kinds, values, offsets)]


def outcome(tokenizer, text: str):
    try:
        return [tuple(tok) for tok in tokenizer(text)]
    except ParseError as exc:
        return ("error", str(exc), exc.line, exc.col)


def agree(text: str) -> None:
    assert outcome(scan, text) == outcome(reference_tokenize, text), repr(text)


def test_corpus():
    for path in sorted(PROGRAMS.glob("*.hop")):
        agree(path.read_text())


def test_random_programs_and_token_soups():
    rng = random.Random(4242)
    for _ in range(300):
        agree(random_typed_program(rng))
        agree(token_stream(rng))


def test_random_strings():
    rng = random.Random(9001)
    for _ in range(40000):
        agree("".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 12))))


def test_code_points():
    for cp in range(0, 0x10000, 3):
        ch = chr(cp)
        for context in CONTEXTS:
            agree(context.format(ch))


def test_eof_after_comment_keeps_comment_column():
    assert scan("p. % done")[-1] == ("EOF", "", 1, 4)
    with pytest.raises(ParseError, match="column 6: unexpected character '²'"):
        scan("#pred²")
