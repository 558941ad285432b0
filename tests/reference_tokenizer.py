"""The character-loop tokenizer that ``parser._scan`` replaced.

Kept as the oracle of ``test_tokenizer_oracle.py``: ``parser._scan``,
with ``parser._Lines`` for positions, must give the same tokens, and
the same ``ParseError`` texts and positions, on every input.
``reference_parser.py`` parses its tokens.
"""

from typing import NamedTuple

from hopes.parser import ParseError


class Token(NamedTuple):
    kind: str
    value: str
    line: int
    col: int


_PUNCT = [
    (":-", "COLONDASH"),
    ("->", "ARROW"),
    ("(", "LP"),
    (")", "RP"),
    (",", "COMMA"),
    (".", "DOT"),
    (":", "COLON"),
    ("~", "TILDE"),
    ("=", "EQUALS"),
]


def reference_tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "#":
            j = i + 1
            while j < n and text[j].isalpha():
                j += 1
            word = text[i:j]
            if word == "#pred":
                tokens.append(Token("HASHPRED", word, line, col))
            elif word == "#func":
                tokens.append(Token("HASHFUNC", word, line, col))
            else:
                raise ParseError(f"unknown directive {word!r}", line, col)
            col += j - i
            i = j
            continue
        for text_p, kind in _PUNCT:
            if text.startswith(text_p, i):
                tokens.append(Token(kind, text_p, line, col))
                i += len(text_p)
                col += len(text_p)
                break
        else:
            if ch.isalpha() or ch == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                word = text[i:j]
                kind = "VARIDENT" if word[0].isupper() else "IDENT"
                tokens.append(Token(kind, word, line, col))
                col += j - i
                i = j
            else:
                raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens
