"""The one-pass type checker against the two-pass checker it replaced.

``typecheck`` must give a ``TypedProgram`` equal to the one of
``reference_typecheck.reference_typecheck``, types of every node
included, or raise ``TypeCheckError`` with the same text, line and
column.  The inputs are the corpus, seeded random typed programs (some
with variables named like fresh formals), propositional programs shaped
like the benchmark's evaluation workload, and ill-typed programs: seeded
word swaps in random programs, plus hand-written ones.  Together they
must reach every ``TypeCheckError`` message of ``typecheck.py``.
"""

import ast as pyast
import importlib
import random
import re
from pathlib import Path

from hopes.ast import App, IndConst, Name, Neg, Program, RawClause
from hopes.parser import ParseError, parse_program
from hopes.typecheck import TypeCheckError, typecheck
from hopes.types import IOTA, O, arrow

from conftest import PROGRAMS, random_typed_program
from reference_typecheck import reference_typecheck


def outcome(check, program: Program):
    try:
        return check(program)
    except TypeCheckError as exc:
        return ("error", str(exc), exc.line, exc.col)


def agree(program: Program):
    """Both checkers' outcome, once they are found equal."""
    got = outcome(typecheck, program)
    assert got == outcome(reference_typecheck, program)
    return got


def agree_text(text: str):
    return agree(parse_program(text))


def _messages() -> list[re.Pattern]:
    """A pattern for each TypeCheckError message written in typecheck.py:
    the literal text, with each interpolated value matching anything."""
    # hopes.typecheck names the function once the package is imported
    source = Path(importlib.import_module("hopes.typecheck").__file__).read_text()
    tree = pyast.parse(source)
    patterns = set()
    for node in pyast.walk(tree):
        if not isinstance(node, pyast.Call) or not node.args:
            continue
        func = node.func
        name = func.attr if isinstance(func, pyast.Attribute) else getattr(func, "id", None)
        if name not in ("fail", "TypeCheckError"):
            continue
        message = node.args[0]
        if isinstance(message, pyast.JoinedStr):
            parts = message.values
        elif isinstance(message, pyast.Constant):
            parts = [message]
        else:
            continue  # a message passed on, written elsewhere
        patterns.add(
            "".join(
                re.escape(p.value) if isinstance(p, pyast.Constant) else ".+" for p in parts
            )
        )
    return [re.compile(p) for p in sorted(patterns)]


# propositional programs shaped like the evaluation workload's


def _propositional(atoms, clauses) -> str:
    lines = [f"#pred {a} : o." for a in atoms]
    for head, pos, negs in clauses:
        body = [*pos, *(f"~{b}" for b in negs)]
        lines.append(f"{head} :- {', '.join(body)}." if body else f"{head}.")
    return "\n".join(lines) + "\n"


def chain(n: int) -> str:
    atoms = [f"a{i:04d}" for i in range(n)]
    return _propositional(atoms, [(atoms[0], (), ())] + [(atoms[i], (), (atoms[i - 1],)) for i in range(1, n)])


def layered_dag(rng: random.Random, layers: int, width: int) -> str:
    atoms = [f"d{i:04d}" for i in range(layers * width)]
    clauses = [(a, (), ()) for a in rng.sample(atoms[:width], width // 2)]
    for k in range(1, layers):
        for a in atoms[k * width : (k + 1) * width]:
            pos, negs = [], []
            for b in rng.sample(atoms[: k * width], 2):
                (negs if rng.random() < 0.5 else pos).append(b)
            clauses.append((a, pos, negs))
    return _propositional(atoms, clauses)


def negative_cycles(rng: random.Random, n: int) -> str:
    atoms = [f"x{i:04d}" for i in range(n)]
    clauses = [(a, (), ()) for a in rng.sample(atoms, n // 10)]
    for a in atoms:
        for _ in range(2):
            pos, negs = [], []
            for b in rng.sample(atoms, 2):
                (negs if rng.random() < 0.5 else pos).append(b)
            clauses.append((a, pos, negs))
    odd, even = rng.sample(atoms, 3), rng.sample(atoms, 2)
    clauses += [(odd[i], (), (odd[(i + 1) % 3],)) for i in range(3)]
    clauses += [(even[0], (), (even[1],)), (even[1], (), (even[0],))]
    return _propositional(atoms, clauses)


# ill-typed programs

ILL_TYPED = [
    "#pred p : i.\n",
    "#func f : i.\n",
    "#func f : o -> i.\n",
    "#pred p : o.\n#pred q : i -> o.\np :- q.\n",
    "#pred p : o.\n#pred q : i -> o.\np :- q(a, b).\n",
    "#pred p : o.\np :- p(a).\n",
    "#func f : i -> i.\n#pred p : i -> o.\np(X) :- p(f).\n",
    "#pred p : (i -> o) -> o.\np(Q) :- p(a).\n",
    "#func f : i -> i.\n#pred p : i -> o.\np(X) :- p(f(X, X)).\n",
    "#func f : i -> i.\n#pred p : o.\np :- f(a).\n",
    "#pred p : o.\nfoo :- p.\n",
    "#pred p : o.\nX :- p.\n",
    "#func f : i -> i.\n#pred p : o.\nf(a) :- p.\n",
    "#pred p : i -> o.\np.\n",
    "#pred p : i -> o.\np(a, b).\n",
    "#pred q : i -> i -> o.\nq(X, X).\n",
    "#pred p : (i -> o) -> o.\np(a).\n",
    "#func f : i -> i.\n#pred p : i -> (i -> o) -> o.\np(f(X), X).\n",
    "#pred p : i -> o.\np(X) :- X(a).\n",
    "#pred p : o.\np :- P(X).\n",
    "#pred p : o.\n#pred q : i -> o.\np :- q(P(a)).\n",
    "#pred p : o.\np :- X = P(a).\n",
    "#pred r : o.\nr :- " + ", ".join(f"P{j}(P{j + 1})" for j in range(101)) + ", P101(a).\n",
]


def ill_typed_trees() -> list[Program]:
    """Trees the parser never builds: negation inside a term, and a
    node that only the type checker makes."""
    decls = {"p": arrow(O, O), "q": arrow(IOTA, O), "r": O}
    return [
        Program(dict(decls), {}, [RawClause(Name("r"), (App(Name("p"), Neg(Name("r"))),), 1, 1)]),
        Program(dict(decls), {}, [RawClause(App(Name("q"), IndConst("a", IOTA)), (), 2, 3)]),
    ]


def swaps(rng: random.Random, text: str, n: int) -> list[str]:
    """n copies of text with one word each swapped for another word of
    the text or for V_1, the first fresh formal's name."""
    words = list(re.finditer(r"\b\w+\b", text))
    vocabulary = sorted({m.group() for m in words} | {"V_1"})
    out = []
    for _ in range(n):
        m = rng.choice(words)
        out.append(text[: m.start()] + rng.choice(vocabulary) + text[m.end() :])
    return out


def test_corpus_matches_reference():
    for path in sorted(PROGRAMS.glob("*.hop")):
        if path.name != "broken.hop":
            agree_text(path.read_text())


def test_random_typed_programs_match_reference():
    rng = random.Random(1717)
    checked = 0
    for _ in range(600):
        text = random_typed_program(rng)
        # variables named like fresh formals, so that names collide
        for variant in (text, text.replace("X", "V_1").replace("Y", "V_2").replace("Z", "V_3")):
            checked += not isinstance(agree_text(variant), tuple)
    assert checked >= 500


def test_propositional_programs_match_reference():
    rng = random.Random(17)
    texts = [chain(n) for n in (1, 2, 60)]
    texts += [layered_dag(rng, 4, 20) for _ in range(3)]
    texts += [negative_cycles(rng, 40) for _ in range(3)]
    for text in texts:
        tp = agree_text(text)
        assert not isinstance(tp, tuple)


def test_ill_typed_programs_match_reference_and_reach_every_message():
    rng = random.Random(4242)
    errors = []
    for text in ILL_TYPED:
        errors.append(agree_text(text))
    for program in ill_typed_trees():
        errors.append(agree(program))
    for _ in range(500):
        for text in swaps(rng, random_typed_program(rng), 4):
            try:
                program = parse_program(text)
            except ParseError:
                continue
            errors.append(agree(program))
    messages = [e[1] for e in errors if isinstance(e, tuple)]
    assert len(messages) >= 700
    unreached = [p.pattern for p in _messages() if not any(p.search(m) for m in messages)]
    assert not unreached
    # the two uses of one message that names what is incompatible
    assert any(" head variable " in m for m in messages)
    assert any(": variable " in m and "incompatible" in m for m in messages)
