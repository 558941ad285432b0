import random
from pathlib import Path

import pytest

from hopes import ground_instantiate, parse_program, typecheck
from hopes.herbrand import GroundClause, GroundProgram
from hopes.typecheck import TypeCheckError

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"

# every well-formed program in the shipped corpus (broken.hop is the
# deliberate parse-error fixture and stays out of this list)
CORPUS = [
    "identity",
    "defaults",
    "subset",
    "stratified_ho",
    "unstratified_ho",
    "choice_pair",
    "asymmetric_choice",
    "even_loop",
    "self_support",
    "naturals",
]


def program_path(name: str) -> Path:
    return PROGRAMS / f"{name}.hop"


def load(name: str):
    return typecheck(parse_program(program_path(name).read_text()))


def load_ground(name: str, k: int = 3) -> GroundProgram:
    return ground_instantiate(load(name), k)


@pytest.fixture
def corpus_grounds():
    return {name: load_ground(name) for name in CORPUS}


def random_ground_program(rng: random.Random, max_atoms: int = 10, max_clauses: int = 15) -> GroundProgram:
    """A random propositional program over atoms a0..a{n-1}."""
    n = rng.randint(1, max_atoms)
    atoms = [f"a{i}" for i in range(n)]
    clauses = []
    for _ in range(rng.randint(0, max_clauses)):
        head = rng.choice(atoms)
        body_len = rng.randint(0, 4)
        pos, neg = [], []
        for _ in range(body_len):
            (neg if rng.random() < 0.4 else pos).append(rng.choice(atoms))
        clauses.append((head, pos, neg))
    return GroundProgram.build(atoms, clauses)


def shrink(g: GroundProgram, fails) -> GroundProgram:
    """A smaller program over the same atoms on which ``fails`` still
    holds, for a failure message: whole clauses are dropped, then single
    literals, one at a time, each drop kept when ``fails`` holds after
    it, until no single drop keeps it (one-minimal, after Zeller &
    Hildebrandt, "Simplifying and isolating failure-inducing input",
    TSE 2002).  ``fails(g)`` must hold."""
    clauses = list(g.clauses)

    def kept(trial: list[GroundClause]) -> bool:
        nonlocal clauses
        if fails(GroundProgram(g.atoms, tuple(trial))):
            clauses = trial
            return True
        return False

    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(clauses):
            if kept(clauses[:i] + clauses[i + 1 :]):
                changed = True
            else:
                i += 1
        for i in range(len(clauses)):
            j = 0
            while j < len(clauses[i].literals):
                c = clauses[i]
                smaller = GroundClause(c.head, c.literals[:j] + c.literals[j + 1 :])
                if kept(clauses[:i] + [smaller] + clauses[i + 1 :]):
                    changed = True
                else:
                    j += 1
    return GroundProgram(g.atoms, tuple(clauses))


def shrink_report(g: GroundProgram, fails) -> str:
    """A failure message for a comparison with a reference: g's ground
    text, then the program that ``shrink`` cuts it down to while
    ``fails`` still holds."""
    return f"{g.to_text()}shrunk to:\n{shrink(g, fails).to_text()}"


# argument types of the predicates a random program may declare
PRED_TYPES = {
    "o": [],
    "i -> o": ["i"],
    "i -> i -> o": ["i", "i"],
    "(i -> o) -> o": ["i -> o"],
    "(i -> o) -> i -> o": ["i -> o", "i"],
    "((i -> o) -> o) -> o": ["(i -> o) -> o"],
}
# variables are typed by name, so every clause is consistent
VARS = {"i": ["X", "Y", "Z"], "i -> o": ["P", "Q"], "(i -> o) -> o": ["R"]}


def random_typed_program(rng: random.Random) -> str:
    """The text of a random program: function symbols, facts and
    non-variable head arguments, user equalities in any body position,
    higher-order variables applied and passed, and argument types whose
    universes may be empty.  Variables are typed by name, but the draw
    may still fail `typecheck` (29 of seeds 0-99 do);
    `random_checked_program` draws until one passes."""
    consts = rng.sample(["a", "b", "c"], rng.randint(0, 3))
    arities = {"f": 1, "g": 2}
    funcs = [f for f in arities if rng.random() < 0.5]
    preds = {f"p{i}": rng.choice(list(PRED_TYPES)) for i in range(rng.randint(2, 5))}

    def ind(depth: int = 0) -> str:
        choices = ["var", "var"] + (["const"] if consts else []) + (funcs if depth < 2 else [])
        pick = rng.choice(choices)
        if pick == "var":
            return rng.choice(VARS["i"])
        if pick == "const":
            return rng.choice(consts)
        return f"{pick}({', '.join(ind(depth + 1) for _ in range(arities[pick]))})"

    def nonvar() -> str:
        pick = rng.choice(([rng.choice(consts)] if consts else []) + funcs)
        if pick in arities:
            return f"{pick}({', '.join(ind(1) for _ in range(arities[pick]))})"
        return pick

    def arg(typ: str) -> str:
        if typ == "i":
            return ind()
        options = list(VARS[typ]) + [p for p, t in preds.items() if t == typ]
        return rng.choice(options)

    def atom() -> str:
        if rng.random() < 0.2:
            if rng.random() < 0.5:
                return f"{rng.choice(VARS['i -> o'])}({ind()})"
            return f"{VARS['(i -> o) -> o'][0]}({arg('i -> o')})"
        p = rng.choice(list(preds))
        args = PRED_TYPES[preds[p]]
        return f"{p}({', '.join(arg(t) for t in args)})" if args else p

    lines = [f"#pred {p} : {t}." for p, t in preds.items()]
    lines += [f"#func {f} : {' -> '.join(['i'] * (arities[f] + 1))}." for f in funcs]
    for _ in range(rng.randint(1, 6)):
        p = rng.choice(list(preds))
        used: set[str] = set()
        head_args = []
        for t in PRED_TYPES[preds[p]]:
            free = [v for v in VARS[t] if v not in used]
            if t == "i" and (consts or funcs) and rng.random() < 0.5:
                head_args.append(nonvar())  # normalized into a leading equality
            else:
                used.add(free[0])
                head_args.append(free[0])
        head = f"{p}({', '.join(head_args)})" if head_args else p
        body = []
        for _ in range(rng.randint(0, 3)):
            roll = rng.random()
            if roll < 0.25:
                body.append(f"{ind()} = {ind()}")
            elif roll < 0.45:
                body.append(f"~{atom()}")
            else:
                body.append(atom())
        lines.append(f"{head} :- {', '.join(body)}." if body else f"{head}.")
    return "\n".join(lines) + "\n"


def random_checked_program(rng: random.Random):
    """Draw until a program type-checks; a variable seen only in an
    application such as P(X) has an ambiguous type."""
    while True:
        text = random_typed_program(rng)
        try:
            return text, typecheck(parse_program(text))
        except TypeCheckError:
            continue
