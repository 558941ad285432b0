"""Seeded workload generators for the hopes benchmark.

A workload hands out passes; a pass is a list of jobs, and a job is one
program x command x depth, run through ``hopes.cli.main``.  Each job
gets its own copy of the program text with every user symbol renamed
by a fresh per-job tag, so no two timed jobs in one process see the
same text and a cache that persists across calls cannot pass for a
gain.  The structure of each generated program (which edges, which set
members, which literals) is drawn from the seeded RNG, fresh for every
pass; the sizes (atoms, clauses) are fixed per workload, so a second
seed gives the same sizes.

Every instance carries the answers the reference checks need, computed
here in closed form or by a small evaluator of the benchmark's own,
never by the code under test.  Generated names are fixed-width, so the
per-job tag does not change their relative order and with it the order
in which the program visits atoms.
"""

from __future__ import annotations

import itertools
import random
import re
import string
from dataclasses import dataclass
from pathlib import Path

CORPUS_DIR = Path(__file__).resolve().parent / "corpus"

# Sizes.  A pass must hold enough jobs that a run of the benchmark's
# length pools at least 100 job latencies, so that ten lie beyond p90.
NATURALS_DEPTHS = (16, 24, 32, 40)
FACT_TABLES = ((12, 16), (16, 24), (20, 32), (24, 40))  # (constants, facts)
SUBSET_SETS = (16, 12, 4)  # (sets, constants, members per set)
CHAIN_LENGTHS = (200, 400)
DAG_SHAPES = ((8, 200),)  # (layers, atoms per layer)
RANDOM_SIZES = (300,)
EVEN_LOOPS = (6, 8, 10, 12)
MIXED_LOOPS = ((4, 4), (5, 5), (6, 6))  # (even loops, unfounded 2-cycles)
CHOICE_ARGS = (4, 6, 8)


# ---------------------------------------------------------------------------
# graded values, encoded as ints that sort like the domain
# ---------------------------------------------------------------------------

_TOP = 10**9  # T_n is _TOP - n, F_n is -(_TOP - n), ZERO is 0


def true_at(n: int) -> int:
    return _TOP - n


def false_at(n: int) -> int:
    return -(_TOP - n)


def neg(v: int) -> int:
    """neg(T_n) = F_(n+1), neg(F_n) = T_(n+1), neg(ZERO) = ZERO."""
    if v > 0:
        return 1 - v
    if v < 0:
        return -v - 1
    return 0


def grade_str(v: int) -> str:
    if v > 0:
        return f"T{_TOP - v}"
    if v < 0:
        return f"F{_TOP + v}"
    return "ZERO"


def collapse_str(grade: str) -> str:
    """The three-valued reading of a printed grade."""
    return "Undef" if grade == "ZERO" else "True" if grade[0] == "T" else "False"


# ---------------------------------------------------------------------------
# renaming
# ---------------------------------------------------------------------------

_DIRECTIVE = re.compile(r"^(\s*#(?:pred|func)\s+)([a-z]\w*)")
_SYMBOL = re.compile(r"(?<![\w#])([a-z]\w*)")


def rename(text: str, tag: str) -> str:
    """Append ``_tag`` to every lowercase symbol: predicates, function
    symbols and constants.  Type names after ``:`` and comments are kept."""
    lines = []
    for line in text.split("\n"):
        code, pct, comment = line.partition("%")
        m = _DIRECTIVE.match(code)
        if m:
            code = f"{m.group(1)}{m.group(2)}_{tag}{code[m.end():]}"
        else:
            code = _SYMBOL.sub(lambda s: f"{s.group(1)}_{tag}", code)
        lines.append(code + pct + comment)
    return "\n".join(lines)


def unrename(text: str, tag: str) -> str:
    return text.replace(f"_{tag}", "")


class Tagger:
    """Hands out distinct four-letter tags from the seeded RNG."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def fresh(self) -> str:
        while True:
            tag = "".join(self.rng.choice(string.ascii_lowercase) for _ in range(4))
            if tag not in self.used:
                self.used.add(tag)
                return tag


# ---------------------------------------------------------------------------
# instances and jobs
# ---------------------------------------------------------------------------

GroundClause = tuple[str, frozenset, frozenset]  # (head, positive body, negative body)


@dataclass
class Instance:
    """One canonical program and what the checks know about it.

    Every field after ``depth`` is optional; a check runs only when the
    answer it needs is known.
    """

    family: str
    text: str
    depth: int | None
    model: dict[str, str] | None = None  # atom -> printed grade, exact
    documented: dict[str, str] | None = None  # documented values, where printed
    ground: set[GroundClause] | None = None  # the exact ground program
    stable: set[frozenset[str]] | None = None
    extensional: set[frozenset[str]] | None = None  # models --ext must accept
    strata: dict[str, int] | None = None  # None with stratified=False
    stratified: bool | None = None


@dataclass
class Job:
    instance: Instance
    command: str
    fmt: str
    depth: int | None
    exits: frozenset[int]
    flags: tuple[str, ...]
    tag: str  # the renaming suffix of this job's symbols
    text: str  # the renamed program

    def argv(self, program: str, out: str) -> list[str]:
        words = [self.command, program]
        if self.depth is not None:
            words += ["--depth", str(self.depth)]
        return words + ["--format", self.fmt, *self.flags, "--out", out]


def _jobs(inst: Instance, specs, tagger: Tagger) -> list[Job]:
    """specs: (command, format, flags, accepted exit codes) per job."""
    jobs = []
    for command, fmt, flags, exits in specs:
        tag = tagger.fresh()
        depth = None if command in ("check", "stratify") else inst.depth
        jobs.append(
            Job(inst, command, fmt, depth, frozenset(exits), tuple(flags), tag, rename(inst.text, tag))
        )
    return jobs


def _decls(names, typ: str = "o") -> list[str]:
    return [f"#pred {n} : {typ}." for n in names]


def strata_of(atoms, clauses) -> dict[str, int]:
    """Strata of an acyclic program by longest path: a negative edge
    climbs one level, a positive edge none, sources sit at level 1."""
    level = {a: 1 for a in atoms}
    for head, pos, negs in clauses:  # clauses come in topological order
        for b in pos:
            level[head] = max(level[head], level[b])
        for b in negs:
            level[head] = max(level[head], level[b] + 1)
    return level


def evaluate_acyclic(atoms, clauses) -> dict[str, str]:
    """The graded minimum model of an acyclic propositional program,
    bottom up: a clause body is the minimum of its literals, an atom the
    maximum over its clauses, no clause gives F0."""
    value = {a: false_at(0) for a in atoms}
    seen = set()
    for head, pos, negs in clauses:  # clauses come in topological order
        body = min(
            [value[b] for b in pos] + [neg(value[b]) for b in negs], default=true_at(0)
        )
        value[head] = body if head not in seen else max(value[head], body)
        seen.add(head)
    return {a: grade_str(v) for a, v in value.items()}


def clause_text(head: str, pos, negs) -> str:
    body = [*pos, *(f"~{b}" for b in negs)]
    return f"{head} :- {', '.join(body)}." if body else f"{head}."


def _propositional(family: str, atoms, clauses, **known) -> Instance:
    lines = _decls(atoms) + [clause_text(h, p, n) for h, p, n in clauses]
    ground = {(h, frozenset(p), frozenset(n)) for h, p, n in clauses}
    return Instance(family, "\n".join(lines) + "\n", 3, ground=ground, **known)


def least_model(clauses: set[GroundClause], guess: frozenset[str]) -> frozenset[str]:
    """Least model of the reduct of a ground program by a two-valued guess."""
    kept = [(h, p) for h, p, n in clauses if not (n & guess)]
    true: set[str] = set()
    changed = True
    while changed:
        changed = False
        for h, p in kept:
            if h not in true and p <= true:
                true.add(h)
                changed = True
    return frozenset(true)


# ---------------------------------------------------------------------------
# corpus: the shipped programs, frozen in perfbench/corpus
# ---------------------------------------------------------------------------

CORPUS_DEPTHS = (1, 2, 3, 4)
CORPUS_DEPTH_COMMANDS = (
    ("ground", ()),
    ("model", ("--trace",)),
    ("wf", ()),
    ("stable", ("--ext",)),
    ("locstrat", ()),
    ("ext", ()),
)
# Programs with a cycle through negation among their predicates (see the
# comment at the top of each file): stratify gives the negative verdict.
UNSTRATIFIED = {"asymmetric_choice", "choice_pair", "defaults", "even_loop", "naturals", "unstratified_ho"}
# Values the programs' own comments and the README document.
DOCUMENTED = {
    "defaults": {"p": "T0", "q": "F0", "s": "T1", "r": "F1", "t": "ZERO"},
    "even_loop": {"p": "ZERO", "q": "ZERO"},
    "self_support": {"p(a)": "F0"},
    "subset": {
        "p1(a)": "T0", "p2(a)": "T0", "p2(b)": "T0", "p1(b)": "F0",
        "nonsubset(p2)(p1)": "T1", "nonsubset(p1)(p1)": "F1",
        "nonsubset(p1)(p2)": "F1", "nonsubset(p2)(p2)": "F1",
        "subset(p1)(p1)": "T2", "subset(p1)(p2)": "T2",
        "subset(p2)(p2)": "T2", "subset(p2)(p1)": "F2",
    },
}
DOCUMENTED_STABLE = {"even_loop": {frozenset({"p"}), frozenset({"q"})}}


def corpus_exits(program: str, command: str, depth: int | None) -> set[int]:
    """The documented exit codes: 2 for the malformed program, 1 for a
    negative stratify verdict, 0 otherwise.  At depth 1 the subset
    program's slices are too small for the extensionality check to
    relate its predicates, so either verdict is accepted there."""
    if program == "broken":
        return {2}
    if command == "stratify":
        return {1 if program in UNSTRATIFIED else 0}
    if command == "ext" and program == "subset" and depth == 1:
        return {0, 1}
    return {0}


def corpus_pass(rng: random.Random, tagger: Tagger) -> list[Job]:
    jobs: list[Job] = []
    for path in sorted(CORPUS_DIR.glob("*.hop")):
        name = path.stem
        text = path.read_text(encoding="utf-8")
        for depth in (None, *CORPUS_DEPTHS):
            inst = Instance(name, text, depth)
            if name == "naturals" and depth is not None:
                inst.model = naturals_model(depth)
                inst.ground = naturals_ground(depth)
            inst.documented = DOCUMENTED.get(name)
            inst.stable = DOCUMENTED_STABLE.get(name)
            commands = CORPUS_DEPTH_COMMANDS if depth else (("check", ()), ("stratify", ()))
            specs = [
                (cmd, fmt, flags, corpus_exits(name, cmd, depth))
                for fmt in ("text", "json")
                for cmd, flags in commands
            ]
            jobs += _jobs(inst, specs, tagger)
    return jobs


# ---------------------------------------------------------------------------
# grounding: function-symbol chains, fact tables with a join, subsets
# ---------------------------------------------------------------------------

NATURALS = """#func s : i -> i.
#pred nat : i -> o.
#pred even : i -> o.
nat(z).
nat(s(X)) :- nat(X).
even(z).
even(s(X)) :- ~even(X).
"""


def _numeral(n: int) -> str:
    return "s(" * n + "z" + ")" * n


def naturals_model(k: int) -> dict[str, str]:
    """At depth k the slice holds s^n(z) for n < k; nat holds outright
    and even(s^n z) alternates T_n / F_n."""
    model = {}
    for n in range(k):
        model[f"nat({_numeral(n)})"] = "T0"
        model[f"even({_numeral(n)})"] = f"T{n}" if n % 2 == 0 else f"F{n}"
    return model


def naturals_ground(k: int) -> set[GroundClause]:
    clauses = {("nat(z)", frozenset(), frozenset()), ("even(z)", frozenset(), frozenset())}
    for n in range(k - 1):
        m, m1 = _numeral(n), _numeral(n + 1)
        clauses.add((f"nat({m1})", frozenset({f"nat({m})"}), frozenset()))
        clauses.add((f"even({m1})", frozenset(), frozenset({f"even({m})"})))
    return clauses


def fact_table(rng: random.Random, n_consts: int, n_facts: int) -> Instance:
    """Binary facts e(c, c') plus the join r(X) :- e(X, Y).  The first
    n_consts facts form a random cycle, so every constant is used."""
    consts = [f"c{i:03d}" for i in range(n_consts)]
    order = rng.sample(consts, n_consts)
    edges = {(order[i], order[(i + 1) % n_consts]) for i in range(n_consts)}
    while len(edges) < n_facts:
        edges.add((rng.choice(consts), rng.choice(consts)))
    facts = sorted(edges)
    rng.shuffle(facts)
    lines = ["#pred e : i -> i -> o.", "#pred r : i -> o."]
    lines += [f"e({a}, {b})." for a, b in facts]
    lines.append("r(X) :- e(X, Y).")
    model = {}
    ground = {(f"e({a})({b})", frozenset(), frozenset()) for a, b in facts}
    for a in consts:
        model[f"r({a})"] = "T0" if any((a, b) in edges for b in consts) else "F0"
        for b in consts:
            model[f"e({a})({b})"] = "T0" if (a, b) in edges else "F0"
            ground.add((f"r({a})", frozenset({f"e({a})({b})"}), frozenset()))
    return Instance("facts", "\n".join(lines) + "\n", 3, model=model, ground=ground)


def subsets(rng: random.Random, n_sets: int, n_consts: int, size: int) -> Instance:
    """subset.hop over generated sets: subset(A)(B) is T2 when A is a
    subset of B and F2 otherwise; nonsubset the opposite at grade 1."""
    consts = [f"d{i:03d}" for i in range(n_consts)]
    order = rng.sample(consts, n_consts)
    sets = {}
    for j in range(n_sets):  # set j holds order[j % n], so every constant is used
        first = order[j % n_consts]
        rest = rng.sample([c for c in consts if c != first], size - 1)
        sets[f"p{j:03d}"] = {first, *rest}
    lines = [
        "#pred subset : (i -> o) -> (i -> o) -> o.",
        "#pred nonsubset : (i -> o) -> (i -> o) -> o.",
    ]
    lines += _decls(sets, "i -> o")
    lines += [
        "subset(S1)(S2) :- ~(nonsubset S1 S2).",
        "nonsubset(S1)(S2) :- S1(X), ~(S2 X).",
    ]
    facts = [f"{p}({c})." for p, members in sets.items() for c in sorted(members)]
    rng.shuffle(facts)
    lines += facts
    model = {}
    for p, members in sets.items():
        for c in consts:
            model[f"{p}({c})"] = "T0" if c in members else "F0"
        for q, others in sets.items():
            inside = members <= others
            model[f"subset({p})({q})"] = "T2" if inside else "F2"
            model[f"nonsubset({p})({q})"] = "F1" if inside else "T1"
    return Instance("subset", "\n".join(lines) + "\n", 3, model=model)


def grounding_pass(rng: random.Random, tagger: Tagger) -> list[Job]:
    specs = [("ground", "json", (), {0}), ("model", "text", (), {0})]
    instances = [Instance("naturals", NATURALS, k, model=naturals_model(k), ground=naturals_ground(k)) for k in NATURALS_DEPTHS]
    instances += [fact_table(rng, c, f) for c, f in FACT_TABLES]
    instances.append(subsets(rng, *SUBSET_SETS))
    return [job for inst in instances for job in _jobs(inst, specs, tagger)]


# ---------------------------------------------------------------------------
# evaluation: propositional programs, so grounding is linear
# ---------------------------------------------------------------------------


def _atoms(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i:04d}" for i in range(n)]


def chain(n: int) -> Instance:
    """a0 is a fact and a_i :- ~a_(i-1): a_i is T_i for even i, F_i for
    odd i, and the model needs n stages."""
    atoms = _atoms("a", n)
    clauses = [(atoms[0], (), ())] + [(atoms[i], (), (atoms[i - 1],)) for i in range(1, n)]
    model = {a: (f"T{i}" if i % 2 == 0 else f"F{i}") for i, a in enumerate(atoms)}
    strata = {a: i + 1 for i, a in enumerate(atoms)}
    return _propositional("chain", atoms, clauses, model=model, strata=strata, stratified=True)


def layered_dag(rng: random.Random, layers: int, width: int) -> Instance:
    """Shallow and wide: half of layer 0 are facts; every other atom has
    one clause of two literals over lower layers, each negated with
    probability one half."""
    atoms = _atoms("d", layers * width)
    grid = [atoms[k * width : (k + 1) * width] for k in range(layers)]
    clauses = [(a, (), ()) for a in rng.sample(grid[0], width // 2)]
    for k in range(1, layers):
        below = atoms[: k * width]
        for a in grid[k]:
            pos, negs = [], []
            for b in rng.sample(below, 2):
                (negs if rng.random() < 0.5 else pos).append(b)
            clauses.append((a, tuple(pos), tuple(negs)))
    return _propositional(
        "dag",
        atoms,
        clauses,
        model=evaluate_acyclic(atoms, clauses),
        strata=strata_of(atoms, clauses),
        stratified=True,
    )


def random_program(rng: random.Random, n: int) -> Instance:
    """Random references in both directions, plus a planted odd negative
    cycle of three atoms and an even one of two, so the program is
    never stratified; one atom in ten is a fact."""
    atoms = _atoms("x", n)
    clauses = [(a, (), ()) for a in rng.sample(atoms, n // 10)]
    for a in atoms:
        bodies = set()
        while len(bodies) < 2:  # distinct, so grounding drops no duplicate
            pos, negs = [], []
            for b in rng.sample(atoms, 2):
                (negs if rng.random() < 0.5 else pos).append(b)
            bodies.add((tuple(pos), tuple(negs)))
        clauses += [(a, pos, negs) for pos, negs in sorted(bodies)]
    picked = rng.sample(atoms, 5)
    odd, even = picked[:3], picked[3:]
    for i in range(3):
        clauses.append((odd[i], (), (odd[(i + 1) % 3],)))
    clauses.append((even[0], (), (even[1],)))
    clauses.append((even[1], (), (even[0],)))
    return _propositional("random", atoms, clauses, stratified=False)


def evaluation_pass(rng: random.Random, tagger: Tagger) -> list[Job]:
    specs = [
        ("model", "text", (), {0}),
        ("wf", "text", (), {0}),
        ("locstrat", "json", (), {0}),
    ]
    instances = [chain(n) for n in CHAIN_LENGTHS]
    instances += [layered_dag(rng, k, w) for k, w in DAG_SHAPES]
    instances += [random_program(rng, n) for n in RANDOM_SIZES]
    jobs = []
    for inst in instances:
        stratify = ("stratify", "json", (), {0 if inst.stratified else 1})
        jobs += _jobs(inst, [*specs, stratify], tagger)
    return jobs


# ---------------------------------------------------------------------------
# search: stable models, within the default cap of 24 atoms
# ---------------------------------------------------------------------------


def even_loops(rng: random.Random, k: int, unfounded: int = 0) -> Instance:
    """k even negative loops p :- ~q, q :- ~p give 2^k stable models and
    leave every loop atom at ZERO; unfounded positive 2-cycles u :- v,
    v :- u are false in every model (F0 in the graded one)."""
    names = _atoms("n", 2 * (k + unfounded))
    rng.shuffle(names)
    loops = [(names[2 * i], names[2 * i + 1]) for i in range(k)]
    cycles = [(names[2 * i], names[2 * i + 1]) for i in range(k, k + unfounded)]
    clauses = []
    for p, q in loops:
        clauses += [(p, (), (q,)), (q, (), (p,))]
    for u, v in cycles:
        clauses += [(u, (v,), ()), (v, (u,), ())]
    rng.shuffle(clauses)
    model = {a: "ZERO" for pair in loops for a in pair}
    model.update({a: "F0" for pair in cycles for a in pair})
    stable = {frozenset(pick) for pick in itertools.product(*loops)}
    family = "mixed" if unfounded else "loops"
    return _propositional(family, sorted(names), clauses, model=model, stable=stable)


def choice(m: int) -> Instance:
    """choice_pair.hop over m predicates of extension {a}: r or s per
    argument, 2^m stable models, of which only all-r and all-s are
    extensional, because the m predicates are extensionally equal."""
    preds = [f"q{j:02d}" for j in range(m)]
    lines = ["#pred r : (i -> o) -> o.", "#pred s : (i -> o) -> o."]
    lines += _decls(preds, "i -> o")
    lines += ["r(Q) :- ~s(Q).", "s(Q) :- ~r(Q)."] + [f"{q}(a)." for q in preds]
    facts = {f"{q}(a)" for q in preds}
    stable = set()
    for picks in itertools.product("rs", repeat=m):
        stable.add(frozenset(facts | {f"{c}({q})" for c, q in zip(picks, preds)}))
    uniform = {frozenset(facts | {f"{c}({q})" for q in preds}) for c in "rs"}
    return Instance("choice", "\n".join(lines) + "\n", 2, stable=stable, extensional=uniform)


def search_pass(rng: random.Random, tagger: Tagger) -> list[Job]:
    jobs = []
    for k in EVEN_LOOPS:
        jobs += _jobs(even_loops(rng, k), [("stable", "text", (), {0}), ("model", "text", (), {0})], tagger)
    for k, u in MIXED_LOOPS:
        jobs += _jobs(even_loops(rng, k, u), [("stable", "text", (), {0})], tagger)
    for m in CHOICE_ARGS:
        jobs += _jobs(choice(m), [("stable", "json", ("--ext",), {0})], tagger)
    return jobs


WORKLOADS = {
    "corpus": corpus_pass,
    "grounding": grounding_pass,
    "evaluation": evaluation_pass,
    "search": search_pass,
}
