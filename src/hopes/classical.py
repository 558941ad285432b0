"""Classical readings of a ground program.

* ``collapse`` maps a refined model onto three values: every graded
  truth becomes True, every graded falsity becomes False, the middle
  value becomes Undef.
* ``wf_oracle`` is the well-founded model, read off as the collapse of
  the graded minimum model, as the paper's semantics gives it.  The
  alternating fixpoint it is checked against, computed without the
  engine, is kept with the tests (``tests/reference_wf.py``).
* ``stable_models`` enumerates the two-valued stable models: total
  assignments that reproduce themselves as the least model of their
  own reduct.  Every stable model extends the well-founded model, so
  the search fixes the atoms that model makes true or false and
  branches only on its Undef atoms, over the residual program: each
  clause of an Undef atom with no literal false under the well-founded
  model, keeping only its Undef literals.  Each total candidate lies
  between the well-founded model's true and non-false atoms, and the
  reduct operator is antimonotone, so the least model of its reduct
  agrees with the well-founded model on every decided atom, and the
  candidate is stable exactly when its Undef atoms are a stable model
  of the residual.  The count of Undef atoms is capped, since the
  search is meant for desk-sized programs; the cap counts all of them,
  however they split.

  The residual splits into components: a union-find over its clauses
  joins each clause's head with every literal inside, positive and
  negated.  No clause spans two components, so the stable models of
  the residual are the unions of one stable model of each (the
  splitting-set theorem, Lifschitz & Turner 1994), and each component
  is searched once, depth-first over its own atoms in name order, True
  before False.  A component with no model leaves the program with
  none.  Per-clause counters of pending and false literals, and
  per-atom counts of live clauses, propagate each assignment through
  the clauses the atom occurs in (a clause with every literal true
  makes its head true, an atom with every clause dead is false), and
  never leave the component.  A leaf that this propagation leaves
  consistent is a supported model of the component: each true atom has
  a clause with every literal true, and no false atom has one.  When
  the component is tight (it holds no cycle of the residual's graph
  through positive literals, self-loops included, whose strongly
  connected components are found once per run), every supported model
  of it is stable (Fages 1994; Erdem & Lifschitz, TPLP 2003), so each
  consistent leaf is accepted as it stands.  Otherwise the leaf check
  compares the least model of the component's clauses with the
  candidate on the component's atoms.

  A model of a component is an int mask over the Undef atoms in name
  order, the first of them the most significant bit; the program's
  models are the sums of one mask per component, sorted in descending
  order.  That is the order of the models' sorted names (no stable
  model contains another; see ``stable_models``), and the order in
  which one search over the whole residual, deciding the Undef atoms
  in name order and True first, would find them.  ``stable_models``
  returns the masks as they are, beside the well-founded true atoms
  that every model shares (``StableModels``): a model's frozenset and
  its sorted names are built only when a caller reads them.

The search builds the residual with ``_residual`` and takes its
least models with one linear loop (``_least``, Dowling & Gallier 1984).
"""

from __future__ import annotations

from bisect import bisect
from enum import Enum
from typing import Iterator

from .analysis import _sccs
from .engine import InfModel, minimum_model
from .herbrand import GroundProgram

DEFAULT_STABLE_CAP = 24


class Tv3(Enum):
    TRUE = "True"
    FALSE = "False"
    UNDEF = "Undef"

    def __str__(self) -> str:
        return self.value


TwoValuedInterp = frozenset[int]


class TooManyAtoms(Exception):
    def __init__(self, count: int, cap: int):
        self.count = count
        self.cap = cap
        atoms, exceed = ("atom", "exceeds") if count == 1 else ("atoms", "exceed")
        super().__init__(
            f"{count} {atoms} left undefined by the well-founded model {exceed}"
            f" the stable-model enumeration cap of {cap}"
        )


def collapse(m: InfModel) -> list[Tv3]:
    """Forget the grades: Tn -> True, Fn -> False, 0 -> Undef."""
    return [
        Tv3.TRUE if v.is_true else Tv3.FALSE if v.is_false else Tv3.UNDEF
        for v in m.values
    ]


def wf_oracle(g: GroundProgram) -> list[Tv3]:
    """The well-founded model: the collapse of the minimum model."""
    return collapse(minimum_model(g))


def _residual(atoms, by_head, value: list, waiting: list[list[int]]):
    """The clauses of ``atoms`` over the atoms inside, those whose
    ``value`` is None.  Each other atom is decided, True or False: a
    clause with a literal false over one is dropped, a literal true over
    one is removed.

    Returns per clause its head and its count of positive literals
    inside, and the negated atoms inside of each clause that has one.
    Each atom inside gets, in ``waiting``, the clauses with it as a
    positive literal."""
    heads: list[int] = []
    counts: list[int] = []
    negated: list[tuple[int, list[int]]] = []
    for a in atoms:
        for c in by_head[a]:
            pos: list[int] = []
            neg: list[int] = []
            for is_neg, b in c.literals:
                v = value[b]
                if v is None:  # inside
                    (neg if is_neg else pos).append(b)
                elif v == is_neg:
                    break
            else:
                k = len(heads)
                heads.append(a)
                counts.append(len(pos))
                for b in pos:
                    waiting[b].append(k)
                if neg:
                    negated.append((k, neg))
    return heads, counts, negated


def _least(
    atoms,
    clauses: list[int],
    heads: list[int],
    counts: list[int],
    negated: list[tuple[int, list[int]]],
    waiting: list[list[int]],
    guess: list,
    out: list[bool],
) -> None:
    """Least model of a residual program (Dowling & Gallier 1984): the
    head of every clause whose positive literals are true is true, once
    the clauses with a negated atom in the guess are dropped.  Reads
    only ``clauses``, with ``negated`` among them, whose heads are
    ``atoms`` and whose literals are inside them, and writes into
    ``out`` for those ``atoms``."""
    pending = {k: counts[k] for k in clauses}
    for k, neg in negated:
        for b in neg:
            if guess[b]:
                pending[k] = -1  # dead: never counts down to zero
                break
    for a in atoms:
        out[a] = False
    stack = []
    for k in clauses:
        if not pending[k] and not out[heads[k]]:
            out[heads[k]] = True
            stack.append(heads[k])
    while stack:
        for k in waiting[stack.pop()]:
            pending[k] -= 1
            if not pending[k] and not out[heads[k]]:
                out[heads[k]] = True
                stack.append(heads[k])


class StableModels:
    """Stable models as int masks over ``undef``, the atoms that the
    well-founded model leaves Undef, in name order, with ``undef[i]`` at
    bit ``1 << (len(undef) - 1 - i)``; the masks are in descending
    order, the order of the models' sorted names.  ``true`` holds the
    well-founded true atoms, which every model shares.  ``len`` is the
    model count; iterating gives each model as a frozenset of atom ids,
    ``valuations`` as values over all atoms, and ``names`` as its
    sorted atom names."""

    __slots__ = ("atoms", "undef", "true", "masks")

    def __init__(self, atoms: tuple[str, ...], undef: list[int], true: list[int], masks: list[int]):
        self.atoms, self.undef, self.true, self.masks = atoms, undef, true, masks

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self) -> Iterator[TwoValuedInterp]:
        for values in self.valuations(True, False):
            yield frozenset([a for a, v in enumerate(values) if v])

    def valuations(self, true, false) -> Iterator[list]:
        """Each model as one list of values over all atoms, ``true`` at
        its atoms and ``false`` elsewhere: the same list every time,
        with the well-founded true atoms set once and only the Undef
        atoms set again for each model."""
        values = [false] * len(self.atoms)
        for a in self.true:
            values[a] = true
        undef = self.undef[::-1]  # undef[-1 - i] is bit i
        for mask in self.masks:
            for i, a in enumerate(undef):
                values[a] = true if mask >> i & 1 else false
            yield values

    def names(self) -> Iterator[tuple[str, ...]]:
        """Each model's sorted atom names, joined from pieces.  The Undef
        atoms fall into groups of at most 8 consecutive ones with no true
        name sorting between them.  A group's table maps its bits to the
        true names since the last group and the group's names that the
        bits select, filled as models meet its entries; a model's names
        are its groups' entries, then the true names after every group."""
        atoms, n = self.atoms, len(self.undef)
        shared = sorted([atoms[a] for a in self.true])
        groups: list[list] = []  # [shift, width mask, true names before, names, table]
        done = 0  # the true names before the last group
        for i, a in enumerate(self.undef):
            place = bisect(shared, atoms[a])
            if not groups or place > done or len(groups[-1][3]) == 8:
                groups.append([0, 0, tuple(shared[done:place]), [], [None] * 256])
                done = place
            group = groups[-1]
            group[0], group[1] = n - 1 - i, group[1] * 2 + 1
            group[3].append(atoms[a])
        tail = tuple(shared[done:])
        for mask in self.masks:
            out: list[str] = []
            for shift, full, run, group, table in groups:
                bits = mask >> shift & full
                piece = table[bits]
                if piece is None:
                    top = len(group) - 1
                    piece = table[bits] = run + tuple([x for j, x in enumerate(group) if bits >> (top - j) & 1])
                out += piece
            out += tail
            yield tuple(out)


def stable_models(
    g: GroundProgram, cap: int = DEFAULT_STABLE_CAP
) -> StableModels:
    """All stable models, ordered by their sorted atom names, as masks
    in a ``StableModels``.  ``TooManyAtoms`` when the well-founded model
    leaves more than ``cap`` atoms Undef.

    The residual program over the Undef atoms falls into components:
    the classes of the Undef atoms linked by sharing a residual clause,
    as its head or in one of its literals, positive or negated.  No
    clause spans two components, so by the splitting-set theorem
    (Lifschitz & Turner, "Splitting a logic program", ICLP 1994) the
    stable models of the residual are exactly the unions of one stable
    model of each component.  Each component is searched once, and a
    component with no model leaves the program with none.

    A consistent leaf of a component's search is a supported model of
    the component.  If the component's positive graph has no cycle (it
    is tight), supported models are stable (Fages, "Consistency of
    Clark's completion and existence of stable models", 1994; Erdem &
    Lifschitz, "Tight logic programs", TPLP 2003), and every such leaf
    is a model; otherwise each leaf is checked against the least model
    of its reduct over the component's clauses.  Every cycle of the
    residual's positive graph lies inside one component, so the
    components without one are tight.

    Every model is the well-founded true atoms plus its own true Undef
    atoms.  Stable models are minimal models (Gelfond &
    Lifschitz 1988, Theorem 1), so none contains another, and of two
    models the one that holds the first name at which their own atoms
    differ sorts first by all its names (the other holds a later name
    in that place, not none).  That name is the first Undef atom, by
    name, that the two disagree on.  So, with the Undef atoms in name
    order and a model's own atoms read as a bit mask whose most
    significant bit is the first of them, the models sorted by their
    names are the masks sorted in descending order: the order in which
    one search over all the Undef atoms, deciding them in name order
    and trying True first, would find them.  The combined models stay
    masks, one int each, and are returned as such."""
    atoms = g.atoms
    wf = wf_oracle(g)
    undef = sorted([a for a, v in enumerate(wf) if v is Tv3.UNDEF], key=atoms.__getitem__)
    if len(undef) > cap:
        raise TooManyAtoms(len(undef), cap)
    wf_true = [a for a, v in enumerate(wf) if v is Tv3.TRUE]

    # The residual program over the Undef atoms, whose value None means
    # unassigned.  Every other atom is decided, True or False, and no
    # clause has every literal true, or its head would be true.  For the
    # search, pending counts the literals of each clause not yet true and
    # falsified those already false (it is dead while that is above
    # zero); live counts the clauses of each atom that are not dead.
    value: list = [None if v is Tv3.UNDEF else v is Tv3.TRUE for v in wf]
    waiting: list[list[int]] = [[] for _ in wf]
    heads, counts, negated = _residual(undef, g.by_head, value, waiting)
    occurs = [[(k, False) for k in ks] for ks in waiting]
    pending = counts.copy()
    for k, neg in negated:
        pending[k] += len(neg)
        for a in neg:
            occurs[a].append((k, True))
    falsified = [0] * len(heads)
    live = [0] * len(wf)
    for a in heads:
        live[a] += 1

    # The components, by union-find over the positions in undef: each
    # clause joins its head with every literal inside, positive (the
    # clauses in waiting) and negated.
    number = {a: i for i, a in enumerate(undef)}
    root = list(range(len(undef)))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    def join(a: int, b: int) -> None:
        root[find(number[a])] = find(number[b])

    for a in undef:
        for k in waiting[a]:
            join(a, heads[k])
    for k, neg in negated:
        for b in neg:
            join(b, heads[k])
    part = {a: find(i) for i, a in enumerate(undef)}
    orders: dict[int, list[int]] = {}  # each component's atoms, in name order
    for a in undef:
        orders.setdefault(part[a], []).append(a)
    clauses: dict[int, list[int]] = {p: [] for p in orders}
    for k, a in enumerate(heads):
        clauses[part[a]].append(k)
    negated_in: dict[int, list[tuple[int, list[int]]]] = {p: [] for p in orders}
    for k, neg in negated:
        negated_in[part[heads[k]]].append((k, neg))
    # A component is tight when its positive graph, an edge from each
    # positive literal to its clause's head, has no cycle, not even a
    # self-loop.  The graph of the whole residual, given to _sccs
    # reversed, as lists of heads, has the same cycles, and each lies
    # inside one component.
    heads_of = [[(False, number[heads[k]]) for k in waiting[a]] for a in undef]
    cyclic = {
        part[undef[c[0]]] for c in _sccs(heads_of) if len(c) > 1 or (False, c[0]) in heads_of[c[0]]
    }

    def assign(atom: int, v: bool, trail: list[int]) -> bool:
        """Set atom to v and every atom that forces: the head of a clause
        whose literals are all true is true, an atom whose clauses are
        all dead is false.  Record each atom set on trail; False on a
        contradiction."""
        todo = [(atom, v)]
        while todo:
            atom, v = todo.pop()
            if value[atom] is not None:
                if value[atom] != v:
                    return False
                continue
            value[atom] = v
            trail.append(atom)
            for k, is_neg in occurs[atom]:
                if v != is_neg:
                    pending[k] -= 1
                    if not pending[k]:
                        todo.append((heads[k], True))
                else:
                    falsified[k] += 1
                    if falsified[k] == 1:
                        live[heads[k]] -= 1
                        if not live[heads[k]]:
                            todo.append((heads[k], False))
        return True

    def undo(trail: list[int]) -> None:
        for atom in trail:
            for k, is_neg in occurs[atom]:
                if value[atom] != is_neg:
                    pending[k] += 1
                else:
                    falsified[k] -= 1
                    if not falsified[k]:
                        live[heads[k]] += 1
            value[atom] = None

    # Depth-first over each component's atoms, True before False, with
    # an explicit stack of decisions: (position in the component's
    # order, on its second branch, atoms it set).  Every atom before a
    # decision's position is set, so the scan for the next free atom
    # resumes after it.  Propagation never leaves the component, and the
    # search ends with every atom of it unset again.  A model of the
    # component is the mask of its true atoms, with bit
    # len(undef) - 1 - i for undef[i].
    bit = {a: 1 << (len(undef) - 1 - i) for i, a in enumerate(undef)}
    out = [False] * len(wf)
    masks = [0]
    for p, order in orders.items():
        found: list[int] = []
        decisions: list[tuple[int, bool, list[int]]] = []
        consistent = True
        tight = p not in cyclic
        while True:
            if consistent:
                free = decisions[-1][0] + 1 if decisions else 0
                while free < len(order) and value[order[free]] is not None:
                    free += 1
                if free < len(order):
                    decisions.append((free, False, []))
                    consistent = assign(order[free], True, decisions[-1][2])
                    continue
                # a consistent leaf is a supported model of the
                # component, stable when the component is tight;
                # otherwise stable when it is the least model of its own
                # reduct, which agrees with the well-founded model on
                # every decided atom, so only the component's atoms, its
                # least model, are compared
                if not tight:
                    _least(order, clauses[p], heads, counts, negated_in[p], waiting, value, out)
                if tight or all(out[a] == value[a] for a in order):
                    found.append(sum(bit[a] for a in order if value[a]))
            while decisions and decisions[-1][1]:
                undo(decisions.pop()[2])
            if not decisions:
                break
            pos, _, trail = decisions.pop()
            undo(trail)
            decisions.append((pos, True, []))
            consistent = assign(order[pos], False, decisions[-1][2])
        masks = [m + f for m in masks for f in found]
        if not masks:
            break
    masks.sort(reverse=True)
    return StableModels(atoms, undef, wf_true, masks)
