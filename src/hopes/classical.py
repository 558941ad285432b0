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

The search numbers the Undef atoms by their positions in name order
and works on those positions alone: the residual, its components and
every per-atom array of the search are sized to the Undef atoms, not
to the program.  A leaf of a non-tight component is checked with one
linear least-model loop (``_least``, Dowling & Gallier 1984), which
returns the verdict.
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


def _least(order, clauses, heads, pos, neg, waiting, guess) -> bool:
    """Whether ``guess`` is, on the positions in ``order``, the least
    model (Dowling & Gallier 1984) of the reduct of ``clauses``: the
    head of every clause whose positive literals are true is true, once
    the clauses with a negated position true in the guess are dropped.
    ``clauses`` are the clauses of the positions in ``order``, with
    their literals among them: per clause, ``heads`` gives its head,
    ``pos`` its count of positive literals and ``neg`` its negated
    positions, and per position ``waiting`` gives the clauses with it
    as a positive literal."""
    pending = {k: pos[k] for k in clauses}
    for k in clauses:
        for b in neg[k]:
            if guess[b]:
                pending[k] = -1  # dropped: never counts down to zero
                break
    out = [False] * len(guess)
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
    for a in order:
        if out[a] != guess[a]:
            return False
    return True


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
    component with no model leaves the program with none.  The search
    names each Undef atom by its position in ``undef``, in name order,
    which is also its place in the masks.

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
    at = {a: i for i, a in enumerate(undef)}
    root = list(range(len(undef)))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    # The residual program over the positions in undef: each clause of
    # an Undef atom with no literal false under the well-founded model,
    # over its literals inside (every other literal is true), so that no
    # clause has every literal true.  Per clause: its head, its count of
    # positive literals, its negated positions, and for the search,
    # pending counts its literals not yet true and falsified those
    # already false (it is dead while that is above zero).  Per
    # position: the clauses with it as a positive literal (waiting) and
    # as a literal of either sign (occurs), and live counts its clauses
    # that are not dead.  The union-find joins each clause's head with
    # every literal inside, so that its classes are the components.
    heads: list[int] = []
    pos: list[int] = []
    neg: list[list[int]] = []
    pending: list[int] = []
    waiting: list[list[int]] = [[] for _ in undef]
    occurs: list[list[tuple[int, bool]]] = [[] for _ in undef]
    live = [0] * len(undef)
    for i, a in enumerate(undef):
        for c in g.by_head[a]:
            inside = []
            for is_neg, b in c.literals:
                if b in at:
                    inside.append((is_neg, at[b]))
                elif (wf[b] is Tv3.TRUE) == is_neg:
                    break
            else:
                k = len(heads)
                heads.append(i)
                neg.append([j for is_neg, j in inside if is_neg])
                pos.append(len(inside) - len(neg[k]))
                pending.append(len(inside))
                live[i] += 1
                for is_neg, j in inside:
                    occurs[j].append((k, is_neg))
                    if not is_neg:
                        waiting[j].append(k)
                    root[find(j)] = find(i)
    falsified = [0] * len(heads)
    value: list = [None] * len(undef)  # None: unassigned

    orders: dict[int, list[int]] = {}  # each component's positions, in order
    for i in range(len(undef)):
        orders.setdefault(find(i), []).append(i)
    clauses: dict[int, list[int]] = {p: [] for p in orders}
    for k, i in enumerate(heads):
        clauses[find(i)].append(k)
    # A component is tight when its positive graph, an edge from each
    # positive literal to its clause's head, has no cycle, not even a
    # self-loop.  The graph of the whole residual, given to _sccs
    # reversed, as lists of heads, has the same cycles, and each lies
    # inside one component.
    after = [[(False, heads[k]) for k in ks] for ks in waiting]
    cyclic = {find(c[0]) for c in _sccs(after) if len(c) > 1 or (False, c[0]) in after[c[0]]}

    def assign(i: int, v: bool, trail: list[int]) -> bool:
        """Set position i to v and every position that forces: the head
        of a clause whose literals are all true is true, a position whose
        clauses are all dead is false.  Record each position set on
        trail; False on a contradiction."""
        todo = [(i, v)]
        while todo:
            i, v = todo.pop()
            if value[i] is not None:
                if value[i] != v:
                    return False
                continue
            value[i] = v
            trail.append(i)
            for k, is_neg in occurs[i]:
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
        for i in trail:
            for k, is_neg in occurs[i]:
                if value[i] != is_neg:
                    pending[k] += 1
                else:
                    falsified[k] -= 1
                    if not falsified[k]:
                        live[heads[k]] += 1
            value[i] = None

    # Depth-first over each component's positions, True before False,
    # with an explicit stack of decisions: (index in the component's
    # order, on its second branch, positions it set).  Every position
    # before a decision's index is set, so the scan for the next free
    # one resumes after it.  Propagation never leaves the component, and
    # the search ends with every position of it unset again.  A model of
    # the component is the mask of its true positions, with bit
    # len(undef) - 1 - i for position i.
    top = len(undef) - 1
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
                # every decided atom, so only the component's positions
                # are compared
                if tight or _least(order, clauses[p], heads, pos, neg, waiting, value):
                    found.append(sum([1 << (top - i) for i in order if value[i]]))
            while decisions and decisions[-1][1]:
                undo(decisions.pop()[2])
            if not decisions:
                break
            index, _, trail = decisions.pop()
            undo(trail)
            decisions.append((index, True, []))
            consistent = assign(order[index], False, decisions[-1][2])
        masks = [m + f for m in masks for f in found]
        if not masks:
            break
    masks.sort(reverse=True)
    return StableModels(atoms, undef, wf_true, masks)
