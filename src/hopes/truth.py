"""Infinite-valued truth domain for logic programs with negation.

Classical two-valued (and even three-valued) semantics cannot distinguish
a fact that is true outright from one that is true only because something
else failed.  This module provides a linearly ordered domain that keeps
track of *how many* negation-as-failure steps separate a value from a
plain fact:

    F0 < F1 < F2 < ... < 0 < ... < T2 < T1 < T0

``T0`` and ``F0`` are the classical values.  ``Tn``/``Fn`` for n > 0 are
truth and falsity obtained through n nested defaults, each weaker than
the last.  ``0`` sits strictly between all false and all true values and
marks atoms that never settle (for example an atom defined only through
an odd negative cycle).

Negation shifts a value one level toward the middle and flips its sign:
``neg(Fn) = T(n+1)``, ``neg(Tn) = F(n+1)``, ``neg(0) = 0``.  Conjunction
is minimum, disjunction (over clause bodies) is least upper bound, and
the least upper bound of the empty set is ``F0``.

The *order* of a value is its subscript (``+inf`` for ``0``).  Orders are
how the model construction decides which values are already settled at a
given stage.

A value is an ``int`` that sorts like the domain, so comparison, ``min``,
``max`` and hashing are the integer ones: ``Fn = n + 1``, ``0 = M`` and
``Tn = 2M - 1 - n`` with ``M = INDEX_BOUND + 1``.  An index must lie
below ``INDEX_BOUND`` = 2**28; each stage decides an atom, so indices
never exceed the atom count.  No value is the int 0: all are truthy.
"""

from __future__ import annotations

import math
from typing import Union

OrdinalIndex = Union[int, float]  # a natural number, or math.inf for the middle value

INDEX_BOUND = 1 << 28
_MIDDLE = INDEX_BOUND + 1


class TruthValue(int):
    """One point of the domain: sign is +1 (true), -1 (false) or 0."""

    __slots__ = ()

    def __new__(cls, sign: int, index: int = 0) -> "TruthValue":
        if sign not in (-1, 0, 1):
            raise ValueError(f"bad sign {sign!r}")
        if index < 0:
            raise ValueError(f"negative index {index!r}")
        if sign == 0 and index != 0:
            raise ValueError("the middle value carries no index")
        if index >= INDEX_BOUND:
            raise ValueError(f"index {index!r} is not below the bound {INDEX_BOUND}")
        return super().__new__(cls, _MIDDLE + sign * (_MIDDLE - 1 - index))

    def __getnewargs__(self) -> tuple[int, int]:
        return (self.sign, self.index)

    def __str__(self) -> str:
        if self.sign == 0:
            return "ZERO"
        return f"{'T' if self.sign > 0 else 'F'}{self.index}"

    __repr__ = __str__

    @property
    def sign(self) -> int:
        return (self > _MIDDLE) - (self < _MIDDLE)

    @property
    def index(self) -> int:
        if self < _MIDDLE:
            return self - 1
        if self > _MIDDLE:
            return 2 * _MIDDLE - 1 - self
        return 0

    @property
    def is_true(self) -> bool:
        return self > _MIDDLE

    @property
    def is_false(self) -> bool:
        return self < _MIDDLE

    @property
    def is_zero(self) -> bool:
        return self == _MIDDLE


def true_at(n: int) -> TruthValue:
    return TruthValue(1, n)


def false_at(n: int) -> TruthValue:
    return TruthValue(-1, n)


ZERO = TruthValue(0)
T0 = true_at(0)
T1 = true_at(1)
F0 = false_at(0)
F1 = false_at(1)


def neg(v: TruthValue) -> TruthValue:
    """Negation-as-failure: flip the sign, weaken by one level."""
    if v.sign == 0:
        return ZERO
    return TruthValue(-v.sign, v.index + 1)


def order(v: TruthValue) -> OrdinalIndex:
    """The level a value lives at; the middle value has infinite order."""
    return math.inf if v.sign == 0 else v.index
