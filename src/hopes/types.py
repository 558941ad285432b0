"""Types of the higher-order language.

Three mutually recursive classes of simple types over the base types
``i`` (individuals) and ``o`` (propositions):

    functional  sigma ::= i | i -> sigma
    predicate   pi    ::= o | rho -> pi
    argument    rho   ::= i | pi

Function symbols take individuals to individuals.  Predicates take
arguments (individuals or other predicates) and end in ``o``.  Anything
that may be passed to a predicate is an argument type.  A type such as
``(i -> o) -> i`` belongs to none of the classes and is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass(slots=True)
class TypeExpr:
    kind: str  # "iota" | "o" | "arrow"
    left: Optional["TypeExpr"] = None
    right: Optional["TypeExpr"] = None
    # computed once from the kind and the children's cached hashes, so
    # that a dict lookup keyed by a type does not walk the tree
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._hash = hash((self.kind, self.left, self.right))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt when unpickled, since string hashes differ between processes
        return (TypeExpr, (self.kind, self.left, self.right))

    def __str__(self) -> str:
        return type_to_str(self)

    __repr__ = __str__


IOTA = TypeExpr("iota")
O = TypeExpr("o")

# Printing, equality and the extensionality relations walk types
# recursively, so a declared or inferred type whose tree is deeper
# than this is refused up front.
MAX_TYPE_NESTING = 100


def arrow(left: TypeExpr, right: TypeExpr) -> TypeExpr:
    return TypeExpr("arrow", left, right)


def arrow_chain(args: list[TypeExpr], result: TypeExpr) -> TypeExpr:
    t = result
    for a in reversed(args):
        t = arrow(a, t)
    return t


def type_depth(t: TypeExpr) -> int:
    """Depth of a type tree, measured without recursion."""
    deepest = 0
    stack = [(t, 1)]
    while stack:
        x, depth = stack.pop()
        deepest = max(deepest, depth)
        if x.kind == "arrow":
            stack += ((x.left, depth + 1), (x.right, depth + 1))
    return deepest


def type_to_str(t: TypeExpr) -> str:
    if t.kind == "iota":
        return "i"
    if t.kind == "o":
        return "o"
    # arrows associate to the right; parenthesize arrow operands on the left
    left = type_to_str(t.left)
    if t.left.kind == "arrow":
        left = f"({left})"
    return f"{left} -> {type_to_str(t.right)}"


def is_functional(t: TypeExpr) -> bool:
    while t.kind == "arrow":
        if t.left.kind != "iota":
            return False
        t = t.right
    return t.kind == "iota"


def is_predicate(t: TypeExpr) -> bool:
    while t.kind == "arrow":
        if not is_argument(t.left):
            return False
        t = t.right
    return t.kind == "o"


def is_argument(t: TypeExpr) -> bool:
    return t.kind == "iota" or is_predicate(t)


def argument_types(pi: TypeExpr) -> list[TypeExpr]:
    """The argument positions rho1..rhon of a predicate type."""
    out = []
    while pi.kind == "arrow":
        out.append(pi.left)
        pi = pi.right
    return out


def arity(t: TypeExpr) -> int:
    n = 0
    while t.kind == "arrow":
        n += 1
        t = t.right
    return n
