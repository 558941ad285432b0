"""The alternating fixpoint that ``hopes.classical.wf_oracle`` used to
run, kept as the reference that the per-component fixpoint is checked
against.

It alternates over the whole program: every round takes two least
models of reducts of the full program, so a negation chain of n atoms
costs n/2 rounds of linear work.
"""

from __future__ import annotations

from hopes.classical import Tv3, TwoValuedInterp, _Reduct
from hopes.herbrand import GroundProgram


def wf_oracle(g: GroundProgram) -> list[Tv3]:
    """The well-founded model via the alternating fixpoint."""
    gl = _Reduct(g).least_model
    lower: TwoValuedInterp = frozenset()
    while True:
        new_lower = gl(gl(lower))
        if new_lower == lower:
            break
        lower = new_lower
    non_false = gl(lower)
    return [
        Tv3.TRUE if a in lower else Tv3.UNDEF if a in non_false else Tv3.FALSE
        for a in range(len(g.atoms))
    ]
