"""The well-founded model computed independently of the graded engine,
by the alternating fixpoint of Van Gelder (PODS 1989).  The package has
no second well-founded algorithm: ``hopes.classical.wf_oracle`` is the
collapse of ``hopes.engine.minimum_model``, and this module is what
that collapse is checked against.

It alternates over the whole program: every round takes two least
models of reducts of the full program, so a negation chain of n atoms
costs n/2 rounds of up to quadratic work.  Each least model is taken by
``reference_stable.reference_least_model`` over the reduct built by
``reference_stable.reduct``, so it shares no code with the engine it
checks.
"""

from __future__ import annotations

from hopes.classical import Tv3, TwoValuedInterp
from hopes.herbrand import GroundProgram

from reference_stable import reduct, reference_least_model


def wf_oracle(g: GroundProgram) -> list[Tv3]:
    """The well-founded model via the alternating fixpoint."""
    def gl(i: TwoValuedInterp) -> TwoValuedInterp:
        return reference_least_model(reduct(g, i))

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
