"""The paper's theorems as seeded properties.

A stratified program, and a program whose depth-bounded ground program
is locally stratified, has a minimum model without the middle value 0;
on every instance the three-valued collapse of the minimum model is
the well-founded model; and the minimum model is extensional.  The
instances come from the random typed programs of
``test_grounder_oracle`` at depths 1 to 3, and 1 to 4 for
extensionality.
"""

import random

from hopes import ground_instantiate
from hopes.analysis import (
    StrataAssignment,
    check_extensional,
    check_locally_stratified_bounded,
    check_stratified,
)
from hopes.classical import collapse
from hopes.engine import minimum_model
from hopes.herbrand import BudgetExceeded
from hopes.truth import ZERO

from reference_wf import wf_oracle as reference_wf_oracle
from test_grounder_oracle import random_checked_program


def test_stratified_programs_have_no_zero():
    rng = random.Random(7)
    stratified = locally_stratified = with_zero = 0
    for _ in range(1500):
        _, tp = random_checked_program(rng)
        is_stratified = isinstance(check_stratified(tp), StrataAssignment)
        for k in (1, 2, 3):
            try:
                g = ground_instantiate(tp, k, 20_000)
            except BudgetExceeded:
                continue
            m = minimum_model(g)
            assert collapse(m) == reference_wf_oracle(g), g.to_text()
            if is_stratified:
                assert ZERO not in m.values, g.to_text()
                stratified += 1
            if isinstance(check_locally_stratified_bounded(g), StrataAssignment):
                assert ZERO not in m.values, g.to_text()
                locally_stratified += 1
            with_zero += ZERO in m.values
    # floors, so that neither property holds vacuously; the instances
    # with a 0 show that the generator reaches the other side
    assert stratified >= 3000
    assert locally_stratified >= 3900
    assert with_zero >= 100


def test_minimum_model_is_extensional():
    rng = random.Random(7)
    instances = 0
    for _ in range(1500):
        _, tp = random_checked_program(rng)
        for k in (1, 2, 3, 4):
            try:
                g = ground_instantiate(tp, k, 20_000)
            except BudgetExceeded:
                continue
            report = check_extensional(g, list(minimum_model(g).values))
            assert report.extensional, (g.to_text(), k, report.violations)
            instances += 1
    assert instances >= 5500
