import math

import pytest

from hopes import truth
from hopes.truth import F0, T0, ZERO, TruthValue, cmp, conj, false_at, lub, neg, order, parse_value, true_at

# a ladder of sample values in strictly ascending domain order
LADDER = [false_at(0), false_at(1), false_at(5), ZERO, true_at(5), true_at(1), true_at(0)]


def test_total_order_examples():
    assert cmp(F0, false_at(1)) == -1
    assert cmp(false_at(3), ZERO) == -1
    assert cmp(ZERO, true_at(7)) == -1
    assert cmp(true_at(2), true_at(1)) == -1
    assert cmp(T0, T0) == 0
    assert cmp(T0, false_at(9)) == 1


def test_ladder_is_sorted():
    assert sorted(LADDER) == LADDER
    for i, a in enumerate(LADDER):
        for j, b in enumerate(LADDER):
            assert cmp(a, b) == (i > j) - (i < j)


def test_negation_examples():
    assert neg(F0) == true_at(1)
    assert neg(T0) == false_at(1)
    assert neg(ZERO) == ZERO
    assert neg(true_at(3)) == false_at(4)


def test_negation_laws():
    for v in LADDER:
        if v.is_zero:
            assert order(neg(v)) == math.inf
        else:
            # each negation weakens by exactly one level and flips sign
            assert order(neg(v)) == order(v) + 1
            assert neg(neg(v)) == TruthValue(v.sign, v.index + 2)
    # negation reverses the order
    for a in LADDER:
        for b in LADDER:
            if a < b:
                assert neg(a) > neg(b)


def test_order_examples():
    assert order(T0) == 0
    assert order(false_at(3)) == 3
    assert order(ZERO) == math.inf


def test_lub():
    assert lub([]) == F0
    assert lub([F0, true_at(2), ZERO]) == true_at(2)
    assert lub([false_at(4), false_at(1)]) == false_at(4)
    # idempotent, commutative, associative on samples
    for a in LADDER:
        assert lub([a, a]) == a
        for b in LADDER:
            assert lub([a, b]) == lub([b, a])
            for c in LADDER:
                assert lub([lub([a, b]), c]) == lub([a, lub([b, c])])


def test_conj():
    assert conj([T0, true_at(1)]) == true_at(1)
    assert conj([true_at(2), ZERO, false_at(1)]) == false_at(1)
    with pytest.raises(ValueError):
        conj([])


def test_canonical_text():
    assert str(T0) == "T0"
    assert str(false_at(3)) == "F3"
    assert str(ZERO) == "ZERO"
    for v in LADDER:
        assert parse_value(str(v)) == v
    with pytest.raises(ValueError):
        parse_value("T-1")


def test_value_validation():
    with pytest.raises(ValueError):
        TruthValue(2, 0)
    with pytest.raises(ValueError):
        TruthValue(1, -1)
    with pytest.raises(ValueError):
        TruthValue(0, 3)


def test_exhaustive_small_indices():
    """Spot-check the order against the defining picture on a grid."""
    values = [false_at(i) for i in range(6)] + [ZERO] + [true_at(i) for i in range(5, -1, -1)]
    assert sorted(values) == values
    assert len(set(values)) == len(values)
    for v in values:
        assert truth.lub([v, neg(neg(v))]) == max(v, neg(neg(v)))


def _key(v: TruthValue) -> tuple[int, int]:
    """The domain order as the tuple key the int encoding replaced:
    F-values ascend with their index, T-values descend, 0 in between."""
    if v.sign < 0:
        return (0, v.index)
    if v.sign == 0:
        return (1, 0)
    return (2, -v.index)


def _grid() -> list[TruthValue]:
    top = truth.INDEX_BOUND - 1
    indices = [0, 1, 2, 3, 7, 100, top - 2, top - 1, top]
    return [ZERO] + [TruthValue(s, i) for s in (-1, 1) for i in indices]


def test_int_order_matches_tuple_key():
    grid = _grid()
    for a in grid:
        for b in grid:
            ka, kb = _key(a), _key(b)
            assert (a < b) == (ka < kb), (a, b)
            assert (a == b) == (ka == kb), (a, b)
            assert cmp(a, b) == (ka > kb) - (ka < kb), (a, b)
    assert sorted(grid) == sorted(grid, key=_key)


def test_distinct_pairs_are_distinct_values():
    grid = _grid()
    assert len({(v.sign, v.index) for v in grid}) == len(grid)
    assert len(set(grid)) == len(grid)
    for v in grid:
        assert TruthValue(v.sign, v.index) == v
        assert parse_value(str(v)) == v


def test_index_bound():
    top = truth.INDEX_BOUND - 1
    assert false_at(top).index == top and true_at(top).index == top
    for sign in (-1, 1):
        with pytest.raises(ValueError):
            TruthValue(sign, truth.INDEX_BOUND)


def test_values_are_truthy():
    for v in _grid():
        assert v
        assert bool(v) is True


def test_copy_and_pickle_round_trip():
    import copy
    import pickle

    for v in _grid():
        pickled = [pickle.loads(pickle.dumps(v, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for w in [copy.copy(v), copy.deepcopy(v), *pickled]:
            assert type(w) is TruthValue
            assert w == v and str(w) == str(v)
            assert (w.sign, w.index) == (v.sign, v.index)
