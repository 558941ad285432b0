"""A calibration probe that tracks the machine's current speed.

The benchmark runs on shared machines whose speed drifts by up to a
factor of two within a minute, for reasons outside the process (other
tenants on the host).  Every timing is therefore taken next to a probe:
a fixed piece of interpreter work (build a tree of small objects, walk
it into a dict, sort the keys) written here, so no change to the code
under test can move it.  A measured time t is reported as
``t * REFERENCE_S / probe time``: seconds on a machine where the probe
takes REFERENCE_S.

This module imports nothing but ``time``, so that a fresh interpreter
can load it before timing the import of ``hopes.cli`` without loading
any module that ``hopes.cli`` needs.
"""

from time import perf_counter

REFERENCE_S = 0.0015  # the probe on a quiet 2-vCPU x86-64 VM, Python 3.11


class _Node:
    __slots__ = ("key", "kids")

    def __init__(self, key, kids):
        self.key = key
        self.kids = kids


def _build(n, depth):
    if depth == 0:
        return _Node(f"leaf{n}", ())
    return _Node(f"n{n}", tuple(_build(n * 3 + i, depth - 1) for i in range(3)))


def _walk(node, acc):
    acc[node.key] = len(node.kids)
    for kid in node.kids:
        _walk(kid, acc)


def probe(repeats=5):
    """Median time of the fixed work over a few repeats, in seconds."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        acc = {}
        _walk(_build(1, 6), acc)
        sorted(acc)
        times.append(perf_counter() - start)
    times.sort()
    return times[len(times) // 2]
