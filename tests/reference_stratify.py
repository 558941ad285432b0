"""The level loop that ``hopes.analysis._stratify_graph`` used to run,
kept as the reference that the one-pass stratifier is checked against.

It finds the same components and the same witness cycles, but gives
each component its stratum by scanning every edge once per node of the
component, which is quadratic.  It works on named nodes and an edge
dict, read off the dependency lists that ``_stratify_graph`` takes.
"""

from __future__ import annotations

from hopes.analysis import Edge, _find_cycle, _sccs


def named_sccs(nodes: list, succ: dict) -> list[list]:
    """``analysis._sccs`` over named nodes, roots in the order of
    ``nodes`` and successors in the order of ``succ``."""
    ids = {v: i for i, v in enumerate(nodes)}
    for u, vs in succ.items():
        for v in (u, *vs):
            ids.setdefault(v, len(ids))
    names = list(ids)
    return [[names[i] for i in comp] for comp in _sccs([[(False, ids[w]) for w in succ.get(v, ())] for v in names])]


def reference_stratify_graph(deps, names) -> tuple[dict, int] | list[Edge]:
    """``_stratify_graph(deps, names)`` through the named reference:
    ``deps[v]`` holds (strict, u) for each edge u -> v."""
    edges: dict[tuple, bool] = {}
    for v, pairs in enumerate(deps):
        for strict, u in pairs:
            key = (names[u], names[v])
            edges[key] = edges.get(key, False) or strict
    return named_stratify_graph(list(names), edges)


def named_stratify_graph(
    nodes: list, edges: dict[tuple, bool]
) -> tuple[dict, int] | list[Edge]:
    """Assign strata, or return a witness cycle through a strict edge."""
    succ: dict = {}
    for (u, v), _strict in sorted(edges.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1]))):
        succ.setdefault(u, []).append(v)
    comps = named_sccs(nodes, succ)
    comp_of = {}
    for i, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = i

    for (u, v), strict in sorted(edges.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1]))):
        if strict and comp_of[u] == comp_of[v]:
            members = set(comps[comp_of[u]])
            back = _find_cycle(u, v, succ, members)  # path v ->* u
            cycle: list[Edge] = [(u, "<", v)]
            for a, b in zip(back, back[1:]):
                cycle.append((a, "<" if edges.get((a, b)) else "<=", b))
            return cycle

    # components come out in reverse topological order: sources last
    levels = [1] * len(comps)
    for ci in range(len(comps) - 1, -1, -1):
        for v in comps[ci]:
            for (u, w), strict in edges.items():
                if w == v and comp_of[u] != ci:
                    levels[ci] = max(levels[ci], levels[comp_of[u]] + (1 if strict else 0))
    strata = {v: levels[comp_of[v]] for v in comp_of}
    return strata, max(levels, default=1)
