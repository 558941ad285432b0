"""The JSON record that ``hopes ground --format json`` used to build,
kept as the reference for the writer that now lays out the same bytes
directly: one dict per ground clause, rendered by ``json.dumps``."""

from __future__ import annotations

import json

from hopes.herbrand import GroundProgram


def reference_ground_json(g: GroundProgram, depth: int) -> str:
    obj = {
        "depth": depth,
        "atoms": list(g.atoms),
        "clauses": [
            {
                "head": g.atoms[c.head],
                "pos": [g.atoms[a] for negated, a in c.literals if not negated],
                "neg": [g.atoms[a] for negated, a in c.literals if negated],
            }
            for c in g.clauses
        ],
        "notes": list(g.notes),
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
