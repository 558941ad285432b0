"""Spans around the calls into each hopes module, recorded from outside.

While a traced pass runs, each public function the CLI calls is swapped
for a wrapper that records a span (name, start, end, parent, job id)
and a few counts read from the return value; the originals are put
back when the pass ends, so nothing inside ``src/`` changes.  Spans
stay in memory and are written once, when the run ends.

A span's self time is its duration minus the time its child spans
cover.  The ``cli.main`` span wraps the whole job, so its self time is
the CLI's own work: argument parsing, file I/O, sorting and rendering.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from time import perf_counter


def _strata(result) -> dict[str, int]:
    return {"strata": getattr(result, "count", 0)}  # a violation has no strata


# (module, attribute, span name, counts read from (args, result)).  The
# CLI binds the first three names at import; it reaches the others
# through their modules, so each is swapped where the CLI looks it up.
TRACED = (
    ("hopes.cli", "parse_program", "parser.parse_program", lambda a, r: {"bytes": len(a[0].encode())}),
    ("hopes.cli", "typecheck", "typecheck.typecheck", lambda a, r: {"clauses": len(r.clauses)}),
    (
        "hopes.cli",
        "ground_instantiate",
        "herbrand.ground_instantiate",
        lambda a, r: {"atoms": len(r.atoms), "clauses": len(r.clauses)},
    ),
    ("hopes.engine", "minimum_model", "engine.minimum_model", lambda a, r: {"stages": r.depth}),
    ("hopes.classical", "wf_oracle", "classical.wf_oracle", None),
    ("hopes.classical", "stable_models", "classical.stable_models", lambda a, r: {"models": len(r)}),
    ("hopes.analysis", "check_stratified", "analysis.check_stratified", lambda a, r: _strata(r)),
    (
        "hopes.analysis",
        "check_locally_stratified_bounded",
        "analysis.check_locally_stratified_bounded",
        lambda a, r: _strata(r),
    ),
    ("hopes.analysis", "check_extensional", "analysis.check_extensional", None),
)
SPAN_NAMES = ("cli.main",) + tuple(name for _, _, name, _ in TRACED)


class Tracer:
    """Collects spans; ``job`` is set by the caller before each job."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent, job, counts)
        self.job = -1
        self._stack: list[int] = []

    def call(self, name: str, fn, args: tuple, counter=None):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = perf_counter()
        try:
            result = fn(*args)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.job, None)
        if counter is not None:
            self.spans[index] = (name, start, end, parent, self.job, counter(args, result))
        return result

    def _wrap(self, name: str, fn, counter):
        def traced(*args):
            return self.call(name, fn, args, counter)

        return traced

    @contextmanager
    def installed(self):
        """Swap the traced functions in for the duration of the block."""
        originals = []
        try:
            for module, attr, name, counter in TRACED:
                owner = sys.modules[module]
                originals.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, self._wrap(name, getattr(owner, attr), counter))
            yield self
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

    def summary(self, first: int = 0, weights: dict[int, float] | None = None):
        """Self time per span name and summed counts, over spans[first:].

        ``weights`` scales the spans of each job id, to turn measured
        seconds into seconds at the reference speed.
        """
        spans = self.spans[first:]
        covered = [0.0] * len(spans)
        for name, start, end, parent, _job, _counts in spans:
            if parent >= first:
                covered[parent - first] += end - start
        self_time = {name: 0.0 for name in SPAN_NAMES}
        counts: dict[str, int] = {}
        for (name, start, end, _p, job, span_counts), child in zip(spans, covered):
            self_time[name] += (end - start - child) * (weights or {}).get(job, 1.0)
            module = name.split(".")[0]
            for key, value in (span_counts or {}).items():
                counts[f"{module}.{key}"] = counts.get(f"{module}.{key}", 0) + value
        return self_time, counts

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
