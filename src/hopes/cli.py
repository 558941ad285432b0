"""Command line front end.

    hopes check    FILE            parse and type-check
    hopes ground   FILE            print the depth-bounded ground program
    hopes model    FILE            the graded minimum model (--trace for stages)
    hopes wf       FILE            the three-valued well-founded collapse
    hopes stable   FILE            two-valued stable models (--ext to flag each)
    hopes stratify FILE            predicate-level stratification
    hopes locstrat FILE            ground-level stratification at the bound
    hopes ext      FILE            extensionality of the minimum model

Common flags: --depth K (default 3) bounds ground term size, --format
text|json picks the output shape, --out writes to a file instead of
stdout.  JSON output is byte-stable across runs.

Exit codes: 0 success (`locstrat` too, whose verdict is informational);
1 negative verdict from `stratify` or `ext`; 2 unreadable file
(missing, or not UTF-8), unwritable --out file, a stdout that cannot
take the output (closed, a broken pipe, a full device, or an encoding
that cannot hold it), parse or type error, --depth below 1 or negative
--max-atoms; 3 resource budget exceeded
(grounding too large, a --depth above the grounding budget, or too many
atoms left Undef by the well-founded model for stable-model
enumeration).  Diagnostics go to stderr.

`main` builds the argument parser once per process, on its first call,
and reuses it on every later call.  Each parse returns a new namespace,
so `main` is re-entrant: only the parser object carries from one call
to the next.

A call runs with the cyclic garbage collector's automatic collection
off, and gives the caller back its setting on every exit (a return, an
error, argparse's `SystemExit`, any exception).  Grounding and the
graded model allocate long-lived objects per clause instance, which
the collector would rescan again and again to free nothing: no stage
makes a reference cycle.  What a call does leave for the collector is
bounded by a constant, not by the input (`tests/test_garbage.py`), and
a later collection takes it.  The setting is the interpreter's, so in
a multi-threaded host the collector is off for the whole process while
a call runs.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys
from json.encoder import encode_basestring_ascii

from . import analysis, classical, engine, truth
from .ast import TypedProgram
from .herbrand import DEFAULT_BUDGET, BudgetExceeded, GroundProgram, ground_instantiate
from .parser import ParseError, parse_program
from .typecheck import TypeCheckError, typecheck

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_FRONTEND = 2
EXIT_BUDGET = 3


class _Failure(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        self.message = message
        super().__init__(message)


def _load(path: str) -> TypedProgram:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _Failure(EXIT_FRONTEND, f"cannot read {path}: {exc}")
    try:
        return typecheck(parse_program(text))
    except ParseError as exc:
        raise _Failure(EXIT_FRONTEND, f"{path}: parse error: {exc}")
    except TypeCheckError as exc:
        raise _Failure(EXIT_FRONTEND, f"{path}: type error: {exc}")


def _load_ground(args) -> GroundProgram:
    """Load, type-check and ground the program; print the grounding notes."""
    tp = _load(args.file)
    if args.depth > DEFAULT_BUDGET:
        # enumerating the universe alone walks every term size up to the depth
        raise _Failure(
            EXIT_BUDGET,
            f"grounding budget exceeded: depth {args.depth} is over the budget of {DEFAULT_BUDGET}",
        )
    try:
        g = ground_instantiate(tp, args.depth, DEFAULT_BUDGET)
    except BudgetExceeded as exc:
        raise _Failure(EXIT_BUDGET, f"grounding budget exceeded: {exc}")
    _warn(g.notes)
    return g


def _emit(args, render_text, render_obj) -> None:
    """Render only the shape --format asks for: the text, or the JSON
    object; both arguments are zero-argument callables."""
    _write(args, _dumps(render_obj()) if args.format == "json" else render_text())


def _write(args, out: str) -> None:
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(out)
        except OSError as exc:
            raise _Failure(EXIT_FRONTEND, f"cannot write {args.out}: {exc}")
    elif sys.stdout is None:  # started with standard output closed
        raise _Failure(EXIT_FRONTEND, "cannot write the output: standard output is closed")
    else:
        try:
            sys.stdout.write(out)
            sys.stdout.flush()  # fail here, not in the interpreter's flush at exit
        except (OSError, UnicodeEncodeError) as exc:  # a broken pipe, say
            raise _Failure(EXIT_FRONTEND, f"cannot write the output: {exc}")


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _json_list(items: list[str], indent: str) -> str:
    """Encoded items as ``json.dumps(indent=2)`` lays out a list at this indent."""
    if not items:
        return "[]"
    sep = "\n  " + indent
    return "[" + sep + ("," + sep).join(items) + "\n" + indent + "]"


def _ground_json(g: GroundProgram, depth: int) -> str:
    """``_dumps`` of the ground program's record, written directly."""
    names = [encode_basestring_ascii(a) for a in g.atoms]
    clauses = []
    for c in g.clauses:
        pos, neg = [], []
        for negated, a in c.literals:
            (neg if negated else pos).append(names[a])
        clauses.append(
            f'{{\n      "head": {names[c.head]},\n      "neg": {_json_list(neg, "      ")},'
            f'\n      "pos": {_json_list(pos, "      ")}\n    }}'
        )
    notes = [encode_basestring_ascii(n) for n in g.notes]
    return (
        f'{{\n  "atoms": {_json_list(names, "  ")},\n  "clauses": {_json_list(clauses, "  ")},'
        f'\n  "depth": {depth},\n  "notes": {_json_list(notes, "  ")}\n}}\n'
    )


def _print_diagnostic(line: str) -> None:
    """A diagnostic line on stderr, escaped where stderr cannot encode
    it.  It is dropped where there is no stderr to take it: None when
    descriptor 2 was closed at start, or a descriptor that cannot be
    written, where a buffered stderr keeps the line until
    `script_main` drops it."""
    if sys.stderr is None:
        return
    encoding = sys.stderr.encoding or "utf-8"
    try:
        print(line.encode(encoding, "backslashreplace").decode(encoding), file=sys.stderr)
    except OSError:
        pass


def _warn(notes) -> None:
    for note in notes:
        _print_diagnostic(f"note: {note}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_check(args) -> int:
    tp = _load(args.file)
    _warn(tp.notes)
    _emit(
        args,
        lambda: (
            f"ok: {len(tp.predicate_decls)} predicate(s), "
            f"{len(tp.function_decls)} function symbol(s), "
            f"{len(tp.individual_constants)} individual constant(s), "
            f"{len(tp.clauses)} clause(s)\n"
        ),
        lambda: {
            "ok": True,
            "predicates": {p: str(t) for p, t in tp.predicate_decls.items()},
            "functions": {f: str(t) for f, t in tp.function_decls.items()},
            "constants": list(tp.individual_constants),
            "clauses": len(tp.clauses),
            "notes": list(tp.notes),
        },
    )
    return EXIT_OK


def cmd_ground(args) -> int:
    g = _load_ground(args)
    _write(args, _ground_json(g, args.depth) if args.format == "json" else g.to_text())
    return EXIT_OK


def _model_sort_key(g: GroundProgram, values):
    def key(a: int):
        v = values[a]
        return (
            truth.order(v),
            0 if v.is_true else 1 if v.is_false else 2,
            g.atoms[a],
        )

    return key


def cmd_model(args) -> int:
    g = _load_ground(args)
    m = engine.minimum_model(g)
    order = sorted(range(len(g.atoms)), key=_model_sort_key(g, m.values))

    def stages() -> list[tuple[list[str], list[str]]]:
        """Per stage alpha, the atoms of value T_alpha and F_alpha, by name."""
        decided = [([], []) for _ in range(m.depth)]
        for a in order:
            v = m.values[a]
            if not v.is_zero:
                decided[v.index][0 if v.is_true else 1].append(g.atoms[a])
        return decided

    def text() -> str:
        lines = []
        if args.trace:
            for alpha, (ts, fs) in enumerate(stages()):
                lines.append(f"stage {alpha}: true = {{{', '.join(ts)}}} false = {{{', '.join(fs)}}}")
        lines.extend(f"{g.atoms[a]} = {m.values[a]}" for a in order)
        lines.append(f"depth = {m.depth}")
        return "\n".join(lines) + "\n"

    def record() -> dict:
        obj = {
            "depth": m.depth,
            "depth_bound": args.depth,
            "atoms": [
                {
                    "atom": g.atoms[a],
                    "value": str(m.values[a]),
                    "order": None if m.values[a].is_zero else m.values[a].index,
                }
                for a in order
            ],
        }
        if args.trace:
            obj["trace"] = [
                {"stage": alpha, "true": ts, "false": fs} for alpha, (ts, fs) in enumerate(stages())
            ]
        return obj

    _emit(args, text, record)
    return EXIT_OK


def cmd_wf(args) -> int:
    g = _load_ground(args)
    wf = classical.wf_oracle(g)
    order = sorted(range(len(g.atoms)), key=lambda a: g.atoms[a])
    _emit(
        args,
        lambda: "".join(f"{g.atoms[a]} = {wf[a]}\n" for a in order),
        lambda: {
            "depth_bound": args.depth,
            "atoms": [{"atom": g.atoms[a], "value": str(wf[a])} for a in order],
        },
    )
    return EXIT_OK


def cmd_stable(args) -> int:
    g = _load_ground(args)
    try:
        models = classical.stable_models(g, args.max_atoms)
    except classical.TooManyAtoms as exc:
        raise _Failure(EXIT_BUDGET, f"stable-model enumeration aborted: {exc}")
    reports = [None] * len(models)
    if args.ext and models:
        plan = analysis.ExtPlan(g)
        reports = [plan.check(values) for values in models.valuations(truth.T0, truth.F0)]

    def text() -> str:
        lines = []
        for names, report in zip(models.names(), reports):
            line = "{" + ", ".join(names) + "}"
            if report is not None:
                line += f"  extensional: {'yes' if report.extensional else 'no'}"
                for v in report.violations:
                    line += f"\n    {v}"
            lines.append(line)
        if not models:
            lines.append("no stable models")
        return "\n".join(lines) + "\n"

    def record() -> dict:
        out_models = []
        for names, report in zip(models.names(), reports):
            entry = {"atoms": names}
            if report is not None:
                entry["extensional"] = report.extensional
                entry["violations"] = [str(v) for v in report.violations]
            out_models.append(entry)
        return {"depth_bound": args.depth, "count": len(models), "models": out_models}

    _emit(args, text, record)
    return EXIT_OK


def cmd_stratify(args) -> int:
    tp = _load(args.file)
    result = analysis.check_stratified(tp)
    if isinstance(result, analysis.StrataAssignment):

        def text() -> str:
            by_level: dict[int, list[str]] = {}
            for p, lvl in sorted(result.strata.items()):
                by_level.setdefault(lvl, []).append(p)
            parts = [f"S{lvl} = {{{', '.join(by_level[lvl])}}}\n" for lvl in sorted(by_level)]
            return "stratified: yes\n" + "".join(parts)

        _emit(
            args,
            text,
            lambda: {"verdict": "stratified", "strata": result.strata, "count": result.count},
        )
        return EXIT_OK
    _emit(
        args,
        lambda: "stratified: no\n" + str(result) + "\n",
        lambda: {"verdict": "violation", "cycle": [list(step) for step in result.cycle]},
    )
    return EXIT_VERDICT


def cmd_locstrat(args) -> int:
    g = _load_ground(args)
    result = analysis.check_locally_stratified_bounded(g)
    if isinstance(result, analysis.StrataAssignment):
        _emit(
            args,
            lambda: f"locally stratified up to depth {args.depth}: yes\n",
            lambda: {
                "verdict": "stratified",
                "depth_bound": args.depth,
                "strata": result.strata,
                "count": result.count,
            },
        )
    else:
        _emit(
            args,
            lambda: (
                f"locally stratified up to depth {args.depth}: no\n"
                f"{result}\n"
            ),
            lambda: {
                "verdict": "violation",
                "depth_bound": args.depth,
                "cycle": [list(step) for step in result.cycle],
            },
        )
    return EXIT_OK


def cmd_ext(args) -> int:
    g = _load_ground(args)
    m = engine.minimum_model(g)
    report = analysis.check_extensional(g, m.values)

    def text() -> str:
        lines = [f"extensional at depth {args.depth}: {'yes' if report.extensional else 'no'}"]
        lines.append(f"checked types: {', '.join(report.checked_types)}")
        if report.skipped_types:
            lines.append(f"types with empty universes: {', '.join(report.skipped_types)}")
        for v in report.violations:
            lines.append(str(v))
        for typ, a, b in report.vacuous:
            lines.append(f"note: {a} and {b} related at {typ} only vacuously")
        return "\n".join(lines) + "\n"

    _emit(
        args,
        text,
        lambda: {
            "verdict": "extensional" if report.extensional else "violation",
            "depth": report.depth,
            "checked_types": list(report.checked_types),
            "skipped_types": list(report.skipped_types),
            "witnesses": [
                {
                    "type": v.typ,
                    "subject": v.subject,
                    "arguments": [v.arg_left, v.arg_right],
                    "atoms": [{"atom": a, "value": val} for a, val in v.atoms],
                }
                for v in report.violations
            ],
            "vacuous": [list(entry) for entry in report.vacuous],
        },
    )
    return EXIT_OK if report.extensional else EXIT_VERDICT


# ---------------------------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    def _print_message(self, message, file=None):
        """Drop a help or usage text that cannot be written (a broken
        pipe, a closed or read-only descriptor), so that the exit code
        stays 0 for help and 2 for a usage error.  argparse does this
        itself from Python 3.11 on; before, the failed write escapes
        `parse_args` as a traceback and exit code 1."""
        if message:
            file = file or sys.stderr
            try:
                file.write(message)
            except (AttributeError, OSError):
                pass

    def error(self, message):
        # print_usage would take a None stderr (descriptor 2 closed) for stdout
        if sys.stderr is None:
            self.exit(2)
        super().error(message)


@functools.cache
def build_arg_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="hopes",
        description="Higher-order logic programs with negation: checking, "
        "grounding, graded models, and extensionality analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, depth: bool = True) -> None:
        p.add_argument("file", help="program file (.hop)")
        if depth:
            p.add_argument(
                "--depth",
                "-k",
                type=int,
                default=3,
                help="ground term size bound (default 3)",
            )
        p.add_argument(
            "--format", choices=("text", "json"), default="text", help="output shape"
        )
        p.add_argument("--out", help="write output to this file instead of stdout")

    common(sub.add_parser("check", help="parse and type-check"), depth=False)
    common(sub.add_parser("ground", help="print the bounded ground program"))
    p_model = sub.add_parser("model", help="graded minimum model")
    common(p_model)
    p_model.add_argument("--trace", action="store_true", help="print stage decisions")
    common(sub.add_parser("wf", help="well-founded (three-valued) model"))
    p_stable = sub.add_parser("stable", help="enumerate stable models")
    common(p_stable)
    p_stable.add_argument(
        "--max-atoms",
        type=int,
        default=classical.DEFAULT_STABLE_CAP,
        help="refuse to enumerate when the well-founded model leaves more"
        " than this many atoms Undef (default 24)",
    )
    p_stable.add_argument(
        "--ext", action="store_true", help="flag each model's extensionality"
    )
    common(sub.add_parser("stratify", help="predicate-level stratification"), depth=False)
    common(sub.add_parser("locstrat", help="ground-level stratification"))
    common(sub.add_parser("ext", help="extensionality of the minimum model"))
    return parser


_COMMANDS = {
    "check": cmd_check,
    "ground": cmd_ground,
    "model": cmd_model,
    "wf": cmd_wf,
    "stable": cmd_stable,
    "stratify": cmd_stratify,
    "locstrat": cmd_locstrat,
    "ext": cmd_ext,
}


def main(argv: list[str] | None = None) -> int:
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv: list[str] | None) -> int:
    args = build_arg_parser().parse_args(argv)
    if getattr(args, "depth", None) is not None and args.depth < 1:
        _print_diagnostic("error: --depth must be at least 1")
        return EXIT_FRONTEND
    if getattr(args, "max_atoms", 0) < 0:
        _print_diagnostic("error: --max-atoms must be at least 0")
        return EXIT_FRONTEND
    try:
        return _COMMANDS[args.command](args)
    except _Failure as exc:
        _print_diagnostic(f"error: {exc.message}")
        return exc.code


def script_main() -> None:
    try:
        sys.exit(main())
    finally:
        _drop_unwritable_output()


def _drop_unwritable_output() -> None:
    """Where stdout or stderr cannot take what is left in its buffer (a
    broken pipe or a read-only descriptor keeps it there), point its
    descriptor at the null device, so that the interpreter's flush at
    exit writes it there and reports nothing.  The console script does
    this, not `main`: an in-process caller keeps its own descriptors."""
    for stream in (sys.stdout, sys.stderr):
        if stream is None:
            continue
        try:
            stream.flush()
        except OSError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stream.fileno())
            os.close(devnull)
