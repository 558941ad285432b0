"""Reference checks behind ``failed_ops``.

Outputs are read into order-insensitive forms (sets of ground clauses,
atom -> value maps, sets of stable models), so a legitimate reordering
of atoms is not a failure.  A job fails when its exit code is not one
the instance allows, when its output disagrees with an answer the
generator knows (closed forms, the benchmark's own evaluator, the
documented corpus values), or when it disagrees with another job on the
same program:

* the collapse of the graded model equals the well-founded model;
* each stable model is the least model of its own reduct and lies
  between the well-founded bounds;
* the text and JSON renderings of one command agree.
"""

from __future__ import annotations

import json

from workloads import Job, collapse_str, least_model, unrename


def split_top(s: str) -> list[str]:
    """Split on the commas that are not inside parentheses."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(s[start:i].strip())
            start = i + 1
    last = s[start:].strip()
    return parts + [last] if last else parts


def _clause(head: str, literals: list[str]):
    pos = frozenset(l for l in literals if not l.startswith("~"))
    negs = frozenset(l[1:] for l in literals if l.startswith("~"))
    return (head, pos, negs)


def _valuation(lines: list[str]) -> dict[str, str]:
    return dict(line.rsplit(" = ", 1) for line in lines)


def _verdict(line: str) -> bool:
    return line.rsplit(": ", 1)[1] == "yes"


def parse(command: str, fmt: str, text: str):
    """The order-insensitive form of one command's output."""
    if fmt == "json":
        obj = json.loads(text)
        if command == "check":
            return obj["ok"]
        if command == "ground":
            return {_clause(c["head"], c["pos"] + [f"~{a}" for a in c["neg"]]) for c in obj["clauses"]}
        if command in ("model", "wf"):
            return {entry["atom"]: entry["value"] for entry in obj["atoms"]}
        if command == "stable":
            return {frozenset(m["atoms"]): m.get("extensional") for m in obj["models"]}
        if command in ("stratify", "locstrat"):
            stratified = obj["verdict"] == "stratified"
            return stratified, obj["strata"] if stratified else None
        if command == "ext":
            return obj["verdict"] == "extensional"
        raise ValueError(command)
    lines = text.splitlines()
    if command == "check":
        return lines[0].startswith("ok: ")
    if command == "ground":
        out = set()
        for line in lines:
            head, _, body = line[:-1].partition(" :- ")
            out.add(_clause(head, split_top(body)))
        return out
    if command == "model":
        return _valuation([l for l in lines[:-1] if not l.startswith("stage ")])
    if command == "wf":
        return _valuation(lines)
    if command == "stable":
        models = {}
        for line in lines:
            if line.startswith("{"):
                atoms, _, ext = line[1:].partition("}")
                flag = _verdict(ext.strip()) if ext.strip() else None
                models[frozenset(split_top(atoms))] = flag
        return models
    if command == "stratify":
        if not _verdict(lines[0]):
            return False, None
        strata = {}
        for line in lines[1:]:
            level, _, preds = line.partition(" = ")
            for p in split_top(preds.strip("{}")):
                strata[p] = int(level[1:])
        return True, strata
    if command == "locstrat":
        return _verdict(lines[0]), None
    if command == "ext":
        return _verdict(lines[0])
    raise ValueError(command)


def check_job(job: Job, form) -> list[str]:
    """Compare one parsed output with what its instance is known to be."""
    inst, cmd = job.instance, job.command
    problems = []
    if cmd == "check":
        if not form:
            problems.append("check: not ok")
    elif cmd == "model":
        if inst.model is not None and form != inst.model:
            problems.append(_diff("model", form, inst.model))
        for atom, value in (inst.documented or {}).items():
            if atom in form and form[atom] != value:
                problems.append(f"model: {atom} = {form[atom]}, documented {value}")
    elif cmd == "wf":
        if inst.model is not None:
            want = {a: collapse_str(v) for a, v in inst.model.items()}
            if form != want:
                problems.append(_diff("wf", form, want))
        for atom, value in (inst.documented or {}).items():
            if atom in form and form[atom] != collapse_str(value):
                problems.append(f"wf: {atom} = {form[atom]}, documented {collapse_str(value)}")
    elif cmd == "ground":
        if inst.ground is not None and form != inst.ground:
            problems.append(
                f"ground: {len(form - inst.ground)} unexpected clause(s), "
                f"{len(inst.ground - form)} missing"
            )
    elif cmd == "stable":
        if inst.stable is not None and set(form) != inst.stable:
            problems.append(f"stable: {len(form)} model(s), expected {len(inst.stable)}")
        if inst.extensional is not None and "--ext" in job.flags:
            wrong = [m for m, flag in form.items() if flag != (m in inst.extensional)]
            if wrong:
                problems.append(f"stable --ext: {len(wrong)} model(s) flagged wrongly")
    elif cmd in ("stratify", "locstrat"):
        stratified, strata = form
        if inst.stratified is not None and stratified != inst.stratified:
            problems.append(f"{cmd}: stratified = {stratified}, expected {inst.stratified}")
        elif strata is not None and inst.strata is not None and strata != inst.strata:
            problems.append(_diff(cmd, strata, inst.strata))
    return problems


def _diff(what: str, got: dict, want: dict) -> str:
    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want))
    wrong = sorted(a for a in set(got) & set(want) if got[a] != want[a])
    example = wrong[0] if wrong else None
    detail = f", e.g. {example} = {got[example]} not {want[example]}" if example else ""
    return f"{what}: {len(wrong)} wrong, {len(missing)} missing, {len(extra)} extra{detail}"


def _consistent_exit(job: Job, code: int, form) -> list[str]:
    """Exit 1 is the negative verdict of stratify and ext, and only that."""
    if job.command == "stratify" and (code == 1) == form[0]:
        return [f"stratify: exit {code} with stratified = {form[0]}"]
    if job.command == "ext" and (code == 1) == form:
        return [f"ext: exit {code} with extensional = {form}"]
    return []


def check_pass(jobs: list[Job], results: list[tuple[object, str | None]]) -> dict[int, list[str]]:
    """Check every job of a pass; returns the problems by job index.

    ``results[i]`` is the exit code of job i (or the exception it raised)
    and the text it wrote to ``--out``, if any.
    """
    problems: dict[int, list[str]] = {}
    forms: dict[int, dict[tuple[str, str], tuple[int, object]]] = {}

    def fail(i: int, msg: str) -> None:
        problems.setdefault(i, []).append(msg)

    for i, (job, (code, out)) in enumerate(zip(jobs, results)):
        if not isinstance(code, int):
            fail(i, f"raised {code!r}")
            continue
        if code not in job.exits:
            fail(i, f"exit {code}, expected {sorted(job.exits)}")
            continue
        if code not in (0, 1):
            continue  # a refusal or front-end error writes no report
        if out is None:
            fail(i, "no output written")
            continue
        try:
            form = parse(job.command, job.fmt, unrename(out, job.tag))
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            fail(i, f"unreadable output: {exc!r}")
            continue
        for msg in _consistent_exit(job, code, form) + check_job(job, form):
            fail(i, msg)
        forms.setdefault(id(job.instance), {})[(job.command, job.fmt)] = (i, form)

    instances = {id(job.instance): job.instance for job in jobs}
    for key, outputs in forms.items():
        for i, msg in cross_check(instances[key].ground, outputs):
            fail(i, msg)
    return problems


def cross_check(ground, outputs: dict[tuple[str, str], tuple[int, object]]):
    """Agreement between the jobs run on one program; yields (job, problem).

    ``ground`` is the known ground program, if any; otherwise the output
    of a ``ground`` job on the same program serves for the reduct check.
    """
    by_cmd: dict[str, list[tuple[int, object]]] = {}
    for (cmd, _fmt), entry in sorted(outputs.items()):
        by_cmd.setdefault(cmd, []).append(entry)
    for cmd, entries in by_cmd.items():
        (_, first), *rest = entries
        for j, other in rest:
            # locstrat text prints the verdict alone
            same = first[0] == other[0] if cmd == "locstrat" else first == other
            if not same:
                yield j, f"{cmd}: text and json disagree"
    three_valued = None
    for _, wf in by_cmd.get("wf", []):
        three_valued = wf
        for j, model in by_cmd.get("model", []):
            if {a: collapse_str(v) for a, v in model.items()} != wf:
                yield j, "model: collapse differs from the well-founded model"
    if three_valued is None and "model" in by_cmd:
        three_valued = {a: collapse_str(v) for a, v in by_cmd["model"][0][1].items()}
    if ground is None:
        ground = next((g for _, g in by_cmd.get("ground", [])), None)
    for j, models in by_cmd.get("stable", []):
        for m in models:
            if ground is not None and least_model(ground, m) != m:
                yield j, "stable: a model is not the least model of its reduct"
                break
            if three_valued is not None and any(
                (v == "True") != (a in m) for a, v in three_valued.items() if v != "Undef"
            ):
                yield j, "stable: a model lies outside the well-founded bounds"
                break

