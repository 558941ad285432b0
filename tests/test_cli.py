import argparse
import gc
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hopes import analysis, classical, cli, engine, parse_program, typecheck
from hopes.cli import main
from hopes.herbrand import DEFAULT_BUDGET, GroundProgram, _Universe
from hopes.types import MAX_TYPE_NESTING

from conftest import PROGRAMS, load_ground, program_path
from reference_grounder import reference_count


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_text(capsys):
    code, out, err = run(capsys, "check", program_path("identity"))
    assert code == 0
    assert out == "ok: 3 predicate(s), 0 function symbol(s), 2 individual constant(s), 4 clause(s)\n"
    assert err == ""


def test_check_reports_injected_constant(capsys):
    code, out, err = run(capsys, "check", program_path("even_loop"))
    assert code == 0
    assert "a0" in err


def test_check_json(capsys):
    code, out, _ = run(capsys, "check", program_path("identity"), "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True
    assert obj["predicates"] == {
        "q": "i -> o",
        "p": "(i -> o) -> o",
        "id": "(i -> o) -> i -> o",
    }
    assert obj["constants"] == ["a", "b"]
    assert obj["clauses"] == 4


def test_parse_error_exit_code(capsys):
    code, out, err = run(capsys, "check", program_path("broken"))
    assert code == 2
    assert out == ""
    assert "parse error" in err and "line 5, column 5" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "check", "no_such_file.hop")
    assert code == 2
    assert "cannot read" in err


def test_type_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.hop"
    bad.write_text("#pred p : o.\np :- q.\n")
    code, _, err = run(capsys, "check", bad)
    assert code == 2
    assert "type error" in err


def test_depth_must_be_positive(capsys):
    code, _, err = run(capsys, "model", program_path("defaults"), "--depth", "0")
    assert code == 2
    assert "--depth" in err


def test_invalid_utf8_is_unreadable(capsys, tmp_path):
    bad = tmp_path / "bad.hop"
    bad.write_bytes(b"p(a).\n\xff\xfe\n")
    for command in ("check", "model"):
        code, out, err = run(capsys, command, bad)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot read {bad}: ") and "utf-8" in err


def test_unwritable_out_file(capsys, tmp_path):
    target = tmp_path / "no_such_dir" / "x.txt"
    for command in ("check", "model", "stratify"):
        code, out, err = run(capsys, command, program_path("defaults"), "--out", target)
        assert code == 2
        assert out == ""
        assert err.splitlines()[-1].startswith(f"error: cannot write {target}: ")


def test_max_atoms_must_not_be_negative(capsys):
    code, out, err = run(capsys, "stable", program_path("even_loop"), "--max-atoms", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: --max-atoms must be at least 0\n"
    # zero is a cap like any other: even_loop leaves two atoms Undef
    code, _, err = run(capsys, "stable", program_path("even_loop"), "--max-atoms", "0")
    assert code == 3
    assert "cap of 0" in err


def test_atom_cap_message_counts_one_atom(capsys, tmp_path):
    path = tmp_path / "odd.hop"
    path.write_text("#pred p : o.\np :- ~p.\n")
    code, out, err = run(capsys, "stable", path, "--max-atoms", "0")
    assert code == 3
    assert out == ""
    assert err.splitlines()[-1] == (
        "error: stable-model enumeration aborted: 1 atom left undefined by the"
        " well-founded model exceeds the stable-model enumeration cap of 0"
    )
    code, _, err = run(capsys, "stable", program_path("even_loop"), "--max-atoms", "1")
    assert code == 3
    assert "2 atoms left undefined by the well-founded model exceed the" in err


def test_clause_over_budget_is_refused_before_enumeration(capsys, tmp_path):
    # the slice of i holds about a million terms at depth 27; its size is
    # counted, and the clause refused, before any term is built
    path = tmp_path / "tree.hop"
    path.write_text("#func f : i -> i -> i.\n#pred p : i -> o.\np(a).\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "model", path, "--depth", "27")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert err == (
        "error: grounding budget exceeded: clause 'p(V_1) :- V_1 = a.' needs 1033412"
        " substitutions, over the budget of 1000000\n"
    )


def test_universe_slices_over_budget_are_refused_before_enumeration(capsys, tmp_path):
    # the one clause has no variable, so it passes its check, but the
    # slices of i and o hold 1,323,926 terms at depth 27; they are
    # counted, and refused, before any term is built
    path = tmp_path / "slices.hop"
    path.write_text("#func f : i -> i -> i.\n#pred q : i -> o.\n#pred r : o.\nr.\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "model", path, "--depth", "27")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert err == (
        "error: grounding budget exceeded: universe slices at depth 27 hold 1323926"
        " terms, over the budget of 1000000\n"
    )
    # at depth 25 the slices hold 373,014 terms, within the budget
    tp = typecheck(parse_program(path.read_text()))
    assert sum(_Universe(tp, 25).total.values()) == 373014
    code, out, err = run(capsys, "ground", path, "--depth", "25")
    assert (code, out) == (0, "r.\n")
    assert err == "note: program uses no individual constants; injected reserved constant a0\n"


def test_depth_above_budget_is_refused_before_grounding(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "model", program_path("even_loop"), "--depth", 10**8)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert err == (
        "error: grounding budget exceeded: depth 100000000 is over the budget of "
        f"{DEFAULT_BUDGET}\n"
    )


def test_ground_text(capsys):
    code, out, _ = run(capsys, "ground", program_path("self_support"))
    assert code == 0
    assert out == "p(a) :- p(a).\n"


def test_ground_json(capsys):
    code, out, _ = run(
        capsys, "ground", program_path("choice_pair"), "--depth", "2", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["depth"] == 2
    assert len(obj["clauses"]) == 6
    assert {"head": "r(p)", "pos": [], "neg": ["s(p)"]} in obj["clauses"]
    assert set(obj) == {"depth", "atoms", "clauses", "notes"}


def test_model_text_order(capsys):
    code, out, _ = run(capsys, "model", program_path("defaults"))
    assert code == 0
    assert out == "p = T0\nq = F0\ns = T1\nr = F1\nt = ZERO\ndepth = 2\n"


def test_model_trace(capsys):
    code, out, _ = run(capsys, "model", program_path("defaults"), "--trace")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "stage 0: true = {p} false = {q}"
    assert lines[1] == "stage 1: true = {s} false = {r}"
    assert lines[2:] == ["p = T0", "q = F0", "s = T1", "r = F1", "t = ZERO", "depth = 2"]


def test_model_all_zero(capsys):
    code, out, _ = run(capsys, "model", program_path("even_loop"))
    assert code == 0
    assert out == "p = ZERO\nq = ZERO\ndepth = 0\n"


def test_model_json_stable_bytes(capsys):
    args = ("model", program_path("subset"), "--format", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    obj = json.loads(out1)
    assert set(obj) == {"depth", "depth_bound", "atoms"}
    assert obj["depth"] == 3
    values = {entry["atom"]: entry["value"] for entry in obj["atoms"]}
    assert values["subset(p1)(p2)"] == "T2"
    assert values["subset(p2)(p1)"] == "F2"


def test_model_json_trace_and_zero_order(capsys):
    code, out, _ = run(
        capsys, "model", program_path("defaults"), "--format", "json", "--trace"
    )
    obj = json.loads(out)
    assert obj["trace"] == [
        {"stage": 0, "true": ["p"], "false": ["q"]},
        {"stage": 1, "true": ["s"], "false": ["r"]},
    ]
    orders = {entry["atom"]: entry["order"] for entry in obj["atoms"]}
    assert orders == {"p": 0, "q": 0, "s": 1, "r": 1, "t": None}


def test_wf_text(capsys):
    code, out, _ = run(capsys, "wf", program_path("defaults"))
    assert code == 0
    assert out == "p = True\nq = False\nr = False\ns = True\nt = Undef\n"


def test_wf_json(capsys):
    code, out, _ = run(capsys, "wf", program_path("defaults"), "--format", "json")
    obj = json.loads(out)
    assert {"atom": "t", "value": "Undef"} in obj["atoms"]


def test_nothing_to_list_ends_at_the_last_line(capsys, tmp_path):
    """An empty program has no ground atoms and no predicates: ``wf``
    prints nothing, as ``ground`` does, ``stratify`` only its verdict,
    and ``stable`` its one model, the empty set."""
    path = tmp_path / "empty.hop"
    path.write_text("")
    for command, expected in [("wf", ""), ("ground", ""), ("stratify", "stratified: yes\n"), ("stable", "{}\n")]:
        code, out, _ = run(capsys, command, path)
        assert (code, out) == (0, expected), command


def test_stable_text(capsys):
    code, out, _ = run(capsys, "stable", program_path("even_loop"))
    assert code == 0
    assert out == "{p}\n{q}\n"


def test_stable_none(capsys):
    tmp = program_path("defaults")
    code, out, _ = run(capsys, "stable", tmp)
    assert code == 0
    assert out == "no stable models\n"


def test_stable_ext_flags(capsys):
    code, out, _ = run(
        capsys, "stable", program_path("choice_pair"), "--depth", "2", "--ext",
        "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 4
    flags = [m["extensional"] for m in obj["models"]]
    assert flags == [True, False, False, True]
    mixed = obj["models"][1]
    assert mixed["atoms"] == ["p(a)", "q(a)", "r(p)", "s(q)"]
    assert any("r(p)" in v and "r(q)" in v for v in mixed["violations"]) or any(
        "s(p)" in v and "s(q)" in v for v in mixed["violations"]
    )


def test_stable_ext_text(capsys):
    code, out, _ = run(
        capsys, "stable", program_path("choice_pair"), "--depth", "2", "--ext"
    )
    assert code == 0
    assert "extensional: yes" in out and "extensional: no" in out
    assert "not extensionally equal" in out


def choice_program(m: int) -> str:
    """choice_pair.hop over m predicates: 2^m stable models, of which the
    two that pick r everywhere or s everywhere are extensional."""
    preds = [f"q{j}" for j in range(m)]
    lines = ["#pred r : (i -> o) -> o.", "#pred s : (i -> o) -> o."]
    lines += [f"#pred {q} : i -> o." for q in preds]
    lines += ["r(Q) :- ~s(Q).", "s(Q) :- ~r(Q)."] + [f"{q}(a)." for q in preds]
    return "\n".join(lines) + "\n"


def count_compiles(monkeypatch) -> list:
    """The arguments of every ExtPlan built from now on."""
    compiled = []
    init = analysis.ExtPlan.__init__

    def count_init(self, *args):
        compiled.append(args)
        init(self, *args)

    monkeypatch.setattr(analysis.ExtPlan, "__init__", count_init)
    return compiled


def test_stable_ext_compiles_once(capsys, tmp_path, monkeypatch):
    path = tmp_path / "choice.hop"
    path.write_text(choice_program(8))
    compiled = count_compiles(monkeypatch)
    ground_instantiate = cli.ground_instantiate

    def ground_then_forbid_enumeration(*args):
        g = ground_instantiate(*args)

        def enumerate(self, terms):
            raise AssertionError("slices enumerated after grounding")

        monkeypatch.setattr(_Universe, "enumerate", enumerate)
        return g

    monkeypatch.setattr(cli, "ground_instantiate", ground_then_forbid_enumeration)
    code, out, _ = run(capsys, "stable", path, "--depth", "2", "--ext")
    assert code == 0
    assert len(compiled) == 1
    assert out.count("extensional: yes") == 2
    assert out.count("extensional: no") == 254


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_stable_ext_without_models_compiles_nothing(capsys, tmp_path, monkeypatch, fmt):
    # p(q) :- ~p(q) has no stable model, so there is nothing to check
    path = tmp_path / "none.hop"
    path.write_text("#pred p : (i -> o) -> o.\n#pred q : i -> o.\np(Q) :- ~p(Q).\nq(a).\n")
    compiled = count_compiles(monkeypatch)
    code, out, _ = run(capsys, "stable", path, "--ext", "--format", fmt)
    assert code == 0
    assert out == "no stable models\n" if fmt == "text" else json.loads(out)["models"] == []
    assert compiled == []


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "command",
    [["check"], ["ground"], ["model"], ["model", "--trace"], ["wf"], ["stable"],
     ["stable", "--ext"], ["stratify"], ["locstrat"], ["ext"]],
    ids=" ".join,
)
def test_each_command_renders_only_the_asked_shape(capsys, monkeypatch, command, fmt):
    def forbidden(*args, **kwargs):
        raise AssertionError(f"--format {fmt} rendered the other shape")

    emit = cli._emit
    if fmt == "json":
        monkeypatch.setattr(GroundProgram, "to_text", forbidden)
        monkeypatch.setattr(cli, "_emit", lambda args, text, obj: emit(args, forbidden, obj))
    else:
        monkeypatch.setattr(json, "dumps", forbidden)
        monkeypatch.setattr(cli, "_ground_json", forbidden)
        monkeypatch.setattr(cli, "_emit", lambda args, text, obj: emit(args, text, forbidden))
    for name in ("choice_pair", "stratified_ho", "unstratified_ho"):
        path = program_path(name)
        code, out, err = run(capsys, command[0], path, *command[1:], "--format", fmt)
        assert code in (0, 1) and out, err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_stable_ext_checks_each_model_once(capsys, monkeypatch, fmt):
    checked = []
    check = analysis.ExtPlan.check

    def count_check(self, values):
        checked.append(values)
        return check(self, values)

    monkeypatch.setattr(analysis.ExtPlan, "check", count_check)
    path = program_path("choice_pair")
    code, _, _ = run(capsys, "stable", path, "--depth", "2", "--ext", "--format", fmt)
    assert code == 0
    assert len(checked) == len(classical.stable_models(load_ground("choice_pair", 2))) == 4


def test_stable_ext_compares_shared_types_once(capsys, tmp_path, monkeypatch):
    compared = []
    compare = analysis.ExtPlan.compare

    def count_compare(self, t, values):
        compared.append(t.name)
        return compare(self, t, values)

    monkeypatch.setattr(analysis.ExtPlan, "compare", count_compare)
    # every stable model of choice(8) agrees on the facts qj(a), which
    # are all that the relation at i -> o reads; the relation at
    # (i -> o) -> o reads r(qj) and s(qj), which differ between models;
    # no arrow type takes o, so the relation at o is never built
    path = tmp_path / "choice.hop"
    path.write_text(choice_program(8))
    code, out, _ = run(capsys, "stable", path, "--depth", "2", "--ext")
    assert code == 0 and out.count("extensional: ") == 256
    assert compared.count("i -> o") == 1
    assert compared.count("(i -> o) -> o") == 256
    assert "o" not in compared
    # t takes o, so its relation reads the relation at o, which reads
    # the values of a, b and the t atoms: the two models differ there
    compared.clear()
    path.write_text("#pred t : o -> o.\n#pred a : o.\n#pred b : o.\na :- ~b.\nb :- ~a.\nt(X) :- X.\n")
    code, out, _ = run(capsys, "stable", path, "--ext")
    assert code == 0 and out.count("extensional: ") == 2
    assert compared.count("o") == compared.count("o -> o") == 2


def test_stable_atom_cap(capsys):
    code, out, err = run(
        capsys, "stable", program_path("choice_pair"), "--depth", "2", "--max-atoms", "2"
    )
    assert code == 3
    assert out == ""
    assert "stable-model enumeration aborted" in err


def test_stable_total_wellfounded_model_is_not_capped(capsys, tmp_path):
    # subset.hop over four nested sets: 48 ground atoms, every one
    # decided by the well-founded model, so the cap (24) does not apply
    consts = "abcd"
    sets = [f"p{i}" for i in range(1, 5)]
    lines = [
        "#pred subset : (i -> o) -> (i -> o) -> o.",
        "#pred nonsubset : (i -> o) -> (i -> o) -> o.",
        *(f"#pred {p} : i -> o." for p in sets),
        "subset(S1)(S2) :- ~(nonsubset S1 S2).",
        "nonsubset(S1)(S2) :- S1(X), ~(S2 X).",
        *(f"{p}({c})." for i, p in enumerate(sets) for c in consts[: i + 1]),
    ]
    program = tmp_path / "subsets.hop"
    program.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "stable", program, "--format", "json")
    assert code == 0, err
    obj = json.loads(out)
    atoms = obj["models"][0]["atoms"]
    assert obj["count"] == 1
    assert len(json.loads(run(capsys, "wf", program, "--format", "json")[1])["atoms"]) == 48
    expected = {f"{p}({c})" for i, p in enumerate(sets) for c in consts[: i + 1]}
    for i, p in enumerate(sets):
        for j, q in enumerate(sets):
            expected.add(f"subset({p})({q})" if i <= j else f"nonsubset({p})({q})")
    assert set(atoms) == expected


def test_grounding_budget_exit_code(capsys, tmp_path):
    wide = tmp_path / "wide.hop"
    arrow = " -> ".join(["i"] * 7)
    facts = "\n".join(f"q(c{i})." for i in range(10))
    wide.write_text(
        f"#pred q : i -> o.\n#pred p : {arrow} -> o.\n{facts}\n"
        "p(X1, X2, X3, X4, X5, X6, X7).\n"
    )
    code, out, err = run(capsys, "ground", wide)
    assert code == 3
    assert out == ""
    assert "grounding budget exceeded" in err


# A head argument that is not a variable gets a fresh formal V_<n>.  It
# must not take the name of a variable the clause already uses: here the
# first fresh name of each program would be that variable's.
FRESH_FORMAL_CLASHES = {
    "body": (
        "#pred p : i -> o.\n#pred q : i -> o.\np(a) :- q(V_1).\nq(b).\n",
        "p(a) :- q(a).\np(a) :- q(b).\nq(b).\n",
        "p(a) = T0\nq(b) = T0\np(b) = F0\nq(a) = F0\ndepth = 1\n",
    ),
    "head": (
        "#pred p : i -> i -> o.\n#pred q : i -> o.\nq(b).\np(a, V_2) :- q(V_2).\n",
        "q(b).\np(a)(a) :- q(a).\np(a)(b) :- q(b).\n",
        "p(a)(b) = T0\nq(b) = T0\np(a)(a) = F0\np(b)(a) = F0\np(b)(b) = F0\nq(a) = F0\ndepth = 1\n",
    ),
}


@pytest.mark.parametrize("shape", sorted(FRESH_FORMAL_CLASHES))
def test_fresh_formal_skips_names_the_clause_uses(capsys, tmp_path, shape):
    text, ground, model = FRESH_FORMAL_CLASHES[shape]
    program = tmp_path / f"{shape}.hop"
    program.write_text(text)
    assert run(capsys, "ground", program) == (0, ground, "")
    assert run(capsys, "model", program) == (0, model, "")


def test_stratify_positive(capsys):
    code, out, _ = run(capsys, "stratify", program_path("subset"))
    assert code == 0
    assert out == "stratified: yes\nS1 = {p1, p2}\nS2 = {nonsubset}\nS3 = {subset}\n"


def test_stratify_violation(capsys):
    code, out, _ = run(capsys, "stratify", program_path("unstratified_ho"))
    assert code == 1
    assert out == "stratified: no\ncycle through negation: q < p, p <= q\n"


def test_stratify_json(capsys):
    code, out, _ = run(
        capsys, "stratify", program_path("unstratified_ho"), "--format", "json"
    )
    assert code == 1
    obj = json.loads(out)
    assert obj["verdict"] == "violation"
    assert obj["cycle"] == [["q", "<", "p"], ["p", "<=", "q"]]


def test_locstrat_reports_but_exits_zero(capsys):
    code, out, _ = run(capsys, "locstrat", program_path("choice_pair"), "--depth", "2")
    assert code == 0
    assert out.startswith("locally stratified up to depth 2: no\n")
    assert "cycle through negation" in out

    code, out, _ = run(capsys, "locstrat", program_path("identity"))
    assert code == 0
    assert out.startswith("locally stratified up to depth 3: yes")


def test_stratify_and_locstrat_report_one_cycle(capsys):
    # p :- ~q. q :- ~p.  Its ground program is the program itself, so
    # both levels find the same cycle, through one result type
    path = program_path("even_loop")
    cycle = "cycle through negation: p < q, q < p\n"
    assert run(capsys, "stratify", path)[:2] == (1, "stratified: no\n" + cycle)
    code, out, _ = run(capsys, "locstrat", path)
    assert (code, out) == (0, "locally stratified up to depth 3: no\n" + cycle)

    source = json.loads(run(capsys, "stratify", path, "--format", "json")[1])
    local = json.loads(run(capsys, "locstrat", path, "--format", "json")[1])
    assert source["cycle"] == local["cycle"] == [["p", "<", "q"], ["q", "<", "p"]]
    assert source["verdict"] == local["verdict"] == "violation"


def test_ext_command(capsys):
    code, out, _ = run(capsys, "ext", program_path("choice_pair"), "--depth", "2")
    assert code == 0
    assert out.startswith("extensional at depth 2: yes")
    assert "checked types" in out


def test_ext_json(capsys):
    code, out, _ = run(
        capsys, "ext", program_path("identity"), "--depth", "1", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "extensional"
    assert obj["skipped_types"] == ["o"]
    assert ["(i -> o) -> i -> o", "id", "id"] in obj["vacuous"]


def test_ext_depth_one_subset(capsys):
    # at depth 1 the slice of (i -> o) -> o is empty, so subset and
    # nonsubset are related only vacuously and no application of them
    # is compared
    code, out, err = run(capsys, "ext", program_path("subset"), "--depth", "1")
    assert code == 0
    assert err == ""
    ty = "(i -> o) -> (i -> o) -> o"
    assert out == "".join(
        [
            "extensional at depth 1: yes\n",
            f"checked types: {ty}, i, i -> o\n",
            "types with empty universes: (i -> o) -> o, o\n",
        ]
        + [
            f"note: {a} and {b} related at {ty} only vacuously\n"
            for a in ("nonsubset", "subset")
            for b in ("nonsubset", "subset")
        ]
    )

    code, out, _ = run(capsys, "stable", program_path("subset"), "--depth", "1", "--ext")
    assert code == 0
    assert out.endswith("  extensional: yes\n")
    assert "not extensionally equal" not in out


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "model.json"
    code, out, _ = run(
        capsys, "model", program_path("defaults"), "--format", "json", "--out", target
    )
    assert code == 0
    assert out == ""
    obj = json.loads(target.read_text())
    assert obj["depth"] == 2


def module_env(**extra: str) -> dict[str, str]:
    """The environment of a `python -m hopes` subprocess that imports
    this checkout."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return dict(os.environ, PYTHONPATH=path, **extra)


def test_module_entry_point():
    env = module_env()
    proc = subprocess.run(
        [sys.executable, "-m", "hopes", "model", str(program_path("defaults"))],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == "p = T0\nq = F0\ns = T1\nr = F1\nt = ZERO\ndepth = 2\n"


def test_unencodable_output_is_a_front_end_failure(tmp_path):
    accented = tmp_path / "accent.hop"
    accented.write_text("#pred p\u00e9 : o.\np\u00e9.\n", encoding="utf-8")
    env = module_env(PYTHONIOENCODING="ascii:strict")
    for command in ("model", "ground", "stable"):
        proc = subprocess.run(
            [sys.executable, "-m", "hopes", command, str(accented)], capture_output=True, env=env
        )
        assert proc.returncode == 2, command
        assert proc.stdout == b""
        err = proc.stderr.decode("ascii")  # the message itself is encodable
        assert "error: cannot write the output" in err and "\\xe9" in err
        assert "Traceback" not in err
    # a note or an error naming a file that stderr cannot encode is escaped
    missing = tmp_path / "caf\u00e9.hop"
    proc = subprocess.run(
        [sys.executable, "-m", "hopes", "model", str(missing)], capture_output=True, env=env
    )
    assert proc.returncode == 2
    assert "caf\\xe9.hop" in proc.stderr.decode("ascii")


def test_no_stderr_drops_diagnostics(capsys, monkeypatch):
    # Python sets sys.stderr to None when descriptor 2 is closed at start
    code, full, err = run(capsys, "model", program_path("even_loop"))
    assert (code, err.startswith("note: ")) == (0, True)
    monkeypatch.setattr(sys, "stderr", None)
    assert run(capsys, "model", program_path("even_loop")) == (0, full, "")
    assert run(capsys, "model", program_path("no_such_file")) == (2, "", "")
    assert _in_process(capsys, ["model"]) == ("", "", 2)  # a usage error
    out, err, code = _in_process(capsys, ["--help"])  # help goes to stdout
    assert (out.startswith("usage: hopes"), err, code) == (True, "", 0)


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("redirect", ["2>&-", "2</dev/null"], ids=["closed", "read-only"])
def test_no_stderr_keeps_output_and_exit_codes(redirect, unbuffered):
    # a closed descriptor 2 makes sys.stderr None; a read-only one
    # fails each write, and a buffered stderr keeps the failed line in
    # its buffer, where the interpreter's flush at exit would fail on
    # it again and turn the exit code into 120
    env = module_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered

    def hopes(*argv):
        return subprocess.run(
            ["sh", "-c", f'exec "$0" -m hopes model "$@" {redirect}', sys.executable, *map(str, argv)],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )

    proc = hopes(program_path("even_loop"))
    assert (proc.returncode, proc.stdout) == (0, "p = ZERO\nq = ZERO\ndepth = 0\n")
    proc = hopes(program_path("no_such_file"))
    assert (proc.returncode, proc.stdout) == (2, "")
    proc = hopes()  # a usage error, whose message argparse writes itself
    assert (proc.returncode, proc.stdout) == (2, "")


def negation_chain(n: int) -> str:
    """The clauses `a<i> :- ~a<i+1>.` for i below n, over n + 1 atoms."""
    decls = [f"#pred a{i} : o." for i in range(n + 1)]
    return "\n".join(decls + [f"a{i} :- ~a{i + 1}." for i in range(n)]) + "\n"


def run_into_broken_pipe(argv: list[str], unbuffered: str) -> subprocess.CompletedProcess:
    """`python -m hopes` with a stdout whose reader is gone before it
    starts; `unbuffered` is the PYTHONUNBUFFERED value, "" for a
    buffered stdout."""
    env = module_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    read, write = os.pipe()
    os.close(read)
    try:
        return subprocess.run(
            [sys.executable, "-m", "hopes", *argv],
            stdout=write,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    finally:
        os.close(write)


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("clauses", [1, 2000])
def test_broken_pipe_is_a_front_end_failure(tmp_path, clauses, unbuffered):
    # a buffered stdout keeps a one-clause model in its buffer, which
    # fails when flushed and would fail again at exit; the model of
    # 2,000 clauses, or any output to an unbuffered stdout, fails in
    # the write itself
    path = tmp_path / "chain.hop"
    path.write_text(negation_chain(clauses))
    proc = run_into_broken_pipe(["model", str(path), "--depth", "1"], unbuffered)
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1] == "error: cannot write the output: [Errno 32] Broken pipe"
    # nothing is reported when the interpreter flushes stdout at exit
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


def test_help_into_a_broken_pipe_is_quiet():
    # a buffered stdout keeps the help text until the flush at exit; an
    # unbuffered one fails in argparse's own write, which argparse
    # before Python 3.11 does not catch
    for unbuffered in ("", "1"):
        proc = run_into_broken_pipe(["--help"], unbuffered)
        assert (proc.returncode, proc.stderr) == (0, ""), unbuffered


def test_closed_stdout_is_a_front_end_failure():
    proc = subprocess.run(
        ["sh", "-c", 'exec "$0" -m hopes wf "$1" >&-', sys.executable, str(program_path("subset"))],
        capture_output=True,
        text=True,
        env=module_env(),
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write the output: standard output is closed\n"


def _nested_fact(depth: int) -> str:
    return "#func s : i -> i.\n#pred nat : i -> o.\nnat(" + "s(" * depth + "z" + ")" * depth + ").\n"


@pytest.mark.parametrize("depth", [400, 3000])
@pytest.mark.parametrize("command", ["check", "ground"])
def test_deep_terms_end_without_traceback(tmp_path, command, depth):
    deep = tmp_path / "deep.hop"
    deep.write_text(_nested_fact(depth))
    env = module_env()
    proc = subprocess.run(
        [sys.executable, "-m", "hopes", command, str(deep)], capture_output=True, text=True, env=env
    )
    assert proc.returncode in (0, 2)
    assert "Traceback" not in proc.stderr


def test_nesting_limit_is_reachable_in_process(capsys, tmp_path):
    # nat(s^498(z)) nests exactly MAX_NESTING = 500 levels deep
    deep = tmp_path / "deep.hop"
    deep.write_text(_nested_fact(498))
    for command in ("check", "ground", "model", "ext"):
        assert run(capsys, command, deep)[0] == 0
    deep.write_text(_nested_fact(499))
    code, _, err = run(capsys, "check", deep)
    assert code == 2
    assert "over the limit of 500" in err


def test_budget_bounds_enumerated_work(capsys, tmp_path):
    # r(c0) :- q(X), X = Y has a full product of 101^3 > 1M substitutions
    # over V, X and Y, but V is solved, so only 101^2 are enumerated
    solved = tmp_path / "solved.hop"
    facts = "\n".join(f"q(c{i})." for i in range(101))
    solved.write_text(f"#pred q : i -> o.\n#pred r : i -> o.\n{facts}\nr(c0) :- q(X), X = Y.\n")
    assert reference_count(typecheck(parse_program(solved.read_text())), 1) > 1_000_000
    code, out, err = run(capsys, "ground", solved, "--depth", "1")
    assert code == 0
    assert "budget" not in err
    assert out.count("r(c0) :- q(") == 101


def _deep_types(n: int) -> dict[str, str]:
    """Programs whose deepest type is a tree n levels deep: declared as
    an arrow chain or nested to the left, or inferred from an
    application or from a chain of higher-order literals."""
    chain = " -> ".join(["i"] * (n - 1) + ["o"])
    left = "i -> o"
    for _ in range(n - 2):
        left = f"({left}) -> o"
    return {
        "chain": f"#pred p : {chain}.\np({', '.join(['a'] * (n - 1))}).\n",
        "left": f"#pred q : {left}.\n#pred r : o.\nq(P) :- r.\nr.\n",
        "applied": f"#pred r : o.\nr :- P({', '.join(['a'] * (n - 1))}).\n",
        "literals": "#pred r : o.\nr :- "
        + ", ".join(f"P{j}(P{j + 1})" for j in range(n - 2))
        + f", P{n - 2}(a).\n",
    }


COMMANDS = ("check", "ground", "model", "wf", "stable", "stratify", "locstrat", "ext")
DEPTHLESS = ("check", "stratify")


def test_type_nesting_limit(capsys, tmp_path):
    limit = MAX_TYPE_NESTING
    for shape, text in _deep_types(limit).items():
        deep = tmp_path / f"{shape}.hop"
        deep.write_text(text)
        for command in COMMANDS:
            code, _, err = run(capsys, command, deep)
            assert (shape, command, code) == (shape, command, 0), err
    for shape, text in _deep_types(limit + 1).items():
        deep = tmp_path / f"{shape}_over.hop"
        deep.write_text(text)
        for command in COMMANDS:
            code, _, err = run(capsys, command, deep)
            assert (shape, command, code) == (shape, command, 2)
            assert f"nests {limit + 1} levels deep, over the limit of {limit}" in err


@pytest.mark.parametrize("command", ["check", "stratify"])
def test_deep_types_end_without_traceback(capsys, tmp_path, command):
    chain, parens = tmp_path / "chain.hop", tmp_path / "parens.hop"
    chain.write_text(_deep_types(3001)["chain"])
    assert run(capsys, command, chain)[0] == 2
    # redundant parentheses add no depth to the type
    parens.write_text("#pred p : " + "(" * 600 + "i -> o" + ")" * 600 + ".\np(a).\n")
    assert run(capsys, command, parens)[0] == 0


# ---------------------------------------------------------------------------
# re-entrancy: main builds its parser once per process and reuses it


def test_parser_is_built_once(capsys, monkeypatch):
    progs = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_arg_parser.cache_clear()
    for _ in range(10):
        assert run(capsys, "model", program_path("defaults"))[0] == 0
    assert progs.count("hopes") == 1
    assert len(progs) == 1 + len(COMMANDS)  # and one parser per command


def _in_process(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return captured.out, captured.err, code


USAGE_ARGVS = {
    "help": ["--help"],
    "stable_help": ["stable", "--help"],
    "no_arguments": [],
    "no_file": ["model"],
    "bad_format": ["model", str(program_path("defaults")), "--format", "xml"],
    "unknown_command": ["frobnicate", str(program_path("defaults"))],
}


@pytest.mark.parametrize("case", USAGE_ARGVS)
def test_help_and_usage_errors_repeat_in_process(capsys, monkeypatch, case):
    # the terminal width is read when help or an error is formatted
    monkeypatch.setenv("COLUMNS", "80")
    argv = USAGE_ARGVS[case]
    cli.build_arg_parser.cache_clear()
    first = _in_process(capsys, argv)
    assert _in_process(capsys, argv) == first
    assert first[2] == (0 if "--help" in argv else 2)
    env = module_env()
    proc = subprocess.run(
        [sys.executable, "-m", "hopes", *argv], capture_output=True, text=True, env=env
    )
    assert (proc.stdout, proc.stderr, proc.returncode) == first


@pytest.mark.parametrize(
    "name, command, flags",
    [
        ("defaults", "model", ["--trace"]),
        ("choice_pair", "stable", ["--ext"]),
        ("defaults", "model", ["--format", "json"]),
        ("naturals", "model", ["--depth", "1"]),
    ],
)
def test_flags_do_not_carry_over(capsys, name, command, flags):
    path = program_path(name)
    plain = run(capsys, command, path)
    flagged = run(capsys, command, path, *flags)
    assert flagged != plain
    assert run(capsys, command, path) == plain


def test_out_does_not_carry_over(capsys, tmp_path):
    path, target = program_path("defaults"), tmp_path / "model.txt"
    code, out, _ = run(capsys, "model", path, "--out", target)
    assert (code, out) == (0, "")
    code, out, _ = run(capsys, "model", path)
    assert code == 0 and out == target.read_text()


# ---------------------------------------------------------------------------
# the collector: main runs each call with automatic collection off, and
# gives the caller back its setting on every exit


@pytest.fixture(params=[True, False], ids=["collector_on", "collector_off"])
def collector(request):
    """The caller's collector setting during the test; the setting from
    before the test is put back after it."""
    before = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if before else gc.disable)()


COLLECTOR_EXITS = {
    "ok": (["model", str(program_path("defaults"))], 0),
    "verdict": (["stratify", str(program_path("unstratified_ho"))], 1),
    "front_end": (["model", str(program_path("broken"))], 2),
    "budget": (["model", str(program_path("even_loop")), "--depth", str(10**8)], 3),
    "usage_error": (["model"], 2),
    "help": (["--help"], 0),
}


@pytest.mark.parametrize("case", COLLECTOR_EXITS)
def test_main_restores_the_collector(capsys, collector, case):
    argv, code = COLLECTOR_EXITS[case]
    threshold = gc.get_threshold()
    assert _in_process(capsys, argv)[2] == code
    assert gc.isenabled() is collector
    assert gc.get_threshold() == threshold


def test_main_restores_the_collector_after_an_exception(monkeypatch, collector):
    def fail(args):
        raise RuntimeError("inside a command")

    monkeypatch.setitem(cli._COMMANDS, "model", fail)
    threshold = gc.get_threshold()
    with pytest.raises(RuntimeError, match="inside a command"):
        main(["model", str(program_path("defaults"))])
    assert gc.isenabled() is collector
    assert gc.get_threshold() == threshold


def test_commands_run_with_the_collector_off(capsys, monkeypatch, collector):
    seen = []
    minimum_model = engine.minimum_model

    def recording(g):
        seen.append(gc.isenabled())
        return minimum_model(g)

    monkeypatch.setattr(engine, "minimum_model", recording)
    assert run(capsys, "model", program_path("defaults"))[0] == 0
    assert seen == [False]
    assert gc.isenabled() is collector


def corpus_argvs() -> list[list[str]]:
    """Every corpus file, broken.hop too, under every command, at depths
    1-4 where the command takes one, in text and JSON."""
    argvs = []
    for path in sorted(PROGRAMS.glob("*.hop")):
        for command in COMMANDS:
            depths = [None] if command in DEPTHLESS else [1, 2, 3, 4]
            for k in depths:
                for fmt in ("text", "json"):
                    argv = [command, str(path), "--format", fmt]
                    argvs.append(argv if k is None else argv + ["--depth", str(k)])
    return argvs


def test_corpus_forwards_and_in_reverse_give_the_same_bytes(capsys):
    argvs = corpus_argvs()
    forwards = [_in_process(capsys, argv) for argv in argvs]
    backwards = [_in_process(capsys, argv) for argv in reversed(argvs)]
    assert len(forwards) == 572
    for argv, first, again in zip(argvs, forwards, reversed(backwards)):
        assert again == first, argv
