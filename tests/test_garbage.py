"""No pipeline stage, and no command line call, leaves cyclic garbage
behind, and what the standard library leaves is bounded by a constant.

Each stage runs on each corpus program with the collector off, and a
collection afterwards must find nothing unreachable.  A reference cycle
(a self-recursive nested function, say) would keep a stage's whole
state alive until the next full collection, and raise peak memory.
`cli.main` is checked the same way with every command at depths 1-3,
with `stable --ext` and `model --trace`, which do work per model and
per stage, and on every exit-2 and exit-3 path; it builds its argument
parser, which is full of cycles, once per process, so a warm-up call
outside the check builds it first.

Two standard-library paths leave cycles on every call, so there the
check is that the count does not grow with the input: `--format json`
(`json.dumps` with an indent builds closures that refer to each other)
of every command but `ground`, which writes its JSON itself, and
argparse's usage-error and `--help` exits.

This bound is what makes it safe for `cli.main` to run each call with
the collector off: a call leaves the collector a constant amount of
work, whatever the size of the program.
"""

import gc

import pytest

from hopes import (
    check_extensional,
    cli,
    ground_instantiate,
    minimum_model,
    parse_program,
    stable_models,
    typecheck,
    wf_oracle,
)
from hopes.analysis import check_locally_stratified_bounded, check_stratified

from conftest import CORPUS, program_path
from test_cli import COMMANDS, DEPTHLESS, negation_chain


def leftover(fn, *args):
    """fn(*args) with the collector off, and the number of unreachable
    objects it left.  The objects that exist before the call are
    frozen, so that the collection afterwards walks only what the call
    made.  A `SystemExit` is caught, and its code is the result."""
    gc.freeze()
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            result = fn(*args)
        except SystemExit as exc:
            result = exc.code
        return result, gc.collect()
    finally:
        gc.unfreeze()
        if enabled:
            gc.enable()


def call(fn, *args):
    """fn(*args) with the collector off, asserting it left no cycle."""
    result, garbage = leftover(fn, *args)
    assert garbage == 0, fn.__name__
    return result


@pytest.mark.parametrize("name", CORPUS)
def test_stages_leave_no_cyclic_garbage(name):
    program = call(parse_program, program_path(name).read_text())
    tp = call(typecheck, program)
    call(check_stratified, tp)
    for k in (1, 2, 3):
        g = call(ground_instantiate, tp, k)
        m = call(minimum_model, g)
        call(wf_oracle, g)
        call(stable_models, g)
        call(check_extensional, g, m.values)
        call(check_locally_stratified_bounded, g)


@pytest.mark.parametrize("name", [*CORPUS, "broken"])
def test_cli_main_leaves_no_cyclic_garbage(name):
    path = str(program_path(name))
    cli.main(["check", path])  # builds the parser, once per process
    for command in COMMANDS:
        for k in [None] if command in DEPTHLESS else [1, 2, 3]:
            call(cli.main, [command, path] if k is None else [command, path, "--depth", str(k)])
    for k in (1, 2, 3):
        # the flags that do work per model and per stage
        call(cli.main, ["stable", path, "--depth", str(k), "--ext"])
        call(cli.main, ["model", path, "--depth", str(k), "--trace"])
    call(cli.main, ["ground", path, "--format", "json"])  # written without json.dumps


FAILURES = {
    "missing_file": (["model", "no_such_file.hop"], 2),
    "parse_error": (["model", str(program_path("broken"))], 2),
    "type_error": (["model", "{tmp}/bad.hop"], 2),
    "unwritable_out": (["model", str(program_path("defaults")), "--out", "{tmp}/no_dir/x"], 2),
    "depth_below_one": (["model", str(program_path("defaults")), "--depth", "0"], 2),
    "clause_over_budget": (["model", "{tmp}/tree.hop", "--depth", "27"], 3),
    "depth_over_budget": (["model", str(program_path("even_loop")), "--depth", str(10**8)], 3),
    "too_many_atoms": (["stable", str(program_path("even_loop")), "--max-atoms", "0"], 3),
}


@pytest.mark.parametrize("case", FAILURES)
def test_failures_leave_no_cyclic_garbage(case, tmp_path):
    (tmp_path / "bad.hop").write_text("#pred p : o.\np :- q.\n")
    (tmp_path / "tree.hop").write_text("#func f : i -> i -> i.\n#pred p : i -> o.\np(a).\n")
    argv, code = FAILURES[case]
    cli.main(["check", str(program_path("defaults"))])  # builds the parser
    assert call(cli.main, [a.replace("{tmp}", str(tmp_path)) for a in argv]) == code


@pytest.fixture(scope="module")
def small_and_large(tmp_path_factory):
    """A corpus program of 5 clauses and a negation chain of 2,000."""
    large = tmp_path_factory.mktemp("garbage") / "chain.hop"
    large.write_text(negation_chain(2000))
    cli.main(["check", str(large)])  # builds the parser
    return str(program_path("subset")), str(large)


@pytest.mark.parametrize("command", COMMANDS)
def test_json_garbage_does_not_grow_with_the_input(command, small_and_large):
    counts = [leftover(cli.main, [command, path, "--format", "json"])[1] for path in small_and_large]
    assert counts[0] == counts[1], counts
    if command == "ground":
        assert counts == [0, 0]


@pytest.mark.parametrize("flag", ["--help", "--no-such-flag"])
def test_usage_garbage_does_not_grow_with_the_input(flag, small_and_large):
    counts = []
    for path in small_and_large:
        code, garbage = leftover(cli.main, ["model", path, flag])
        assert code == (0 if flag == "--help" else 2)
        counts.append(garbage)
    assert counts[0] == counts[1], counts
