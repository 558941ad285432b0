"""No pipeline stage, and no command line call, leaves cyclic garbage
behind.

Each stage runs on each corpus program with the collector off, and a
collection afterwards must find nothing unreachable.  A reference cycle
(a self-recursive nested function, say) would keep a stage's whole
state alive until the next full collection, and raise peak memory.
`cli.main` is checked the same way with every command at depths 1-3;
it builds its argument parser, which is full of cycles, once per
process, so a warm-up call outside the check builds it first.  Only
text output is checked: `json.dumps` with an indent leaves a cycle of
its own closures on every call.
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
from test_cli import COMMANDS, DEPTHLESS


def call(fn, *args):
    """fn(*args) with the collector off, asserting it left no cycle.
    The objects that exist before the call are frozen, so that the
    collection afterwards walks only what the call made."""
    gc.freeze()
    enabled = gc.isenabled()
    gc.disable()
    try:
        result = fn(*args)
        assert gc.collect() == 0, fn.__name__
    finally:
        gc.unfreeze()
        if enabled:
            gc.enable()
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
