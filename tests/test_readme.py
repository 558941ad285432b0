"""The README's shell transcripts and its library example, replayed.

Each ```text block of ``README.md`` that starts with ``$ hopes`` runs
through ``cli.main`` from the repository root: its stdout must be the
rest of the block, and its exit code 1 for the stratification
violation and 0 otherwise.  The block under "Library use" runs as it
stands and must print what its comments say.
"""

import re
import shlex

import pytest

from hopes import cli

from conftest import PROGRAMS

ROOT = PROGRAMS.parent
README = (ROOT / "README.md").read_text()

TRANSCRIPTS = [
    block
    for block in re.findall(r"^```text\n(.*?)^```$", README, re.M | re.S)
    if block.startswith("$ hopes ")
]


def test_readme_has_transcripts():
    assert len(TRANSCRIPTS) >= 3


@pytest.mark.parametrize(
    "block", TRANSCRIPTS, ids=[b.split("\n", 1)[0][len("$ hopes "):] for b in TRANSCRIPTS]
)
def test_transcript_replays(block, capsys, monkeypatch):
    command, expected = block.split("\n", 1)
    argv = shlex.split(command)[2:]
    monkeypatch.chdir(ROOT)
    code = cli.main(argv)
    assert capsys.readouterr().out == expected
    assert code == (1 if argv[0] == "stratify" else 0)


def test_library_example_runs(capsys, monkeypatch):
    section = README.split("## Library use", 1)[1]
    source = re.search(r"^```python\n(.*?)^```$", section, re.M | re.S).group(1)
    assert "# T1 2" in source and "# True" in source and "# []" in source
    monkeypatch.chdir(ROOT)
    exec(compile(source, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "T1 2"
    assert lines[2] == "True"
    assert lines[3] == "[]"
