"""The README's examples run and print what their comments claim."""

from __future__ import annotations

import contextlib
import io
import pathlib
import re
import shlex

from molien.cli import main

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()


def block(language: str, after: str) -> str:
    """The first fenced block in language that follows the line `after`."""
    start = README.index(after)
    match = re.compile(rf"^```{language}\n(.*?)^```", re.M | re.S).search(README, start)
    return match.group(1)


def test_library_example():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block("python", "## Library"), {})
    lines = out.getvalue().splitlines()
    assert lines[0] == "[1, 0, 1, 0, 3, 0, 3]"
    # a_4 = 3 invariants, listed as the comment begins them
    assert len(lines) == 1 + 3
    assert lines[1:3] == ["x1^4 + x2^4", "x1^3*x2 - x1*x2^3"]


def test_command_line_examples(tmp_path, capsys):
    spec = tmp_path / "group.json"
    spec.write_text(block("json", "## Command line"))
    commands = [
        line.split("#")[0] for line in block("sh", "Exact entries are strings").splitlines()
    ]
    outputs = []
    for command in commands:
        argv = shlex.split(command)
        assert argv[0] == "molien" and argv[-1] == "group.json"
        assert main(argv[1:-1] + [str(spec)]) == 0
        outputs.append(capsys.readouterr().out.splitlines())
    series, invariants, verify = outputs
    assert "a = [1, 0, 1, 0, 3]" in series
    assert "a_2 = 1" in invariants
    assert "x1^2 + x2^2" in invariants
    assert verify[1].split() == ["d", "series", "trace", "rank", "agree"]
    assert len(verify) == 2 + 7 + 1 and verify[-1] == "OK"
