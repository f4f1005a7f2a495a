"""tools/replay.py, the byte-identity gate between two revisions: its corpus
reads every CI rerun line, and it names the first field that moved."""

import importlib.util
import shlex
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("replay", ROOT / "tools" / "replay.py")
replay = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(replay)


def _heredoc_lines():
    # The workflow's heredoc body, read line by line without a regex, and its A="..." value.
    lines = (ROOT / ".github" / "workflows" / "tests.yml").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.rstrip().endswith("<<EOF"))
    end = next(i for i in range(start + 1, len(lines)) if lines[i].strip() == "EOF")
    a = next(line.strip()[3:-1] for line in lines[:start] if line.strip().startswith('A="'))
    return [line.strip() for line in lines[start + 1 : end] if line.strip()], a


def test_ci_argvs_are_the_heredoc_lines_with_a_expanded():
    lines, a = _heredoc_lines()
    argvs = replay.ci_argvs()
    assert len(argvs) == len(lines) > 50
    assert argvs == [shlex.split(line.replace("$A", a)) for line in lines]
    assert sum("$A" in line for line in lines) > 5
    assert not any("$" in token for argv in argvs for token in argv)
    assert ["--alpha1", "0.7853981633974483"] == argvs[lines.index("spectrum $A")][1:3]


def test_first_difference_names_the_first_field_that_differs():
    same = [0, "a\nb\n", ""]
    assert replay.first_difference(same, list(same)) == "same"
    assert replay.first_difference(same, [2, "x\n", "usage"]) == "exit 0 -> 2"
    assert replay.first_difference(same, [0, "a\nc\n", "warn"]) == "stdout line 2: 'b' -> 'c'"
    assert replay.first_difference(same, [0, "a\n", ""]) == "stdout line 2: 'b' -> (end)"
    assert replay.first_difference(same, [0, "a\nb\n", "x\ny"]) == "stderr line 1: (end) -> 'x'"
    assert replay.first_difference([0, "", "e"], [0, "", "f"]) == "stderr line 1: 'e' -> 'f'"
