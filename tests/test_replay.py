"""tools/replay.py, CI's one byte-identity gate between two revisions: it
holds the rerun argvs (RERUNS), each of them exits 0, and it names the first
field that moved."""

import importlib.util
from pathlib import Path

from chshlab import cli

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("replay", ROOT / "tools" / "replay.py")
replay = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(replay)


def test_rerun_argvs_exit_0():
    assert len(replay.RERUNS) > 50
    for argv in replay.RERUNS:
        assert cli.main(argv) == 0, argv


def test_first_difference_names_the_first_field_that_differs():
    same = [0, "a\nb\n", ""]
    assert replay.first_difference(same, list(same)) == "same"
    assert replay.first_difference(same, [2, "x\n", "usage"]) == "exit 0 -> 2"
    assert replay.first_difference(same, [0, "a\nc\n", "warn"]) == "stdout line 2: 'b' -> 'c'"
    assert replay.first_difference(same, [0, "a\n", ""]) == "stdout line 2: 'b' -> (end)"
    assert replay.first_difference(same, [0, "a\nb\n", "x\ny"]) == "stderr line 1: (end) -> 'x'"
    assert replay.first_difference([0, "", "e"], [0, "", "f"]) == "stderr line 1: 'e' -> 'f'"
