"""Golden CLI outputs: stdout, stderr and exit code of nine decision
commands, plain and --json, on every ordered pair of equal-length corpus
files (45 pairs, 810 runs), against the snapshot in cli_golden.json.

A change that means to alter an answer regenerates the snapshot and shows
the difference in review:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

from trumpkit.cli import main

from conftest import CORPUS

SNAPSHOT = Path(__file__).resolve().parent / "cli_golden.json"
# a corpus file name in a command is passed as its path
COMMANDS = [("majorize",), ("mlocc",), ("catalyst", "search", "--budget", "0"),
            ("catalyst", "build"),
            ("catalyst", "lift", "--c", "z_0.6_0.4.json", "--n-copies", "2"),
            ("catalyst", "combine", "--c", "zprime_0.55_0.45.json",
             "--k", "3"),
            ("catalyst", "scan", "--c", "zprime_0.55_0.45.json",
             "--m-max", "4"),
            ("rfilter",), ("rfilter", "--alpha-grid=-3,-1,0.5,3,5,7")]


def runs():
    """(key, argv) of every golden run; the key names the corpus files,
    not their paths."""
    files = sorted(CORPUS.glob("*.json"))
    size = {f: len(json.loads(f.read_text())) for f in files}
    for x in files:
        for y in files:
            if size[x] != size[y]:
                continue
            for cmd in COMMANDS:
                args = [str(CORPUS / a) if a.endswith(".json") else a
                        for a in cmd]
                for fmt in ((), ("--json",)):
                    argv = [*args, "--x", str(x), "--y", str(y), *fmt]
                    key = " ".join([*cmd, x.name, y.name, *fmt])
                    yield key, argv


def outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return [code, out.getvalue(), err.getvalue()]


def test_cli_outputs_match_the_snapshot():
    want = json.loads(SNAPSHOT.read_text())
    got = {key: outcome(argv) for key, argv in runs()}
    assert len(got) == 810
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == want[key], key


if __name__ == "__main__":
    # one run a line, so a changed answer is a one-line diff
    SNAPSHOT.write_text("{\n%s\n}\n" % ",\n".join(
        "%s: %s" % (json.dumps(key), json.dumps(outcome(argv)))
        for key, argv in runs()))
