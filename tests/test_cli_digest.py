"""The command line's behaviour, pinned command by command.

scripts/cli_digest.py runs a fixed command set in-process and gives one
line per command: exit code, sha256 of stdout, sha256 of stderr, argv.
tests/data/cli_digest.txt holds those lines as committed; this test runs
the script and compares the two, so a change to any output fails here
with the argv that moved.

The stderr hashes cover argparse's and json's own messages, so a CPython
upgrade can move them without any change to gcval.  The committed file
changes only together with a CHANGES.md note that says which lines moved
and why.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "cli_digest.py"
PINNED = Path(__file__).resolve().parent / "data" / "cli_digest.txt"


def _argv(line: str) -> str:
    return line.split(" ", 3)[3]


def test_cli_digest_matches_the_pinned_digest():
    spec = importlib.util.spec_from_file_location("cli_digest", SCRIPT)
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    want = PINNED.read_text(encoding="utf-8").splitlines()
    got = list(digest.digest_lines())
    for g, w in zip(got, want):
        assert g == w, f"output moved for: {_argv(w)}"
    assert len(got) == len(want)
