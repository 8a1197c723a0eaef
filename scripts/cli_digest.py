#!/usr/bin/env python3
"""Digest of the command line's behaviour over a fixed command set.

Runs every command in-process through ``gcval.cli.main`` and prints one
line per command: the exit code, the sha256 of stdout, the sha256 of
stderr and the argv.  Two trees whose outputs are byte-identical give
identical digests, so a refactor is checked by running this once on each
tree and diffing the two outputs:

    PYTHONPATH=<tree>/src python scripts/cli_digest.py > digest.txt

The command set is ``verify`` at --n-max 1, 3, 24, 25, 40, 60 and 100
(each entry's division table goes to index max(n_max, 24), so 24 and 25
sit either side of that edge); for each entry of the bundled corpus,
``kval`` in all three modes, ``profile`` with and
without --point, ``psi`` (the point is passed as one ``--point=x,y``
token; ``cli.main`` reads a separate ``-3,9`` the same way), ``formal-group``
at its default order and at
--m 3 --order 12, and ``seq``; ``profile`` and ``kval`` of torsion
points, one of them a 2-torsion point in E_1, so n_P = 1 < 2; ``kval
--mode direct`` at the --n-max 200 guardrail on four corpus points and
``--mode both`` on one of them; ``kval`` where phi_2(P) = 0 and where
v(phi_2) = 29 takes a tie past its residues modulo 2^29; ``profile`` and
``kval`` on a model integral only at p (u = 3, so the group law runs on
a scaled model); ``kval --mode both`` at --n-max 60 on a model and a
point written with integral fractions (``2/1``, ``-6/2``), which parse to
ints; ``psi`` at
--n-max 200, at a torsion point, on a model integral only at p and at a
point with denominators; ``verify`` on a one-entry corpus whose model is
integral only at p (37a scaled by u = 2, at p = 2) and on one whose point
is torsion (exit 3); and the exit-2/3 error paths, among them one
``formal-group`` just above the --order cap, a coefficient written with an
exponent, and ``verify`` on four malformed one-entry corpora and, at
--n-max 0, on one with no entries.  The script writes the corpora to a
temporary directory and prints the argv with that directory as ``{tmp}``,
so digests from two runs compare line by line.  ``tests/test_cli_digest.py``
compares the digest with the one committed in ``tests/data/cli_digest.txt``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
import tempfile
from importlib import resources
from pathlib import Path
from unittest import mock

from gcval.cli import main

#: one-line corpora: four whose single entry is malformed (a Kodaira pin
#: that is no Kodaira symbol, flags that are no list, a c_v pin that is a
#: string, misspelled pin keys), one with only a comment, 37a scaled by
#: u = 2 (integral at 2 only after scaling back) and a torsion point
_ENTRY = '"label": "bad", "a": ["0","0","1","-1","0"], "point": ["0","0"], "prime": 5'
CORPORA = {
    "bad-kodaira.jsonl": "{" + _ENTRY + ', "expect": {"kodaira": "Q7"}}',
    "bad-flags.jsonl": "{" + _ENTRY + ', "flags": 3}',
    "bad-cv.jsonl": "{" + _ENTRY + ', "expect": {"cv": "2"}}',
    "bad-key.jsonl": "{" + _ENTRY + ', "expect": {"kodaria": "I5", "CV": 9}}',
    "empty.jsonl": "# no entries",
    "scaled-37a.jsonl": '{"label": "s", "a": ["0","0","1/8","-1/16","0"], '
                        '"point": ["0","0"], "prime": 2}',
    "torsion.jsonl": '{"label": "t", "a": ["0","0","0","0","1"], '
                     '"point": ["2","3"], "prime": 5}',
}

OTHER_COMMANDS = (
    # exit 0, off the corpus
    "formal-group --curve 1,2,3,4,5 --prime 7 --m 4 --order 20",
    "profile --curve 0,0,0,0,1 --point 2,3 --prime 5",  # a torsion point
    # 2-torsion in E_1: the torsion guard must walk past n_P = 1
    "profile --curve 1,-1,0,-4,3 --point 3/4,-3/8 --prime 2",
    # the oracle at the guardrail: IVstar-p5, I5-split-a2-p3, 37a-x10P-p2-s2
    # and III-p5-nonsingular-point
    "kval --curve 0,0,0,0,-15000 --point 25,25 --prime 5 --n-max 200 --mode direct",
    "kval --curve 1,0,0,0,-243 --point 9,18 --prime 3 --n-max 200 --mode direct",
    "kval --curve 0,0,1,-1,0 --point 161/16,-2065/64 --prime 2 --n-max 200 --mode direct",
    "kval --curve 0,0,0,5,-125 --point 54,-397 --prime 5 --n-max 200 --mode direct",
    # both routes at the guardrail on III-p5-nonsingular-point, where the
    # oracle keeps no exact W_n
    "kval --curve 0,0,0,5,-125 --point 54,-397 --prime 5 --n-max 200 --mode both",
    # 37a translated by r = 1 - 2^29: v(phi_2) = 29 is past the residues
    # modulo 2^29, so the tie is settled by the exact difference
    "kval --curve 0,-1610612733,1,864691125233909762,-154742504045981406980997120"
    " --point 536870911,0 --prime 2 --n-max 40 --mode direct",
    # 37a translated by r = 1: x([2]P) = 0, so phi_2(P) = 0
    "kval --curve 0,3,1,2,0 --point=-1,0 --prime 2 --n-max 40 --mode both",
    # 37a scaled by u = 3: integral at 2 only
    "profile --curve 0,0,1/27,-1/81,0 --point 0,0 --prime 2",
    "kval --curve 0,0,1/27,-1/81,0 --point 0,0 --prime 2 --n-max 40 --mode both",
    # I2-nonsplit-p3 reflected to (0, -3), written with integral fractions
    "kval --curve 0,2/1,0,0,18/2 --point 0/4,-6/2 --prime 3 --n-max 60 --mode both",
    # psi_n / phi_n rebuilt from the table split at p: at the guardrail, at
    # a point of order 6 (psi_6 = 0), on 37a scaled by u = 3 at p = 2 and 3,
    # and at the point [5](0, 0) of 37a, x = 1/4
    "psi --curve 1,0,0,0,-243 --point 9,18 --prime 3 --n-max 200",
    "psi --curve 0,0,0,0,1 --point 2,3 --prime 5 --n-max 12",
    "psi --curve 0,0,1/27,-1/81,0 --point 0,0 --prime 2",
    "psi --curve 0,0,1/27,-1/81,0 --point 0,0 --prime 3",
    "psi --curve 0,0,1,-1,0 --point 1/4,-5/8 --prime 2",
    "verify --corpus {tmp}/scaled-37a.jsonl",
    # exit 2: malformed input
    "profile --curve 0,0,0,0 --prime 5",
    "profile --curve 0,0,0,0,1e300000 --prime 5",  # no exponents
    "profile --prime 5",
    "kval --curve 0,0,0,0,1 --point 1,1 --prime 5 --n-max 3",
    "kval --curve 0,0,1,-1,0 --point 0,0 --prime 2 --n-max 201",
    "psi --curve 0,0,1,-1,0 --point 0,0 --prime 2 --n-max 0",
    "formal-group --curve 0,0,1,-1,0 --prime 2 --m 0",
    "formal-group --curve 0,0,1,-1,0 --prime 2 --order 0",
    "formal-group --curve 0,0,1,-1,0 --prime 2 --order -1",
    "formal-group --curve 0,0,1,-1,0 --prime 2 --order 123",  # above the cap
    "seq --sn 2 1 0 -1 0 2 1",
    "seq --sn 0 1 0 1 0 5 1",
    "verify --corpus does-not-exist.jsonl",
    "verify --corpus {tmp}/bad-kodaira.jsonl",
    "verify --corpus {tmp}/bad-flags.jsonl",
    "verify --corpus {tmp}/bad-cv.jsonl",
    "verify --corpus {tmp}/bad-key.jsonl",
    "verify --corpus {tmp}/empty.jsonl --n-max 0",  # exit 2 before the load
    # exit 3: precondition violations
    "profile --curve 0,0,0,0,1 --prime 6",
    "profile --curve 1,0,0,0,0 --prime 5",
    "kval --curve 0,0,0,0,1 --point 2,3 --prime 5 --n-max 3 --mode formula",
    "kval --curve 0,0,0,0,1 --point 2,3 --prime 5 --n-max 3 --mode direct",
    "kval --curve 1,-1,0,-4,3 --point 3/4,-3/8 --prime 2 --n-max 3 --mode both",
    "verify --corpus {tmp}/torsion.jsonl",
    "psi --curve 0,0,0,0,1 --point 2,3 --prime 4 --n-max 3",
    "psi --curve 0,0,0,-1,0 --point 1,0 --prime 5",  # 2-torsion
    "seq --sn 2 1 0 1 0 4 1",
)


def corpus_commands():
    text = resources.files("gcval").joinpath("data/corpus.jsonl").read_text("utf-8")
    for line in text.splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        entry = json.loads(line)
        curve = ["--curve", ",".join(entry["a"])]
        # one token, so that a negative x is not read as an option
        point = ["--point=" + ",".join(entry["point"])]
        prime = ["--prime", str(entry["prime"])]
        for mode in ("formula", "direct", "both"):
            yield ["kval", *curve, *point, *prime, "--mode", mode]
        yield ["profile", *curve, *prime]
        yield ["profile", *curve, *point, *prime]
        yield ["psi", *curve, *point, *prime]
        yield ["formal-group", *curve, *prime]
        yield ["formal-group", *curve, *prime, "--m", "3", "--order", "12"]
        p = str(entry["prime"])
        yield ["seq", "--sn", p, "1", "0", "1", "1", p, "40"]
        yield ["seq", "--rn", "1", p, "40"]


def commands():
    for n_max in ("1", "3", "24", "25", "40", "60", "100"):
        yield ["verify", "--n-max", n_max]
    yield from corpus_commands()
    for text in OTHER_COMMANDS:
        yield shlex.split(text)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_lines():
    """Yield the digest line of each command, in order: exit code, sha256
    of stdout, sha256 of stderr and the argv with ``{tmp}`` unexpanded.

    argparse wraps its usage lines to the terminal's width, so the commands
    run at 80 columns, the width it takes when stdout is no terminal."""
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, COLUMNS="80"):
        for name, line in CORPORA.items():
            Path(tmp, name).write_text(line + "\n", encoding="utf-8")
        for argv in commands():
            code, out, err = run([arg.format(tmp=tmp) for arg in argv])
            yield f"{code} {sha(out)} {sha(err)} {shlex.join(argv)}"


if __name__ == "__main__":
    for line in digest_lines():
        print(line, flush=True)
