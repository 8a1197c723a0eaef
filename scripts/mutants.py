#!/usr/bin/env python3
"""Run Tier-1 against a fixed list of one-line edits of ``src/gcval``.

Each edit (a mutant) replaces one line of the closed form, the r_n
sequence, the oracle's tie rule or the slope/epsilon modulus with a line
that is wrong only somewhere: off by one past some n, at one n, or with a
modulus that is not the row's.  A test suite that checks the closed form at
every n the command line accepts fails on each of them.

The script copies the checkout (``src/``, ``tests/``, ``scripts/``,
``perfbench/`` and ``pyproject.toml``) to a temporary directory, runs Tier-1
there once unmutated, and then once per edit with that edit applied.  It
prints ``killed``, ``survived`` or ``absent`` (the edited text does not
occur exactly once in this tree) per edit, and exits 0 only when every edit was applied and
killed.  It adds no test and is not part of Tier-1.  Tier-1 runs with -x,
so a killed edit stops at its first failing test; one run of the script
took under a minute on a 2-vCPU VM with every edit killed, and each
surviving edit adds a full Tier-1 run.

Run from the repository root:  python scripts/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "scripts", "perfbench", "pyproject.toml")
TIER1 = (sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors")

_ENGINE = "src/gcval/engine.py"
_NONSING = "return n * n * int(profile.v_x)"
_MULT = ('if t.reduction == "multiplicative":\n'
         '        return 2 * r_n(profile.a_p, t.v_delta, n)')
_CV3 = "return _exact_int(v * n * n, 3)"
_CV4_N2 = "return _exact_int(v * n * n, 4) - 1"

#: (name, file, text that must occur once, its replacement); each
#: replacement changes one line
EDITS = (
    ("k_formula v(x) < 0, +1 past n = 60", _ENGINE, _NONSING, _NONSING + " + (n > 60)"),
    ("k_formula v(x) < 0, +1 past n = 100", _ENGINE, _NONSING, _NONSING + " + (n > 100)"),
    ("k_formula v(x) < 0, +1 past n = 120", _ENGINE, _NONSING, _NONSING + " + (n > 120)"),
    ("k_formula v(x) < 0, +1 past n = 150", _ENGINE, _NONSING, _NONSING + " + (n > 150)"),
    ("k_formula multiplicative, +1 past n = 60", _ENGINE, _MULT, _MULT + " + (n > 60)"),
    ("k_formula multiplicative, +1 past n = 120", _ENGINE, _MULT, _MULT + " + (n > 120)"),
    ("k_formula multiplicative, +1 at n = 173", _ENGINE, _MULT, _MULT + " + (n == 173)"),
    ("k_formula c_v = 3, +1 past n = 60", _ENGINE, _CV3, _CV3 + " + (n > 60)"),
    ("k_formula c_v = 3, +1 past n = 120", _ENGINE, _CV3, _CV3 + " + (n > 120)"),
    ("k_formula c_v = 4, n = 2 mod 4, +1 past n = 60", _ENGINE, _CV4_N2,
     _CV4_N2 + " + (n > 60)"),
    ("r_n, +1 past n = 60", "src/gcval/sequences.py", "    return q\n",
     "    return q + (n > 60)\n"),
    ("tie exponent, +1 when k > 10^4", "src/gcval/divpoly.py",
     "return k + p_split(d, p)[0]", "return k + p_split(d, p)[0] + (k > 10 ** 4)"),
    ("table_decomposition, modulus 2 for c_v = 4 with [2]P singular", _ENGINE,
     "        modulus = 4\n", "        modulus = 2\n"),
)


def tier1_passes(tree: Path) -> bool:
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(TIER1, cwd=tree, env=env,
                         stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return run.returncode == 0


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, tree / name, ignore=shutil.ignore_patterns(
                    "__pycache__", "*.egg-info", ".perfbench"))
            else:
                shutil.copy2(src, tree / name)
        if not tier1_passes(tree):
            print("Tier-1 fails on the unmutated copy; no edit can be judged")
            return 2
        bad = 0
        for name, rel, old, new in EDITS:
            path = tree / rel
            text = path.read_text(encoding="utf-8")
            if text.count(old) != 1:
                verdict = "absent"
            else:
                path.write_text(text.replace(old, new), encoding="utf-8")
                try:
                    verdict = "survived" if tier1_passes(tree) else "killed"
                finally:
                    path.write_text(text, encoding="utf-8")
            bad += verdict != "killed"
            print(f"{verdict:8} {name}", flush=True)
        print(f"{len(EDITS) - bad} of {len(EDITS)} edits killed")
        return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
