#!/usr/bin/env python3
"""Run Tier-1 against a fixed list of one-line edits of ``src/gcval``.

Each edit (a mutant) replaces one line of the closed form, the r_n
sequence, the oracle's tie rule or the slope/epsilon modulus with a line
that is wrong only somewhere: off by one past some n, at one n, or with a
modulus that is not the row's.  A test suite that checks the closed form at
every n the command line accepts fails on each of them.  Further edits
change one decision of ``profile.compute_profile`` (n_P, a_P, [2]P's
singularity, the walk's end at p = 2) or of ``tate.run_tate`` (split, c_v
of non-split I_m, IV, I0*, IV*, III* and I_m*, the step-6 cubic's triple
root), which the closed form reads; two edit ``curve_core``: the walk's
torsion check at [6]P = O, and the tangent step's test for a 2-torsion
point; one makes ``corpus.EntryReport.exit_code`` report a crashed
entry with a mismatch as a mismatch (exit 1, not 4); one drops a term of
``divpoly.psi2_squared_x``, which the c_v = 3 closed form reads; six
weaken one of verify's own checks: ``mp2-phi2-psi3``,
``Imstar-trichotomy``, ``minimality-idempotence``, ``good-reduction-b``,
``psi-prediction`` past n = 29, and the ``row`` pin; and five drop one
kept ``InternalError`` guard each, in ``tate``, ``profile``, ``engine``,
``formal_group`` and ``divpoly``, which its trigger in
``tests/test_internal_guards.py`` catches.

The script copies the checkout (``src/``, ``tests/``, ``scripts/``,
``perfbench/`` and ``pyproject.toml``) to a temporary directory, runs Tier-1
there once unmutated, and then once per edit with that edit applied.  It
prints ``killed``, ``survived`` or ``absent`` (the edited text does not
occur exactly once in this tree) per edit, and exits 0 only when every edit was applied and
killed.  It adds no test and is not part of Tier-1.  Tier-1 runs with -x,
so a killed edit stops at its first failing test; one run of the script
took 455 s on a 2-vCPU VM with all 41 edits killed.  Each surviving edit
adds a full Tier-1 run, and so nearly does each dropped guard, as
``tests/test_internal_guards.py`` runs late in Tier-1.

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
_CV3 = "return int(profile.v_psi2_sq) * (n * n // 3)"
_CV4_N2 = "return k - 1"
_PROFILE = "src/gcval/profile.py"
_TATE = "src/gcval/tate.py"
_CORE = "src/gcval/curve_core.py"
_CORPUS = "src/gcval/corpus.py"
_ISTAR_RETURN = 'return KodairaType("I*", n), 4 if roots else 2, None, st\n'
_ISTAR_ODD = _ISTAR_RETURN + "            (root,) = roots\n            if root:\n" \
    "                st.translate(t="
_ISTAR_EVEN = _ISTAR_RETURN + "            (root,) = roots\n            if root:\n" \
    "                st.translate(r="

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
    ("r_n, +1 past n = 60", "src/gcval/sequences.py", "    return num // (2 * modulus)\n",
     "    return num // (2 * modulus) + (n > 60)\n"),
    ("tie exponent, +1 when k > 10^4", "src/gcval/divpoly.py",
     "return k + p_split(d, p)[0]", "return k + p_split(d, p)[0] + (k > 10 ** 4)"),
    ("table_decomposition, modulus 2 for c_v = 4 with [2]P singular", _ENGINE,
     "        modulus = 4\n", "        modulus = 2\n"),
    ("compute_profile two_p_singular, >= for >", _PROFILE,
     "two_p_singular = m_p > 2", "two_p_singular = m_p >= 2"),
    ("compute_profile split a_P, max for min", _PROFILE,
     "a_p = min(vpsi2, m // 2)", "a_p = max(vpsi2, m // 2)"),
    ("compute_profile n_P, first v(x) <= 0 for < 0", _PROFILE,
     "if v_walk[-1] < 0:", "if v_walk[-1] <= 0:"),
    ("compute_profile walk end at p = 2, [n_P]P for [2 n_P]P", _PROFILE,
     "2 * n_p if p == 2 else n_p", "n_p if p == 2 else n_p"),
    # not ">= 1": at a node the tangent quadratic's discriminant b2 is a unit,
    # so it has 0 or 2 roots in F_p, and that edit changes nothing
    ("run_tate split I_m, != 2 tangent roots for == 2", _TATE,
     "split = len(tangent_roots) == 2", "split = len(tangent_roots) != 2"),
    ("run_tate non-split I_m, c_v 2 and 1 swapped", _TATE,
     "(2 if mm % 2 == 0 else 1)", "(1 if mm % 2 == 0 else 2)"),
    ("run_tate I0*, c_v 2 + info for 1 + info", _TATE,
     "KodairaType(\"I*\", 0), 1 + info", "KodairaType(\"I*\", 0), 2 + info"),
    ("run_tate IV*, c_v 3 and 1 swapped", _TATE,
     "KodairaType(\"IV*\"), 3 if roots else 1", "KodairaType(\"IV*\"), 1 if roots else 3"),
    ("run_tate III*, c_v 1 for 2", _TATE,
     "KodairaType(\"III*\"), 2", "KodairaType(\"III*\"), 1"),
    ("run_tate IV, c_v 3 and 1 swapped", _TATE,
     "KodairaType(\"IV\"), 3 if len(y_roots) == 2 else 1",
     "KodairaType(\"IV\"), 1 if len(y_roots) == 2 else 3"),
    ("run_tate I_m* odd step, c_v 4 and 2 swapped", _TATE, _ISTAR_ODD,
     _ISTAR_ODD.replace("4 if roots else 2", "2 if roots else 4")),
    ("run_tate I_m* even step, c_v 4 and 2 swapped", _TATE, _ISTAR_EVEN,
     _ISTAR_EVEN.replace("4 if roots else 2", "2 if roots else 4")),
    ("run_tate step 6, triple-root test negated", _TATE,
     "\"triple\" if (A + 3 * alpha) % p == 0", "\"triple\" if (A + 3 * alpha) % p != 0"),
    ("multiples, no raise at [6]P = O", _CORE,
     "        if acc is None:\n", "        if acc is None and n != 6:\n"),
    ("group law tangent step, 2-torsion test dropped", _CORE,
     "if y1 != y2 or d == 0:", "if y1 != y2:"),
    ("EntryReport.exit_code, 1 first for a mismatch", _CORPUS,
     "return max(EXIT_MISMATCH if failed else EXIT_OK, self.error_code)",
     "return EXIT_MISMATCH if self.mismatches else "
     "max(EXIT_MISMATCH if failed else EXIT_OK, self.error_code)"),
    ("psi2_squared_x, b2 term dropped", "src/gcval/divpoly.py",
     "return 4 * x ** 3 + model.b2 * x * x + 2 * model.b4 * x + model.b6",
     "return 4 * x ** 3 + 2 * model.b4 * x + model.b6"),
    ("mp2-phi2-psi3, < for !=", _CORPUS,
     "prof.m_p == 2 and prof.v_phi2 != prof.v_psi3", "prof.m_p == 2 and prof.v_phi2 < prof.v_psi3"),
    ("Imstar-trichotomy dropped", _CORPUS, "if not (vx == 1 or vx >= lo):", "if False:"),
    ("minimality-idempotence, v(Delta) ignored", _CORPUS,
     "or rerun.v_delta != tate.v_delta or not", "or not"),
    ("good-reduction-b, b = 1 admitted", _CORPUS,
     "params.b not in (p, p * p)", "params.b not in (1, p, p * p)"),
    ("psi-prediction, compared for n < 30 only", _CORPUS,
     "for (n, _k, _vphi, vpsi_sq) in rows:", "for (n, _k, _vphi, vpsi_sq) in rows[:29]:"),
    ("expect, row pin ignored", _CORPUS,
     "for key in _EXPECT_KEYS:", "for key in _EXPECT_KEYS[:3]:"),
    ("run_tate I_m v(c4) guard dropped", _TATE,
     "k.m > 0 and res.v_c4 != 0:", "k.m > 0 and False:"),
    ("compute_profile a_P = 0 guard dropped", _PROFILE, "if a_p < 1:", "if False:"),
    ("table_decomposition epsilon guard dropped", _ENGINE,
     "if pred.epsilon_at(n) != 0:", "if False:"),
    ("staircase_params w >= 0 guard dropped", "src/gcval/formal_group.py",
     "if w < 0:", "if False:"),
    ("division_table W_2 division guard dropped", "src/gcval/divpoly.py",
     "            if r:\n                raise InternalError(f\"W_2",
     "            if False:\n                raise InternalError(f\"W_2"),
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
