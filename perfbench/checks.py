"""Output checks, one per op kind.

Each checker takes an op, the command's exit code and its standard output,
and returns a list of faults (empty when the output is right).  Reference
values come from ``arith``, which does not use gcval, or from properties the
method must have; no checker compares against a saved copy of earlier
output.
"""

from __future__ import annotations

import json
import re

import arith
from workloads import VERIFY_N_MAX

#: the twelve theorem rows every run of verify-corpus must cover
REQUIRED_ROWS = (
    "nonsingular-vx-neg", "nonsingular-vx-nonneg", "III", "IV", "III*", "IV*",
    "Im*-c2", "Im*-modd-c4-2P-nonsingular", "Im*-modd-c4-2P-singular",
    "I2m*-c4", "Im-split", "Im-nonsplit",
)


def _json_lines(out: str) -> list:
    return [json.loads(line) for line in out.splitlines()]


def _type_faults(a, p, kodaira, cv, split=None) -> list:
    """Kodaira symbol and c_v against the invariant classification (p >= 5)
    and against what the symbol allows (any p)."""
    faults = []
    if not arith.cv_fits_type(kodaira, cv, split):
        faults.append(f"c_v {cv} does not fit {kodaira} (split={split})")
    if p >= 5:
        want_k, want_cv = arith.classify(a, p)
        if kodaira != want_k:
            faults.append(f"kodaira {kodaira}, invariants give {want_k}")
        if want_cv is not None and cv != want_cv:
            faults.append(f"c_v {cv}, invariants give {want_cv}")
    return faults


def _row_fits(row: str, kodaira: str) -> bool:
    """Whether the theorem row the report names can occur on the symbol."""
    if row in ("III", "IV", "III*", "IV*"):
        return kodaira == row
    if row in ("nonsingular-vx-neg", "nonsingular-vx-nonneg"):
        return True
    if row.startswith("I0*-"):
        return kodaira == "I0*"
    m = re.fullmatch(r"I([1-9][0-9]*)(\*?)", kodaira)
    if m is None:
        return False
    index, star = int(m.group(1)), m.group(2)
    if row.startswith("Im-"):
        return not star
    if row == "I2m*-c4":
        return bool(star) and index % 2 == 0
    if row.startswith("Im*-modd"):
        return bool(star) and index % 2 == 1
    return row == "Im*-c2" and bool(star)


def check_verify(op, rc: int, out: str) -> list:
    if rc != 0:
        return [f"exit code {rc}"]
    report = json.loads(out)
    entries = report["entries"]
    if report["nMax"] != VERIFY_N_MAX or len(entries) != 1:
        return [f"nMax {report['nMax']}, {len(entries)} entries"]
    e = entries[0]
    faults = []
    if e["label"] != op.label or not e["ok"] or not e["expectOk"]:
        faults.append(f"entry {e['label']} ok={e['ok']} expectOk={e['expectOk']}")
    if e["nChecked"] != VERIFY_N_MAX or e["mismatches"] or e["checkFailures"] or "error" in e:
        faults.append(f"nChecked={e['nChecked']} mismatches={e['mismatches'][:2]} "
                      f"failures={e['checkFailures'][:2]} error={e.get('error')}")
    if report["summary"] != {"entries": 1, "failures": 0, "exitCode": 0}:
        faults.append(f"summary {report['summary']}")
    if not _row_fits(e["row"], e["kodaira"]):
        faults.append(f"row {e['row']} cannot occur on {e['kodaira']}")
    split = {"Im-split": True, "Im-nonsplit": False}.get(e["row"])
    faults += _type_faults(op.info["a"], op.info["prime"], e["kodaira"], e["cv"], split)
    return faults


def verify_rows(out: str) -> set:
    """The theorem row a verify op covered."""
    return {e["row"] for e in json.loads(out)["entries"]}


def reference_kval(op) -> tuple:
    """(v(psi_N^2), v(phi_N)) at the op's largest n, computed here."""
    info = op.info
    v_psi, v_phi = arith.psi_phi_vals(info["a"], info["point"], info["prime"], info["n"])
    return (None if v_psi is None else 2 * v_psi), v_phi


def check_kval(op, rc: int, out: str, reference) -> list:
    """kFormula == kDirect at every n (the theorem), and at the largest n
    both valuations equal the ones computed here."""
    if rc != 0:
        return [f"exit code {rc}"]
    lines = _json_lines(out)
    n_max = op.info["n"]
    if [line["n"] for line in lines] != list(range(1, n_max + 1)):
        return ["lines do not run n = 1..n_max"]
    faults = [f"n={line['n']}: kFormula {line['kFormula']} kDirect {line['kDirect']}"
              for line in lines
              if line["kFormula"] != line["kDirect"] or line["match"] is not True]
    v_psi_sq, v_phi = reference
    last = lines[-1]
    if last["vPsiSq"] != ("inf" if v_psi_sq is None else v_psi_sq):
        faults.append(f"n={n_max}: vPsiSq {last['vPsiSq']}, recurrence gives {v_psi_sq}")
    if last["vPhi"] != ("inf" if v_phi is None else v_phi):
        faults.append(f"n={n_max}: vPhi {last['vPhi']}, recurrence gives {v_phi}")
    finite = [v for v in (last["vPhi"], last["vPsiSq"]) if v != "inf"]
    if last["kDirect"] != (min(finite) if finite else "inf"):
        faults.append(f"n={n_max}: kDirect is not the min of the two valuations")
    return faults[:5]


def check(op, rc: int, out: str, reference=None) -> list:
    """Faults of one op's output; an exception while checking is a fault."""
    try:
        if op.kind == "kval":
            return check_kval(op, rc, out, reference)
        return check_verify(op, rc, out)
    except (ValueError, KeyError, TypeError, IndexError, ArithmeticError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
