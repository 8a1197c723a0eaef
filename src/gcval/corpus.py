"""Corpus ingestion and the verification harness.

A corpus is a JSON-lines file; each line holds a label, five a-invariant
strings, a point, a prime, and an optional pinned ``expect`` block.  Lines
starting with '#' are comments.  Rationals travel as strings so that
arbitrary-precision values survive round-trips.

``verify_corpus`` runs, per entry, the end-to-end theorem comparison
(closed form vs. division-polynomial oracle) plus the full invariant suite
of the profile/engine layers, and aggregates which table rows the corpus
covers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .curve_core import Point, WeierstrassModel, mul, on_curve
from .divpoly import psi2_squared_x, psi_sequence
from .engine import (
    REQUIRED_ROWS,
    classify_row,
    default_staircase_params,
    k_direct_range,
    k_formula,
    predict_phi_val,
    predict_psi_val,
    row_is_flagged,
    table_decomposition,
)
from .errors import InputError, ToolkitError
from .exact_numbers import INFINITY, is_prime, parse_rational, val, val_to_json
from .formal_group import unit_exponent_scan
from .profile import compute_profile, point_is_singular
from .tate import KodairaType, run_tate


@dataclass(frozen=True)
class CorpusEntry:
    label: str
    a: tuple
    point: tuple
    prime: int
    expect: dict | None = None
    flags: tuple = ()
    line: int = 0

    def model(self) -> WeierstrassModel:
        return WeierstrassModel(*(parse_rational(s) for s in self.a))

    def curve_point(self) -> Point:
        return Point(parse_rational(self.point[0]), parse_rational(self.point[1]))


class CorpusParseError(InputError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _parse_entry(obj, line: int) -> CorpusEntry:
    if not isinstance(obj, dict):
        raise CorpusParseError(line, "entry must be a JSON object")
    try:
        label = str(obj["label"])
        a = obj["a"]
        point = obj["point"]
        prime = obj["prime"]
    except KeyError as exc:
        raise CorpusParseError(line, f"missing field {exc}") from exc
    if not (isinstance(a, list) and len(a) == 5):
        raise CorpusParseError(line, "'a' must be a list of five rational strings")
    if not (isinstance(point, list) and len(point) == 2):
        raise CorpusParseError(line, "'point' must be [x, y]")
    if not isinstance(prime, int) or not is_prime(prime):
        raise CorpusParseError(line, f"'prime' must be a prime integer, got {prime!r}")
    expect = obj.get("expect")
    if expect is not None and not isinstance(expect, dict):
        raise CorpusParseError(line, "'expect' must be an object")
    flags = tuple(obj.get("flags", ()))
    entry = CorpusEntry(label, tuple(str(s) for s in a),
                        (str(point[0]), str(point[1])), prime, expect, flags, line)
    try:
        model = entry.model()
        pt = entry.curve_point()
    except ToolkitError as exc:
        raise CorpusParseError(line, str(exc)) from exc
    if not on_curve(model, pt):
        raise CorpusParseError(line, f"point {pt} is not on curve {model}")
    return entry


def load_corpus(path) -> list[CorpusEntry]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise InputError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}") from exc
    entries = []
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CorpusParseError(lineno, f"bad JSON: {exc}") from exc
        entries.append(_parse_entry(obj, lineno))
    return entries


def entry_to_json(entry: CorpusEntry) -> str:
    obj = {"label": entry.label, "a": list(entry.a),
           "point": list(entry.point), "prime": entry.prime}
    if entry.expect:
        obj["expect"] = entry.expect
    if entry.flags:
        obj["flags"] = list(entry.flags)
    return json.dumps(obj, separators=(", ", ": "))


@dataclass
class EntryReport:
    label: str
    row: str = ""
    flagged: bool = False
    kodaira: str = ""
    cv: int = 0
    n_p: int = 0
    m_p: int = 0
    a_p: int | None = None
    v_delta: int = 0
    n_checked: int = 0
    mismatches: list = field(default_factory=list)
    check_failures: list = field(default_factory=list)
    expect_ok: bool = True
    error: str | None = None

    @property
    def ok(self) -> bool:
        return (self.error is None and not self.mismatches
                and not self.check_failures and self.expect_ok)

    def to_json(self) -> dict:
        out = {
            "label": self.label,
            "row": self.row,
            "flagged": self.flagged,
            "kodaira": self.kodaira,
            "cv": self.cv,
            "nP": self.n_p,
            "mP": self.m_p,
            "aP": self.a_p,
            "vDelta": self.v_delta,
            "nChecked": self.n_checked,
            "mismatches": self.mismatches,
            "checkFailures": self.check_failures,
            "expectOk": self.expect_ok,
            "ok": self.ok,
        }
        if self.error is not None:
            out["error"] = self.error
        return out


#: largest psi index the structural checks read (psi_{m+n} with m, n <= 12)
_STRUCTURAL_INDEX = 24


def _structural_checks(report: EntryReport, tate, prof, p: int, seq):
    """Per-entry identity suite; failures are appended to the report.

    ``seq`` is the oracle's table on the minimal model, built to index 24
    or beyond.  Returns the unit-exponent scan on good reduction (else
    None), so that the staircase parameters need not run it again.
    """
    model = tate.minimal_model
    pt = prof.point

    def fail(name, detail=""):
        report.check_failures.append(f"{name}{': ' + detail if detail else ''}")

    # x([n]P) psi_n^2 = phi_n for n <= 20
    for n in range(1, 21):
        q = mul(model, n, pt)
        if q.is_infinity:
            fail("multiple-infinite", f"[{n}]P = O")
            break
        if q.x * seq.psi_squared(n) != seq.phi(n):
            fail("x-multiple-identity", f"n={n}")
    # elliptic divisibility relation at the point
    for mm in range(2, 13):
        for nn in range(1, mm):
            lhs = seq.psi(mm + nn) * seq.psi(mm - nn)
            rhs = (seq.psi(mm + 1) * seq.psi(mm - 1) * seq.psi(nn) ** 2
                   - seq.psi(nn + 1) * seq.psi(nn - 1) * seq.psi(mm) ** 2)
            if lhs != rhs:
                fail("divisibility-identity", f"(m,n)=({mm},{nn})")

    # reduction-type consistency (run_tate has already checked the I_m and
    # I_m* valuation relations on this result)
    k = tate.kodaira
    rerun = run_tate(model, p)
    if (str(rerun.kodaira) != str(k) or rerun.cv != tate.cv
            or rerun.v_delta != tate.v_delta or not rerun.to_minimal.is_identity()):
        fail("minimality-idempotence")

    # valuation identities on the normalized model
    norm = tate.normalized_model
    npt = prof.point_normalized
    if prof.singular:
        if prof.m_p == 2 and prof.v_phi2 != prof.v_psi3:
            fail("mp2-phi2-psi3")
        if prof.m_p == 3 and tate.reduction == "additive":
            nseq = psi_sequence(norm, npt, 4)
            if val(nseq.phi(3), p) != 3 * val(nseq.psi(2) ** 2, p):
                fail("mp3-phi3-psi2sq")
        if k.series == "I*" and k.m >= 1:
            m = k.m
            vx = val(npt.x, p)
            lo = (m + 3) / 2 if m % 2 else (m + 2) / 2
            if not (vx == 1 or vx >= lo):
                fail("Imstar-trichotomy", f"v(x)={vx}")
            if prof.v_phi2 not in (4, m + 4) or prof.v_phi2 != prof.v_psi3:
                fail("Imstar-phi2-values",
                     f"v(phi2)={prof.v_phi2} v(psi3)={prof.v_psi3}")
        # psi valuations insensitive to the normalizing translations
        if val(psi2_squared_x(model, pt.x), p) != prof.v_psi2_sq:
            fail("psi-valuation-invariance")
        # singularity criterion on the normalized model
        vx, vy = val(npt.x, p), val(npt.y, p)
        if point_is_singular(norm, npt, p) != (vx >= 1 and vy >= 1):
            fail("singular-criterion-normalized")

    # staircase parameter identities
    q = mul(model, prof.n_p, pt)
    if val(q.x, p) >= 0 or val(q.x, p) != -2 * (val(q.x, p) - val(q.y, p)):
        # s_P = v(x/y) = -v(x([n_P]P))/2
        fail("s-identity", f"v(x)={val(q.x, p)} v(y)={val(q.y, p)}")
    if tate.reduction == "good":
        scan = unit_exponent_scan(model, p)
        if scan.b not in (p, p * p):
            fail("good-reduction-b", f"b={scan.b}")
        return scan
    return None


def _prediction_checks(report: EntryReport, tate, prof, rows, scan) -> None:
    """Compare the per-factor predictions with the oracle's valuations.

    ``rows`` are k_direct_range's (n, k, v_phi, v_psi_sq) for n = 1..n_max.
    """
    supported = (not prof.singular) or tate.reduction == "multiplicative"
    if not supported:
        return
    params = default_staircase_params(prof, scan)
    for (n, _k, _vphi, vpsi_sq) in rows:
        want = vpsi_sq if vpsi_sq == INFINITY else vpsi_sq // 2
        got = predict_psi_val(prof, params, n)
        if got != want:
            report.check_failures.append(
                f"psi-prediction: n={n} predicted={got} actual={want}")
    for (n, _k, want, _vpsi_sq) in rows:
        got = predict_phi_val(prof, n)
        if got is None:
            continue
        if got != want:
            report.check_failures.append(
                f"phi-prediction: n={n} predicted={got} actual={want}")


def _check_expect(report: EntryReport, entry: CorpusEntry, tate, prof, row) -> None:
    if not entry.expect:
        return
    diffs = []
    exp = entry.expect
    if "kodaira" in exp:
        want = str(KodairaType.parse(exp["kodaira"]))
        if want != str(tate.kodaira):
            diffs.append(f"kodaira {tate.kodaira} != {want}")
    if "cv" in exp and exp["cv"] != tate.cv:
        diffs.append(f"cv {tate.cv} != {exp['cv']}")
    if "mP" in exp and exp["mP"] != prof.m_p:
        diffs.append(f"mP {prof.m_p} != {exp['mP']}")
    if "row" in exp and exp["row"] != row:
        diffs.append(f"row {row} != {exp['row']}")
    if diffs:
        report.expect_ok = False
        report.check_failures.extend("expect: " + d for d in diffs)


def verify_entry(entry: CorpusEntry, n_max: int = 40) -> EntryReport:
    report = EntryReport(label=entry.label)
    try:
        model = entry.model()
        pt = entry.curve_point()
        tate = run_tate(model, entry.prime)
        prof = compute_profile(tate, pt)
        row = classify_row(prof)
        report.row = row
        report.flagged = row_is_flagged(row)
        report.kodaira = str(tate.kodaira)
        report.cv = tate.cv
        report.n_p = prof.n_p
        report.m_p = prof.m_p
        report.a_p = prof.a_p
        report.v_delta = tate.v_delta
        report.n_checked = n_max

        # one oracle table serves k_direct_range and the structural checks
        seq = psi_sequence(tate.minimal_model, prof.point,
                           max(n_max, _STRUCTURAL_INDEX))
        rows = k_direct_range(tate.minimal_model, prof.point, entry.prime,
                              n_max, seq=seq)
        for (n, k, _vphi, _vpsi) in rows:
            kf = k_formula(prof, n)
            if kf != k:
                report.mismatches.append(
                    {"n": n, "kFormula": kf, "kDirect": val_to_json(k)})
        if prof.singular:
            table_decomposition(prof)  # raises InternalError on inconsistency
        scan = _structural_checks(report, tate, prof, entry.prime, seq)
        _prediction_checks(report, tate, prof, rows, scan)
        _check_expect(report, entry, tate, prof, row)
    except ToolkitError as exc:
        report.error = f"{type(exc).__name__}: {exc}"
    return report


@dataclass
class VerificationReport:
    entries: list
    covered: list
    uncovered: list
    extra: list
    n_max: int

    @property
    def exit_code(self) -> int:
        return 0 if all(e.ok for e in self.entries) else 1

    def to_json(self) -> dict:
        return {
            "nMax": self.n_max,
            "entries": [e.to_json() for e in self.entries],
            "coverage": {
                "covered": self.covered,
                "uncovered": self.uncovered,
                "extra": self.extra,
            },
            "summary": {
                "entries": len(self.entries),
                "failures": sum(0 if e.ok else 1 for e in self.entries),
                "exitCode": self.exit_code,
            },
        }


def verify_corpus(entries, n_max: int = 40) -> VerificationReport:
    """Verify every entry; aggregation is deterministic in file order."""
    reports = [verify_entry(e, n_max) for e in entries]
    seen = {r.row for r in reports if r.row}
    covered = [row for row in REQUIRED_ROWS if row in seen]
    uncovered = [row for row in REQUIRED_ROWS if row not in seen]
    extra = sorted(seen - set(REQUIRED_ROWS))
    return VerificationReport(reports, covered, uncovered, extra, n_max)
