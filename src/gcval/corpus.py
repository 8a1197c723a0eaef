"""Corpus ingestion and the verification harness.

A corpus is a JSON-lines file; each line holds a label, five a-invariant
strings, a point, a prime, and an optional pinned ``expect`` block.  Lines
starting with '#' are comments.  Rationals travel as strings so that
arbitrary-precision values survive round-trips.

``verify_corpus`` runs, per entry, the end-to-end theorem comparison
(closed form vs. division-polynomial oracle), the structural checks, the
per-factor predictions and the ``expect`` pins, and aggregates which table
rows the corpus covers.  Each check can fail: a test perturbs the one
value it reads and asserts its failure string.  ``nChecked`` counts the n
compared, so it is 0 for an entry that raised before the comparison ended.
Each entry's model is integralized at p, as the command line does, and one
division table, built to index max(n_max, 24) on the minimal model and
keeping the exact W_n to index 24, feeds both the oracle and the
division-polynomial identities; those read the profile's walk to [20]P as
it is.  The staircase parameters of a point that is non-singular or on
multiplicative reduction are derived once, in the structural stage, and
feed both the ``good-reduction-b`` check and the per-factor predictions.
An entry that raises is reported with the stage it was in.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .curve_core import WALK_POINTS, Point, WeierstrassModel, integralize_point_at, on_curve
from .divpoly import division_table
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
from .errors import EXIT_MISMATCH, EXIT_OK, InputError, ToolkitError, exit_code
from .exact_numbers import INFINITY, is_prime, parse_rational, val, val_to_json
from .profile import compute_profile, point_is_singular
from .tate import KodairaType, run_tate


@dataclass(frozen=True)
class CorpusEntry:
    """One corpus line.  The constructor parses the model and the point
    once, into ``model`` and ``curve_point``, and checks that the point is
    on the curve."""

    label: str
    a: tuple
    point: tuple
    prime: int
    expect: dict | None = None
    flags: tuple = ()
    model: WeierstrassModel = field(init=False, compare=False, repr=False)
    curve_point: Point = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        model = WeierstrassModel(*(parse_rational(s) for s in self.a))
        pt = Point(parse_rational(self.point[0]), parse_rational(self.point[1]))
        if not on_curve(model, pt):
            raise InputError(f"point {pt} is not on curve {model}")
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "curve_point", pt)


class CorpusParseError(InputError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


#: the pins _check_expect compares; any other key is a typo that would
#: otherwise never be checked
_EXPECT_KEYS = ("kodaira", "cv", "mP", "row")


def _check_expect_block(expect, line: int) -> None:
    """The pinned values must have the types _check_expect compares them as,
    so that a malformed pin reads as bad input, not as a failed check."""
    if not isinstance(expect, dict):
        raise CorpusParseError(line, "'expect' must be an object")
    unknown = sorted(set(expect) - set(_EXPECT_KEYS))
    if unknown:
        raise CorpusParseError(
            line, f"unknown expect key(s) {unknown}; known: {list(_EXPECT_KEYS)}")
    for key in ("cv", "mP"):
        value = expect.get(key, 0)
        if not isinstance(value, int) or isinstance(value, bool):
            raise CorpusParseError(line, f"expect.{key} must be an integer, got {value!r}")
    if not isinstance(expect.get("row", ""), str):
        raise CorpusParseError(line, f"expect.row must be a string, got {expect['row']!r}")
    try:
        KodairaType.parse(expect.get("kodaira", "I0"))
    except InputError as exc:
        raise CorpusParseError(line, f"expect.kodaira: {exc}") from exc


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
    if expect is not None:
        _check_expect_block(expect, line)
    flags = obj.get("flags", [])
    if not (isinstance(flags, list) and all(isinstance(f, str) for f in flags)):
        raise CorpusParseError(line, f"'flags' must be a list of strings, got {flags!r}")
    try:
        return CorpusEntry(label, tuple(str(s) for s in a),
                           (str(point[0]), str(point[1])), prime, expect,
                           tuple(flags))
    except ToolkitError as exc:
        raise CorpusParseError(line, str(exc)) from exc


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
    error_code: int = EXIT_OK  # the exit code of the exception in ``error``
    #: the verify_entry stage that raised it: tate, profile, oracle,
    #: formula, structural, predictions or expect
    error_stage: str | None = None

    @property
    def exit_code(self) -> int:
        failed = self.mismatches or self.check_failures or not self.expect_ok
        return max(EXIT_MISMATCH if failed else EXIT_OK, self.error_code)

    @property
    def ok(self) -> bool:
        return self.exit_code == EXIT_OK

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
            out["errorStage"] = self.error_stage
        return out


#: largest psi index the structural checks read (psi_{m+n} with m, n <= 12)
_STRUCTURAL_INDEX = 24


def _structural_checks(report: EntryReport, prof, table, params) -> None:
    """Per-entry identity suite; failures are appended to the report.

    The identities on the table and Tate rerun on the minimal model, for
    every entry; the m_P, I_m* and singularity identities, for a singular
    point; b in {p, p^2}, on good reduction.  staircase_params itself
    raises unless s_P >= 1.

    ``table`` is the division table at the profile's point on the minimal
    model, built to index 24 or more and keeping W_n to 24; ``params`` are
    the staircase parameters of a point that is non-singular (every point
    on good reduction is one) or on multiplicative reduction, else None.
    """
    tate = prof.tate
    model, p = tate.minimal_model, table.p

    def fail(name, detail=""):
        report.check_failures.append(f"{name}{': ' + detail if detail else ''}")

    # the table's integers W_n = c^(n^2-1) psi_n and Phi_n = c^(2n^2) phi_n
    w = [table.scaled_psi(n) for n in range(_STRUCTURAL_INDEX + 1)]
    # x([n]P) psi_n^2 = phi_n, as num(x_n) (c W_n)^2 = Phi_n den(x_n) on the
    # integers, x_n = x([n]P), for n <= 20, on the affine points the
    # profile's walk kept (it raises TorsionPointError at an [n]P = O)
    for n, q in enumerate(prof.walk, start=1):
        if q.x.numerator * (table.c * w[n]) ** 2 != table.scaled_phi(n) * q.x.denominator:
            fail("x-multiple-identity", f"n={n}")
    # elliptic divisibility relation at the point, on the integers W_n:
    # both sides have weight 2m^2 + 2n^2 - 2 in c
    for mm in range(2, 13):
        for nn in range(1, mm):
            lhs = w[mm + nn] * w[mm - nn]
            rhs = (w[mm + 1] * w[mm - 1] * w[nn] ** 2
                   - w[nn + 1] * w[nn - 1] * w[mm] ** 2)
            if lhs != rhs:
                fail("divisibility-identity", f"(m,n)=({mm},{nn})")

    # reduction-type consistency (run_tate has already checked the I_m and
    # I_m* valuation relations on this result)
    k = tate.kodaira
    rerun = run_tate(model, p)
    if (str(rerun.kodaira) != str(k) or rerun.cv != tate.cv
            or rerun.v_delta != tate.v_delta or not rerun.to_minimal.is_identity()):
        fail("minimality-idempotence")

    # valuation identities on the normalized model, x = x' + r from the
    # minimal one: psi_n is unchanged and phi_n becomes phi_n - r psi_n^2
    norm = tate.normalized_model
    npt = prof.point_normalized
    if prof.singular:
        if prof.m_p == 2 and prof.v_phi2 != prof.v_psi3:
            fail("mp2-phi2-psi3")
        if prof.m_p == 3 and tate.reduction == "additive":
            # v(phi_3) = 3 v(psi_2^2), as v(Phi_3 - r c^2 W_3^2) = 6 v(W_2)
            r, c = tate.to_normalized.r, table.c
            phi3 = table.scaled_phi(3) - r * (c * table.scaled_psi(3)) ** 2
            if val(phi3, p) != 6 * val(table.scaled_psi(2), p):
                fail("mp3-phi3-psi2sq")
        if k.series == "I*" and k.m >= 1:
            m = k.m
            vx = val(npt.x, p)
            lo = (m + 3) // 2 if m % 2 else (m + 2) // 2
            if not (vx == 1 or vx >= lo):
                fail("Imstar-trichotomy", f"v(x)={vx}")
            if prof.v_phi2 not in (4, m + 4) or prof.v_phi2 != prof.v_psi3:
                fail("Imstar-phi2-values",
                     f"v(phi2)={prof.v_phi2} v(psi3)={prof.v_psi3}")
        # singularity criterion on the normalized model
        vx, vy = val(npt.x, p), val(npt.y, p)
        if point_is_singular(norm, npt, p) != (vx >= 1 and vy >= 1):
            fail("singular-criterion-normalized")

    # on good reduction [p]T has its first unit coefficient at T^p
    # (ordinary) or T^(p^2) (supersingular)
    if tate.reduction == "good" and params.b not in (p, p * p):
        fail("good-reduction-b", f"b={params.b}")


def _prediction_checks(report: EntryReport, prof, rows, params) -> None:
    """Compare the per-factor predictions with the oracle's valuations.

    ``rows`` are k_direct_range's (n, k, v_phi, v_psi_sq) for n = 1..n_max;
    ``params`` are the staircase parameters, None where no prediction is
    made (a singular point on additive reduction).
    """
    if params is None:
        return
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


def _check_expect(report: EntryReport, entry: CorpusEntry, prof, row) -> None:
    if not entry.expect:
        return
    got = {"kodaira": prof.tate.kodaira, "cv": prof.tate.cv, "mP": prof.m_p, "row": row}
    diffs = []
    for key in _EXPECT_KEYS:
        if key in entry.expect:
            want = entry.expect[key]
            if key == "kodaira":
                want = KodairaType.parse(want)
            if want != got[key]:
                diffs.append(f"{key} {got[key]} != {want}")
    if diffs:
        report.expect_ok = False
        report.check_failures.extend("expect: " + d for d in diffs)


def verify_entry(entry: CorpusEntry, n_max: int) -> EntryReport:
    report = EntryReport(label=entry.label)
    stage = "tate"
    try:
        # the entry's point was checked on its model when it was parsed
        model, pt = integralize_point_at(entry.model, entry.curve_point, entry.prime)
        tate = run_tate(model, entry.prime)
        stage = "profile"
        prof = compute_profile(tate, pt, keep=WALK_POINTS)
        row = classify_row(prof)
        report.row = row
        report.flagged = row_is_flagged(row)
        report.kodaira = str(tate.kodaira)
        report.cv = tate.cv
        report.n_p = prof.n_p
        report.m_p = prof.m_p
        report.a_p = prof.a_p
        report.v_delta = tate.v_delta

        stage = "oracle"
        table = division_table(tate.minimal_model, prof.point, entry.prime,
                               max(n_max, _STRUCTURAL_INDEX), keep=_STRUCTURAL_INDEX)
        rows = k_direct_range(table, n_max)
        stage = "formula"
        for (n, k, _vphi, _vpsi) in rows:
            kf = k_formula(prof, n)
            if kf != k:
                report.mismatches.append(
                    {"n": n, "kFormula": kf, "kDirect": val_to_json(k)})
        report.n_checked = len(rows)
        if prof.singular:
            # raises InternalError unless epsilon vanishes at the multiples
            # of the walk's m_P, which compares m_P with Tate's modulus
            table_decomposition(prof)
        stage = "structural"
        params = default_staircase_params(prof)
        _structural_checks(report, prof, table, params)
        stage = "predictions"
        _prediction_checks(report, prof, rows, params)
        stage = "expect"
        _check_expect(report, entry, prof, row)
    except Exception as exc:  # reported with its exit code, as cli.main would
        report.error = f"{type(exc).__name__}: {exc}"
        report.error_code = exit_code(exc)
        report.error_stage = stage
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
        """The largest entry code: 1 for a failed comparison or check, 2-4
        for an entry that raised, as ``errors.exit_code`` maps it."""
        return max((e.exit_code for e in self.entries), default=EXIT_OK)

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


def verify_corpus(entries, n_max: int) -> VerificationReport:
    """Verify every entry; aggregation is deterministic in file order."""
    reports = [verify_entry(e, n_max) for e in entries]
    seen = {r.row for r in reports if r.row}
    covered = [row for row in REQUIRED_ROWS if row in seen]
    uncovered = [row for row in REQUIRED_ROWS if row not in seen]
    extra = sorted(seen - set(REQUIRED_ROWS))
    return VerificationReport(reports, covered, uncovered, extra, n_max)
