"""Tate's algorithm over Q_p: Kodaira type, local index c_v, minimal model.

The classical step structure is followed directly on the five-coefficient
form.  Every residue computation (singular point location, root finding,
splitting tests) is an explicit search over F_p, which keeps p = 2 and
p = 3 on the same code path as everything else; intended primes are small.

Two models are reported:

* ``minimal_model``   -- the p-minimal model reached from the input by a
  change whose u is a power of p (trivial when the input is minimal);
* ``normalized_model`` -- the exact model held when the algorithm decided
  the type, reached from the minimal model by translations only (u = 1).
  Division-polynomial valuations are insensitive to such changes, and the
  per-type coefficient valuations that the downstream formulas assume on
  this model.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .curve_core import CoordinateChange, WeierstrassModel, apply_change
from .errors import InputError, InternalError, NonIntegralError
from .exact_numbers import Valuation, check_prime, residue, val

_KODAIRA_FIXED = ("II", "III", "IV", "II*", "III*", "IV*")


@dataclass(frozen=True)
class KodairaType:
    series: str  # "I", "I*", "II", "III", "IV", "II*", "III*", "IV*"
    m: int = 0   # index for the I / I* series; 0 otherwise

    def __post_init__(self):
        if self.series in _KODAIRA_FIXED:
            if self.m:
                raise InputError(f"{self.series} takes no index")
        elif self.series not in ("I", "I*"):
            raise InputError(f"unknown Kodaira series {self.series!r}")
        elif self.m < 0:
            raise InputError("Kodaira index must be >= 0")

    def __str__(self):
        if self.series == "I":
            return f"I{self.m}"
        if self.series == "I*":
            return f"I{self.m}*"
        return self.series

    @classmethod
    def parse(cls, text: str) -> "KodairaType":
        if not isinstance(text, str):
            raise InputError(f"cannot parse Kodaira symbol {text!r}")
        text = text.strip()
        if text in _KODAIRA_FIXED:
            return cls(text)
        m = re.fullmatch(r"I(\d+)(\*?)", text)
        if not m:
            raise InputError(f"cannot parse Kodaira symbol {text!r}")
        return cls("I*" if m.group(2) else "I", int(m.group(1)))


@dataclass(frozen=True)
class TateResult:
    p: int
    minimal_model: WeierstrassModel
    normalized_model: WeierstrassModel
    to_minimal: CoordinateChange      # input -> minimal; u a power of p
    to_normalized: CoordinateChange   # minimal -> normalized; u = 1
    kodaira: KodairaType
    cv: int
    v_delta: int
    v_c4: Valuation
    v_j: Valuation
    reduction: str                    # "good" | "multiplicative" | "additive"
    split: bool | None                # defined for multiplicative reduction only


def _poly_value(coeffs, x, p):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def _roots_mod_p(coeffs, p):
    """Roots in F_p of a polynomial given by low-to-high coefficients."""
    return [x for x in range(p) if _poly_value(coeffs, x, p) == 0]


def _y_roots(model: WeierstrassModel, p: int, k: int):
    """Roots in F_p of the Y-quadratic Y^2 + (a3/p^k) Y - a6/p^(2k)."""
    return _roots_mod_p([(-residue(model.a6, p, 2 * k)) % p, residue(model.a3, p, k), 1], p)


def _cubic_analysis(A, B, C, p):
    """For T^3 + A T^2 + B T + C mod p: ('separable', n_rational_roots) or
    ('double'|'triple', repeated_root).

    A repeated root of a cubic is Galois-stable, hence in F_p, and it is the
    one root where f' vanishes too; the third root is -A - 2*alpha.  A cubic
    with no such root is separable.
    """
    roots = _roots_mod_p([C, B, A, 1], p)
    for alpha in roots:
        if _poly_value([B, 2 * A, 3], alpha, p) == 0:
            return ("triple" if (A + 3 * alpha) % p == 0 else "double"), alpha
    return "separable", len(roots)


def partials_vanish(a, x: int, y: int, p: int) -> bool:
    """Both partials vanish at (x, y) mod p; a = (a1, a2, a3, a4, ...) mod p."""
    a1, a2, a3, a4 = a[:4]
    return ((a1 * y - 3 * x * x - 2 * a2 * x - a4) % p == 0
            and (2 * y + a1 * x + a3) % p == 0)


def _singular_point_mod_p(model: WeierstrassModel, p: int):
    """The unique singular point of the reduced curve, by exhaustive search."""
    a = a1, a2, a3, a4, a6 = tuple(residue(c, p) for c in model.coefficients())
    for x in range(p):
        for y in range(p):
            f = (y * y + a1 * x * y + a3 * y - x ** 3 - a2 * x * x - a4 * x - a6) % p
            if f == 0 and partials_vanish(a, x, y, p):
                return x, y
    raise InternalError("reduced curve has positive v(delta) but no singular point")


@dataclass
class _PassState:
    model: WeierstrassModel
    p: int
    translations: CoordinateChange

    def translate(self, r=0, s=0, t=0):
        step = CoordinateChange(1, r, s, t)
        self.model = apply_change(self.model, step)
        self.translations = self.translations.compose(step)

    def v(self, q) -> Valuation:
        return val(q, self.p)


def _tate_pass(model: WeierstrassModel, p: int):
    """One pass of the algorithm.  Returns (kodaira, cv, split, state).

    Step 11 (a non-minimal model) returns kodaira None: the caller rescales
    the pass's *translated* model, state.model, by u = p (its step-11
    coefficient valuations are what make the rescaled model integral), so
    the pass's translations, state.translations, belong to the change too.
    """
    st = _PassState(model, p, CoordinateChange())
    v_delta = st.v(st.model.delta)

    # Step 1: good reduction.
    if v_delta == 0:
        return KodairaType("I", 0), 1, None, st

    # Move the singular point of the reduction to (0, 0); afterwards
    # p | a3, a4, a6.
    x0, y0 = _singular_point_mod_p(st.model, p)
    if (x0, y0) != (0, 0):
        st.translate(r=x0, t=y0)
    m = st.model
    if min(st.v(m.a3), st.v(m.a4), st.v(m.a6)) < 1:
        raise InternalError("singular-point translation failed")
    # The tangent quadratic T^2 + a1 T - a2 at the singular point; steps 2-5
    # change no coefficient, so step 6 reads the same roots.
    a1, a2 = residue(m.a1, p), residue(m.a2, p)
    tangent_roots = _roots_mod_p([(-a2) % p, a1, 1], p)

    # Step 2: node (multiplicative reduction), type I_m with m = v(delta).
    if st.v(m.b2) == 0:
        mm = int(v_delta)
        split = len(tangent_roots) == 2
        cv = mm if split else (2 if mm % 2 == 0 else 1)
        return KodairaType("I", mm), cv, split, st

    # Additive reduction from here on.
    # Step 3: type II.
    if st.v(m.a6) < 2:
        return KodairaType("II"), 1, None, st
    # Step 4: type III.
    if st.v(m.b8) < 3:
        return KodairaType("III"), 2, None, st
    # Step 5: type IV, read off the Y-quadratic Y^2 + (a3/p) Y - a6/p^2.
    y_roots = _y_roots(m, p, 1)
    if st.v(m.b6) < 3:
        return KodairaType("IV"), 3 if len(y_roots) == 2 else 1, None, st

    # Step 6 entry: normalize so v(a1), v(a2) >= 1, v(a3) >= 2, v(a4) >= 2,
    # v(a6) >= 3.  First kill the (double) tangent direction with an s-shear,
    # then the double root of the Y-quadratic with a t-shift.  Both
    # quadratics are inseparable here (steps 2 and 5 ruled out the
    # separable ones), so each has exactly one root in F_p, the one solved
    # above: the s-shear leaves a3 and a6 as they are.
    (s0,) = tangent_roots
    if s0:
        st.translate(s=s0)
    (y1,) = y_roots
    if y1:
        st.translate(t=p * y1)
    m = st.model
    if (st.v(m.a1) < 1 or st.v(m.a2) < 1 or st.v(m.a3) < 2
            or st.v(m.a4) < 2 or st.v(m.a6) < 3):
        raise InternalError("step-6 normalization failed")

    # Step 6: the residual cubic T^3 + (a2/p) T^2 + (a4/p^2) T + (a6/p^3).
    A = residue(st.model.a2, p, 1)
    B = residue(st.model.a4, p, 2)
    C = residue(st.model.a6, p, 3)
    kind, info = _cubic_analysis(A, B, C, p)
    if kind == "separable":
        return KodairaType("I*", 0), 1 + info, None, st

    if kind == "double":
        if info:
            st.translate(r=p * info)
        return _istar_subloop(st, int(v_delta))

    # Triple root: steps 8-11.
    if info:
        st.translate(r=p * info)
    m = st.model
    if st.v(m.a2) < 2 or st.v(m.a4) < 3 or st.v(m.a6) < 4:
        raise InternalError("triple-root translation failed")
    # Step 8: type IV*.
    roots = _y_roots(st.model, p, 2)
    if len(roots) != 1:
        return KodairaType("IV*"), 3 if roots else 1, None, st
    (y2,) = roots
    if y2:
        st.translate(t=p * p * y2)
    m = st.model
    if st.v(m.a3) < 3 or st.v(m.a6) < 5:
        raise InternalError("step-9 translation failed")
    # Step 9: type III*.
    if st.v(st.model.a4) < 4:
        return KodairaType("III*"), 2, None, st
    # Step 10: type II*.
    if st.v(st.model.a6) < 6:
        return KodairaType("II*"), 1, None, st
    # Step 11: non-minimal.
    return None, None, None, st


def _istar_subloop(st: _PassState, v_delta: int):
    """The I_m* sub-procedure, m >= 1.  On entry v(a1) >= 1, v(a2) = 1,
    v(a3) >= 2, v(a4) >= 3, v(a6) >= 4."""
    p = st.p
    m = st.model
    if st.v(m.a2) != 1 or st.v(m.a3) < 2 or st.v(m.a4) < 3 or st.v(m.a6) < 4:
        raise InternalError("I_m* sub-loop entered with wrong valuations")
    n = 1
    while n <= v_delta:
        model = st.model
        if n % 2:
            k = (n + 3) // 2  # n is odd, so n + 3 = 2k
            roots = _y_roots(model, p, k)
            if len(roots) != 1:
                return KodairaType("I*", n), 4 if roots else 2, None, st
            (root,) = roots
            if root:
                st.translate(t=p ** k * root)
        else:
            k = (n + 4) // 2
            # quadratic (a2/p) X^2 + (a4/p^k) X + a6/p^(n+3)
            aa = residue(model.a2, p, 1)
            bb = residue(model.a4, p, k)
            cc = residue(model.a6, p, n + 3)
            roots = _roots_mod_p([cc, bb, aa], p)
            if len(roots) != 1:
                return KodairaType("I*", n), 4 if roots else 2, None, st
            (root,) = roots
            if root:
                st.translate(r=p ** (n // 2 + 1) * root)
        n += 1
    raise InternalError("I_m* sub-loop failed to terminate within v(delta)")


def run_tate(model: WeierstrassModel, p: int) -> TateResult:
    """Full run: minimalization restarts, type, c_v, and both models."""
    check_prime(p)
    if any(val(a, p) < 0 for a in model.coefficients() if a != 0):
        raise NonIntegralError(
            f"model {model} is not {p}-integral; clear denominators first")

    to_minimal = CoordinateChange()
    current = model
    # v(delta) drops by 12 per restart, so this bound is generous.
    max_passes = int(val(current.delta, p)) // 12 + 2
    for _ in range(max_passes):
        kodaira, cv, split, st = _tate_pass(current, p)
        if kodaira is None:
            step = CoordinateChange(u=p)
            current = apply_change(st.model, step)
            to_minimal = to_minimal.compose(st.translations).compose(step)
            continue
        v_delta = int(val(current.delta, p))
        v_c4 = val(current.c4, p)
        v_j = 3 * v_c4 - v_delta  # v(j) = v(c4^3 / delta)
        if kodaira.series == "I" and kodaira.m == 0:
            reduction = "good"
        elif kodaira.series == "I":
            reduction = "multiplicative"
        else:
            reduction = "additive"
        result = TateResult(
            p=p,
            minimal_model=current,
            normalized_model=st.model,
            to_minimal=to_minimal,
            to_normalized=st.translations,
            kodaira=kodaira,
            cv=cv,
            v_delta=v_delta,
            v_c4=v_c4,
            v_j=v_j,
            reduction=reduction,
            split=split,
        )
        _check_result(result)
        return result
    raise InternalError("minimalization did not terminate")


def _check_result(res: TateResult) -> None:
    """Invariants that hold for every correct run; violations are bugs."""
    k = res.kodaira
    if k.series == "I" and k.m > 0:
        if res.v_c4 != 0 or res.v_j != -k.m or res.v_delta != k.m:
            raise InternalError(f"I_m invariants failed for {k}: "
                                f"v_c4={res.v_c4} v_j={res.v_j} v_delta={res.v_delta}")
        if res.split and res.cv != k.m:
            raise InternalError("split I_m must have c_v = m")
        if not res.split and res.cv not in (1, 2):
            raise InternalError("non-split I_m must have c_v in {1, 2}")
    if k.series == "I*" and k.m >= 1 and res.v_j < 0:
        # potential multiplicative reduction only: with v(j) >= 0 (possible
        # for p = 2 only) the relation below genuinely fails
        if res.v_delta != k.m + 4 + res.v_c4:
            raise InternalError(
                f"I_m* relation v(delta) = m + 4 + v(c4) failed for {k}")
    if res.reduction == "additive" and res.cv not in (1, 2, 3, 4):
        raise InternalError("additive c_v out of range")
    if not res.to_normalized.u == 1:
        raise InternalError("normalization must be a translation")
    for a in res.minimal_model.coefficients():
        if a != 0 and val(a, res.p) < 0:
            raise InternalError("minimal model is not p-integral")
