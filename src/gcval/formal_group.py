"""Formal group of a Weierstrass curve, as truncated power series.

The local parameter is t = -x/y; with w = -1/y the curve becomes

    w = t^3 + a1 t w + a2 t^2 w + a3 w^2 + a4 t w^2 + a6 w^3,

whose unique power-series solution w(t) = t^3 (1 + ...) is computed by a
direct coefficient recurrence.  Formal addition is chord-and-tangent in the
(t, w) chart; multiplication-by-m is iterated addition.  From the
multiplication-by-p series we read the staircase parameters that control
valuation growth along p-power multiples of a point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .curve_core import Point, WeierstrassModel, mul
from .errors import (
    InputError,
    InternalError,
    ResourceBudgetError,
    TorsionPointError,
)
from .exact_numbers import INFINITY, Valuation, check_prime, val


@dataclass(frozen=True)
class TruncatedSeries:
    """A power series known exactly modulo t^(order+1).

    coeffs[i] is the coefficient of t^i; len(coeffs) == order + 1.
    """

    coeffs: tuple
    order: int

    def __post_init__(self):
        if self.order < 0:
            raise InputError("series order must be >= 0")
        cs = tuple(Fraction(c) for c in self.coeffs[: self.order + 1])
        cs = cs + (Fraction(0),) * (self.order + 1 - len(cs))
        object.__setattr__(self, "coeffs", cs)

    @staticmethod
    def constant(c, order: int) -> "TruncatedSeries":
        return TruncatedSeries((Fraction(c),), order)

    @staticmethod
    def identity(order: int) -> "TruncatedSeries":
        return TruncatedSeries((Fraction(0), Fraction(1)), order)

    def coefficient(self, i: int) -> Fraction:
        if not 0 <= i <= self.order:
            raise InputError(f"coefficient t^{i} beyond truncation order {self.order}")
        return self.coeffs[i]

    def valuation(self) -> int:
        """Index of the first known nonzero coefficient; order+1 if none."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return self.order + 1

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise InternalError("cannot extend a truncated series")
        return TruncatedSeries(self.coeffs[: order + 1], order)

    def __add__(self, other):
        n = min(self.order, other.order)
        return TruncatedSeries(
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)), n)

    def __sub__(self, other):
        n = min(self.order, other.order)
        return TruncatedSeries(
            tuple(a - b for a, b in zip(self.coeffs, other.coeffs)), n)

    def __neg__(self):
        return TruncatedSeries(tuple(-a for a in self.coeffs), self.order)

    def scale(self, c) -> "TruncatedSeries":
        c = Fraction(c)
        return TruncatedSeries(tuple(c * a for a in self.coeffs), self.order)

    def __mul__(self, other):
        # coefficient k is exact for k <= min(o1 + v2, o2 + v1)
        v1, v2 = self.valuation(), other.valuation()
        n = min(self.order + v2, other.order + v1)
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if not a or i > n:
                continue
            hi = min(n - i, other.order)
            for jj in range(hi + 1):
                b = other.coeffs[jj]
                if b:
                    out[i + jj] += a * b
        return TruncatedSeries(tuple(out), n)

    def divide(self, other) -> "TruncatedSeries":
        """Exact quotient in the series sense; needs v(self) >= v(other)."""
        vb = other.valuation()
        if vb > other.order:
            raise InternalError("division by a series that is zero to its order")
        if self.valuation() < vb:
            raise InternalError("series quotient would have a pole")
        n = min(self.order, other.order) - vb
        a = list(self.coeffs[vb: vb + n + 1])
        b = list(other.coeffs[vb: vb + n + 1])
        inv0 = 1 / b[0]
        q = [Fraction(0)] * (n + 1)
        for k in range(n + 1):
            acc = a[k]
            for i in range(k):
                acc -= q[i] * b[k - i]
            q[k] = acc * inv0
        return TruncatedSeries(tuple(q), n)

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner(t)); inner must have zero constant term."""
        if inner.valuation() < 1:
            raise InternalError("composition needs an inner series with v >= 1")
        target = min(inner.order, (self.order + 1) * inner.valuation() - 1)
        acc = TruncatedSeries.constant(self.coeffs[self.order], inner.order)
        for i in range(self.order - 1, -1, -1):
            acc = acc * inner + TruncatedSeries.constant(self.coeffs[i], inner.order)
        if acc.order < target:
            raise InternalError("composition lost more precision than budgeted")
        return acc.truncate(target)

    def derivative(self) -> "TruncatedSeries":
        if self.order == 0:
            raise InternalError("cannot differentiate an order-0 truncation")
        return TruncatedSeries(
            tuple(i * c for i, c in enumerate(self.coeffs))[1:], self.order - 1)


def curve_w_series(model: WeierstrassModel, order: int) -> TruncatedSeries:
    """w(t) = t^3 (1 + ...) solving the (t, w) form of the curve."""
    a1, a2, a3, a4, a6 = model.coefficients()
    A = [Fraction(0)] * (order + 1)
    if order >= 3:
        A[3] = Fraction(1)

    def w2_at(k):
        return sum((A[i] * A[k - i] for i in range(3, k - 2)), Fraction(0))

    w2 = [Fraction(0)] * (order + 1)

    def w3_at(k):
        return sum((A[i] * w2[k - i] for i in range(3, k - 5)), Fraction(0))

    for k in range(4, order + 1):
        if k >= 6:
            w2[k] = w2_at(k)
        A[k] = (a1 * A[k - 1] + a2 * A[k - 2] + a3 * w2[k]
                + a4 * (w2[k - 1] if k >= 1 else 0) + a6 * w3_at(k))
    return TruncatedSeries(tuple(A), order)


def _formal_negation(model, w_series, t3: TruncatedSeries) -> TruncatedSeries:
    # i(t) = t / (-1 + a1 t + a3 w(t)), evaluated at t3
    a1, a3 = model.a1, model.a3
    w_at = w_series.compose(t3)
    den = (TruncatedSeries.constant(-1, t3.order)
           + t3.scale(a1) + w_at.scale(a3))
    return t3.divide(den)


def formal_add(model: WeierstrassModel, s1: TruncatedSeries,
               s2: TruncatedSeries,
               w_series: TruncatedSeries | None = None) -> TruncatedSeries:
    """The formal group law F(s1, s2) for parameter series s1, s2."""
    if s1.valuation() < 1 or s2.valuation() < 1:
        raise InputError("formal addition needs series with zero constant term")
    order = min(s1.order, s2.order)
    if w_series is None or w_series.order < order:
        w_series = curve_w_series(model, order)
    w1 = w_series.compose(s1)
    w2 = w_series.compose(s2)
    same = s1.truncate(order).coeffs == s2.truncate(order).coeffs
    if same:
        lam = w_series.derivative().compose(s1)
    else:
        lam = (w2 - w1).divide(s2 - s1)
    nu = w1 - lam * s1
    a1, a2, a3, a4, a6 = model.coefficients()
    one = TruncatedSeries.constant(1, lam.order)
    lam2 = lam * lam
    den = one + lam.scale(a2) + lam2.scale(a4) + (lam2 * lam).scale(a6)
    num = -(lam.scale(a1) + nu.scale(a2) + lam2.scale(a3)
            + (lam * nu).scale(2 * a4) + (lam2 * nu).scale(3 * a6))
    t3 = num.divide(den) - s1 - s2
    return _formal_negation(model, w_series, t3)


def mult_by_m_series(model: WeierstrassModel, m: int, order: int) -> TruncatedSeries:
    """[m]T modulo T^(order+1); the linear coefficient is exactly m."""
    if m < 1:
        raise InputError(f"multiplier must be >= 1, got {m}")
    if order < 1:
        raise InputError(f"order must be >= 1, got {order}")
    work = order + m + 4  # each addition can cost one order of precision
    t = TruncatedSeries.identity(work)
    w_series = curve_w_series(model, work)
    acc = t
    for _ in range(m - 1):
        acc = formal_add(model, acc, t, w_series)
    if acc.order < order:
        raise InternalError("multiplication-by-m lost more precision than budgeted")
    acc = acc.truncate(order)
    if acc.coefficient(1) != m:
        raise InternalError(f"[{m}]T has linear coefficient {acc.coefficient(1)}")
    return acc


@dataclass(frozen=True)
class UnitExponentScan:
    b: int
    h: int
    fallback: bool  # True when no unit coefficient exists up to T^(p^2+1)


def unit_exponent_scan(model: WeierstrassModel, p: int) -> UnitExponentScan:
    """Smallest exponent >= 2 in [p]T whose coefficient is a p-adic unit.

    Scans exponents 2..p^2+1 (the theoretical location is p^height with
    height 1 or 2); if none is found the conventional fallback b = 1, h = 0
    is returned with the fallback flag set.
    """
    check_prime(p)
    for bound in (p, p * p + 1):
        series = mult_by_m_series(model, p, bound)
        for i in range(2, bound + 1):
            c = series.coefficient(i)
            if c and val(c, p) < 1:
                h = int(val(c, p))
                if h != 0:
                    raise InternalError("unit coefficient with nonzero valuation")
                return UnitExponentScan(b=i, h=h, fallback=False)
    return UnitExponentScan(b=1, h=0, fallback=True)


@dataclass(frozen=True)
class StaircaseParams:
    """Parameters (b, e, h, j, s, w) of the staircase sequence.

    b: first exponent in [p]T with unit coefficient (or 1 if none);
    e: v(p), always 1 here (K = Q_p);
    h: valuation of that coefficient (0 whenever e = 1);
    j: smallest j >= 0 with e <= b^j ((b-1) s + h), 0 by convention for b = 1;
    s: v(x/y) at [n_P]P;
    w: correction term, nonzero only in the equality case of j.
    """

    b: int
    e: int
    h: int
    j: int
    s: int
    w: Valuation

    def validate(self, p: int) -> "StaircaseParams":
        if not (self.b == 1 or (self.b > 0 and self.b % p == 0)):
            raise InternalError(f"b = {self.b} is neither 1 nor a positive multiple of {p}")
        if self.e < 1 or self.h < 0 or self.j < 0 or self.s < 1:
            raise InternalError(f"staircase parameters out of range: {self}")
        if self.w != INFINITY and self.w < 0:
            raise InternalError(f"negative w: {self}")
        if self.b == 1 and (self.h, self.j, self.w) != (0, 0, 0):
            raise InternalError("b = 1 forces h = j = w = 0")
        return self


def staircase_j(b: int, e: int, h: int, s: int) -> int:
    """Smallest j >= 0 with e <= b^j ((b-1) s + h), and 0 for b = 1.

    Terminates for b >= 1, s >= 1 and h >= 0; callers check those first.
    """
    j = 0
    if b > 1:
        while e > b ** j * ((b - 1) * s + h):
            j += 1
    return j


_MULTIPLE_BUDGET = 10 ** 6


def _xy_valuation(point: Point, p: int) -> Valuation:
    if point.is_infinity:
        return INFINITY
    if point.x == 0:
        return INFINITY
    return val(point.x, p) - val(point.y, p)


def staircase_params(model: WeierstrassModel, point: Point, p: int, n_p: int,
                     b: int, h: int) -> StaircaseParams:
    """Assemble the staircase parameters for a point of infinite order.

    b and h come either from unit_exponent_scan or from the fixed values a
    caller's formula prescribes.
    """
    check_prime(p)
    e = 1
    q = mul(model, n_p, point)
    if q.is_infinity:
        raise TorsionPointError(f"[{n_p}]P = O while reading staircase parameters")
    s = _xy_valuation(q, p)
    if s == INFINITY or s < 1:
        raise InternalError(f"v(x/y) at [n_P]P should be a positive integer, got {s}")
    s = int(s)
    if b == 1:
        return StaircaseParams(1, e, 0, 0, s, 0).validate(p)
    j = staircase_j(b, e, h, s)
    w: Valuation = 0
    if e == b ** j * ((b - 1) * s + h):
        if p ** (j + 1) * n_p > _MULTIPLE_BUDGET:
            raise ResourceBudgetError("w computation needs too large a multiple")
        q0 = mul(model, p ** j * n_p, point)
        q1 = mul(model, p ** (j + 1) * n_p, point)
        v0 = _xy_valuation(q0, p)
        v1 = _xy_valuation(q1, p)
        if v0 == INFINITY or v1 == INFINITY:
            w = INFINITY
        else:
            w = int(v1) - b * int(v0) - h
    return StaircaseParams(b, e, h, j, s, w).validate(p)
