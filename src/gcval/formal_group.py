"""Formal group of a Weierstrass curve, as truncated power series.

The local parameter is t = -x/y; with w = -1/y the curve becomes

    w = t^3 + a1 t w + a2 t^2 w + a3 w^2 + a4 t w^2 + a6 w^3,

whose unique power-series solution w(t) = t^3 (1 + ...) is computed by a
direct coefficient recurrence.  Integrating the invariant differential
gives the formal logarithm, and Lagrange inversion gives its compositional
inverse, the formal exponential.  Over Q they identify the formal group
with the additive one, so [m]T = exp(m log T) and F(T1, T2) = exp(log T1 +
log T2) hold exactly modulo any power of T (Silverman, The Arithmetic of
Elliptic Curves, Ch. IV).  From the multiplication-by-p series we read the
staircase parameters that control valuation growth along p-power multiples
of a point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .curve_core import Point, WeierstrassModel, mul
from .errors import InputError, InternalError
from .exact_numbers import INFINITY, Valuation, check_prime, val


@dataclass(frozen=True)
class TruncatedSeries:
    """A power series known exactly modulo t^(order+1).

    coeffs[i] is the coefficient of t^i; len(coeffs) == order + 1.  Sums,
    products and compositions are known to the smaller of the two orders.
    """

    coeffs: tuple
    order: int

    def __post_init__(self):
        if self.order < 0:
            raise InputError("series order must be >= 0")
        cs = tuple(Fraction(c) for c in self.coeffs[: self.order + 1])
        cs = cs + (Fraction(0),) * (self.order + 1 - len(cs))
        object.__setattr__(self, "coeffs", cs)

    def coefficient(self, i: int) -> Fraction:
        if not 0 <= i <= self.order:
            raise InputError(f"coefficient t^{i} beyond truncation order {self.order}")
        return self.coeffs[i]

    def __add__(self, other):
        n = min(self.order, other.order)
        return TruncatedSeries(
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)), n)

    def __mul__(self, other):
        n = min(self.order, other.order)
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if a:
                for j, b in enumerate(other.coeffs[: n + 1 - i]):
                    if b:
                        out[i + j] += a * b
        return TruncatedSeries(tuple(out), n)

    def inverse(self) -> "TruncatedSeries":
        """1/self; needs a nonzero constant term."""
        a = self.coeffs
        if not a[0]:
            raise InputError("a series with zero constant term has no inverse")
        q = [1 / a[0]]
        for k in range(1, self.order + 1):
            q.append(-sum((a[i] * q[k - i] for i in range(1, k + 1)),
                          Fraction(0)) * q[0])
        return TruncatedSeries(tuple(q), self.order)

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner(t)); inner must have zero constant term."""
        if inner.coeffs[0]:
            raise InputError("composition needs an inner series with zero constant term")
        n = min(self.order, inner.order)
        acc = TruncatedSeries((self.coeffs[n],), n)
        for c in reversed(self.coeffs[:n]):
            acc = acc * inner + TruncatedSeries((c,), n)
        return acc


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
                + a4 * w2[k - 1] + a6 * w3_at(k))
    return TruncatedSeries(tuple(A), order)


def formal_log(model: WeierstrassModel, order: int) -> TruncatedSeries:
    """log(T) = T + ... modulo T^(order+1), the integral of the invariant
    differential dx / (2y + a1 x + a3).

    With W = w/t^3, x = 1/(t^2 W) and y = -1/(t^3 W), so the differential is
    (2W + t W') / (W (2 - a1 t - a3 t^3 W)) dt.
    """
    n = order - 1
    W = curve_w_series(model, order + 2).coeffs[3:]
    num = TruncatedSeries(tuple((k + 2) * c for k, c in enumerate(W)), n)
    den = TruncatedSeries(
        (2, -model.a1, 0) + tuple(-model.a3 * c for c in W[: n - 2]), n)
    omega = num * (TruncatedSeries(W, n) * den).inverse()
    return TruncatedSeries(
        (0,) + tuple(c / (k + 1) for k, c in enumerate(omega.coeffs)), order)


def formal_exp(log: TruncatedSeries) -> TruncatedSeries:
    """The compositional inverse of log = T + ..., by Lagrange inversion:
    its T^k coefficient is [t^(k-1)] (t/log)^k / k.
    """
    n = log.order
    t_over_log = TruncatedSeries(log.coeffs[1:], n - 1).inverse()
    coeffs = [Fraction(0)]
    power = TruncatedSeries((1,), n - 1)
    for k in range(1, n + 1):
        power = power * t_over_log
        coeffs.append(power.coefficient(k - 1) / k)
    return TruncatedSeries(tuple(coeffs), n)


def formal_add(model: WeierstrassModel, s1: TruncatedSeries,
               s2: TruncatedSeries) -> TruncatedSeries:
    """The formal group law F(s1, s2) for parameter series s1, s2."""
    log = formal_log(model, min(s1.order, s2.order))
    return formal_exp(log).compose(log.compose(s1) + log.compose(s2))


def mult_by_m_series(model: WeierstrassModel, m: int, order: int) -> TruncatedSeries:
    """[m]T modulo T^(order+1); the linear coefficient is exactly m."""
    if m < 1:
        raise InputError(f"multiplier must be >= 1, got {m}")
    if order < 1:
        raise InputError(f"order must be >= 1, got {order}")
    log = formal_log(model, order)
    series = formal_exp(log).compose(
        TruncatedSeries(tuple(m * c for c in log.coeffs), order))
    if series.coefficient(1) != m:
        raise InternalError(f"[{m}]T has linear coefficient {series.coefficient(1)}")
    return series


def unit_exponent_scan(model: WeierstrassModel, p: int) -> int:
    """b: the smallest exponent >= 2 in [p]T whose coefficient is a p-adic
    unit, or 1 when there is none.

    Scans exponents 2..p^2+1 (the theoretical location is p^height with
    height 1 or 2); on additive reduction no coefficient is a unit and the
    conventional b = 1 is returned.
    """
    check_prime(p)
    for bound in (p, p * p + 1):
        series = mult_by_m_series(model, p, bound)
        for i in range(2, bound + 1):
            c = series.coefficient(i)
            if c and val(c, p) < 1:
                if val(c, p) != 0:
                    raise InternalError("unit coefficient with nonzero valuation")
                return i
    return 1


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


def _xy_valuation(point: Point, p: int) -> Valuation:
    return val(point.x, p) - val(point.y, p)


def staircase_params(model: WeierstrassModel, q: Point, p: int,
                     b: int) -> StaircaseParams:
    """Assemble the staircase parameters of a point P of infinite order, for
    K = Q_p.

    q is [n_P]P, the first multiple of P in E_1, as
    profile.compute_profile's walk reaches it (ReductionProfile.multiple_np);
    s_P = v(x/y) is read at q.  b comes either from unit_exponent_scan or
    from the value a caller's formula prescribes.  With e = 1 the unit
    coefficient at T^b has h = 0 and staircase_j gives j = 0, so the
    parameters are (b, 1, 0, 0, s, w); w is read from [p]q only in the
    equality case (b - 1) s = 1, that is b = 2 and s = 1.
    """
    check_prime(p)
    s = _xy_valuation(q, p)
    if s == INFINITY or s < 1:
        raise InternalError(f"v(x/y) at [n_P]P should be a positive integer, got {s}")
    s = int(s)
    w: Valuation = 0
    if (b - 1) * s == 1:
        v1 = _xy_valuation(mul(model, p, q), p)
        w = INFINITY if v1 == INFINITY else int(v1) - b * s
    return StaircaseParams(b, 1, 0, 0, s, w).validate(p)
