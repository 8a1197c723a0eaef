"""Weierstrass models and their invariants, coordinate changes, and the group law.

Everything is done on the full five-coefficient form y^2 + a1*x*y + a3*y =
x^3 + a2*x^2 + a4*x + a6, never on a completed square, so that p = 2 and
p = 3 ride the same code path as every other prime.

Every value follows one rule, stated once by ``exact_numbers.as_rational``:
a rational that is an integer is an ``int``, and any other is a reduced
``Fraction``.  The constructors of ``WeierstrassModel`` (with its
invariants), ``Point`` and ``CoordinateChange`` apply it, so integral
models, points and changes compute on ints throughout.  The one rational division is ``_div``, which
``apply_change`` and ``map_point`` use: it returns its dividend when the
divisor is 1 and divides as a Fraction otherwise, so an int ``/`` never
makes a float.

The group law runs on integers.  Scaled by u, the lcm of the a-invariants'
denominators, the model becomes integral, and every rational point on it is
(X/e^2, Y/e^3) with gcd(X, e) = 1.  One chord-or-tangent step forms x3's
numerator over M^2, M the slope's denominator, reduces it by one gcd, and
reads y3 off the line at the reduced size.  ``add``, ``mul`` and
``multiples`` all take that step, and each builds a ``Point`` only for what
it returns or yields.  A ``Point`` is affine: the point at infinity O is
``None``, inside the law and where ``add`` and ``mul`` return it, and no
entry point takes it.  A point is checked
on the curve once, where it enters a public entry point (``add``, ``mul``,
``multiples`` when its walk starts); the points the law derives are not
checked again.

Two facts about a point have their one owner here: its integer form
(``integral_form``, which the division-polynomial oracle reads), and
whether it is torsion (``multiples``, which raises at the first [n]P = O).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count, islice
from math import gcd, isqrt, lcm

from .errors import InputError, SingularCurveError, TorsionPointError
from .exact_numbers import Rational, as_rational, check_prime, format_rational, val


def _div(a: Rational, b: Rational) -> Rational:
    """a / b exactly: a itself when b == 1, else a Fraction."""
    return a if b == 1 else Fraction(a) / b


@dataclass(frozen=True)
class WeierstrassModel:
    """A Weierstrass model with its b-, c- and discriminant invariants.

    The invariants are computed once, by the constructor, and take no part
    in equality, hashing or repr: a model is its five coefficients.
    """

    a1: Rational
    a2: Rational
    a3: Rational
    a4: Rational
    a6: Rational
    b2: Rational = field(init=False, compare=False, repr=False)
    b4: Rational = field(init=False, compare=False, repr=False)
    b6: Rational = field(init=False, compare=False, repr=False)
    b8: Rational = field(init=False, compare=False, repr=False)
    c4: Rational = field(init=False, compare=False, repr=False)
    c6: Rational = field(init=False, compare=False, repr=False)
    delta: Rational = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        for name in ("a1", "a2", "a3", "a4", "a6"):
            object.__setattr__(self, name, as_rational(getattr(self, name)))
        a1, a2, a3, a4, a6 = self.coefficients()
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        invariants = {
            "b2": b2, "b4": b4, "b6": b6, "b8": b8,
            "c4": b2 * b2 - 24 * b4,
            "c6": -(b2 ** 3) + 36 * b2 * b4 - 216 * b6,
            "delta": -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6,
        }
        for name, value in invariants.items():
            object.__setattr__(self, name, as_rational(value))
        if self.delta == 0:
            raise SingularCurveError(
                f"zero discriminant: a = {tuple(map(str, self.coefficients()))}"
            )

    def coefficients(self):
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    def to_strings(self):
        return tuple(format_rational(a) for a in self.coefficients())

    def __str__(self):
        return "(" + ",".join(self.to_strings()) + ")"


@dataclass(frozen=True)
class CoordinateChange:
    """x = u^2 x' + r, y = u^3 y' + u^2 s x' + t, mapping a model to a new one."""

    u: Rational = 1
    r: Rational = 0
    s: Rational = 0
    t: Rational = 0

    def __post_init__(self):
        for name in ("u", "r", "s", "t"):
            object.__setattr__(self, name, as_rational(getattr(self, name)))
        if self.u == 0:
            raise InputError("coordinate change needs u != 0")

    def is_identity(self) -> bool:
        return (self.u, self.r, self.s, self.t) == (1, 0, 0, 0)

    def compose(self, other: "CoordinateChange") -> "CoordinateChange":
        """The change 'self then other'."""
        u1, r1, s1, t1 = self.u, self.r, self.s, self.t
        u2, r2, s2, t2 = other.u, other.r, other.s, other.t
        return CoordinateChange(
            u1 * u2,
            r1 + u1 * u1 * r2,
            s1 + u1 * s2,
            t1 + u1 * u1 * r2 * s1 + u1 ** 3 * t2,
        )


def apply_change(model: WeierstrassModel, change: CoordinateChange) -> WeierstrassModel:
    a1, a2, a3, a4, a6 = model.coefficients()
    u, r, s, t = change.u, change.r, change.s, change.t
    na1 = _div(a1 + 2 * s, u)
    na2 = _div(a2 - s * a1 + 3 * r - s * s, u ** 2)
    na3 = _div(a3 + r * a1 + 2 * t, u ** 3)
    na4 = _div(a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t, u ** 4)
    na6 = _div(a6 + r * a4 + r * r * a2 + r ** 3 - t * a3 - t * t - r * t * a1, u ** 6)
    return WeierstrassModel(na1, na2, na3, na4, na6)


@dataclass(frozen=True)
class Point:
    """An affine point.  The point at infinity O is not a Point: the group
    law returns None for it."""

    x: Rational
    y: Rational

    def __post_init__(self):
        object.__setattr__(self, "x", as_rational(self.x))
        object.__setattr__(self, "y", as_rational(self.y))

    def __str__(self):
        return f"({self.x},{self.y})"


def map_point(change: CoordinateChange, point: Point) -> Point:
    """Image of a point under the change (same direction as apply_change)."""
    u, r, s, t = change.u, change.r, change.s, change.t
    nx = _div(point.x - r, u ** 2)
    ny = _div(point.y - s * (point.x - r) - t, u ** 3)
    return Point(nx, ny)


def equation_value(model: WeierstrassModel, x, y) -> Rational:
    """f(x, y) = y^2 + a1 x y + a3 y - x^3 - a2 x^2 - a4 x - a6."""
    a1, a2, a3, a4, a6 = model.coefficients()
    return y * y + a1 * x * y + a3 * y - x ** 3 - a2 * x * x - a4 * x - a6


def on_curve(model: WeierstrassModel, point: Point) -> bool:
    return equation_value(model, point.x, point.y) == 0


def require_on_curve(model: WeierstrassModel, point: Point) -> Point:
    if not on_curve(model, point):
        raise InputError(f"point {point} is not on {model}")
    return point


class _IntegralLaw:
    """The group law on the integral model A_i = u^i a_i, on integers.

    u is the lcm of the a-invariants' denominators.  There every rational
    point is (X/e^2, Y/e^3) with e > 0 and gcd(X, e) = 1; it is held as the
    triple (X, Y, e), and O as None.  The model's point (x, y) is
    (X/(u e)^2, Y/(u e)^3).
    """

    __slots__ = ("u", "a1", "a2", "a3", "a4")

    def __init__(self, model: WeierstrassModel):
        u = self.u = lcm(*(a.denominator for a in model.coefficients()))
        self.a1, self.a2, self.a3, self.a4 = (
            (a * u ** i).numerator for a, i in zip(model.coefficients(), (1, 2, 3, 4)))

    def triple(self, point: Point):
        """(X, Y, e) of a point on the curve."""
        x = point.x * (self.u * self.u)
        e = isqrt(x.denominator)
        return x.numerator, (point.y * (self.u * e) ** 3).numerator, e

    def point(self, q) -> Point | None:
        """The Point of a triple, and None for O."""
        if q is None:
            return None
        x, y, e = q
        d = self.u * e
        if d == 1:
            return Point(x, y)
        return Point(Fraction(x, d * d), Fraction(y, d * d * d))

    def add(self, q1, q2):
        """q1 + q2.  The chord or tangent has slope N/M, and x3 = X3'/M^2
        with X3' an integer; X3' = X3 h^2 and M = e3 h with gcd(X3, e3) = 1,
        so h^2 = gcd(X3', M^2).  y3 then comes from the line, at the
        reduced size."""
        if q1 is None:
            return q2
        if q2 is None:
            return q1
        a1, a2, a3 = self.a1, self.a2, self.a3
        x1, y1, e1 = q1
        x2, y2, e2 = q2
        tangent = x1 == x2 and e1 == e2
        if tangent:
            # d = e^3 psi_2; a different y is -q1, and d = 0 makes q1 2-torsion
            d = 2 * y1 + (a1 * x1 + a3 * e1 * e1) * e1
            if y1 != y2 or d == 0:
                return None
            ee = e1 * e1
            n = 3 * x1 * x1 + (2 * a2 * x1 + self.a4 * ee) * ee - a1 * y1 * e1
            m = e1 * d
            s = 2 * x1  # (x1 + x2) M^2 = s d^2
        else:
            ee1, ee2 = e1 * e1, e2 * e2
            d = x2 * ee1 - x1 * ee2
            n = y2 * ee1 * e1 - y1 * ee2 * e2
            m = e1 * e2 * d
            s = x1 * ee2 + x2 * ee1
        mm = m * m
        x3 = n * n + a1 * n * m - a2 * mm - s * d * d
        hh = gcd(x3, mm)
        h = isqrt(hh) if m > 0 else -isqrt(hh)
        x3, e3 = x3 // hh, m // h
        if tangent:
            # y3 = lam (x1 - x3) - y1 - a1 x3 - a3, where e1 divides e3
            f = e3 // e1
            y3 = (n * (x1 * f * f - x3) // h - y1 * f ** 3
                  - (a1 * x3 + a3 * e3 * e3) * e3)
        else:
            # y3 = -(lam + a1) x3 - nu - a3, with intercept nu = V/M
            v = y1 * x2 * e2 - y2 * x1 * e1
            y3 = -((n + a1 * m) * x3 + v * e3 * e3) // h - a3 * e3 ** 3
        return x3, y3, e3

    def mul(self, n: int, q):
        """[n]q for n >= 0, by double-and-add."""
        result = None
        while n:
            if n & 1:
                result = self.add(result, q)
            n >>= 1
            if n:
                q = self.add(q, q)
        return result


def add(model: WeierstrassModel, p1: Point, p2: Point) -> Point | None:
    """P1 + P2, or None when it is O."""
    require_on_curve(model, p1)
    require_on_curve(model, p2)
    law = _IntegralLaw(model)
    return law.point(law.add(law.triple(p1), law.triple(p2)))


def mul(model: WeierstrassModel, n: int, point: Point) -> Point | None:
    """[n]P for n >= 0 by double-and-add, or None when it is O (as [0]P is)."""
    require_on_curve(model, point)
    # a negative n would never end the double-and-add: -1 >> 1 == -1
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise InputError(f"multiplier must be a non-negative integer, got {n!r}")
    law = _IntegralLaw(model)
    return law.point(law.mul(n, law.triple(point)))


def integral_form(model: WeierstrassModel, point: Point):
    """(X, Y, c = u e), with (X, Y, e) the affine point's triple on the
    integral model: x(P) = X/c^2 and y(P) = Y/c^3."""
    law = _IntegralLaw(model)
    x, y, e = law.triple(point)
    return x, y, law.u * e


#: a walk that passes [WALK_POINTS]P meets O on each torsion point over Q,
#: whose order is at most 12 (Mazur); profile.compute_profile may end its
#: walk sooner, at a local proof of infinite order
WALK_POINTS = 20


def multiples(model: WeierstrassModel, point: Point):
    """Yield [1]P, [2]P, [3]P, ... while they are affine, and raise
    TorsionPointError at the first [n]P = O.  P is checked on the curve
    once, when the first multiple is asked for.  The walk steps on integer
    triples and builds one Point per yield."""
    law = _IntegralLaw(model)
    require_on_curve(model, point)
    acc = q = law.triple(point)
    for n in count(2):
        yield law.point(acc)
        acc = law.add(acc, q)
        if acc is None:
            raise TorsionPointError(f"[{n}]{point} = O: torsion point")


def assert_infinite_order(model: WeierstrassModel, point: Point) -> Point:
    """The point, once its walk has passed [WALK_POINTS]P without meeting O."""
    for _ in islice(multiples(model, point), WALK_POINTS):
        pass
    return point


def integralize_at(model: WeierstrassModel, p: int):
    """Scale u = p^-k so all a-invariants become p-integral.

    Returns (new_model, change).  This is the 'clear denominators first'
    step that the Tate runner requires of its callers.
    """
    k = 0
    for i, a in zip((1, 2, 3, 4, 6), model.coefficients()):
        if a != 0:
            v = int(val(a, p))
            if v < 0:
                k = max(k, (-v + i - 1) // i)
    if k == 0:
        return model, CoordinateChange()
    change = CoordinateChange(u=Fraction(1, p ** k))
    return apply_change(model, change), change


def integralize_point_at(model: WeierstrassModel, point: Point | None, p: int):
    """(model integralized at p, the point mapped along), for a prime p and
    a point on the curve or None; the model then suits run_tate."""
    check_prime(p)
    model2, change = integralize_at(model, p)
    if point is None:
        return model2, None
    return model2, map_point(change, require_on_curve(model, point))
