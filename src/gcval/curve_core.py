"""Weierstrass models and their invariants, coordinate changes, and the group law.

Everything is done on the full five-coefficient form y^2 + a1*x*y + a3*y =
x^3 + a2*x^2 + a4*x + a6, never on a completed square, so that p = 2 and
p = 3 ride the same code path as every other prime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InputError, SingularCurveError, TorsionPointError
from .exact_numbers import Rational, check_prime, format_rational, parse_rational, val


def as_rational(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        return parse_rational(x)
    raise InputError(f"cannot interpret {x!r} as a rational")


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
            object.__setattr__(self, name, value)
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

    u: Rational = Fraction(1)
    r: Rational = Fraction(0)
    s: Rational = Fraction(0)
    t: Rational = Fraction(0)

    def __post_init__(self):
        for name in ("u", "r", "s", "t"):
            object.__setattr__(self, name, as_rational(getattr(self, name)))
        if self.u == 0:
            raise InputError("coordinate change needs u != 0")

    @staticmethod
    def identity() -> "CoordinateChange":
        return CoordinateChange()

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

    def inverse(self) -> "CoordinateChange":
        u, r, s, t = self.u, self.r, self.s, self.t
        return CoordinateChange(
            1 / u, -r / u ** 2, -s / u, (r * s - t) / u ** 3
        )


def apply_change(model: WeierstrassModel, change: CoordinateChange) -> WeierstrassModel:
    a1, a2, a3, a4, a6 = model.coefficients()
    u, r, s, t = change.u, change.r, change.s, change.t
    na1 = (a1 + 2 * s) / u
    na2 = (a2 - s * a1 + 3 * r - s * s) / u ** 2
    na3 = (a3 + r * a1 + 2 * t) / u ** 3
    na4 = (a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t) / u ** 4
    na6 = (a6 + r * a4 + r * r * a2 + r ** 3 - t * a3 - t * t - r * t * a1) / u ** 6
    return WeierstrassModel(na1, na2, na3, na4, na6)


@dataclass(frozen=True)
class Point:
    """An affine point, or the point at infinity (both coordinates None)."""

    x: Rational | None = None
    y: Rational | None = None

    def __post_init__(self):
        if (self.x is None) != (self.y is None):
            raise InputError("point needs both coordinates, or neither")
        if self.x is not None:
            object.__setattr__(self, "x", as_rational(self.x))
            object.__setattr__(self, "y", as_rational(self.y))

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def to_strings(self):
        if self.is_infinity:
            return "O"
        return (format_rational(self.x), format_rational(self.y))

    def __str__(self):
        if self.is_infinity:
            return "O"
        return f"({self.x},{self.y})"


INFINITY_POINT = Point()


def map_point(change: CoordinateChange, point: Point) -> Point:
    """Image of a point under the change (same direction as apply_change)."""
    if point.is_infinity:
        return INFINITY_POINT
    u, r, s, t = change.u, change.r, change.s, change.t
    nx = (point.x - r) / u ** 2
    ny = (point.y - s * (point.x - r) - t) / u ** 3
    return Point(nx, ny)


def equation_value(model: WeierstrassModel, x, y) -> Rational:
    """f(x, y) = y^2 + a1 x y + a3 y - x^3 - a2 x^2 - a4 x - a6."""
    a1, a2, a3, a4, a6 = model.coefficients()
    x = as_rational(x)
    y = as_rational(y)
    return y * y + a1 * x * y + a3 * y - x ** 3 - a2 * x * x - a4 * x - a6


def on_curve(model: WeierstrassModel, point: Point) -> bool:
    if point.is_infinity:
        return True
    return equation_value(model, point.x, point.y) == 0


def require_on_curve(model: WeierstrassModel, point: Point) -> Point:
    if not on_curve(model, point):
        raise InputError(f"point {point} is not on {model}")
    return point


def neg(model: WeierstrassModel, point: Point) -> Point:
    require_on_curve(model, point)
    if point.is_infinity:
        return INFINITY_POINT
    a1, a3 = model.a1, model.a3
    return Point(point.x, -point.y - a1 * point.x - a3)


def add(model: WeierstrassModel, p1: Point, p2: Point) -> Point:
    require_on_curve(model, p1)
    require_on_curve(model, p2)
    return _add(model, p1, p2)


def _add(model: WeierstrassModel, p1: Point, p2: Point) -> Point:
    """P1 + P2 for points the caller has already checked to be on the curve."""
    if p1.is_infinity:
        return p2
    if p2.is_infinity:
        return p1
    a1, a2, a3, a4, a6 = model.coefficients()
    x1, y1 = p1.x, p1.y
    x2, y2 = p2.x, p2.y
    if x1 == x2:
        if y2 == -y1 - a1 * x1 - a3:
            return INFINITY_POINT
        # p1 == p2 and not 2-torsion: tangent line
        den = 2 * y1 + a1 * x1 + a3
        lam = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) / den
        nu = (-(x1 ** 3) + a4 * x1 + 2 * a6 - a3 * y1) / den
    else:
        lam = (y2 - y1) / (x2 - x1)
        nu = (y1 * x2 - y2 * x1) / (x2 - x1)
    x3 = lam * lam + a1 * lam - a2 - x1 - x2
    y3 = -(lam + a1) * x3 - nu - a3
    return Point(x3, y3)


def mul(model: WeierstrassModel, n: int, point: Point) -> Point:
    """[n]P by double-and-add; [0]P = O and [-n]P = -[n]P."""
    require_on_curve(model, point)
    if not isinstance(n, int) or isinstance(n, bool):
        raise InputError(f"multiplier must be an integer, got {n!r}")
    if n < 0:
        return neg(model, mul(model, -n, point))
    result = INFINITY_POINT
    acc = point
    while n:
        if n & 1:
            result = _add(model, result, acc)
        n >>= 1
        if n:
            acc = _add(model, acc, acc)
    return result


#: Over Q the torsion order is at most 12 (Mazur); 16 adds margin.  This
#: guard is Q-only and is documented as such.
TORSION_GUARD_BOUND = 16


def multiples(model: WeierstrassModel, point: Point, after: Point | None = None):
    """Yield [1]P, [2]P, [3]P, ... without end; P is checked on the curve
    once, when the first multiple is asked for.  Given ``after`` = [k]P from
    an earlier walk over the same P, yield [k+1]P, [k+2]P, ... unchecked."""
    if after is None:
        require_on_curve(model, point)
        acc = point
    else:
        acc = _add(model, after, point)
    while True:
        yield acc
        acc = _add(model, acc, point)


def assert_infinite_order(model: WeierstrassModel, point: Point,
                          bound: int = TORSION_GUARD_BOUND) -> Point:
    if point.is_infinity:
        raise TorsionPointError("the point at infinity is torsion")
    for n, acc in zip(range(1, bound + 1), multiples(model, point)):
        if acc.is_infinity:
            raise TorsionPointError(f"[{n}]{point} = O: torsion point")
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
        return model, CoordinateChange.identity()
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
