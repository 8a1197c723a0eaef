"""Division polynomial values psi_n(P) and companions phi_n(P) at a point.

Evaluation is numeric at the point, never symbolic: symbolic coefficients
blow up.  Every table is built bottom-up from the printed bases
psi_1..psi_4, extended below index 1 by psi_0 = 0 and psi_-1 = -1 so the
recurrences hold at the margins without special cases.

``psi_sequence`` keeps the values as exact rationals; ``gcval psi`` prints
them and the structural checks compare them.  ``psi_phi_valuations`` is
the oracle's path, which only needs v_p(psi_n) and v_p(phi_n).  On an
integral model with x(P) = X/e^2 it runs the same recurrences on the
integers W_n = e^(n^2-1) psi_n, each held as p^k U with p not dividing U:
a product adds exponents, and a difference of two terms whose exponents
differ has a known exponent, so the p-part is split off only when they
tie.  Phi_n = X W_n^2 - W_(n-1) W_(n+1) is formed only on such a tie.
``integral_scale`` gives e (times the model's denominators); the
structural checks use it to run the divisibility identity on W_n too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt, lcm

from .curve_core import Point, WeierstrassModel, require_on_curve
from .errors import InputError, InternalError, TwoTorsionError
from .exact_numbers import INFINITY, Rational, Valuation, check_prime, p_split


def psi2_value(model: WeierstrassModel, point: Point) -> Rational:
    """psi_2 = 2y + a1 x + a3."""
    return 2 * point.y + model.a1 * point.x + model.a3


def psi2_squared_x(model: WeierstrassModel, x) -> Rational:
    """(psi_2)^2 as a function of x alone: 4x^3 + b2 x^2 + 2 b4 x + b6."""
    x = Fraction(x)
    return 4 * x ** 3 + model.b2 * x * x + 2 * model.b4 * x + model.b6


def psi3_value(model: WeierstrassModel, point: Point) -> Rational:
    """psi_3 = 3x^4 + b2 x^3 + 3 b4 x^2 + 3 b6 x + b8."""
    b2, b4, b6, b8 = model.b2, model.b4, model.b6, model.b8
    x = point.x
    return 3 * x ** 4 + b2 * x ** 3 + 3 * b4 * x * x + 3 * b6 * x + b8


def phi2_x(model: WeierstrassModel, x) -> Rational:
    """phi_2 as a function of x alone: x^4 - b4 x^2 - 2 b6 x - b8."""
    x = Fraction(x)
    return x ** 4 - model.b4 * x * x - 2 * model.b6 * x - model.b8


@dataclass(frozen=True)
class DivPolySequence:
    model: WeierstrassModel
    point: Point
    n_max: int
    _psi: dict = field(repr=False)  # n -> psi_n(P), for -1 <= n <= n_max + 1
    _phi: dict = field(repr=False)  # n -> phi_n(P), for 1 <= n <= n_max

    def psi(self, n: int) -> Rational:
        if n not in self._psi:
            raise InputError(f"psi_{n} not in table (n_max={self.n_max})")
        return self._psi[n]

    def psi_squared(self, n: int) -> Rational:
        v = self.psi(n)
        return v * v

    def phi(self, n: int) -> Rational:
        if n not in self._phi:
            raise InputError(f"phi_{n} not in table (n_max={self.n_max})")
        return self._phi[n]


def psi_sequence(model: WeierstrassModel, point: Point, n_max: int) -> DivPolySequence:
    """Fill psi_1..psi_{n_max+1} and phi_1..phi_{n_max} at the point.

    Requires an affine point that is not 2-torsion (the even recurrence
    divides by psi_2).
    """
    if n_max < 1:
        raise InputError(f"n_max must be >= 1, got {n_max}")
    require_on_curve(model, point)
    if point.is_infinity:
        raise InputError("division polynomial values need an affine point")
    x = point.x
    psi2 = psi2_value(model, point)
    if psi2 == 0:
        raise TwoTorsionError(f"{point} is 2-torsion: psi_2(P) = 0")

    b2, b4, b6, b8 = model.b2, model.b4, model.b6, model.b8
    psi = {
        -1: Fraction(-1),
        0: Fraction(0),
        1: Fraction(1),
        2: psi2,
        3: psi3_value(model, point),
        4: psi2 * (2 * x ** 6 + b2 * x ** 5 + 5 * b4 * x ** 4 + 10 * b6 * x ** 3
                   + 10 * b8 * x * x + (b2 * b8 - b4 * b6) * x + (b4 * b8 - b6 * b6)),
    }
    for n in range(5, n_max + 2):
        m = n // 2
        if n % 2:
            psi[n] = psi[m + 2] * psi[m] ** 3 - psi[m - 1] * psi[m + 1] ** 3
        else:
            num = psi[m] * (psi[m + 2] * psi[m - 1] ** 2 - psi[m - 2] * psi[m + 1] ** 2)
            q = num / psi2
            psi[n] = q

    phi = {}
    for n in range(1, n_max + 1):
        phi[n] = x * psi[n] ** 2 - psi[n - 1] * psi[n + 1]

    # cross-checks against the x-only closed forms
    if psi2 * psi2 != psi2_squared_x(model, x):
        raise InternalError("psi_2^2 disagrees with its x-only cubic")
    if n_max >= 2 and phi[2] != phi2_x(model, x):
        raise InternalError("phi_2 disagrees with its x-only quartic")

    return DivPolySequence(model, point, n_max, psi, phi)


#: zero as a p-split integer (k, U): every product with it stays zero
_ZERO = (INFINITY, 0)


def _sub(a: tuple, b: tuple, p: int) -> tuple:
    """a - b for p-split integers a = p^ka Ua and b = p^kb Ub."""
    (ka, ua), (kb, ub) = a, b
    if ka < kb:
        return a if ub == 0 else (ka, ua - p ** (kb - ka) * ub)
    if kb < ka:
        return (kb, -ub) if ua == 0 else (kb, ua * p ** (ka - kb) - ub)
    d = ua - ub
    if d == 0:
        return _ZERO
    t, u = p_split(d, p)
    return ka + t, u


def integral_scale(model: WeierstrassModel, point: Point) -> int:
    """c such that W_n = c^(n^2-1) psi_n(P) and X = c^2 x(P) are integers.

    Scaling the model by u = lcm(denominators of the a-invariants)
    multiplies psi_n by u^(n^2-1) and x by u^2, and on the integral model
    u^2 x(P) = X/e^2; then c = u e.  On a p-integral model v_p(u) = 0.
    """
    u = lcm(*(a.denominator for a in model.coefficients()))
    return u * isqrt((u * u * point.x).denominator)


def psi_phi_valuations(model: WeierstrassModel, point: Point, p: int,
                       n_max: int) -> list[tuple[int, Valuation, Valuation]]:
    """[(n, v_p(phi_n(P)), v_p(psi_n(P)))] for n = 1..n_max.

    With c = integral_scale(model, point), the integers W_n =
    c^(n^2-1) psi_n and Phi_n = c^(2n^2) phi_n = X W_n^2 - W_(n-1) W_(n+1)
    satisfy the psi and phi recurrences; the even step divides exactly by
    W_2.  The bases and their checks (on the curve, not 2-torsion) come
    from psi_sequence.
    """
    if n_max < 1:
        raise InputError(f"n_max must be >= 1, got {n_max}")
    check_prime(p)
    base = psi_sequence(model, point, 3)
    c = integral_scale(model, point)
    scaled = [point.x * c * c] + [base.psi(n) * c ** (n * n - 1) for n in range(1, 5)]
    if any(q.denominator != 1 for q in scaled):
        raise InternalError(f"{point} is not X/e^2, Y/e^3 on the integral model "
                            f"of {model}")
    big_x, *seeds = (_ZERO if q == 0 else p_split(q.numerator, p) for q in scaled)
    w = [(0, -1), _ZERO, *seeds]  # W_n at index n + 1, from W_-1 = -1 and W_0 = 0
    k2, u2 = w[3]
    for n in range(5, n_max + 2):
        m = n // 2
        (ka, ua), (kb, ub), (kc, uc), (kd, ud) = (
            w[m + 3], w[m + 1], w[m], w[m + 2])  # W_(m+2), W_m, W_(m-1), W_(m+1)
        if n % 2:
            w.append(_sub((ka + 3 * kb, ua * ub ** 3), (kc + 3 * kd, uc * ud ** 3), p))
        else:
            ke, ue = w[m - 1]  # W_(m-2)
            k, num = _sub((ka + 2 * kc, ua * uc * uc), (ke + 2 * kd, ue * ud * ud), p)
            k, num = k + kb, num * ub  # zero when k is INFINITY
            q, r = divmod(num, u2)
            if r:
                raise InternalError(f"W_2 does not divide the even step at n = {n}")
            w.append((k - k2, q))

    v_scale = p_split(c, p)[0]
    kx, ux = big_x
    out = []
    for n in range(1, n_max + 1):
        (kl, ul), (kn, un), (kr, ur) = w[n], w[n + 1], w[n + 2]
        ka, kb = kx + 2 * kn, kl + kr  # exponents of X W_n^2 and W_(n-1) W_(n+1)
        k_phi = min(ka, kb) if ka != kb else _sub((ka, ux * un * un), (kb, ul * ur), p)[0]
        out.append((n, k_phi - 2 * n * n * v_scale, kn - (n * n - 1) * v_scale))
    return out
