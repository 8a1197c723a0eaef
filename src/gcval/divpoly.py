"""Division polynomial values psi_n(P) and companions phi_n(P) at a point.

Evaluation is numeric at the point (exact rationals), never symbolic: only
valuations of the values are needed downstream, and symbolic coefficients
blow up.  The table is built bottom-up from the printed bases psi_1..psi_4,
extended below index 1 by psi_0 = 0 and psi_-1 = -1 so the recurrences hold
at the margins without special cases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .curve_core import Point, WeierstrassModel, require_on_curve
from .errors import InputError, InternalError, TwoTorsionError
from .exact_numbers import Rational


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

