"""Division polynomial values psi_n(P) and companions phi_n(P) at a point.

Evaluation is numeric at the point, never symbolic.  One recurrence runs
on the integers W_n = c^(n^2-1) psi_n from the printed bases psi_1..psi_4
and psi_0 = 0, psi_-1 = -1, with c = u e when scaling by u makes the model
integral and puts P at x = X/e^2.  X and c are P's integer form, which
curve_core.integral_form owns.  Each W_n is held as p^k U with p not
dividing U: a product adds exponents, a difference of two terms has a
known exponent unless the two tie, and only then is p split off.
Phi_n = c^(2n^2) phi_n = X W_n^2 - W_(n-1) W_(n+1).

``division_table`` builds that table once, as a ``DivisionTable`` value,
and reads each row (n, v_p(phi_n), v_p(psi_n)) as soon as W_(n+1) exists.
v_p(phi_n) is the smaller exponent of the two terms of Phi_n, unless they
tie; then the units are reduced modulo a power of p below 2^30, and only a
zero residue forms Phi_n.  The table has three readers: ``valuations``
returns the rows (the oracle), ``scaled_psi`` joins the integer W_n and
``scaled_phi`` the integer Phi_n (the structural checks).  A caller that
reads no exact W_n past some index says so with ``keep``, and the build
drops each W_n above it once nothing reads it again.  ``psi_sequence``
rebuilds the exact values psi_n = W_n / c^(n^2-1) and phi_n = Phi_n /
c^(2n^2) for ``gcval psi``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import prod

from .curve_core import Point, WeierstrassModel, integral_form, require_on_curve
from .errors import InputError, InternalError, TwoTorsionError
from .exact_numbers import INFINITY, Rational, Valuation, check_prime, p_split


def psi2_value(model: WeierstrassModel, point: Point) -> Rational:
    """psi_2 = 2y + a1 x + a3."""
    return 2 * point.y + model.a1 * point.x + model.a3


def psi2_squared_x(model: WeierstrassModel, x) -> Rational:
    """(psi_2)^2 as a function of x alone: 4x^3 + b2 x^2 + 2 b4 x + b6."""
    return 4 * x ** 3 + model.b2 * x * x + 2 * model.b4 * x + model.b6


def psi3_value(model: WeierstrassModel, point: Point) -> Rational:
    """psi_3 = 3x^4 + b2 x^3 + 3 b4 x^2 + 3 b6 x + b8."""
    b2, b4, b6, b8 = model.b2, model.b4, model.b6, model.b8
    x = point.x
    return 3 * x ** 4 + b2 * x ** 3 + 3 * b4 * x * x + 3 * b6 * x + b8


def phi2_x(model: WeierstrassModel, x) -> Rational:
    """phi_2 as a function of x alone: x^4 - b4 x^2 - 2 b6 x - b8."""
    return x ** 4 - model.b4 * x * x - 2 * model.b6 * x - model.b8


@dataclass(frozen=True)
class DivPolySequence:
    #: [(n, v_p(phi_n), v_p(psi_n))] for 1 <= n <= n_max, at the table's prime
    valuations: list = field(repr=False)
    _psi: dict = field(repr=False)  # n -> psi_n(P), for -1 <= n <= max(4, n_max + 1)
    _phi: dict = field(repr=False)  # n -> phi_n(P), for 1 <= n <= n_max

    def psi(self, n: int) -> Rational:
        return self._psi[n]

    def phi(self, n: int) -> Rational:
        return self._phi[n]


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


def _join(a: tuple, p: int) -> int:
    """The integer p^k U of a p-split pair (k, U)."""
    k, u = a
    return 0 if u == 0 else p ** k * u


def _tie_modulus(p: int) -> int:
    """m = p^K, the largest power of p below 2^30 (one CPython digit, so a
    residue costs one pass over the operand), or p itself when p >= 2^15."""
    m = p
    while m * p < 1 << 30:
        m *= p
    return m


def _tie_exponent(k: Valuation, a: tuple, b: tuple, p: int, m: int) -> Valuation:
    """v_p(p^k (A - B)), A and B the products of the units in a and b.

    A - B is congruent to its residue d modulo m = p^K; when d is not zero
    v_p(A - B) = v_p(d) < K, and only when it is are A and B formed.
    """
    d = (prod(u % m for u in a) - prod(u % m for u in b)) % m
    if d:
        return k + p_split(d, p)[0]
    return _sub((k, prod(a)), (k, prod(b)), p)[0]


@dataclass(frozen=True)
class DivisionTable:
    """W_-1..W_top at a point, each split at p as (k, U), with
    top = min(keep, max(4, n_max+1)), and the rows (n, v_p(phi_n), v_p(psi_n))
    for n = 1..n_max, read off the whole recurrence."""

    p: int
    c: int  # W_n = c^(n^2-1) psi_n(P)
    x: tuple  # X = c^2 x(P)
    w: tuple  # W_n at index n + 1
    rows: tuple  # (n, v_p(phi_n), v_p(psi_n)) at index n - 1

    def scaled_psi(self, n: int) -> int:
        """The integer W_n, for -1 <= n <= keep."""
        if not -1 <= n < len(self.w) - 1:
            raise InternalError(f"W_{n} is not in the table, which keeps "
                                f"W_-1..W_{len(self.w) - 2}")
        return _join(self.w[n + 1], self.p)

    def scaled_phi(self, n: int) -> int:
        """The integer Phi_n = c^(2n^2) phi_n(P) = X W_n^2 - W_(n-1) W_(n+1),
        for 1 <= n < keep."""
        w = self.scaled_psi
        return _join(self.x, self.p) * w(n) ** 2 - w(n - 1) * w(n + 1)

    def valuations(self, n_max: int) -> list[tuple[int, Valuation, Valuation]]:
        """[(n, v_p(phi_n), v_p(psi_n))] for n = 1..n_max, read during the
        build."""
        if n_max > len(self.rows):
            raise InternalError(f"rows to n = {n_max} asked of a table built "
                                f"to n = {len(self.rows)}")
        return list(self.rows[:n_max])


def division_table(model: WeierstrassModel, point: Point, p: int,
                   n_max: int, keep: int | None = None) -> DivisionTable:
    """The table W_-1..W_max(4, n_max+1) at the point, split at p, with its
    rows for n = 1..n_max.

    ``keep`` is the largest n whose exact W_n the caller reads; the default
    keeps them all.  Past it, W_j is dropped as soon as neither a row nor
    the recurrence reads it again.  Requires n_max >= 1, a prime p and an
    affine point on the curve that is not 2-torsion (the even step divides
    exactly by W_2).
    """
    if n_max < 1:
        raise InputError(f"n_max must be >= 1, got {n_max}")
    check_prime(p)
    require_on_curve(model, point)
    x = point.x
    psi2 = psi2_value(model, point)
    if psi2 == 0:
        raise TwoTorsionError(f"{point} is 2-torsion: psi_2(P) = 0")
    psi3 = psi3_value(model, point)
    b2, b4, b6, b8 = model.b2, model.b4, model.b6, model.b8
    psi4 = psi2 * (2 * x ** 6 + b2 * x ** 5 + 5 * b4 * x ** 4 + 10 * b6 * x ** 3
                   + 10 * b8 * x * x + (b2 * b8 - b4 * b6) * x + (b4 * b8 - b6 * b6))

    big_x, _, c = integral_form(model, point)
    scaled = [big_x, psi2 * c ** 3, psi3 * c ** 8, psi4 * c ** 15]
    if any(q.denominator != 1 for q in scaled):
        raise InternalError(f"{point} is not X/e^2, Y/e^3 on the integral model "
                            f"of {model}")
    big_x, *seeds = (_ZERO if q == 0 else p_split(q.numerator, p) for q in scaled)
    w = [(0, -1), _ZERO, (0, 1), *seeds]  # W_n at index n + 1
    k2, u2 = w[3]
    kx, ux = big_x
    v_scale, m_tie = p_split(c, p)[0], _tie_modulus(p)
    rows = []

    def read_row(n):  # W_(n-1), W_n and W_(n+1) are in w
        (kl, ul), (kn, un), (kr, ur) = w[n], w[n + 1], w[n + 2]
        ka, kb = kx + 2 * kn, kl + kr  # exponents of X W_n^2 and W_(n-1) W_(n+1)
        k_phi = (min(ka, kb) if ka != kb
                 else _tie_exponent(ka, (ux, un, un), (ul, ur), p, m_tie))
        rows.append((n, k_phi - 2 * n * n * v_scale, kn - (n * n - 1) * v_scale))

    # W_j above this goes once row j + 1, its last reader, is read; the
    # recurrence reads no index above (n_max + 1) // 2 + 2
    drop_above = INFINITY if keep is None else max(keep, (n_max + 1) // 2 + 2)
    for n in range(1, min(3, n_max) + 1):  # the seeds reach W_4
        read_row(n)
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
        read_row(n - 1)
        if n - 2 > drop_above:
            w[n - 1] = None
    if keep is not None:
        del w[keep + 2:]
    return DivisionTable(p, c, big_x, tuple(w), tuple(rows))


def psi_sequence(model: WeierstrassModel, point: Point, p: int,
                 n_max: int) -> DivPolySequence:
    """psi_-1..psi_{max(4, n_max+1)} and phi_1..phi_{n_max} at the point, exact,
    rebuilt from the division table split at p, with their valuations."""
    t = division_table(model, point, p, n_max)
    psi = {-1: Fraction(-1), 0: Fraction(0)}
    psi.update((n, Fraction(t.scaled_psi(n), t.c ** (n * n - 1)))
               for n in range(1, len(t.w) - 1))
    phi = {n: Fraction(t.scaled_phi(n), t.c ** (2 * n * n)) for n in range(1, n_max + 1)}
    return DivPolySequence(t.valuations(n_max), psi, phi)
