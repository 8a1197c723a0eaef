"""Arithmetic the benchmark uses to check gcval's outputs.

Nothing here imports gcval: every value the checkers compare against is
computed by this module on its own, from the a-invariants and the point.

* ``vp``            p-adic valuation by a squaring ladder (None for 0);
* ``invariants``    b2..b8, c4, c6 and the discriminant;
* ``classify``      Kodaira symbol and c_v for p >= 5 from (v(c4), v(c6),
                    v(disc)) after removing the 12k non-minimality, with c_v
                    read off Legendre symbols or a cubic's root count;
* ``psi_phi_vals``  v(psi_N) and v(phi_N) from an integer form of the
                    division-polynomial recurrence;
* ``translate``     a-invariants and points under x = x' + r, y = y' + s x' + t.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt


def vp(q, p: int):
    """Exponent of p in the rational q; None when q == 0."""
    q = Fraction(q)
    if q == 0:
        return None
    num, den = q.numerator, q.denominator
    if num % p == 0:
        return _v_int(num, p)
    return -_v_int(den, p)


def _v_int(n: int, p: int) -> int:
    """Valuation of a nonzero integer: divide by p, p^2, p^4, ... while
    possible, then by the same powers from the top down."""
    v = 0
    pows = [p]
    while n % pows[-1] == 0:
        n //= pows[-1]
        v += 1 << (len(pows) - 1)
        pows.append(pows[-1] * pows[-1])
    for k in range(len(pows) - 2, -1, -1):
        if n % pows[k] == 0:
            n //= pows[k]
            v += 1 << k
    return v


def legendre(a: int, p: int) -> int:
    """The Legendre symbol (a/p) for an odd prime p: 1, -1 or 0."""
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def fp_reduce(q, p: int) -> int:
    q = Fraction(q)
    return q.numerator * pow(q.denominator, -1, p) % p


def invariants(a):
    """(b2, b4, b6, b8, c4, c6, disc) of the model with a-invariants a."""
    a1, a2, a3, a4, a6 = (Fraction(x) for x in a)
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -b2 ** 3 + 36 * b2 * b4 - 216 * b6
    disc = -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    return b2, b4, b6, b8, c4, c6, disc


_INF = 10 ** 9  # stands for v(0) in the minimality arithmetic below

_ADDITIVE = {2: "II", 3: "III", 4: "IV", 6: "I0*", 8: "IV*", 9: "III*", 10: "II*"}


def classify(a, p: int):
    """(kodaira, cv) for p >= 5, or cv None where it is not pinned (I_m*).

    The model may be non-minimal: c4, c6 and disc are divided by p^(4k),
    p^(6k) and p^(12k) for the largest k the valuations allow.
    """
    if p < 5:
        raise ValueError("the invariant classification needs p >= 5")
    _, _, _, _, c4, c6, disc = invariants(a)
    v4, v6, vd = (_INF if vp(c, p) is None else vp(c, p) for c in (c4, c6, disc))
    k = min(v4 // 4, v6 // 6, vd // 12)
    c4, c6, disc = c4 / p ** (4 * k), c6 / p ** (6 * k), disc / p ** (12 * k)
    v4, vd = v4 - 4 * k, vd - 12 * k
    if vd == 0:
        return "I0", 1
    if v4 == 0:
        split = legendre(fp_reduce(-c6, p), p) == 1
        return f"I{vd}", vd if split else (2 if vd % 2 == 0 else 1)
    if v4 == 2 and vd > 6:
        return f"I{vd - 6}*", None
    kodaira = _ADDITIVE.get(vd)
    if kodaira is None:
        raise ValueError(f"no Kodaira type has v(c4)={v4}, v(disc)={vd} at p={p}")
    if kodaira in ("IV", "IV*"):
        shift = 2 if kodaira == "IV" else 4
        square = legendre(fp_reduce(-6 * c6 / p ** shift, p), p) == 1
        return kodaira, 3 if square else 1
    if kodaira == "I0*":
        # y^2 = x^3 - 27 c4 x - 54 c6 over Z_p; c_v = 1 + roots of the
        # residual cubic x^3 - 27 (c4/p^2) x - 54 (c6/p^3)
        A = fp_reduce(-27 * c4 / p ** 2, p)
        B = fp_reduce(-54 * c6 / p ** 3, p)
        roots = sum(1 for x in range(p) if (x ** 3 + A * x + B) % p == 0)
        return kodaira, 1 + roots
    return kodaira, {"II": 1, "III": 2, "III*": 2, "II*": 1}[kodaira]


def cv_fits_type(kodaira: str, cv: int, split=None) -> bool:
    """Whether c_v is possible for the Kodaira symbol (at any prime).

    ``split`` is True/False when the splitting of I_m is known."""
    if kodaira in ("II", "II*", "I0"):
        return cv == 1
    if kodaira in ("III", "III*"):
        return cv == 2
    if kodaira in ("IV", "IV*"):
        return cv in (1, 3)
    if kodaira == "I0*":
        return cv in (1, 2, 4)
    if kodaira.endswith("*"):
        return cv in (2, 4)
    m = int(kodaira[1:])
    nonsplit = 2 if m % 2 == 0 else 1
    if split is None:
        return cv in (m, nonsplit)
    return cv == (m if split else nonsplit)


def psi_phi_vals(a, point, p: int, n: int):
    """(v(psi_n(P)), v(phi_n(P))) on an integral model, None for zero.

    With x = X/d^2 and y = Y/d^3, P_k = psi_k * d^(k^2-1) and
    F_k = phi_k * d^(2k^2) are integers: the odd step needs no division
    and the even step divides exactly by P_2.
    """
    a1, a2, a3, a4, a6 = (int(Fraction(c)) for c in a)
    if any(Fraction(c).denominator != 1 for c in a):
        raise ValueError("psi_phi_vals needs an integral model")
    b2, b4, b6, b8, *_ = (int(v) for v in invariants(a)[:4])
    x, y = Fraction(point[0]), Fraction(point[1])
    d = isqrt(x.denominator)
    if d * d != x.denominator or y.denominator != d ** 3:
        raise ValueError("point denominators are not d^2, d^3")
    X, Y = x.numerator, y.numerator
    dd = [d ** i for i in range(13)]
    P = [0, 1,
         2 * Y + a1 * X * d + a3 * dd[3],
         3 * X ** 4 + b2 * X ** 3 * dd[2] + 3 * b4 * X * X * dd[4]
         + 3 * b6 * X * dd[6] + b8 * dd[8]]
    P.append(P[2] * (2 * X ** 6 + b2 * X ** 5 * dd[2] + 5 * b4 * X ** 4 * dd[4]
                     + 10 * b6 * X ** 3 * dd[6] + 10 * b8 * X * X * dd[8]
                     + (b2 * b8 - b4 * b6) * X * dd[10] + (b4 * b8 - b6 * b6) * dd[12]))
    for k in range(5, n + 2):
        m = k // 2
        if k % 2:
            P.append(P[m + 2] * P[m] ** 3 - P[m - 1] * P[m + 1] ** 3)
        else:
            num = P[m] * (P[m + 2] * P[m - 1] ** 2 - P[m - 2] * P[m + 1] ** 2)
            q, r = divmod(num, P[2])
            if r:
                raise ArithmeticError(f"P_2 does not divide the numerator of P_{k}")
            P.append(q)
    F = X * P[n] ** 2 - P[n - 1] * P[n + 1]
    vd = _v_int(d, p) if d % p == 0 else 0
    v_psi = None if P[n] == 0 else _v_int(P[n], p) - (n * n - 1) * vd
    v_phi = None if F == 0 else _v_int(F, p) - 2 * n * n * vd
    return v_psi, v_phi


def translate(a, r, s, t):
    """a-invariants after x = x' + r, y = y' + s x' + t (u = 1)."""
    a1, a2, a3, a4, a6 = a
    return (a1 + 2 * s,
            a2 - s * a1 + 3 * r - s * s,
            a3 + r * a1 + 2 * t,
            a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t,
            a6 + r * a4 + r * r * a2 + r ** 3 - t * a3 - t * t - r * t * a1)


def translate_point(P, r, s, t):
    x, y = P
    xn = x - r
    return xn, y - s * xn - t
