"""The arithmetic sequences driving the valuation formulas.

r_n(a, l): quadratic-minus-periodic integer sequence; the division by 2l
is exact (an integer congruence guarantees it), and the implementation
asserts that at runtime.

s_n: the staircase sequence controlled by the parameters (b, e, h, j, s, w)
read off the formal group; it governs growth along p-power indices.
"""

from __future__ import annotations

from .errors import InputError, InternalError
from .exact_numbers import INFINITY, Valuation, val


def r_n(a: int, modulus: int, n: int) -> int:
    """(n^2 * a^(l - a^) - (na)^(l - (na)^)) / (2l) with x^ = x mod l."""
    if modulus < 1:
        raise InputError(f"modulus must be >= 1, got {modulus}")
    if n < 0:
        raise InputError(f"index must be >= 0, got {n}")
    a_hat = a % modulus
    na_hat = (n * a) % modulus
    num = n * n * a_hat * (modulus - a_hat) - na_hat * (modulus - na_hat)
    q, rem = divmod(num, 2 * modulus)
    if rem:
        raise InternalError(f"r_n({a},{modulus},{n}): division by 2l not exact")
    if q < 0:
        raise InternalError(f"r_n({a},{modulus},{n}) negative")
    return q


def s_n(params, p: int, m: int) -> Valuation:
    """Staircase value at index m for the given parameters.

    The caller passes m = n / n_P.  Returns INFINITY when the w parameter
    is infinite and the index reaches the w branch.
    """
    if m < 1:
        raise InputError(f"staircase index must be >= 1, got {m}")
    v = val(m, p)  # finite, as m >= 1

    b, e, h, j, s, w = params.b, params.e, params.h, params.j, params.s, params.w

    def geometric(k: int) -> int:
        # (b^k - 1)/(b - 1) * h, with the b = 1 convention that this is 0
        if b == 1:
            return 0
        return (b ** k - 1) // (b - 1) * h

    if v > j:
        if w == INFINITY:
            return INFINITY
        return b ** j * s + geometric(j) + e * (v - j) + int(w)
    return b ** v * s + geometric(v)
