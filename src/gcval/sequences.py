"""The arithmetic sequences driving the valuation formulas.

r_n(a, l): quadratic-minus-periodic integer sequence.  With x^ = x mod l
and f(x) = x^ (l - x^), r_n = (n^2 f(a) - f(na)) / (2l) is a non-negative
integer, so the division is taken as it is:

* exact: x^ = x - kl gives f(x) = x (l - x) - k (1 - k) l^2 + 2 k l x^,
  and k (1 - k) is even, so f(x) = x (l - x) mod 2l; then
  n^2 f(a) - f(na) = n (n - 1) l a mod 2l, and n (n - 1) is even;
* non-negative: f(x) = d (l - d) with d <= l/2 the distance from x to the
  nearest multiple of l, and d(na) <= n d(a), so for n >= 2
  f(na) <= d(na) l <= n d(a) l <= n^2 d(a) (l - d(a)) = n^2 f(a); r_0 and
  r_1 are 0.

s_n: the staircase sequence controlled by the parameters (b, e, h, j, s, w)
read off the formal group; it governs growth along p-power indices.
"""

from __future__ import annotations

from .errors import InputError
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
    return num // (2 * modulus)


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
