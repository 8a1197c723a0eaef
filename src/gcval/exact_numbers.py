"""Exact rationals and p-adic valuations.

All field arithmetic in this package happens in Q, on one rule: a rational
that is an integer is a Python ``int``, and any other is a
fractions.Fraction, which keeps lowest terms and a positive denominator.
``Rational`` names that pair, and ``as_rational`` is the one statement of
that rule: the constructors in ``curve_core``, ``val`` and
``format_rational`` all coerce through it.  So integral models, points and
coordinate changes, the common case at p, never build a Fraction or take a
gcd.  A ``float`` is never a rational here: it is what an int ``/`` int
makes, and ``as_rational`` raises ``InternalError`` on one.  This module
adds the p-adic valuation (with a distinguished infinity for the
valuation of 0), the residue of a p-integral rational modulo p, and the
string forms used in corpus files and CLI output.

``p_split`` splits a non-zero integer into p^v times a unit; both the
valuation and the division-polynomial oracle's p-split integers use it,
where v reaches the thousands.  It climbs a squaring ladder: divide by p,
p^2, p^4, ... while the division is exact, then by the same powers from
the top down.  That is O(log v) big-integer divisions instead of the v
single-factor divisions of stripping p one at a time, each of which costs
time linear in the operand's size.  For p = 2 the exponent is read off the
lowest set bit.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from typing import Union

from .errors import InputError, InternalError, NonPrimeError

#: an integer as an int, any other rational as a reduced Fraction
Rational = int | Fraction

#: Valuation of 0.  Compares greater than every finite valuation and
#: absorbs addition, which is exactly the arithmetic downstream min/sum
#: logic relies on.
INFINITY = float("inf")

Valuation = Union[int, float]


def as_rational(x) -> Rational:
    """x as an int when it is an integer, else as a reduced Fraction.

    A string is parsed by parse_rational.  A float is the trace of an
    int / int division and raises InternalError; any other value raises
    InputError.
    """
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if isinstance(x, str):
        x = parse_rational(x)
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, float):
        raise InternalError(f"float {x!r} where an exact rational is required")
    raise InputError(f"cannot interpret {x!r} as a rational")


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for all n < 3.3e24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(p) -> int:
    if not isinstance(p, int) or isinstance(p, bool) or not is_prime(p):
        raise NonPrimeError(f"not a prime: {p!r}")
    return p


def p_split(n: int, p: int) -> tuple[int, int]:
    """(v, n / p^v) with v the exponent of the prime p in the non-zero integer n.

    Climbs a squaring ladder: divides by p, p^2, p^4, ... while the
    division is exact, then by the same powers from the top down, so a
    valuation v costs O(log v) big-integer divisions.
    """
    if p == 2:
        v = (n & -n).bit_length() - 1
        return v, n >> v
    powers = []
    pk = p
    while True:
        q, r = divmod(n, pk)
        if r:
            break
        n = q
        powers.append(pk)
        pk *= pk
    # the climb removed p^(2^k - 1) with k = len(powers), and the remaining
    # valuation is below 2^k, so one greedy pass down the powers ends it
    v = (1 << len(powers)) - 1
    for k in range(len(powers) - 1, -1, -1):
        q, r = divmod(n, powers[k])
        if not r:
            n = q
            v += 1 << k
    return v, n


def val(q, p: int) -> Valuation:
    """Exponent of the prime p in the rational q; INFINITY iff q == 0.

    Satisfies val(q1*q2) = val(q1) + val(q2) and
    val(q1+q2) >= min(val(q1), val(q2)), with equality when the two
    valuations differ.
    """
    check_prime(p)
    q = as_rational(q)
    if q == 0:
        return INFINITY
    v = p_split(q.numerator, p)[0]
    if v or q.denominator == 1:
        return v  # q is in lowest terms, so p cannot also divide den
    return -p_split(q.denominator, p)[0]


def residue(q: Rational, p: int, k: int = 0) -> int:
    """(q / p^k) mod p for a p-integral rational q that p^k divides.

    Reads the shifted numerator with one checked divmod, so no quotient is
    built; raises InternalError when p^k does not divide the numerator or
    p divides the denominator.
    """
    num, den = q.numerator, q.denominator
    if k:
        num, rem = divmod(num, p ** k)
        if rem:
            raise InternalError(f"reducing {q} / {p}^{k}, which is not {p}-integral")
    if den % p == 0:
        raise InternalError(f"reducing {q}, which is not {p}-integral")
    return num * pow(den, -1, p) % p


def parse_rational(text: str) -> Fraction:
    """Parse 'num', 'num/den' or a decimal 'num.digits' into an exact rational.

    An exponent ('1e5') is refused before any integer is built: Fraction
    would make 10^k from it without converting a string, out of reach of
    CPython's limit on int-from-str conversion (4300 digits by default),
    which bounds every form accepted here.
    """
    if not isinstance(text, str):
        raise InputError(f"expected a rational string, got {text!r}")
    if "e" in text or "E" in text:
        raise InputError(f"bad rational {text!r}: exponents are not accepted")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational {text!r}") from exc


def format_rational(q) -> str:
    """Canonical 'num/den' or 'num' form (lowest terms, positive denominator).

    The digits go through Decimal, which CPython's limit on int-to-str
    conversion (4300 digits by default) does not cover, so psi_n and phi_n
    print in full up to the n_max guardrail.  The limit still bounds what
    parse_rational reads.
    """
    q = as_rational(q)
    num = str(Decimal(q.numerator))
    if q.denominator == 1:
        return num
    return f"{num}/{Decimal(q.denominator)}"


def val_to_json(v: Valuation):
    """Finite valuations serialize as ints, infinity as the string 'inf'."""
    if v == INFINITY:
        return "inf"
    return int(v)
