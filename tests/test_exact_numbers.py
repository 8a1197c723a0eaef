from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gcval.curve_core import CoordinateChange, Point, WeierstrassModel
from gcval.errors import InputError, InternalError, NonPrimeError
from gcval.exact_numbers import (
    INFINITY,
    as_rational,
    format_rational,
    is_prime,
    parse_rational,
    residue,
    val,
    val_to_json,
)

PRIMES_TO_100 = [p for p in range(2, 101) if is_prime(p)]


def test_val_zero_is_infinity():
    assert val(0, 7) == INFINITY
    assert INFINITY > 10 ** 9
    assert INFINITY + 5 == INFINITY


def test_val_unit():
    assert val(1, 5) == 0


def test_val_hand_factorizations():
    assert val(48, 2) == 4  # 48 = 2^4 * 3
    assert val(Fraction(5, 27), 3) == -3  # 27 = 3^3


def test_val_rejects_non_prime():
    with pytest.raises(NonPrimeError):
        val(10, 6)
    with pytest.raises(NonPrimeError):
        val(10, 1)


def test_is_prime_small():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert is_prime(2 ** 31 - 1)
    assert not is_prime(2 ** 32 + 1)


rationals = st.fractions(min_value=-(10 ** 6), max_value=10 ** 6,
                         max_denominator=10 ** 4)


@settings(max_examples=150)
@given(q1=rationals, q2=rationals, p=st.sampled_from(PRIMES_TO_100))
def test_val_is_additive_on_products(q1, q2, p):
    assert val(q1 * q2, p) == val(q1, p) + val(q2, p)


@settings(max_examples=150)
@given(q1=rationals, q2=rationals, p=st.sampled_from(PRIMES_TO_100))
def test_val_ultrametric(q1, q2, p):
    lhs = val(q1 + q2, p)
    lo = min(val(q1, p), val(q2, p))
    assert lhs >= lo
    if val(q1, p) != val(q2, p):
        assert lhs == lo


def _val_by_strip(q, p):
    """Reference: the valuation by stripping one factor of p per loop."""
    q = Fraction(q)
    if q == 0:
        return INFINITY
    num, den = q.numerator, q.denominator
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    if v:
        return v
    while den % p == 0:
        den //= p
        v -= 1
    return v


@settings(max_examples=120, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 9973]),
       k=st.integers(min_value=0, max_value=5000),
       u=st.integers(min_value=1, max_value=10 ** 40),
       d=st.integers(min_value=1, max_value=10 ** 20),
       sign=st.sampled_from([1, -1]),
       in_denominator=st.booleans())
# exact powers at the ladder's rungs, 2^j - 1 and 2^j
@example(p=3, k=1023, u=1, d=1, sign=1, in_denominator=False)
@example(p=3, k=1024, u=2, d=1, sign=-1, in_denominator=False)
@example(p=5, k=255, u=1, d=1, sign=1, in_denominator=True)
@example(p=9973, k=4096, u=9972, d=1, sign=1, in_denominator=False)
@example(p=2, k=4096, u=1, d=3, sign=-1, in_denominator=True)
def test_val_matches_strip_on_deep_valuations(p, k, u, d, sign, in_denominator):
    # the squaring ladder against the one-factor strip, at valuations far
    # beyond what the hand values and the product/sum laws above reach
    if in_denominator:
        q = Fraction(sign * u, p ** k * d)
    else:
        q = Fraction(sign * p ** k * u, d)
    assert val(q, p) == _val_by_strip(q, p)


@given(q=rationals)
def test_rational_string_round_trip(q):
    assert parse_rational(format_rational(q)) == q


def test_canonical_forms():
    assert format_rational(Fraction(4, -6)) == "-2/3"
    assert format_rational(Fraction(8, 4)) == "2"
    assert parse_rational("7/1") == 7


def test_parse_rational_refuses_exponents():
    for text in ("1e300000", "1E5", "-2.5e-3", "3e0", " 1e2 ", "1_0e1"):
        with pytest.raises(InputError, match="exponents"):
            parse_rational(text)
    # every other form Fraction reads stays accepted
    assert parse_rational(" -3/4 ") == Fraction(-3, 4)
    assert parse_rational("2.50") == Fraction(5, 2)
    assert parse_rational("1_000") == 1000
    assert parse_rational("+7") == 7
    with pytest.raises(InputError, match="bad rational"):
        parse_rational("1" * 5000)  # past the int-from-str limit


def test_val_refuses_a_float():
    # 5 / 1 is 5.0: an int division that went around curve_core._div
    with pytest.raises(InternalError, match="float"):
        val(5 / 1, 5)


def test_format_rational_refuses_a_float():
    with pytest.raises(InternalError, match="float"):
        format_rational(6 / 2)


@pytest.mark.parametrize("build", [
    lambda f: WeierstrassModel(0, 0, 1, f, 0),
    lambda f: Point(f, 0),
    lambda f: CoordinateChange(f),
], ids=["WeierstrassModel", "Point", "CoordinateChange"])
def test_constructors_refuse_a_float(build):
    # the constructors coerce through as_rational, the rule val applies
    with pytest.raises(InternalError, match="float"):
        build(6 / 2)


def test_integral_fraction_becomes_an_int():
    assert type(as_rational(Fraction(8, 4))) is int
    assert type(Point(Fraction(8, 4), Fraction(-3, 1)).y) is int


def test_residue_reads_the_shifted_numerator():
    assert residue(7, 5) == 2
    assert residue(Fraction(3, 2), 5) == 4  # 3 * 2^-1 = 3 * 3 mod 5
    assert residue(Fraction(-250, 7), 5, 3) == (-2 * pow(7, -1, 5)) % 5
    assert residue(0, 5, 9) == 0
    with pytest.raises(InternalError):
        residue(Fraction(50, 3), 5, 3)  # 5^3 does not divide 50
    with pytest.raises(InternalError):
        residue(Fraction(1, 5), 5)  # not 5-integral


@given(q=rationals, p=st.sampled_from([2, 3, 5, 7]), k=st.integers(0, 3))
def test_residue_matches_the_quotient(q, p, k):
    if q == 0 or q.denominator % p or val(q, p) < k:
        return
    shifted = q / p ** k
    assert residue(q, p, k) == shifted.numerator * pow(shifted.denominator, -1, p) % p


def test_val_to_json():
    assert val_to_json(INFINITY) == "inf"
    assert val_to_json(-3) == -3
