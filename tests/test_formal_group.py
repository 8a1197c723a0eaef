from fractions import Fraction

import pytest

from gcval.curve_core import Point, WeierstrassModel, mul
from gcval.errors import InputError, InternalError
from gcval.exact_numbers import val
from gcval.formal_group import (
    StaircaseParams,
    TruncatedSeries,
    curve_w_series,
    formal_add,
    mult_by_m_series,
    staircase_params,
    unit_exponent_scan,
)

E37 = WeierstrassModel(0, 0, 1, -1, 0)
GENERIC = WeierstrassModel(1, 2, 3, 4, 5)


def test_series_arithmetic_exact_mod_truncation():
    a = TruncatedSeries((0, 1, 2, 3), 3)
    b = TruncatedSeries((0, 1, 0, 0, 0, 0), 5)
    # sums and products are known to the smaller of the two orders
    assert (a + b).order == 3 and (a + b).coeffs == (0, 2, 2, 3)
    assert (a * b).order == 3 and (a * b).coeffs == (0, 0, 1, 2)
    one_minus_t = TruncatedSeries((1, -1), 4)
    assert one_minus_t.inverse().coeffs == (1, 1, 1, 1, 1)
    assert (one_minus_t * one_minus_t.inverse()).coeffs == (1, 0, 0, 0, 0)
    # 1/(1 - s) at s = t + t^2 is the Fibonacci series 1/(1 - t - t^2)
    geometric = TruncatedSeries((1, 1, 1, 1), 3)
    s = TruncatedSeries((0, 1, 1), 5)
    assert geometric.compose(s).order == 3
    assert geometric.compose(s).coeffs == (1, 1, 2, 3)
    with pytest.raises(InputError):
        a.inverse()
    with pytest.raises(InputError):
        a.compose(one_minus_t)


def test_series_compose_and_reversion_consistency():
    # compose with t + t^2 and divide back out
    f = TruncatedSeries((0, 1, 1), 8)   # t + t^2
    g = TruncatedSeries((0, 2, 0, 5), 8)
    h = g.compose(f)
    assert h.coefficient(1) == 2


def test_w_series_leading_terms():
    w = curve_w_series(GENERIC, 7)
    a1, a2, a3 = GENERIC.a1, GENERIC.a2, GENERIC.a3
    assert w.coeffs[0:3] == (0, 0, 0)
    assert w.coefficient(3) == 1
    assert w.coefficient(4) == a1
    assert w.coefficient(5) == a1 * a1 + a2
    assert w.coefficient(6) == a1 ** 3 + 2 * a1 * a2 + a3


def test_mult_by_one_is_identity():
    s = mult_by_m_series(E37, 1, 6)
    assert s.coeffs == (0, 1, 0, 0, 0, 0, 0)


@pytest.mark.parametrize("m", range(1, 11))
def test_linear_coefficient_is_m(m):
    s = mult_by_m_series(GENERIC, m, 4)
    assert s.coefficient(1) == m


def test_doubling_quadratic_coefficient():
    # [2]T = 2T - a1 T^2 + O(T^3); for y^2 = x^3 + 1 the T^2 term vanishes
    s = mult_by_m_series(WeierstrassModel(0, 0, 0, 0, 1), 2, 3)
    assert s.coefficient(2) == 0
    s = mult_by_m_series(GENERIC, 2, 3)
    assert s.coefficient(2) == -GENERIC.a1


def test_homomorphism_property():
    for model in (E37, GENERIC):
        for m1, m2 in ((1, 1), (1, 2), (2, 3), (3, 4)):
            lhs = formal_add(model, mult_by_m_series(model, m1, 14),
                             mult_by_m_series(model, m2, 10))
            rhs = mult_by_m_series(model, m1 + m2, 10)
            assert lhs.coeffs == rhs.coeffs, (model, m1, m2)


def test_series_matches_exact_group_law_p_adically():
    # each Q lies in the formal group at 2 (v(t(Q)) = 1); the [m]T series
    # must agree with the exact group law mod 2^(N+1)
    n = 12
    for model, q in (
            (E37, Point(Fraction(1, 4), Fraction(-5, 8))),  # a1 = 0, a3 = 1
            (WeierstrassModel(1, -1, 1, 0, 0),               # a1 = a3 = 1
             Point(Fraction(-1, 4), Fraction(-5, 8)))):
        t_q = -q.x / q.y
        assert val(t_q, 2) == 1
        for m in (2, 3, 5):
            series = mult_by_m_series(model, m, n)
            qm = mul(model, m, q)
            t_qm = -qm.x / qm.y
            approx = sum(c * t_q ** i for i, c in enumerate(series.coeffs))
            assert val(approx - t_qm, 2) >= n + 1, (model, m)


@pytest.mark.parametrize("model", [E37, GENERIC, WeierstrassModel(1, -1, 1, 0, 0),
                                   WeierstrassModel(0, 0, 0, 5, -125)])
def test_mult_by_m_is_integral_on_integral_models(model):
    for m in range(1, 7):
        series = mult_by_m_series(model, m, 12)
        assert all(c.denominator == 1 for c in series.coeffs), m


def test_unit_exponent_scans():
    assert unit_exponent_scan(E37, 2) == 4          # supersingular at 2
    assert unit_exponent_scan(E37, 3) == 9          # supersingular at 3
    assert unit_exponent_scan(E37, 7) == 7          # ordinary at 7
    assert unit_exponent_scan(WeierstrassModel(1, -1, 1, 0, 0), 2) == 2


def test_unit_exponent_fallback_on_additive_reduction():
    # multiplication by p kills the additive group in char p, so every
    # coefficient of [p]T is divisible by p and the scan falls back to b = 1
    assert unit_exponent_scan(WeierstrassModel(0, 0, 0, 5, -125), 5) == 1


def test_staircase_params_b1():
    # s is read at [n_P]P, here [5]P
    model = WeierstrassModel(0, 0, 0, 5, -125)
    prm = staircase_params(model, mul(model, 5, Point(54, -397)), 5, b=1)
    assert (prm.b, prm.j, prm.w) == (1, 0, 0)
    assert prm.s >= 1


def test_staircase_params_equality_case():
    # ordinary at 2 with s = 1: equality in the j definition, so w is read
    # from the two point multiples
    model = WeierstrassModel(1, -1, 1, 0, 0)
    q = Point(Fraction(-1, 4), Fraction(-5, 8))
    prm = staircase_params(model, q, 2, b=2)  # n_P = 1
    assert (prm.b, prm.s, prm.j) == (2, 1, 0)
    q1 = mul(model, 2, q)
    expected_w = int(val(q1.x, 2) - val(q1.y, 2)) - 2 * 1 - 0
    assert prm.w == expected_w == 1


def test_staircase_params_no_equality():
    prm = staircase_params(E37, Point(Fraction(1, 4), Fraction(-5, 8)),
                           2, b=4)  # n_P = 1
    assert (prm.b, prm.s, prm.j, prm.w) == (4, 1, 0, 0)


def test_staircase_validation():
    with pytest.raises(InternalError):
        StaircaseParams(b=3, e=1, h=0, j=0, s=1, w=0).validate(2)
    with pytest.raises(InternalError):
        StaircaseParams(b=1, e=1, h=1, j=0, s=1, w=0).validate(2)


def test_bad_inputs():
    with pytest.raises(InputError):
        mult_by_m_series(E37, 0, 5)
    with pytest.raises(InputError):
        mult_by_m_series(E37, 2, 0)
