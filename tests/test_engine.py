from fractions import Fraction

import pytest

from gcval.cli import N_MAX_GUARDRAIL
from gcval.curve_core import Point, WeierstrassModel, mul, multiples
from gcval.divpoly import division_table, psi_sequence
from gcval.engine import (
    ROW_I2MSTAR_C4,
    ROW_III,
    ROW_IM_SPLIT,
    ROW_ISTAR_ODD_C4_SING,
    ROW_NONSING_NEG,
    classify_row,
    default_staircase_params,
    k_direct_range,
    k_formula,
    predict_phi_val,
    predict_psi_val,
    row_is_flagged,
    table_decomposition,
)
from gcval.errors import InputError, PreconditionError, TorsionPointError
from gcval.exact_numbers import INFINITY, val
from gcval.formal_group import StaircaseParams, staircase_j, unit_exponent_scan
from gcval.profile import compute_profile
from gcval.tate import run_tate


def profile_of(a, pt, p):
    tate = run_tate(WeierstrassModel(*a), p)
    return compute_profile(tate, Point(*pt))


def test_k_direct_guard_and_raw_value():
    model = WeierstrassModel(0, 0, 0, 0, 1)
    torsion = Point(2, 3)
    # the torsion guard is the walk's (compute_profile's, or kval --mode
    # direct's), not the oracle's
    with pytest.raises(TorsionPointError):
        list(multiples(model, torsion))
    # the oracle itself takes the raw values:
    # min(v(phi_2), v(psi_2^2)) = min(inf, 2) = 2
    assert k_direct_range(division_table(model, torsion, 2, 2), 2)[1] == (2, 2, INFINITY, 2)


def test_k_direct_n1():
    # phi_1 = x, psi_1 = 1
    prof = profile_of((0, 0, 1, -1, 0), (Fraction(1, 4), Fraction(-5, 8)), 2)
    table = division_table(prof.tate.minimal_model, prof.point, 2, 1)
    assert k_direct_range(table, 1) == [(1, -2, -2, 0)]


def test_k_formula_nonsingular():
    prof = profile_of((0, 0, 1, -1, 0), (Fraction(1, 4), Fraction(-5, 8)), 2)
    assert prof.v_x == -2
    assert k_formula(prof, 5) == -50
    assert classify_row(prof) == ROW_NONSING_NEG


def test_k_formula_split_im_and_table_row():
    prof = profile_of((1, 0, 0, 0, -243), (9, 18), 3)  # split I5, a_P = 2
    assert k_formula(prof, 3) == 10
    dec = table_decomposition(prof)
    assert classify_row(prof) == ROW_IM_SPLIT
    assert dec.slope == Fraction(6, 5)
    assert dec.epsilon_at(3) == Fraction(-4, 5)  # n' = 1
    assert dec.slope * 9 + dec.epsilon_at(3) == 10


def test_k_formula_type_III():
    prof = profile_of((0, 0, 0, 5, -125), (5, 5), 5)
    assert prof.v_psi3 == 2  # forced by the type-III slope 1/2
    assert k_formula(prof, 3) == 4  # 2 * (9-1)/4
    dec = table_decomposition(prof)
    assert classify_row(prof) == ROW_III
    assert dec.slope == Fraction(1, 2) and dec.epsilon_at(1) == Fraction(-1, 2)


def test_k_formula_type_IVstar():
    prof = profile_of((0, 0, 0, 0, 5 ** 4 * (1 - 25)), (25, 25), 5)
    dec = table_decomposition(prof)
    assert dec.slope == Fraction(4, 3) and dec.epsilon_at(2) == Fraction(-4, 3)
    assert k_formula(prof, 2) == 4


def test_k_formula_I1star_2P_singular():
    prof = profile_of((0, 3, 0, 27, -1134), (9, 9), 3)
    assert prof.two_p_singular is True
    dec = table_decomposition(prof)
    assert classify_row(prof) == ROW_ISTAR_ODD_C4_SING
    assert dec.slope == Fraction(5, 4)       # (m + 4)/4 with m = 1
    assert dec.epsilon_at(2) == -1
    assert k_formula(prof, 2) == 4           # 5*4/4 - 1
    assert dec.modulus == 4
    assert dec.epsilon_at(1) == dec.epsilon_at(3) == Fraction(-5, 4)


def test_I2mstar_uses_phi2():
    prof = profile_of((0, 3, 0, 81, -972), (9, 27), 3)
    dec = table_decomposition(prof)
    assert classify_row(prof) == ROW_I2MSTAR_C4
    assert prof.v_phi2 == prof.v_psi3 == 6   # 2m + 4 with m = 1 doubled index
    assert dec.slope == Fraction(prof.v_phi2, 4)


def test_decomposition_requires_singular():
    prof = profile_of((0, 0, 1, -1, 0), (0, 0), 2)
    with pytest.raises(PreconditionError):
        table_decomposition(prof)


def test_epsilon_vanishes_at_multiples_of_mp(corpus_profiles):
    # the decomposition is read off k_formula at n < 2 M, and only its
    # epsilon is checked at run time (at m_P..4 m_P); this test is the one
    # check that k_at(n) == k_formula(n), at every n the CLI accepts
    for entry, tate, prof, row in corpus_profiles:
        if not prof.singular:
            continue
        dec = table_decomposition(prof)
        for n in range(1, N_MAX_GUARDRAIL + 1):
            if n % prof.m_p == 0:
                assert dec.epsilon_at(n) == 0, entry.label
            assert dec.k_at(n) == k_formula(prof, n), entry.label


def test_flagged_rows():
    assert row_is_flagged("I0*-c2") and row_is_flagged("I0*-c4")
    assert not row_is_flagged(ROW_III)


def test_main_theorem_on_every_corpus_entry(corpus_profiles):
    for entry, tate, prof, row in corpus_profiles:
        table = division_table(tate.minimal_model, prof.point, entry.prime, 12)
        for n, k, _, _ in k_direct_range(table, 12):
            assert k_formula(prof, n) == k, (entry.label, n)


def test_predict_psi_nonsingular_example():
    # v(x) = -2, n_P = 1, b = 1, s = 1: at n = 3 (p not dividing 3):
    # min(0, v(x)/2) n^2 + S_3 = -9 + 1 = -8
    prof = profile_of((0, 0, 0, 5, -125), (54, -397), 5)
    params = default_staircase_params(prof)
    deep = profile_of((0, 0, 1, -1, 0), (Fraction(1, 4), Fraction(-5, 8)), 2)
    params2 = default_staircase_params(deep)
    assert params2.s == 1 and deep.n_p == 1
    assert predict_psi_val(deep, params2, 3) == -9 + 1


def test_predict_psi_zero_off_np_multiples():
    prof = profile_of((0, 0, 1, -1, 0), (0, 0), 2)   # n_P = 5, v(x) >= 0
    params = default_staircase_params(prof)
    for n in (1, 2, 3, 4, 6, 7, 8, 9, 11):
        assert predict_psi_val(prof, params, n) == 0


def test_predict_psi_multiplicative_off_multiples():
    prof = profile_of((1, 0, 0, 0, -243), (9, 18), 3)  # n_P = 5
    params = default_staircase_params(prof)
    from gcval.sequences import r_n
    for n in (1, 2, 3, 4, 6, 7, 8, 9):
        assert predict_psi_val(prof, params, n) == r_n(2, 5, n)


def test_predict_phi_values():
    deep = profile_of((0, 0, 1, -1, 0), (Fraction(1, 4), Fraction(-5, 8)), 2)
    assert predict_phi_val(deep, 4) == -32   # min(0, v(x)) n^2
    prof = profile_of((1, 0, 0, 0, -243), (9, 18), 3)
    from gcval.sequences import r_n
    assert predict_phi_val(prof, 5) == 2 * r_n(2, 5, 5)
    assert predict_phi_val(prof, 3) is None  # n_P does not divide n


def test_predictions_match_actual_valuations(corpus_profiles):
    for entry, tate, prof, row in corpus_profiles:
        supported = (not prof.singular) or tate.reduction == "multiplicative"
        if not supported:
            continue
        params = default_staircase_params(prof)
        seq = psi_sequence(tate.minimal_model, prof.point, entry.prime, 16)
        for n in range(1, 17):
            got = predict_psi_val(prof, params, n)
            want = val(seq.psi(n), entry.prime)
            assert got == want, (entry.label, n)


def _xy_valuation(q, p):
    return INFINITY if q is None or q.x == 0 else val(q.x, p) - val(q.y, p)


def test_qp_staircase_matches_the_general_formulas(corpus_profiles):
    # default_staircase_params fixes e = 1 and h = j = 0; the construction
    # for any K/Q_p, at e = 1 and h = 0, must give the same parameters:
    # j = staircase_j(b, e, h, s), and in the equality case
    # e = b^j ((b - 1) s + h) w = v(x/y) at [p]q minus b s
    equality = []
    for entry, tate, prof, _row in corpus_profiles:
        if prof.singular and tate.reduction != "multiplicative":
            continue
        p, q = entry.prime, prof.multiple_np
        b = p if prof.singular else unit_exponent_scan(tate.minimal_model, p)
        s = int(_xy_valuation(q, p))
        j = staircase_j(b, 1, 0, s)
        w = 0
        if 1 == b ** j * (b - 1) * s:
            v1 = _xy_valuation(mul(tate.minimal_model, p, q), p)
            w = INFINITY if v1 == INFINITY else v1 - b * s
            equality.append(entry.label)
        general = StaircaseParams(b, 1, 0, j, s, w)
        assert default_staircase_params(prof) == general, entry.label
    flagged = {e.label for e, *_ in corpus_profiles if "staircase-w-equality" in e.flags}
    assert flagged and flagged <= set(equality)


def test_index_validation():
    prof = profile_of((0, 0, 1, -1, 0), (0, 0), 2)
    with pytest.raises(InputError):
        k_formula(prof, 0)
    with pytest.raises(InputError):
        predict_phi_val(prof, 0)
