"""Tate runner checks: hand-executed runs, per-type families, invariances.

The three hand-executed runs pinned here are written out step by step in
README.md (reduction-data appendix); the expectations below must match that
text.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcval.curve_core import CoordinateChange, WeierstrassModel, apply_change
from gcval.errors import InputError, NonIntegralError, NonPrimeError
from gcval.exact_numbers import INFINITY, val
from gcval.tate import KodairaType, _cubic_analysis, _poly_value, _roots_mod_p, run_tate


def kodaira(model, p):
    return str(run_tate(WeierstrassModel(*model), p).kodaira)


# --- hand-executed runs (recorded in the README appendix) -----------------

def test_hand_run_III():
    t = run_tate(WeierstrassModel(0, 0, 0, 5, -125), 5)
    assert str(t.kodaira) == "III"
    assert t.cv == 2
    assert t.v_delta == 3 and t.v_c4 == 1
    assert t.reduction == "additive"


def test_hand_run_I2_split():
    t = run_tate(WeierstrassModel(0, 1, 0, -2, 0), 3)
    assert str(t.kodaira) == "I2"
    assert t.reduction == "multiplicative" and t.split is True
    assert t.cv == 2
    assert t.v_delta == 2 and t.v_c4 == 0  # delta = 576, c4 = 112
    # normalized model is the hand-computed translation by r = 1
    assert t.normalized_model == WeierstrassModel(0, 4, 0, 3, 0)
    assert t.to_normalized == CoordinateChange(1, 1, 0, 0)


def test_hand_run_IVstar():
    t = run_tate(WeierstrassModel(0, 0, 0, 0, -15000), 5)  # a6 = 5^4 (1 - 5^2)
    assert str(t.kodaira) == "IV*"
    assert t.cv == 3
    assert t.v_delta == 8


# --- spec'd examples -------------------------------------------------------

def test_good_reduction():
    t = run_tate(WeierstrassModel(0, 0, 0, 0, 1), 5)
    assert str(t.kodaira) == "I0" and t.cv == 1 and t.v_delta == 0
    assert t.reduction == "good" and t.split is None


@pytest.mark.parametrize("p", [5, 7, 11])
def test_type_III_family(p):
    t = run_tate(WeierstrassModel(0, 0, 0, p, 0), p)
    assert str(t.kodaira) == "III" and t.cv == 2
    assert t.v_delta == 3 and t.v_c4 == 1


@pytest.mark.parametrize("p", [5, 7])
def test_type_IV_split_tangent(p):
    t = run_tate(WeierstrassModel(0, 0, 0, 0, p * p), p)
    assert str(t.kodaira) == "IV" and t.cv == 3  # Y^2 - 1 splits


@pytest.mark.parametrize("p,expected", [
    (5, "II"), (7, "II"),
])
def test_type_II_family(p, expected):
    assert kodaira((0, 0, 0, 0, p), p) == expected


@pytest.mark.parametrize("p", [5, 7])
def test_type_IIIstar_IIstar(p):
    assert kodaira((0, 0, 0, p ** 3, 0), p) == "III*"
    assert kodaira((0, 0, 0, 0, p ** 5), p) == "II*"


def test_I0star_component_counts():
    # cubic T(T^2 + 1): three roots mod 5 (c=4), one root mod 7 (c=2)
    t5 = run_tate(WeierstrassModel(0, 0, 0, 25, 0), 5)
    assert str(t5.kodaira) == "I0*" and t5.cv == 4
    t7 = run_tate(WeierstrassModel(0, 0, 0, 49, 0), 7)
    assert str(t7.kodaira) == "I0*" and t7.cv == 2


def test_IVstar_family():
    t = run_tate(WeierstrassModel(0, 0, 0, 0, 5 ** 4), 5)
    assert str(t.kodaira) == "IV*" and t.cv == 3


def test_Imstar_families_p3():
    t = run_tate(WeierstrassModel(0, 3, 0, 27, -1134), 3)
    assert str(t.kodaira) == "I1*" and t.cv == 4
    t = run_tate(WeierstrassModel(0, 3, 0, 27, 162), 3)
    assert str(t.kodaira) == "I1*" and t.cv == 2
    t = run_tate(WeierstrassModel(0, 3, 0, 81, -972), 3)
    assert str(t.kodaira) == "I2*" and t.cv == 4
    assert t.v_delta == t.kodaira.m + 4 + t.v_c4


def test_Im_split_vs_nonsplit():
    t = run_tate(WeierstrassModel(1, 0, 0, 0, -243), 3)
    assert str(t.kodaira) == "I5" and t.split and t.cv == 5
    t = run_tate(WeierstrassModel(0, 2, 0, 0, 9), 3)
    assert str(t.kodaira) == "I2" and not t.split and t.cv == 2
    t = run_tate(WeierstrassModel(0, 2, 0, 0, 27), 3)
    assert str(t.kodaira) == "I3" and not t.split and t.cv == 1  # odd m
    assert t.v_j == -3 and t.v_c4 == 0


def test_nonminimal_restart():
    t = run_tate(WeierstrassModel(0, 0, 0, 5 ** 5, 0), 5)
    assert str(t.kodaira) == "III"
    assert t.to_minimal.u == 5
    assert t.minimal_model == WeierstrassModel(0, 0, 0, 5, 0)
    # minimality idempotence
    again = run_tate(t.minimal_model, 5)
    assert str(again.kodaira) == "III" and again.v_delta == t.v_delta
    assert again.to_minimal.is_identity()


def test_nonminimal_restart_with_mid_pass_translation():
    # reaching the restart step after translations: rescaling must apply to
    # the translated model, or the "minimal" model comes out non-integral
    t = run_tate(WeierstrassModel(0, 0, 0, 0, -3072), 2)
    assert str(t.kodaira) == "I0" and t.v_delta == 0
    assert t.to_minimal.u == 4  # two restarts
    assert t.minimal_model == WeierstrassModel(0, 0, 1, 0, -1)


def test_imstar_delta_relation_is_conditional_on_vj():
    # p = 2 allows I_m* with potential good reduction (v(j) >= 0), where
    # v(delta) = m + 4 + v(c4) genuinely fails; this run must still succeed
    t = run_tate(WeierstrassModel(0, 2, 4, -8, -52), 2)
    assert str(t.kodaira) == "I2*"
    assert t.v_j >= 0
    assert t.v_delta != t.kodaira.m + 4 + t.v_c4


def test_p2_and_p3_full_algorithm():
    # 37a has good reduction at 2 and 3; 389a = (0,1,1,-2,0) has I1 at 389
    assert kodaira((0, 0, 1, -1, 0), 2) == "I0"
    assert kodaira((0, 0, 1, -1, 0), 3) == "I0"
    # multiplicative at 2: 53a-like twists; I_m at p = 2 with v(delta) = m
    t = run_tate(WeierstrassModel(1, 0, 0, 0, 4), 2)
    assert t.kodaira.series == "I" and t.kodaira.m == t.v_delta >= 1
    # additive at 2 and 3 exercise the small-prime branches
    t = run_tate(WeierstrassModel(0, 0, 0, 2, 0), 2)
    assert t.reduction == "additive"
    t = run_tate(WeierstrassModel(0, 0, 0, 3, 0), 3)
    assert t.reduction == "additive"


@settings(max_examples=40, deadline=None)
@given(r=st.integers(-6, 6), s=st.integers(-6, 6), t=st.integers(-6, 6),
       p=st.sampled_from([2, 3, 5]))
def test_translation_invariance(r, s, t, p):
    base = WeierstrassModel(1, 0, 0, 0, -75)
    moved = apply_change(base, CoordinateChange(1, r, s, t))
    t0 = run_tate(base, p)
    t1 = run_tate(moved, p)
    assert str(t0.kodaira) == str(t1.kodaira)
    assert t0.cv == t1.cv
    assert t0.v_delta == t1.v_delta


def test_input_validation():
    with pytest.raises(NonIntegralError):
        run_tate(WeierstrassModel(0, 0, 0, Fraction(1, 5), 0), 5)
    with pytest.raises(NonPrimeError):
        run_tate(WeierstrassModel(0, 0, 0, 1, 1), 6)


def test_kodaira_parse_and_str():
    for text in ("I0", "I1", "I12", "II", "III", "IV", "I0*", "I7*", "IV*", "III*", "II*"):
        assert str(KodairaType.parse(text)) == text
    for bad in ("V", "Q7", 7, None):
        with pytest.raises(InputError):
            KodairaType.parse(bad)


def test_vj_infinite_for_zero_j():
    t = run_tate(WeierstrassModel(0, 0, 0, 0, 1), 5)  # j = 0
    assert t.v_j == INFINITY


def test_vj_is_the_valuation_of_j_on_every_corpus_model(corpus_profiles):
    # run_tate reads v(j) as 3 v(c4) - v(delta); j is the same on both models
    for entry, tate, _prof, _row in corpus_profiles:
        for model in (entry.model, tate.minimal_model):
            j = Fraction(model.c4) ** 3 / model.delta
            assert tate.v_j == val(j, entry.prime), entry.label


def _cubic_analysis_by_synthetic_division(A, B, C, p):
    """Reference: the repeated root's multiplicity by synthetic division."""
    disc = (18 * A * B * C - 4 * A ** 3 * C + A * A * B * B - 4 * B ** 3 - 27 * C * C) % p
    if disc != 0:
        return "separable", len(_roots_mod_p([C, B, A, 1], p))
    for alpha in range(p):
        if _poly_value([C, B, A, 1], alpha, p) != 0:
            continue
        coeffs = [1, A % p, B % p, C % p]
        mult = 0
        while True:
            out, rem = [], 0
            for c in coeffs:
                rem = (rem * alpha + c) % p
                out.append(rem)
            if out[-1] != 0:
                break
            mult += 1
            coeffs = out[:-1]
            if len(coeffs) == 1:
                break
        if mult >= 2:
            return ("triple" if mult >= 3 else "double"), alpha
    raise AssertionError("zero discriminant but no repeated root")


def _cubic_analysis_by_discriminant(A, B, C, p):
    """Reference: separable iff the discriminant is non-zero, else the
    common root of f and f'."""
    disc = (18 * A * B * C - 4 * A ** 3 * C + A * A * B * B - 4 * B ** 3 - 27 * C * C) % p
    if disc != 0:
        return "separable", len(_roots_mod_p([C, B, A, 1], p))
    for alpha in range(p):
        if (_poly_value([C, B, A, 1], alpha, p) == 0
                and _poly_value([B, 2 * A, 3], alpha, p) == 0):
            return ("triple" if (A + 3 * alpha) % p == 0 else "double"), alpha
    raise AssertionError("zero discriminant but no repeated root")


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_cubic_analysis_matches_synthetic_division(p):
    # every monic cubic over F_p, against both references
    for A in range(p):
        for B in range(p):
            for C in range(p):
                got = _cubic_analysis(A, B, C, p)
                assert got == _cubic_analysis_by_synthetic_division(A, B, C, p), (A, B, C, p)
                assert got == _cubic_analysis_by_discriminant(A, B, C, p), (A, B, C, p)


def _quad_separable(a, b, c, p):
    """Reference: a Y^2 + b Y + c separable mod p iff b^2 - 4ac != 0."""
    return (b * b - 4 * a * c) % p != 0


def _quad_double_root(a, b, c, p):
    """Reference: the repeated root of an inseparable quadratic."""
    roots = _roots_mod_p([c, b, a], p)
    assert len(roots) == 1, (a, b, c, p)
    return roots[0]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_quadratic_steps_match_discriminant_test(p):
    # every quadratic over F_p with a unit leading coefficient: the Tate
    # steps branch on the root count, which must agree with the discriminant
    for a in range(1, p):
        for b in range(p):
            for c in range(p):
                roots = _roots_mod_p([c, b, a], p)
                if _quad_separable(a, b, c, p):
                    assert len(roots) in (0, 2), (a, b, c, p)
                else:
                    assert roots == [_quad_double_root(a, b, c, p)], (a, b, c, p)
