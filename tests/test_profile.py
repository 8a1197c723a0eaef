from dataclasses import replace
from fractions import Fraction

import pytest

from gcval import curve_core, profile
from gcval.curve_core import WALK_POINTS, Point, WeierstrassModel, mul
from gcval.errors import TorsionPointError
from gcval.exact_numbers import INFINITY, val
from gcval.profile import compute_profile, point_is_singular
from gcval.tate import run_tate


def profile_of(a, pt, p):
    tate = run_tate(WeierstrassModel(*a), p)
    return tate, compute_profile(tate, Point(*pt))


def test_singular_criterion_examples():
    # both partials vanish mod 3 at (1, 0) on y^2 = x^3 + x^2 - 2x
    model = WeierstrassModel(0, 1, 0, -2, 0)
    assert point_is_singular(model, Point(1, 0), 3)
    # a point with v(x) < 0 reduces to O, never singular
    e37 = WeierstrassModel(0, 0, 1, -1, 0)
    assert not point_is_singular(e37, Point(Fraction(1, 4), Fraction(-5, 8)), 2)
    # good reduction: no singular points at all
    assert not point_is_singular(e37, Point(0, 0), 5)


def test_point_is_singular_on_minimal_model():
    tate = run_tate(WeierstrassModel(0, 0, 0, 5, -125), 5)
    assert point_is_singular(tate.minimal_model, Point(5, 5), tate.p)
    assert not point_is_singular(tate.minimal_model, Point(54, -397), tate.p)


def test_nonsingular_profiles():
    _, prof = profile_of((0, 0, 1, -1, 0), (Fraction(1, 4), Fraction(-5, 8)), 2)
    assert not prof.singular
    assert prof.n_p == 1 and prof.m_p == 1          # v(x) < 0 iff n_P = 1
    assert prof.v_x == -2
    _, prof = profile_of((0, 0, 1, -1, 0), (0, 0), 2)
    assert prof.n_p == 5 and prof.m_p == 1
    assert prof.v_x == INFINITY  # x(P) = 0


def test_split_multiplicative_profile():
    tate, prof = profile_of((1, 0, 0, 0, -243), (9, 18), 3)
    assert tate.split and tate.v_delta == 5
    assert prof.singular
    assert prof.a_p == 2            # min(v(psi_2), floor(m/2)) = min(2, 2)
    assert prof.m_p == 5            # m / gcd(a_P, m)
    assert prof.n_p == 5


def test_nonsplit_multiplicative_profile():
    tate, prof = profile_of((0, 2, 0, 0, 81), (0, 9), 3)
    assert not tate.split
    assert prof.a_p == 2 == tate.v_delta // 2
    assert prof.m_p == 2


def test_imstar_two_p_flag():
    _, deep = profile_of((0, 3, 0, 27, -1134), (9, 9), 3)
    assert deep.singular and deep.two_p_singular is True and deep.m_p == 4
    _, shallow = profile_of((0, 3, 0, 81, 324), (-3, 9), 3)
    assert shallow.singular and shallow.two_p_singular is False and shallow.m_p == 2
    # v(x) = 1 on the normalized model forces [2]P non-singular
    assert val(shallow.point_normalized.x, 3) == 1
    assert shallow.v_phi2 == shallow.v_psi3 == 4


def test_imstar_deep_point_valuations():
    _, prof = profile_of((0, 3, 0, 27, -1134), (9, 9), 3)
    # m = 1: v(phi_2) = v(psi_3) = m + 4, v(psi_2^2) = m + 3
    assert prof.v_phi2 == prof.v_psi3 == 5
    assert prof.v_psi2_sq == 4


def test_mp_divisor_structure():
    # [d]P stays singular for every d < m_P, [m_P]P is not
    tate, prof = profile_of((1, 0, 0, 0, -243), (9, 18), 3)
    model = tate.minimal_model
    for d in range(1, prof.m_p):
        assert point_is_singular(model, mul(model, d, prof.point), 3)
    assert not point_is_singular(model, mul(model, prof.m_p, prof.point), 3)


def test_torsion_point_rejected():
    tate = run_tate(WeierstrassModel(0, 0, 0, 0, 1), 5)
    with pytest.raises(TorsionPointError):
        compute_profile(tate, Point(2, 3))


def test_torsion_guard_walks_past_n_p():
    # (3/4, -3/8) lies in E_1 at p = 2, so n_P = 1, and is 2-torsion: the
    # guard must go on walking after [n_P]P to see [2]P = O, whatever the
    # caller keeps (E_1(Q_2) may hold a point of order 2)
    tate = run_tate(WeierstrassModel(1, -1, 0, -4, 3), 2)
    point = Point(Fraction(3, 4), Fraction(-3, 8))
    assert val(point.x, 2) < 0
    for keep in (0, WALK_POINTS):
        with pytest.raises(TorsionPointError) as info:
            compute_profile(tate, point, keep=keep)
        assert str(info.value) == "[2](3/4,-3/8) = O: torsion point"


@pytest.mark.parametrize("a, pt, p, order", [
    ((0, 0, 0, 0, 1), (2, 3), 5, 6),     # good reduction at 5 and 7
    ((0, 0, 0, 0, 1), (2, 3), 7, 6),
    ((0, -1, 1, 0, 0), (0, 0), 2, 5),    # 11a3: good at 2 and 3,
    ((0, -1, 1, 0, 0), (0, 0), 3, 5),    # split multiplicative at 11
    ((0, -1, 1, 0, 0), (0, 0), 11, 5),
])
def test_torsion_guard_is_the_same_for_every_keep(a, pt, p, order):
    # a point of order N first reaches E_1 at [N]P = O, as E_1(Q_p) is
    # torsion-free for p >= 3 and has only 2-power torsion at p = 2, so a
    # walk that may end at [n_P]P meets O at the same [n]P as a full one
    tate = run_tate(WeierstrassModel(*a), p)
    for keep in (0, WALK_POINTS):
        with pytest.raises(TorsionPointError) as info:
            compute_profile(tate, Point(*pt), keep=keep)
        assert str(info.value) == f"[{order}]({pt[0]},{pt[1]}) = O: torsion point"


def test_keep_0_ends_the_walk_at_a_local_proof(corpus_profiles, monkeypatch):
    # every field but the walk is the full walk's; the walk stops at [n_P]P
    # for p >= 3 and at [min(2 n_P, WALK_POINTS)]P, past [n_P]P, for p = 2
    drawn = []

    def counted(model, point):
        drawn.clear()
        for q in curve_core.multiples(model, point):
            drawn.append(q)
            yield q

    monkeypatch.setattr(profile, "multiples", counted)
    for entry, tate, full, _row in corpus_profiles:
        assert len(full.walk) == WALK_POINTS, entry.label
        short = compute_profile(tate, entry.curve_point, keep=0)
        assert short.walk == () and replace(short, walk=full.walk) == full, entry.label
        n_p = full.n_p
        local = n_p if tate.p > 2 else max(n_p, min(2 * n_p, WALK_POINTS))
        assert len(drawn) == local, entry.label


def test_profile_through_nonminimal_input():
    # same curve as III-p5 scaled by u = 5, with the point scaled along
    tate, prof = profile_of((0, 0, 0, 5 ** 5, -(5 ** 9)), (125, 625), 5)
    assert str(tate.kodaira) == "III"
    assert prof.point == Point(5, 5)
    assert prof.singular and prof.m_p == 2
