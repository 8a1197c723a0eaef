from fractions import Fraction
from itertools import islice, takewhile
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcval.curve_core import (
    WALK_POINTS,
    CoordinateChange,
    Point,
    WeierstrassModel,
    _IntegralLaw,
    add,
    apply_change,
    assert_infinite_order,
    integralize_at,
    map_point,
    mul,
    multiples,
    on_curve,
)
from gcval.divpoly import psi_sequence
from gcval.errors import InputError, SingularCurveError, TorsionPointError
from gcval.profile import compute_profile
from gcval.tate import run_tate

E_MORDELL = WeierstrassModel(0, 0, 0, 0, 1)   # y^2 = x^3 + 1
E37 = WeierstrassModel(0, 0, 1, -1, 0)        # rank 1, generator (0, 0)


def reference_add(model, p1, p2):
    """P1 + P2 by the chord-and-tangent formulas on Fractions, with O as
    None: the reference for the integer group law that curve_core runs."""
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    a1, a2, a3, a4, a6 = map(Fraction, model.coefficients())
    x1, y1 = Fraction(p1.x), Fraction(p1.y)
    x2, y2 = Fraction(p2.x), Fraction(p2.y)
    if x1 == x2:
        if y2 == -y1 - a1 * x1 - a3:
            return None
        # p1 == p2 and not 2-torsion: tangent line
        den = 2 * y1 + a1 * x1 + a3
        lam = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) / den
        nu = (-(x1 ** 3) + a4 * x1 + 2 * a6 - a3 * y1) / den
    else:
        lam = (y2 - y1) / (x2 - x1)
        nu = (y1 * x2 - y2 * x1) / (x2 - x1)
    x3 = lam * lam + a1 * lam - a2 - x1 - x2
    y3 = -(lam + a1) * x3 - nu - a3
    return Point(x3, y3)


def inverse(change):
    """The change undoing ``change``, on Fractions."""
    u, r, s, t = map(Fraction, (change.u, change.r, change.s, change.t))
    return CoordinateChange(1 / u, -r / u ** 2, -s / u, (r * s - t) / u ** 3)


def reference_multiples(model, point, count):
    """[[1]P, ..., [count]P] by repeated reference_add."""
    out = [point]
    while len(out) < count:
        out.append(reference_add(model, out[-1], point))
    return out


def test_derive_hand_values():
    d = E_MORDELL
    assert (d.b2, d.b4, d.b6, d.b8) == (0, 0, 4, 0)
    assert (d.c4, d.c6, d.delta) == (0, -864, -432)
    # identity instance: 1728*delta = c4^3 - c6^2
    assert 1728 * (-432) == 0 - (-864) ** 2
    # cross-check: delta = -27 b6^2 here
    assert d.delta == -27 * d.b6 ** 2


def test_invariants_stay_out_of_equality_and_repr():
    same = WeierstrassModel("0", 0, Fraction(1), -1, 0)
    assert same == E37 and hash(same) == hash(E37)
    # an integral coefficient is held as an int, however it was written
    assert repr(E37) == "WeierstrassModel(a1=0, a2=0, a3=1, a4=-1, a6=0)"
    assert str(E37) == "(0,0,1,-1,0)"


def test_singular_curve_rejected():
    with pytest.raises(SingularCurveError):
        WeierstrassModel(1, 0, 0, 0, 0)  # b-quantities (1,0,0,0): delta = 0


def test_identity_change_is_noop():
    c = CoordinateChange()
    assert apply_change(E37, c) == E37
    assert map_point(c, Point(0, 0)) == Point(0, 0)


def test_scaling_change_divides_invariants():
    c = CoordinateChange(u=3)
    d0 = E37
    d1 = apply_change(E37, c)
    assert d1.delta == Fraction(d0.delta, 3 ** 12)
    assert d1.c4 == Fraction(d0.c4, 3 ** 4)
    assert Fraction(d1.c4 ** 3, d1.delta) == Fraction(d0.c4 ** 3, d0.delta)  # j is invariant


def test_translation_moves_points():
    moved = map_point(CoordinateChange(1, 1, 0, 0), Point(2, 3))
    assert moved == Point(1, 3)


small = st.integers(min_value=-4, max_value=4)
units = st.sampled_from([1, -1, 2, 3, Fraction(1, 2), Fraction(-2, 3)])


@settings(max_examples=60)
@given(u=units, r=small, s=small, t=small)
def test_change_round_trip(u, r, s, t):
    c = CoordinateChange(u, r, s, t)
    back = c.compose(inverse(c))
    assert back.is_identity()
    assert apply_change(apply_change(E37, c), inverse(c)) == E37
    p = Point(0, 0)
    assert map_point(inverse(c), map_point(c, p)) == p


@settings(max_examples=60)
@given(u=units, r=small, s=small, t=small)
def test_derived_quantities_transform(u, r, s, t):
    c = CoordinateChange(u, r, s, t)
    d0 = E37
    d1 = apply_change(E37, c)
    for d in (d0, d1):
        assert 4 * d.b8 == d.b2 * d.b6 - d.b4 ** 2
        assert 1728 * d.delta == d.c4 ** 3 - d.c6 ** 2
    assert d1.b2 == Fraction(d0.b2 + 12 * r, u ** 2)
    assert d1.b4 == Fraction(d0.b4 + r * d0.b2 + 6 * r * r, u ** 4)
    assert d1.b6 == Fraction(d0.b6 + 2 * r * d0.b4 + r * r * d0.b2 + 4 * r ** 3, u ** 6)
    assert d1.b8 == Fraction(d0.b8 + 3 * r * d0.b6 + 3 * r * r * d0.b4
                             + r ** 3 * d0.b2 + 3 * r ** 4, u ** 8)
    assert d1.c4 == Fraction(d0.c4, u ** 4)
    assert d1.c6 == Fraction(d0.c6, u ** 6)
    assert d1.delta == Fraction(d0.delta, u ** 12)


def test_doubling_hand_value():
    # tangent at (2, 3) on y^2 = x^3 + 1: lambda = 2, [2]P = (0, 1)
    assert mul(E_MORDELL, 2, Point(2, 3)) == Point(0, 1)


def test_mul_basics():
    p = Point(2, 3)
    assert mul(E_MORDELL, 1, p) == p
    assert mul(E_MORDELL, 0, p) is None
    with pytest.raises(InputError, match="non-negative"):
        mul(E_MORDELL, -1, p)


def test_negation_formula():
    p = Point(0, 0)
    q = Point(p.x, -p.y - E37.a1 * p.x - E37.a3)  # -(x, y) = (x, -y - a1 x - a3)
    assert q == Point(0, -1)
    assert add(E37, p, q) is None


@pytest.mark.parametrize("call", [
    lambda off: add(E37, off, Point(0, 0)),
    lambda off: mul(E37, 3, off),
    lambda off: assert_infinite_order(E37, off),
    lambda off: psi_sequence(E37, off, 5, 4),
    lambda off: compute_profile(run_tate(E37, 5), off),
    lambda off: next(multiples(E37, off)),
], ids=["add", "mul", "assert_infinite_order", "psi_sequence", "compute_profile",
        "multiples"])
def test_off_curve_rejected(call):
    # each public entry point checks curve membership once, on entry
    with pytest.raises(InputError):
        call(Point(1, 1))


def test_group_law_small_multiples_37a():
    p = Point(0, 0)
    multiples = {n: mul(E37, n, p) for n in range(1, 6)}
    assert multiples[2] == Point(1, 0)
    assert multiples[3] == Point(-1, -1)
    assert multiples[4] == Point(2, -3)
    assert multiples[5] == Point(Fraction(1, 4), Fraction(-5, 8))
    # [m+n]P == [m]P + [n]P
    for m in range(1, 5):
        for n in range(1, 5):
            assert mul(E37, m + n, p) == add(E37, multiples[m], multiples[n])


def test_torsion_guard():
    # the walk is the one torsion check: it yields [1]P..[5]P of the 6-torsion
    # point and raises at [6]P = O
    walk = multiples(E_MORDELL, Point(2, 3))
    assert [q.x for q in islice(walk, 5)] == [2, 0, -1, 0, 2]
    with pytest.raises(TorsionPointError, match=r"^\[6\]\(2,3\) = O: torsion point$"):
        next(walk)
    assert len(list(islice(multiples(E37, Point(0, 0)), WALK_POINTS))) == WALK_POINTS
    # assert_infinite_order walks the same generator
    with pytest.raises(TorsionPointError, match=r"^\[6\]\(2,3\) = O"):
        assert_infinite_order(E_MORDELL, Point(2, 3))
    assert assert_infinite_order(E37, Point(0, 0)) == Point(0, 0)


def test_integralize_at():
    model = WeierstrassModel(0, 0, 0, Fraction(1, 25), Fraction(2, 125))
    fixed, change = integralize_at(model, 5)
    assert all(v.denominator % 5 != 0 for v in fixed.coefficients())
    assert change.u == Fraction(1, 5)
    again, change2 = integralize_at(fixed, 5)
    assert again == fixed and change2.is_identity()


def test_o_is_not_a_point():
    # O is None in the group law; a Point is affine and needs x and y
    with pytest.raises(TypeError):
        Point()


def test_on_curve_example():
    assert on_curve(E_MORDELL, Point(2, 3))  # 9 = 8 + 1
    assert not on_curve(E_MORDELL, Point(2, 4))


#: the multiples the property test compares, [1]P..[24]P
_LAW_N = 24


@pytest.fixture(scope="module")
def law_cases(corpus_profiles):
    """(model, point) pairs for the group-law property test: every corpus
    point on its minimal model, a torsion point of order 6 (its walk reaches
    O and goes on) and two 2-torsion points, one of them in E_1 at p = 2."""
    cases = [(tate.minimal_model, prof.point) for _e, tate, prof, _r in corpus_profiles]
    cases.append((E_MORDELL, Point(2, 3)))
    cases.append((WeierstrassModel(0, 0, 0, -1, 0), Point(1, 0)))
    cases.append((WeierstrassModel(1, -1, 0, -4, 3),
                  Point(Fraction(3, 4), Fraction(-3, 8))))
    return cases


def check_law(model, point, n, i, j):
    """multiples, mul at n and add at [i]P + [j]P agree with the Fraction
    reference, and P + (-P) = O."""
    want = reference_multiples(model, point, _LAW_N)
    # step by step, so that a wrong step fails before later ones blow up;
    # each triple keeps e > 0 and gcd(X, e) = 1, as the equal-x test needs
    law = _IntegralLaw(model)
    q, acc = law.triple(point), None
    for wanted in want:
        acc = law.add(acc, q)
        assert law.point(acc) == wanted
        assert acc is None or (acc[2] > 0 and gcd(acc[0], acc[2]) == 1)
    # the walk yields the multiples up to the first O and raises there
    affine = list(takewhile(lambda q: q is not None, want))
    walk = multiples(model, point)
    assert list(islice(walk, len(affine))) == affine
    if len(affine) < _LAW_N:
        with pytest.raises(TorsionPointError):
            next(walk)
    assert mul(model, n, point) == want[n - 1]
    # add takes affine points only, so a sum with O as a term goes to the law
    pi, pj = want[i - 1], want[j - 1]
    if pi is None or pj is None:
        qi, qj = (None if w is None else law.triple(w) for w in (pi, pj))
        assert law.point(law.add(qi, qj)) == want[i + j - 1]
    else:
        assert add(model, pi, pj) == want[i + j - 1]
    assert add(model, point, point) == reference_add(model, point, point)
    minus = Point(point.x, -point.y - model.a1 * point.x - model.a3)
    assert add(model, point, minus) is None


def test_group_law_matches_the_fraction_reference(law_cases):
    for model, point in law_cases:
        check_law(model, point, n=_LAW_N, i=5, j=7)


@settings(max_examples=60, deadline=None)
@given(data=st.data(),
       u=st.sampled_from([Fraction(1, 3), Fraction(1, 2), 2, 3]),
       r=small, s=small, t=small)
def test_group_law_matches_the_fraction_reference_on_moved_models(law_cases, data,
                                                                  u, r, s, t):
    # moved by u = 2 or 3, the a-invariants get denominators, so the law
    # runs on an integral model scaled by u != 1
    model, point = data.draw(st.sampled_from(law_cases), label="case")
    change = CoordinateChange(u, r, s, t)
    half = st.integers(1, _LAW_N // 2)
    check_law(apply_change(model, change), map_point(change, point),
              n=data.draw(st.integers(1, _LAW_N), label="n"),
              i=data.draw(half, label="i"), j=data.draw(half, label="j"))

