"""Randomized cross-validation with fixed seeds.

Two independent oracles keep the Tate runner honest:

* for p >= 5, the Kodaira type of a minimal model is a function of
  (v(c4), v(delta)) alone; that classifier is implemented here from scratch
  and compared against the step-by-step algorithm;
* for any p, the closed form k_formula must reproduce the brute-force
  division-polynomial minimum on randomly constructed (curve, point, prime)
  triples (point first, a6 solved from the equation).

A third test keeps the profile's residue-class phi_n prediction equal to
computing [n]P afresh over Q, and a fourth checks that a model, point and
change given as Fractions and as ints give the same results, each value
held as an int when it is an integer.
"""

import random
from fractions import Fraction

from hypothesis import given, reject, settings
from hypothesis import strategies as st

from gcval.curve_core import CoordinateChange, Point, WeierstrassModel, apply_change, map_point, mul, on_curve
from gcval.divpoly import division_table
from gcval.engine import classify_row, k_direct_range, k_formula, predict_phi_val, table_decomposition
from gcval.errors import SingularCurveError, TorsionPointError, ToolkitError, TwoTorsionError
from gcval.exact_numbers import val
from gcval.profile import compute_profile
from gcval.tate import run_tate


def kodaira_from_invariants_p5(v_c4, v_delta):
    """(v(c4), v(delta)) classification, valid for minimal models, p >= 5."""
    if v_delta == 0:
        return "I0"
    if v_c4 == 0:
        return f"I{v_delta}"
    if v_delta == 2:
        return "II"
    if v_delta == 3:
        return "III"
    if v_delta == 4:
        return "IV"
    if v_delta == 6:
        return "I0*"
    if v_c4 == 2 and v_delta >= 7:
        return f"I{v_delta - 6}*"
    if v_delta == 8:
        return "IV*"
    if v_delta == 9:
        return "III*"
    if v_delta == 10:
        return "II*"
    raise AssertionError(f"unclassifiable pair v_c4={v_c4} v_delta={v_delta}")


CV_RANGE = {
    "II": {1}, "II*": {1}, "III": {2}, "III*": {2},
    "IV": {1, 3}, "IV*": {1, 3}, "I0*": {1, 2, 4},
}


def test_tate_matches_invariant_classifier_p_ge_5():
    rng = random.Random(0xE11)
    checked = 0
    for _ in range(600):
        p = rng.choice([5, 7, 11])
        a_invs = [p ** rng.randint(0, 3) * rng.randint(-3, 3) for _ in range(5)]
        try:
            model = WeierstrassModel(*a_invs)
            res = run_tate(model, p)
        except SingularCurveError:
            continue
        expected = kodaira_from_invariants_p5(res.v_c4, res.v_delta)
        assert str(res.kodaira) == expected, (a_invs, p, str(res.kodaira), expected)
        k = res.kodaira
        if k.series in CV_RANGE:
            assert res.cv in CV_RANGE[k.series], (a_invs, p)
        elif k.series == "I*" and k.m >= 1:
            assert res.cv in (2, 4), (a_invs, p)
        elif k.series == "I" and k.m >= 1:
            assert res.cv == k.m if res.split else res.cv in (1, 2)
        checked += 1
    assert checked > 300


def test_point_first_theorem_fuzz():
    rng = random.Random(20260809)
    exercised = {"singular": 0, "nonsingular": 0}
    rows = set()
    for _ in range(220):
        p = rng.choice([2, 2, 3, 3, 5, 7])
        x = p ** rng.randint(0, 3) * rng.choice([1, 2, 3, -1, -2, p + 1])
        y = p ** rng.randint(0, 3) * rng.choice([1, 2, 3, -1, -3, 2 * p - 1])
        a1 = rng.choice([0, 1, p]) if p == 2 else rng.choice([0, 1, 2, p])
        a2 = rng.choice([0, 1, -1, p, -p, 2 * p])
        a3 = rng.choice([0, p, p * p])
        a4 = rng.choice([0, p, -p, p * p, -2 * p * p, p ** 3])
        a6 = y * y + a1 * x * y + a3 * y - x ** 3 - a2 * x * x - a4 * x
        try:
            model = WeierstrassModel(a1, a2, a3, a4, a6)
            tate = run_tate(model, p)
            prof = compute_profile(tate, Point(x, y))
        except (SingularCurveError, TorsionPointError, TwoTorsionError):
            continue
        rows.add(classify_row(prof))
        exercised["singular" if prof.singular else "nonsingular"] += 1
        table = division_table(tate.minimal_model, prof.point, p, 12)
        for n, k, _, _ in k_direct_range(table, 12):
            assert k_formula(prof, n) == k, (a1, a2, a3, a4, a6, x, y, p, n)
        if prof.singular:
            table_decomposition(prof)  # internal consistency asserts
    assert exercised["singular"] >= 40
    assert exercised["nonsingular"] >= 40
    assert len(rows) >= 6


def _predict_phi_val_by_mul(profile, n):
    """Reference for a non-singular P: reduce [n]P, computed over Q."""
    if n % profile.n_p == 0:
        return 0 if profile.v_x >= 0 else int(profile.v_x) * n * n
    q = mul(profile.tate.minimal_model, n, profile.point)
    if q is not None and val(q.x, profile.tate.p) == 0:
        return 0 if profile.v_x >= 0 else int(profile.v_x) * n * n
    return None


def test_phi_prediction_matches_multiples_over_q():
    rng = random.Random(0x9F1)
    seen = {0: 0, None: 0}
    points = 0
    while points < 60:
        p = rng.choice([2, 3, 5, 7, 11, 13])
        x = rng.randint(-2 * p, 2 * p)
        y = rng.randint(-2 * p, 2 * p)
        a1, a3 = rng.choice([0, 1]), rng.choice([0, 1, p])
        a2, a4 = rng.randint(-p, p), rng.randint(-p, p)
        a6 = y * y + a1 * x * y + a3 * y - x ** 3 - a2 * x * x - a4 * x
        try:
            prof = compute_profile(run_tate(WeierstrassModel(a1, a2, a3, a4, a6), p),
                                   Point(x, y))
        except (SingularCurveError, TorsionPointError, TwoTorsionError):
            continue
        if prof.singular:
            continue
        points += 1
        for n in range(1, 31):
            want = _predict_phi_val_by_mul(prof, n)
            assert predict_phi_val(prof, n) == want, (a1, a2, a3, a4, a6, x, y, p, n)
            if n % prof.n_p:
                seen[want] += 1
    # both outcomes occur off the multiples of n_P
    assert seen[0] >= 100 and seen[None] >= 20, seen


def test_point_first_fuzz_nonminimal_inputs():
    rng = random.Random(7)
    hits = 0
    for _ in range(40):
        p = rng.choice([2, 3, 5])
        x = p * rng.choice([1, 2, -1])
        y = p * rng.choice([1, 2, 3])
        a4 = rng.choice([0, p, p * p])
        a6 = y * y - x ** 3 - a4 * x
        try:
            model = WeierstrassModel(0, 0, 0, a4, a6)
            scaled = apply_change(model, CoordinateChange(u=1, r=0, s=0, t=0))
            blown_up = WeierstrassModel(0, 0, 0, a4 * p ** 4, a6 * p ** 6)
            tate = run_tate(blown_up, p)
            prof = compute_profile(tate, Point(x * p * p, y * p ** 3))
        except (SingularCurveError, TorsionPointError, TwoTorsionError):
            continue
        base = run_tate(model, p)
        assert str(tate.kodaira) == str(base.kodaira), (a4, a6, p)
        assert tate.v_delta == base.v_delta
        table = division_table(tate.minimal_model, prof.point, p, 8)
        for n, k, _, _ in k_direct_range(table, 8):
            assert k_formula(prof, n) == k
        hits += 1
    assert hits >= 10


def test_map_point_lands_on_changed_curve():
    rng = random.Random(3)
    model = WeierstrassModel(1, -1, 1, 0, 0)
    pt = Point(0, 0)
    for _ in range(50):
        change = CoordinateChange(
            u=rng.choice([1, 2, 3, -1]),
            r=rng.randint(-5, 5), s=rng.randint(-5, 5), t=rng.randint(-5, 5))
        moved_model = apply_change(model, change)
        moved_pt = map_point(change, pt)
        assert on_curve(moved_model, moved_pt)


@st.composite
def point_first_cases(draw):
    """(p, a-invariants, point, change) at p <= 13: the point first, a6
    solved from the equation, as in the seeded tests above; the change
    scales by a unit at p or blows the model up by u = 1/p."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    small = st.integers(-2 * p, 2 * p)
    depth = st.integers(0, 2)
    x = draw(small) * p ** draw(depth)
    y = draw(small) * p ** draw(depth)
    a1 = draw(st.sampled_from([0, 1, p]))
    a2 = draw(st.integers(-p, p))
    a3 = draw(st.sampled_from([0, 1, p, p * p]))
    a4 = draw(st.integers(-p, p)) * p ** draw(depth)
    a6 = y * y + a1 * x * y + a3 * y - x ** 3 - a2 * x * x - a4 * x
    u = draw(st.sampled_from([1, -1, 3 if p == 2 else 2, Fraction(1, p)]))
    r, s, t = (draw(st.integers(-3, 3)) for _ in range(3))
    return p, (a1, a2, a3, a4, a6), (x, y), (u, r, s, t)


def _outcome(call):
    """call(), or the type and message of the gcval error it raised."""
    try:
        return call()
    except ToolkitError as exc:
        return type(exc), str(exc)


def _rationals(obj):
    """The rationals a model (with its invariants), point or change holds."""
    if isinstance(obj, WeierstrassModel):
        return (*obj.coefficients(), obj.b2, obj.b4, obj.b6, obj.b8,
                obj.c4, obj.c6, obj.delta)
    if isinstance(obj, Point):
        return (obj.x, obj.y)
    if isinstance(obj, CoordinateChange):
        return (obj.u, obj.r, obj.s, obj.t)
    return ()


def _point_first_results(p, a, xy, uvw):
    """What a model, point and change give: the moved model and point, a
    composed change, Tate on both models, the profile and the oracle rows
    on the moved model, and the objects whose rationals follow the rule."""
    model, point, change = WeierstrassModel(*a), Point(*xy), CoordinateChange(*uvw)
    moved, moved_pt = apply_change(model, change), map_point(change, point)
    twice = change.compose(change)
    base = run_tate(model, p)
    tate = run_tate(moved, p)
    held = [model, point, change, moved, moved_pt, twice]
    for res in (base, tate):
        held += [res.minimal_model, res.normalized_model,
                 res.to_minimal, res.to_normalized]
    prof = _outcome(lambda: compute_profile(tate, moved_pt))
    rows = None
    if not isinstance(prof, tuple):  # a torsion point has no profile
        held += [prof.point, prof.point_normalized, prof.multiple_np, *prof.walk]
        rows = _outcome(lambda: division_table(tate.minimal_model, prof.point, p, 12)
                        .valuations(12))
    return (moved, moved_pt, twice, base, tate, prof, rows), held


@settings(max_examples=40, deadline=None)
@given(case=point_first_cases())
def test_fractions_and_ints_give_the_same_results(case):
    p, a, xy, uvw = case
    try:
        as_ints = _point_first_results(p, a, xy, uvw)
    except SingularCurveError:
        reject()
    as_fractions = _point_first_results(p, tuple(map(Fraction, a)), tuple(map(Fraction, xy)),
                                        tuple(map(Fraction, uvw)))
    assert as_fractions[0] == as_ints[0]
    for held in (as_ints[1], as_fractions[1]):
        for obj in held:
            for v in _rationals(obj):
                assert type(v) is int or (type(v) is Fraction and v.denominator != 1), (obj, v)
