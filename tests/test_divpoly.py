import tracemalloc
from fractions import Fraction
from math import prod

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from gcval.curve_core import (
    CoordinateChange,
    Point,
    WeierstrassModel,
    apply_change,
    integral_form,
    map_point,
    mul,
)
from gcval import divpoly
from gcval.divpoly import (
    _sub,
    _tie_exponent,
    _tie_modulus,
    division_table,
    phi2_x,
    psi2_squared_x,
    psi2_value,
    psi3_value,
    psi_sequence,
)
from gcval.engine import k_direct_range
from gcval.errors import (
    InputError,
    InternalError,
    NonPrimeError,
    SingularCurveError,
    TwoTorsionError,
)
from gcval.exact_numbers import INFINITY, val

E_MORDELL = WeierstrassModel(0, 0, 0, 0, 1)
E37 = WeierstrassModel(0, 0, 1, -1, 0)
P_M = Point(2, 3)
P37 = Point(0, 0)


def test_base_values_hand_computed():
    seq = psi_sequence(E_MORDELL, P_M, 5, 4)
    assert seq.psi(1) == 1
    assert seq.psi(2) == 6          # 2y + a1 x + a3
    assert seq.psi(3) == 72         # 3x^4 + b2 x^3 + 3 b4 x^2 + 3 b6 x + b8
    assert seq.psi(4) == 2592
    assert seq.phi(1) == 2          # phi_1 = x
    assert seq.phi(2) == 0          # x^4 - b4 x^2 - 2 b6 x - b8 at x = 2


def test_psi2_squared_closed_form():
    # 4x^3 + b2 x^2 + 2 b4 x + b6 = 36 = psi_2(P)^2
    assert psi2_squared_x(E_MORDELL, 2) == 36
    assert psi2_value(E_MORDELL, P_M) ** 2 == 36


def test_psi3_value_matches_table():
    assert psi3_value(E_MORDELL, P_M) == 72


def test_phi2_matches_group_law():
    # x([2]P) = phi_2 / psi_2^2 whenever [2]P is affine; here phi_2 = 0
    assert mul(E_MORDELL, 2, P_M) == Point(0, 1)
    assert phi2_x(E_MORDELL, 2) == 0


def test_two_torsion_rejected():
    e = WeierstrassModel(0, 0, 0, -1, 0)  # (1, 0) is 2-torsion
    with pytest.raises(TwoTorsionError):
        psi_sequence(e, Point(1, 0), 5, 3)


def test_bad_inputs():
    with pytest.raises(InputError):
        psi_sequence(E37, P37, 2, 0)
    with pytest.raises(InputError):
        psi_sequence(E37, Point(1, 1), 2, 3)
    with pytest.raises(NonPrimeError):
        psi_sequence(E37, P37, 4, 3)


def test_x_of_multiple_identity_37a():
    seq = psi_sequence(E37, P37, 2, 20)
    for n in range(1, 21):
        q = mul(E37, n, P37)
        assert q is not None
        assert q.x * seq.psi(n) ** 2 == seq.phi(n)


def test_torsion_vanishing():
    # (2, 3) has order 6 on y^2 = x^3 + 1, so psi_6 vanishes there
    seq = psi_sequence(E_MORDELL, P_M, 5, 6)
    assert seq.psi(6) == 0
    assert seq.psi(5) != 0


def test_elliptic_divisibility_relation():
    seq = psi_sequence(E37, P37, 2, 24)
    for m in range(2, 13):
        for n in range(1, m):
            lhs = seq.psi(m + n) * seq.psi(m - n)
            rhs = (seq.psi(m + 1) * seq.psi(m - 1) * seq.psi(n) ** 2
                   - seq.psi(n + 1) * seq.psi(n - 1) * seq.psi(m) ** 2)
            assert lhs == rhs, (m, n)


def test_phi_recurrence_definition():
    seq = psi_sequence(E37, P37, 2, 12)
    x = P37.x
    for n in range(2, 13):
        assert seq.phi(n) == x * seq.psi(n) ** 2 - seq.psi(n - 1) * seq.psi(n + 1)


def test_rational_point_with_denominators():
    q = Point(Fraction(1, 4), Fraction(-5, 8))  # [5] of the 37a generator
    seq = psi_sequence(E37, q, 2, 8)
    for n in range(1, 9):
        r = mul(E37, n, q)
        assert r.x * seq.psi(n) ** 2 == seq.phi(n)


# --- the table's readers against a Fraction recurrence ---------------------

def _fraction_table(model, point, n_max):
    """psi_-1..psi_(n_max+1) and phi_1..phi_n_max at an affine point that
    is not 2-torsion, by the recurrences on Fractions: the reference."""
    b2, b4, b6, b8 = model.b2, model.b4, model.b6, model.b8
    x, psi2 = point.x, psi2_value(model, point)
    psi = {
        -1: Fraction(-1),
        0: Fraction(0),
        1: Fraction(1),
        2: psi2,
        3: psi3_value(model, point),
        4: psi2 * (2 * x ** 6 + b2 * x ** 5 + 5 * b4 * x ** 4 + 10 * b6 * x ** 3
                   + 10 * b8 * x * x + (b2 * b8 - b4 * b6) * x + (b4 * b8 - b6 * b6)),
    }
    for n in range(5, n_max + 2):
        m = n // 2
        if n % 2:
            psi[n] = psi[m + 2] * psi[m] ** 3 - psi[m - 1] * psi[m + 1] ** 3
        else:
            psi[n] = psi[m] * (psi[m + 2] * psi[m - 1] ** 2
                               - psi[m - 2] * psi[m + 1] ** 2) / psi2
    phi = {n: x * psi[n] ** 2 - psi[n - 1] * psi[n + 1] for n in range(1, n_max + 1)}
    return psi, phi


def _reference(model, point, p, n_max):
    """(n, v(phi_n), v(psi_n)) read off the Fraction table with val."""
    psi, phi = _fraction_table(model, point, n_max)
    return [(n, val(phi[n], p), val(psi[n], p)) for n in range(1, n_max + 1)]


#: 37a translated by r = 1: [2](0, 0) = (1, 0) moves to x = 0, so phi_2 = 0
E37_R1 = apply_change(E37, CoordinateChange(r=1))
P37_R1 = map_point(CoordinateChange(r=1), P37)
#: 37a translated by r = 1 - p^k: x([2](0, 0)) moves to p^k, so the two
#: terms of Phi_2 tie at exponent 0 and their difference is p^k; once at
#: p = 2 with k = 29, once with k = 1 at a prime above 2^30
P_BIG = 2 ** 31 - 1
E37_2K = apply_change(E37, CoordinateChange(r=1 - 2 ** 29))
P37_2K = map_point(CoordinateChange(r=1 - 2 ** 29), P37)
E37_PBIG = apply_change(E37, CoordinateChange(r=1 - P_BIG))
P37_PBIG = map_point(CoordinateChange(r=1 - P_BIG), P37)
#: 37a scaled by u = 3: integral at 2 but not over Z
E37_U3 = WeierstrassModel(0, 0, Fraction(1, 27), Fraction(-1, 81), 0)
#: the 37a point [5](0, 0), in E_1 at p = 2 (x = 1/2^2)
P37_5 = Point(Fraction(1, 4), Fraction(-5, 8))


@st.composite
def curve_point_prime(draw):
    """A point first, then a curve through it.

    x = t^2/e^2 and y = t^3/e^3 with a_i = e^(6-i) a_i' keep the model
    integral (e^6 divides every term of a6's numerator); e = p^j c puts the
    point in E_1 when j > 0.  An integral translation (r, s, t) varies the
    model, and a scaling by u prime to p leaves it integral only at p.
    """
    p = draw(st.sampled_from([2, 3, 5, 7]))
    e = p ** draw(st.integers(0, 2)) * draw(st.integers(1, 3))
    t = draw(st.integers(-9, 9).filter(bool))
    a1, a2, a3, a4 = (draw(st.integers(-4, 4)) * e ** (6 - i) for i in (1, 2, 3, 4))
    x, y = Fraction(t * t, e * e), Fraction(t ** 3, e ** 3)
    a6 = y * y + a1 * x * y + a3 * y - x ** 3 - a2 * x * x - a4 * x
    u = draw(st.sampled_from([q for q in (1, 2, 3, 5) if q % p]))
    change = CoordinateChange(u, *(draw(st.integers(-3, 3)) for _ in range(3)))
    try:
        model = apply_change(WeierstrassModel(a1, a2, a3, a4, a6), change)
    except SingularCurveError:
        reject()
    return model, map_point(change, Point(x, y)), p


@settings(max_examples=120, deadline=None)
@given(triple=curve_point_prime(), n_max=st.integers(1, 24))
@example(triple=(E_MORDELL, P_M, 2), n_max=12)   # v(W_2) = 1, psi_6 = 0
@example(triple=(E_MORDELL, P_M, 3), n_max=12)   # v(W_2) = 1 at p = 3
@example(triple=(E37, P37_5, 2), n_max=20)        # v(e) = 1
@example(triple=(E37_U3, P37, 2), n_max=20)       # integral only at 2
@example(triple=(E37_U3, P37, 3), n_max=12)       # not integral at p
@example(triple=(E37_R1, P37_R1, 2), n_max=12)    # phi_2 = 0
@example(triple=(E37_2K, P37_2K, 2), n_max=12)    # v(phi_2) = 29
@example(triple=(E37_PBIG, P37_PBIG, P_BIG), n_max=6)  # v(phi_2) = 1
@example(triple=(E37, P37, 2), n_max=1)           # the bases past n_max + 1
def test_oracle_matches_fraction_table(triple, n_max):
    model, point, p = triple
    if psi2_value(model, point) == 0:
        reject()
    psi, phi = _fraction_table(model, point, n_max)
    seq = psi_sequence(model, point, p, n_max)
    assert seq._psi == psi
    assert seq._phi == phi
    table = division_table(model, point, p, n_max)
    c = integral_form(model, point)[2]
    assert table.c == c
    assert all(table.scaled_psi(n) == psi[n] * c ** (n * n - 1)
               for n in range(1, n_max + 2))
    assert all(table.scaled_phi(n) == phi[n] * c ** (2 * n * n)
               for n in range(1, n_max + 1))
    want = _reference(model, point, p, n_max)
    assert seq.valuations == want
    assert table.valuations(n_max) == want


def valuations(model, point, p, n_max):
    return division_table(model, point, p, n_max).valuations(n_max)


def test_oracle_examples_hit_their_edges():
    assert valuations(E37_R1, P37_R1, 2, 2)[1] == (2, INFINITY, 0)
    assert valuations(E37_2K, P37_2K, 2, 2)[1] == (2, 29, 0)
    assert valuations(E37_PBIG, P37_PBIG, P_BIG, 2)[1] == (2, 1, 0)
    assert valuations(E_MORDELL, P_M, 2, 6)[5][2] == INFINITY
    assert val(psi2_value(E_MORDELL, P_M), 2) == val(psi2_value(E_MORDELL, P_M), 3) == 1
    assert valuations(E37, P37_5, 2, 1) == [(1, -2, 0)]
    assert valuations(E37_U3, P37, 2, 20) == valuations(E37, P37, 2, 20)


def test_oracle_rejects_what_the_table_rejects():
    with pytest.raises(InputError):
        division_table(E37, P37, 2, 0)
    with pytest.raises(InputError):
        division_table(E37, Point(1, 1), 2, 3)
    with pytest.raises(TwoTorsionError):
        division_table(WeierstrassModel(0, 0, 0, -1, 0), Point(1, 0), 2, 3)
    with pytest.raises(NonPrimeError):
        division_table(E37, P37, 4, 3)


def test_k_direct_rows_match_fraction_table_on_corpus(corpus_profiles):
    for entry, tate, prof, _ in corpus_profiles:
        want = [(n, min(v_phi, 2 * v_psi), v_phi, 2 * v_psi)
                for n, v_phi, v_psi in _reference(tate.minimal_model, prof.point,
                                                  entry.prime, 60)]
        table = division_table(tate.minimal_model, prof.point, entry.prime, 60)
        assert k_direct_range(table, 60) == want, entry.label
        # a table built past n_max gives the same first n_max rows
        deeper = division_table(tate.minimal_model, prof.point, entry.prime, 64)
        assert k_direct_range(deeper, 60) == want, entry.label


# --- ties settled modulo p^K ------------------------------------------------

TIE_PRIMES = (2, 3, 5, 9973, P_BIG)


@pytest.mark.parametrize("p", (*TIE_PRIMES, 32771))
def test_tie_modulus_is_the_largest_power_below_2_30(p):
    m = _tie_modulus(p)
    k = val(m, p)
    assert m == p ** k and k >= 1
    assert m * p >= 1 << 30
    assert m < 1 << 30 or m == p


@pytest.mark.parametrize("p", TIE_PRIMES)
def test_tie_exponent_on_built_units(p, monkeypatch):
    # the units X, W_9, W_10 and W_11 at [2](0, 0) = (1, 0) on 37a
    table = division_table(E37, Point(1, 0), p, 12)
    (_, ux), (_, ul), (_, un), (_, ur) = table.x, *table.w[10:13]
    k = val(_tie_modulus(p), p)
    calls = []  # the exact differences the tie rule falls back to
    monkeypatch.setattr(divpoly, "_sub", lambda a, b, p: calls.append(a) or _sub(a, b, p))
    # the residues differ: no product is formed
    assert _tie_exponent(4, (ux, un, un), (ul, ur), p, _tie_modulus(p)) == 4 + val(
        ux * un * un - ul * ur, p)
    assert calls == []
    # a difference p^(K+3) u agrees modulo p^K: the exact fallback reads it
    unit = 1 + p
    near = ux * un * un - p ** (k + 3) * unit
    assert _tie_exponent(4, (ux, un, un), (near,), p, _tie_modulus(p)) == 4 + k + 3
    assert len(calls) == 1
    # a difference of exactly 0
    assert _tie_exponent(4, (ux, un, un), (ux * un, un), p, _tie_modulus(p)) == INFINITY
    assert len(calls) == 2


_UNITS = st.integers(-10 ** 40, 10 ** 40)


@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from(TIE_PRIMES), data=st.data())
def test_tie_exponent_matches_the_exact_difference(p, data):
    m = _tie_modulus(p)
    a = tuple(data.draw(st.lists(_UNITS.filter(lambda u: u % p), min_size=1, max_size=3)))
    # B = A - p^j t, from a residue difference to far past p^K
    j = data.draw(st.integers(0, 3 * val(m, p) + 6))
    t = data.draw(st.integers(-10 ** 20, 10 ** 20))
    b = prod(a) - p ** j * t
    if b % p == 0:
        reject()
    a, b = (a, (b,)) if data.draw(st.booleans()) else ((b,), a)
    k = data.draw(st.integers(0, 60))
    assert _tie_exponent(k, a, b, p, m) == _sub((k, prod(a)), (k, prod(b)), p)[0]


def test_rows_without_exact_values_match_val_on_corpus(corpus_profiles):
    # the rows of a table that keeps no W_n past W_0, against val of the
    # exact Phi_n and W_n of a full table, less the scaling by c
    n_max = 120
    for entry, tate, prof, _ in corpus_profiles:
        p = entry.prime
        rows = division_table(tate.minimal_model, prof.point, p, n_max, keep=0).valuations(n_max)
        full = division_table(tate.minimal_model, prof.point, p, n_max)
        v_c = val(full.c, p)
        assert rows == [(n, val(full.scaled_phi(n), p) - 2 * n * n * v_c,
                         val(full.scaled_psi(n), p) - (n * n - 1) * v_c)
                        for n in range(1, n_max + 1)], entry.label


def _traced_peak(build):
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_table_that_keeps_nothing_drops_its_exact_values(corpus_profiles):
    entry, tate, prof, _ = next(c for c in corpus_profiles
                                if c[0].label == "III-p5-nonsingular-point")
    args = (tate.minimal_model, prof.point, entry.prime, 200)
    full = _traced_peak(lambda: division_table(*args))
    lean = _traced_peak(lambda: division_table(*args, keep=0))
    assert lean <= 0.4 * full, (lean, full)


def test_readers_refuse_what_the_table_does_not_hold():
    table = division_table(E37, P37, 2, 10, keep=3)
    assert table.scaled_psi(3) == division_table(E37, P37, 2, 10).scaled_psi(3)
    for n in (4, 11, 12):
        with pytest.raises(InternalError):
            table.scaled_psi(n)
    with pytest.raises(InternalError):
        table.scaled_phi(3)  # reads W_4
    with pytest.raises(InternalError):
        table.scaled_psi(-2)
    assert len(table.valuations(10)) == 10
    with pytest.raises(InternalError):
        table.valuations(11)
