"""Acceptance criteria A1-A8, one test per criterion.

Each test prints a single PASS line (visible with pytest -s); the test
outcome itself is the pass/fail signal.  All comparisons are exact:
the quantities involved are integers and rationals, so every tolerance
is zero.
"""

import time
from fractions import Fraction

from gcval.cli import N_MAX_GUARDRAIL
from gcval.corpus import verify_corpus
from gcval.curve_core import WeierstrassModel, mul
from gcval.divpoly import phi2_x, psi2_squared_x, psi_sequence
from gcval.engine import (
    ROW_I2MSTAR_C4,
    ROW_III,
    ROW_III_STAR,
    ROW_IM_NONSPLIT,
    ROW_IM_SPLIT,
    ROW_ISTAR_C2,
    ROW_ISTAR_ODD_C4_NONSING,
    ROW_ISTAR_ODD_C4_SING,
    ROW_IV,
    ROW_IV_STAR,
    default_staircase_params,
    k_formula,
    predict_phi_val,
    predict_psi_val,
    table_decomposition,
)
from gcval.exact_numbers import INFINITY, val
from gcval.formal_group import mult_by_m_series, unit_exponent_scan
from gcval.profile import WALK_POINTS
from gcval.sequences import r_n
from gcval.tate import run_tate

N_MAX = 40

ROW_SLOPES = {
    ROW_III: Fraction(1, 2),
    ROW_III_STAR: Fraction(3, 2),
    ROW_IV: Fraction(2, 3),
    ROW_IV_STAR: Fraction(4, 3),
    ROW_ISTAR_C2: Fraction(1),
    ROW_ISTAR_ODD_C4_NONSING: Fraction(1),
}


def test_a1_theorem_end_to_end(corpus_entries):
    started = time.monotonic()
    assert len(corpus_entries) >= 14
    report = verify_corpus(corpus_entries, n_max=N_MAX)
    failures = [e.to_json() for e in report.entries if not e.ok]
    assert failures == []
    assert report.exit_code == 0
    # every targeted row must be covered; a row may legitimately appear as
    # UNCOVERED only when search failed, and then this assertion documents it
    assert report.uncovered == []
    # at least three split (a_P, m) pairs, including a_P not dividing m
    pairs = {(e.a_p, e.v_delta) for e in report.entries if e.row == ROW_IM_SPLIT}
    assert len(pairs) >= 3
    assert any(m % a for a, m in pairs)
    elapsed = time.monotonic() - started
    assert elapsed < 120
    print(f"A1 PASS: {len(corpus_entries)} entries, k_formula == k_direct "
          f"for n <= {N_MAX}, rows covered={len(report.covered)}, "
          f"extra={report.extra}, {elapsed:.1f}s")


def test_a1_theorem_at_the_n_max_guardrail(corpus_entries):
    # the closed form against the oracle at every n the command line accepts
    report = verify_corpus(corpus_entries, n_max=N_MAX_GUARDRAIL)
    assert report.exit_code == 0
    for e in report.entries:
        assert (e.mismatches, e.check_failures, e.error) == ([], [], None), e.label
        assert e.n_checked == N_MAX_GUARDRAIL, e.label


def test_a2_table_decomposition(corpus_entries, corpus_profiles):
    rows_seen = set()
    for entry, tate, prof, row in corpus_profiles:
        if not prof.singular:
            continue
        dec = table_decomposition(prof)
        for n in range(1, 4 * prof.m_p + 1):
            assert dec.k_at(n) == k_formula(prof, n), (entry.label, n)
            if n % prof.m_p == 0:
                assert dec.epsilon_at(n) == 0, (entry.label, n)
        if row in ROW_SLOPES:
            assert dec.slope == ROW_SLOPES[row], (entry.label, row)
            assert dec.epsilon_at(1) == -dec.slope, (entry.label, row)
        if row == ROW_ISTAR_ODD_C4_SING:
            m = tate.kodaira.m
            assert dec.slope == Fraction(m + 4, 4), entry.label
            assert dec.epsilon_at(2) == -1, entry.label
            assert dec.epsilon_at(1) == -dec.slope, entry.label
        if row == ROW_I2MSTAR_C4:
            assert dec.slope == Fraction(int(prof.v_phi2), 4), entry.label
        if row in (ROW_IM_SPLIT, ROW_IM_NONSPLIT):
            m = tate.v_delta
            a = prof.a_p
            assert dec.slope == Fraction(a * (m - a), m), entry.label
            n_prime = (a * 3) % m
            assert dec.epsilon_at(3) == Fraction(-n_prime * (m - n_prime), m)
        rows_seen.add(row)
    assert rows_seen  # at least one singular row exercised
    print(f"A2 PASS: slope*n^2 + eps(n) == k_formula for n <= 4*m_P on "
          f"{len(rows_seen)} singular rows, literals pinned")


def test_a3_per_factor_predictions(corpus_profiles):
    checked_psi = checked_phi = 0
    for entry, tate, prof, row in corpus_profiles:
        supported = (not prof.singular) or tate.reduction == "multiplicative"
        if not supported:
            continue
        params = default_staircase_params(prof)
        seq = psi_sequence(tate.minimal_model, prof.point, entry.prime, N_MAX)
        for n in range(1, N_MAX + 1):
            psi = seq.psi(n)
            actual = val(psi, entry.prime) if psi != 0 else INFINITY
            assert predict_psi_val(prof, params, n) == actual, (entry.label, n)
            checked_psi += 1
            predicted_phi = predict_phi_val(prof, n)
            if predicted_phi is not None:
                assert predicted_phi == val(seq.phi(n), entry.prime), (entry.label, n)
                checked_phi += 1
    assert checked_psi and checked_phi
    print(f"A3 PASS: v(psi_n) predicted exactly {checked_psi} times, "
          f"v(phi_n) {checked_phi} times (n <= {N_MAX})")


def test_a4_residue_congruence_exhaustive():
    count = 0
    for modulus in range(1, 31):
        for a in range(0, modulus):
            a_hat = a % modulus
            head = a_hat * (modulus - a_hat)
            for n in range(0, 121):
                na_hat = (n * a) % modulus
                assert (n * n * head - na_hat * (modulus - na_hat)) \
                    % (2 * modulus) == 0
                value = r_n(a, modulus, n)
                assert value >= 0
                count += 1
    print(f"A4 PASS: congruence mod 2l and integrality of r_n over "
          f"{count} (a, l, n) triples")


def test_a5_structural_identities(corpus_profiles):
    for entry, tate, prof, row in corpus_profiles:
        model = tate.minimal_model
        pt = prof.point
        seq = psi_sequence(model, pt, entry.prime, 24)
        for n in range(1, 21):
            q = mul(model, n, pt)
            assert q.x * seq.psi(n) ** 2 == seq.phi(n), (entry.label, n)
        assert seq.psi(2) ** 2 == psi2_squared_x(model, pt.x), entry.label
        assert seq.phi(2) == phi2_x(model, pt.x), entry.label
        for m in range(2, 13):
            for n in range(1, m):
                lhs = seq.psi(m + n) * seq.psi(m - n)
                rhs = (seq.psi(m + 1) * seq.psi(m - 1) * seq.psi(n) ** 2
                       - seq.psi(n + 1) * seq.psi(n - 1) * seq.psi(m) ** 2)
                assert lhs == rhs, (entry.label, m, n)
    print(f"A5 PASS: x([n]P) psi_n^2 == phi_n (n <= 20), closed forms, and "
          f"the divisibility identity on {len(corpus_profiles)} entries")


def test_a6_tate_consistency(corpus_profiles):
    istar_pot_mult = istar_pot_good = 0
    for entry, tate, prof, row in corpus_profiles:
        p = entry.prime
        k = tate.kodaira
        if k.series == "I*" and k.m >= 1:
            # v(delta) = m + 4 + v(c4) belongs to the potential-multiplicative
            # regime v(j) < 0; the p = 2 potential-good entries sit outside it
            if tate.v_j < 0:
                assert tate.v_delta == k.m + 4 + tate.v_c4, entry.label
                istar_pot_mult += 1
            else:
                assert p == 2, entry.label
                istar_pot_good += 1
        if k.series == "I" and k.m >= 1:
            assert tate.v_j == -k.m and tate.v_c4 == 0, entry.label
        again = run_tate(tate.minimal_model, entry.prime)
        assert str(again.kodaira) == str(k), entry.label
        assert again.v_delta == tate.v_delta, entry.label
        assert again.to_minimal.is_identity(), entry.label
        # the normalized model carries the coefficient valuations the
        # additive/multiplicative formulas assume
        norm = tate.normalized_model
        if tate.reduction != "good":
            assert min(val(norm.a3, p), val(norm.a4, p), val(norm.a6, p)) >= 1, \
                entry.label
        if k.series == "I*" and k.m >= 1:
            m = k.m
            assert val(norm.a1, p) >= 1 and val(norm.a2, p) == 1, entry.label
            assert val(norm.a3, p) >= m // 2 + 2, entry.label
            assert val(norm.a4, p) >= (m - 1) // 2 + 3, entry.label
            assert val(norm.a6, p) >= m + 3, entry.label

    # three runs verified against the hand-executed traces in the README
    t = run_tate(WeierstrassModel(0, 0, 0, 5, -125), 5)
    assert (str(t.kodaira), t.cv, t.v_delta, t.v_c4) == ("III", 2, 3, 1)
    t = run_tate(WeierstrassModel(0, 1, 0, -2, 0), 3)
    assert (str(t.kodaira), t.cv, t.v_delta, t.v_c4) == ("I2", 2, 2, 0)
    assert t.split is True
    assert t.normalized_model == WeierstrassModel(0, 4, 0, 3, 0)
    t = run_tate(WeierstrassModel(0, 0, 0, 0, -15000), 5)
    assert (str(t.kodaira), t.cv, t.v_delta) == ("IV*", 3, 8)
    assert istar_pot_mult >= 4 and istar_pot_good >= 2
    print(f"A6 PASS: I_m*/I_m valuation relations ({istar_pot_mult} potential-"
          f"multiplicative, {istar_pot_good} potential-good I_m* entries), "
          "minimality idempotence, and three hand-executed runs")


def test_a7_valuation_lemma_checks(corpus_profiles):
    istar = mp2 = mp3 = 0
    for entry, tate, prof, row in corpus_profiles:
        p = entry.prime
        if not prof.singular:
            continue
        npt = prof.point_normalized
        nseq = psi_sequence(tate.normalized_model, npt, p, 4)
        if prof.m_p == 2:
            assert val(nseq.phi(2), p) == val(nseq.psi(3), p), entry.label
            mp2 += 1
        if prof.m_p == 3 and tate.reduction == "additive":
            assert val(nseq.phi(3), p) == 3 * val(nseq.psi(2) ** 2, p), entry.label
            assert val(nseq.psi(4), p) == 5 * val(nseq.psi(2), p), entry.label
            mp3 += 1
        k = tate.kodaira
        if k.series == "I*" and k.m >= 1:
            m = k.m
            vx = val(npt.x, p)
            low = Fraction(m + 3, 2) if m % 2 else Fraction(m + 2, 2)
            assert vx == 1 or vx >= low, (entry.label, vx)
            assert not (1 < vx < low), (entry.label, vx)
            assert prof.v_phi2 == prof.v_psi3, entry.label
            assert prof.v_phi2 in (4, m + 4), entry.label
            if vx == 1:
                assert prof.two_p_singular is False, entry.label
                assert prof.v_phi2 == 4 and prof.v_psi2_sq >= 4, entry.label
            elif m % 2 == 1:
                assert prof.two_p_singular is True, entry.label
                assert prof.v_phi2 == m + 4, entry.label
                assert prof.v_psi2_sq == m + 3, entry.label
            else:
                assert prof.two_p_singular is False, entry.label
                assert prof.v_phi2 == m + 4, entry.label
                assert prof.v_psi2_sq == m + 4, entry.label
            istar += 1
    assert istar >= 4 and mp2 >= 4 and mp3 >= 2
    print(f"A7 PASS: I_m* trichotomy and valuation table on {istar} entries, "
          f"m_P = 2 identity on {mp2}, m_P = 3 identity on {mp3}")


def test_a8_formal_group(corpus_entries, corpus_profiles):
    generic = WeierstrassModel(1, 2, 3, 4, 5)
    for m in range(1, 11):
        assert mult_by_m_series(generic, m, 3).coefficient(1) == m

    good_b = []
    long_walks = 0
    for entry, tate, prof, row in corpus_profiles:
        p = entry.prime
        if tate.reduction == "good":
            b = unit_exponent_scan(tate.minimal_model, p)
            assert b in (p, p * p), (entry.label, b)
            good_b.append((entry.label, b))
        # the walk keeps the group law's [1]P..[20]P,
        # multiple_np is [n_P]P (past the kept points on IV-p7, n_P = 21),
        # and s_P = -v(x([n_P]P))/2 for every corpus entry
        assert len(prof.walk) == WALK_POINTS, entry.label
        for n, point in enumerate(prof.walk, start=1):
            assert point == mul(tate.minimal_model, n, prof.point), (entry.label, n)
        q = mul(tate.minimal_model, prof.n_p, prof.point)
        assert prof.multiple_np == q, entry.label
        long_walks += prof.n_p > WALK_POINTS
        assert val(q.x, p) < 0
        assert val(q.x, p) - val(q.y, p) == -val(q.x, p) / 2, entry.label
    assert good_b
    assert long_walks  # a walk past the kept points still finds [n_P]P

    # the b = 2 / s = 1 / h = 0 equality case: w from the two point multiples
    # makes the psi prediction exact at the p-power indices n_P * p^t, t <= 2
    w_entries = [row for row in corpus_profiles
                 if "staircase-w-equality" in row[0].flags]
    assert w_entries, "corpus must carry the staircase equality case"
    for entry, tate, prof, row in w_entries:
        p = entry.prime
        params = default_staircase_params(prof)
        assert (params.b, params.s, params.h) == (2, 1, 0)
        assert params.w not in (0, INFINITY)
        seq = psi_sequence(tate.minimal_model, prof.point, p,
                           prof.n_p * p ** 2)
        for t_exp in range(0, 3):
            n = prof.n_p * p ** t_exp
            assert predict_psi_val(prof, params, n) == val(seq.psi(n), p), \
                (entry.label, n)
    print(f"A8 PASS: [m]T linear coefficients, b in {{p, p^2}} on "
          f"{len(good_b)} good-reduction entries, s identity on all entries, "
          f"w-equality case verified on {len(w_entries)} entries")
