import json
import sys
from dataclasses import replace

import pytest

from gcval import corpus, curve_core, divpoly, engine, exact_numbers, formal_group, profile
from gcval.corpus import (
    CorpusEntry,
    CorpusParseError,
    EntryReport,
    _structural_checks,
    entry_to_json,
    load_corpus,
    verify_corpus,
    verify_entry,
)
from gcval.curve_core import on_curve
from gcval.engine import default_staircase_params
from gcval.errors import EXIT_INTERNAL, InternalError
from gcval.tate import run_tate


def test_bundled_corpus_loads(corpus_entries):
    assert len(corpus_entries) >= 14
    labels = [e.label for e in corpus_entries]
    assert len(labels) == len(set(labels))
    for e in corpus_entries:
        assert on_curve(e.model, e.curve_point)
        assert e.expect and {"kodaira", "cv", "mP", "row"} <= set(e.expect)


def test_corpus_round_trip(corpus_entries):
    for e in corpus_entries:
        blob = entry_to_json(e)
        parsed = json.loads(blob)
        assert parsed["a"] == list(e.a)
        assert parsed["point"] == list(e.point)


def test_parse_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "broken.jsonl"
    path.write_text("# comment\n\n{not json}\n")
    with pytest.raises(CorpusParseError) as info:
        load_corpus(path)
    assert info.value.line == 3

    path.write_text('{"label": "x", "a": ["0","0","0","0","1"], '
                    '"point": ["0"], "prime": 5}\n')
    with pytest.raises(CorpusParseError):
        load_corpus(path)

    path.write_text('{"label": "x", "a": ["0","0","0","0","1"], '
                    '"point": ["2","3"], "prime": 4}\n')
    with pytest.raises(CorpusParseError):
        load_corpus(path)

    # malformed pins and flags are bad input, not failed checks
    good = '"label": "x", "a": ["0","0","1","-1","0"], "point": ["0","0"], "prime": 5'
    for extra in ('"expect": {"kodaira": "Q7"}', '"expect": {"kodaira": 7}',
                  '"expect": {"cv": "2"}', '"expect": {"cv": true}',
                  '"expect": {"mP": 1.5}', '"expect": {"row": 3}',
                  '"expect": []', '"flags": 3', '"flags": "abc"',
                  '"flags": ["ok", 1]', '"expect": {"kodaria": "I5", "CV": 9}',
                  '"expect": {"cv": 1, "m_P": 1}'):
        path.write_text("# comment\n{" + good + ", " + extra + "}\n")
        with pytest.raises(CorpusParseError) as info:
            load_corpus(path)
        assert info.value.line == 2, extra
    path.write_text("{" + good + ', "expect": {"kodaira": "I0", "cv": 1, '
                    '"mP": 1, "row": "nonsingular-vx-nonneg"}, "flags": ["f"]}\n')
    assert load_corpus(path)[0].flags == ("f",)


def test_verify_entry_reports_mismatch_on_corrupted_profile(corpus_entries):
    # corrupting the pinned expectation must flip the entry to failing
    base = corpus_entries[0]
    bad = type(base)(
        label=base.label, a=base.a, point=base.point, prime=base.prime,
        expect=dict(base.expect, cv=base.expect["cv"] + 1), flags=base.flags)
    report = verify_entry(bad, n_max=4)
    assert not report.ok and not report.expect_ok


def test_split_im_pairs_required_by_coverage(corpus_entries):
    pairs = set()
    for e in corpus_entries:
        if e.expect["row"] == "Im-split":
            report = verify_entry(e, n_max=2)
            assert report.ok
            pairs.add((report.a_p, report.v_delta))
    assert len(pairs) >= 3
    assert any(m % a != 0 for a, m in pairs)      # a_P not dividing m
    assert any(a > 1 and m % a == 0 for a, m in pairs)


def test_torsion_entry_is_reported_not_raised(tmp_path):
    entry_line = json.dumps({
        "label": "torsion", "a": ["0", "0", "0", "0", "1"],
        "point": ["2", "3"], "prime": 5})
    path = tmp_path / "torsion.jsonl"
    path.write_text(entry_line + "\n")
    entries = load_corpus(path)
    report = verify_entry(entries[0], n_max=3)
    assert report.error and "Torsion" in report.error
    assert not report.ok


def test_entry_integral_only_at_p_is_integralized_first(tmp_path):
    # 37a scaled by u = 2: integral at 2 once scaled back, as kval does
    path = tmp_path / "scaled.jsonl"
    path.write_text('{"label": "s", "a": ["0","0","1/8","-1/16","0"], '
                    '"point": ["0","0"], "prime": 2}\n')
    report = verify_entry(load_corpus(path)[0], n_max=40)
    assert report.ok and report.error is None
    plain = CorpusEntry("s", ("0", "0", "1", "-1", "0"), ("0", "0"), 2)
    assert report.to_json() == verify_entry(plain, n_max=40).to_json()


def test_mp3_check_reads_phi3_on_the_normalized_model():
    # IV-p7 moved by x -> x + 1: minimal already, with its cusp at x = -1, so
    # the normalizing translation has r = -1 mod 7; x([3]P) = 0 mod 7 here and
    # v(phi_3) on this model exceeds 6 v(psi_2), but not on the normalized one
    entry = CorpusEntry("IV-p7-shifted", ("0", "3", "0", "3", "-146"), ("6", "14"), 7)
    tate = run_tate(entry.model, 7)
    assert tate.minimal_model == entry.model and (tate.to_normalized.r + 1) % 7 == 0
    rows = divpoly.division_table(tate.minimal_model, entry.curve_point, 7, 3).valuations(3)
    assert rows[2][1] > 6 * rows[1][2]
    report = verify_entry(entry, n_max=40)
    assert report.ok, report.check_failures
    assert report.row == "IV"


def spy(monkeypatch, name, module=divpoly):
    """Record the positional and keyword arguments of every call to
    <module>.<name>, through any gcval module that binds it."""
    original, calls = getattr(module, name), []

    def wrapper(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    for module in [m for key, m in sys.modules.items() if key.startswith("gcval")]:
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, wrapper)
    return calls


@pytest.mark.parametrize("n_max", [3, 30])
def test_verify_entry_builds_one_division_table(corpus_entries, monkeypatch, n_max):
    # the oracle and every division-polynomial check read the same table,
    # built to max(n_max, 24) and keeping the exact W_n to 24; no exact psi_n
    # is rebuilt on the way
    tables = spy(monkeypatch, "division_table")
    sequences = spy(monkeypatch, "psi_sequence")
    for entry in corpus_entries:
        tables.clear()
        assert verify_entry(entry, n_max=n_max).ok, entry.label
        assert [(args[3], kwargs) for args, kwargs in tables] == [
            (max(n_max, 24), {"keep": 24})], entry.label
    assert sequences == []


def test_verify_entry_derives_the_staircase_once(corpus_profiles, monkeypatch):
    # b is scanned once per non-singular entry, and the staircase parameters
    # are built once per non-singular or multiplicative entry, in the
    # structural stage, and never for a singular point on additive reduction
    scans = spy(monkeypatch, "unit_exponent_scan", formal_group)
    builds = spy(monkeypatch, "staircase_params", formal_group)
    supported = []
    for entry, tate, prof, _row in corpus_profiles:
        scans.clear()
        builds.clear()
        assert verify_entry(entry, n_max=30).ok, entry.label
        has_params = not prof.singular or tate.reduction == "multiplicative"
        supported.append((entry, has_params))
        assert len(scans) == (0 if prof.singular else 1), entry.label
        assert len(builds) == has_params, entry.label
    kinds = {(prof.singular, tate.reduction) for _e, tate, prof, _r in corpus_profiles}
    assert {(False, "good"), (True, "multiplicative"), (True, "additive")} <= kinds

    def refuse(*args):
        raise InternalError("no staircase")

    monkeypatch.setattr(engine, "staircase_params", refuse)
    for entry, has_params in supported:
        report = verify_entry(entry, n_max=30)
        stage = "structural" if has_params else None
        assert report.error_stage == stage, entry.label


def test_a_crash_beside_a_mismatch_exits_4(corpus_entries, monkeypatch):
    # a crash must never read as a verification mismatch, even in an entry
    # whose comparison had already failed when it raised
    def broken(prof):
        raise InternalError("no staircase")

    monkeypatch.setattr(corpus, "k_formula", lambda prof, n: -1)
    monkeypatch.setattr(corpus, "default_staircase_params", broken)
    report = verify_corpus(corpus_entries[:1], n_max=3)
    [entry] = report.entries
    assert len(entry.mismatches) == 3 and entry.error_stage == "structural"
    assert entry.exit_code == report.exit_code == EXIT_INTERNAL
    assert report.to_json()["summary"]["exitCode"] == EXIT_INTERNAL


def test_verify_entry_parses_once_and_checks_at_the_boundaries(corpus_entries, tmp_path,
                                                              monkeypatch):
    # load_corpus parses each entry's five a-invariants and two coordinates
    # and checks the point on the curve; verify_entry re-parses nothing and
    # evaluates the curve equation only where a point enters a public
    # entry point: the start of the walk, the division table, and, when the
    # entry reaches them, point_is_singular and mul
    path = tmp_path / "entry.jsonl"
    parses = spy(monkeypatch, "parse_rational", exact_numbers)
    checks = spy(monkeypatch, "equation_value", curve_core)
    singular_tests = spy(monkeypatch, "point_is_singular", profile)
    muls = spy(monkeypatch, "mul", curve_core)
    for entry in corpus_entries:
        path.write_text(entry_to_json(entry) + "\n", encoding="utf-8")
        for calls in (parses, checks, singular_tests, muls):
            calls.clear()
        [loaded] = load_corpus(path)
        assert (len(parses), len(checks)) == (7, 1), entry.label
        checks.clear()
        assert verify_entry(loaded, n_max=30).ok, entry.label
        assert len(parses) == 7, entry.label
        assert len(checks) == 2 + len(singular_tests) + len(muls) <= 3, entry.label


def structural_failures(tate, prof, table):
    report = EntryReport(label="structural")
    supported = not prof.singular or tate.reduction == "multiplicative"
    _structural_checks(report, prof, table,
                       default_staircase_params(prof) if supported else None)
    return report.check_failures


@pytest.fixture(scope="module")
def structural_case(corpus_profiles):
    """(tate, profile, division table to index 24) of the first corpus entry."""
    _entry, tate, prof, _row = corpus_profiles[0]
    return tate, prof, divpoly.division_table(tate.minimal_model, prof.point, tate.p, 24)


def test_perturbed_psi_fails_the_divisibility_identity(structural_case):
    tate, prof, table = structural_case
    assert structural_failures(tate, prof, table) == []
    # W_7, at index 8 of the table, doubled
    k, u = table.w[8]
    bad = replace(table, w=table.w[:8] + ((k, 2 * u),) + table.w[9:])
    failures = structural_failures(tate, prof, bad)
    divisibility = [f for f in failures if f.startswith("divisibility-identity")]
    # psi_7 enters at m + n = 7, m +- 1 = 7, n +- 1 = 7 and m = 7
    assert "divisibility-identity: (m,n)=(4,3)" in divisibility
    assert "divisibility-identity: (m,n)=(8,7)" in divisibility
    # Phi_6 = X W_6^2 - W_5 W_7 and Phi_8 = X W_8^2 - W_7 W_9 read W_7 too
    assert set(failures) - set(divisibility) == {
        "x-multiple-identity: n=6", "x-multiple-identity: n=7",
        "x-multiple-identity: n=8"}


def test_perturbed_walk_point_fails_the_x_multiple_identity(structural_case):
    tate, prof, table = structural_case
    assert prof.n_p != 3
    walk = prof.walk[:2] + prof.walk[3:4] + prof.walk[3:]  # [4]P for [3]P
    failures = structural_failures(tate, replace(prof, walk=walk), table)
    assert failures == ["x-multiple-identity: n=3"]
