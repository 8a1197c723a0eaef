import json
from decimal import Decimal

import pytest

from gcval.cli import main
from gcval.corpus import CorpusParseError, load_corpus
from gcval.curve_core import Point, WeierstrassModel
from gcval.divpoly import psi_sequence
from gcval.errors import InternalError

from tests.conftest import CORPUS_PATH


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, [json.loads(line) for line in out.splitlines() if line]


def test_profile_good_reduction(capsys):
    code, lines = run_cli(capsys, "profile", "--curve", "0,0,0,0,1", "--prime", "5")
    assert code == 0
    (obj,) = lines
    assert obj["kodaira"] == "I0" and obj["cv"] == 1 and obj["vDelta"] == 0


def test_profile_multiplicative(capsys):
    code, lines = run_cli(capsys, "profile", "--curve", "0,1,0,-2,0", "--prime", "3")
    assert code == 0
    (obj,) = lines
    assert obj["kodaira"] == "I2" and obj["reduction"] == "multiplicative"


def test_profile_with_point(capsys):
    # (2, 3) is on the curve (9 = 8 + 1) and is accepted even though it is
    # torsion; the order-dependent fields are omitted in that case
    code, lines = run_cli(capsys, "profile", "--curve", "0,0,0,0,1",
                          "--prime", "2", "--point", "2,3")
    assert code == 0
    assert lines[0]["point"]["torsion"] is True
    code, lines = run_cli(capsys, "profile", "--curve", "0,0,0,5,-125",
                          "--prime", "5", "--point", "5,5")
    assert code == 0
    assert lines[0]["point"]["singular"] is True
    assert lines[0]["point"]["row"] == "III"


def test_profile_field_order_is_stable(capsys):
    _, lines1 = run_cli(capsys, "profile", "--curve", "0,0,0,5,-125", "--prime", "5",
                        "--point", "5,5")
    _, lines2 = run_cli(capsys, "profile", "--curve", "0,0,0,5,-125", "--prime", "5",
                        "--point", "5,5")
    assert json.dumps(lines1) == json.dumps(lines2)
    assert list(lines1[0]) == ["kodaira", "cv", "vDelta", "vC4", "vJ",
                               "reduction", "split", "minimalModel",
                               "normalizedModel", "point"]


def test_kval_both_mode(capsys):
    code, lines = run_cli(capsys, "kval", "--curve", "1,0,0,0,-75",
                          "--point", "5,5", "--prime", "5", "--n-max", "8")
    assert code == 0
    assert len(lines) == 8
    assert all(line["match"] for line in lines)
    assert lines[0]["kFormula"] == 0  # n = 1, singular point: min(v(x), 0) = 0


def test_kval_nonsingular_n1(capsys):
    code, lines = run_cli(capsys, "kval", "--curve", "0,0,1,-1,0",
                          "--point", "1/4,-5/8", "--prime", "2",
                          "--n-max", "1", "--mode", "both")
    assert code == 0
    assert lines[0]["kFormula"] == lines[0]["kDirect"] == -2


def test_kval_mismatch_gives_exit_1(capsys, monkeypatch):
    # corrupt the closed form: the harness must list the mismatch and exit 1
    import gcval.cli as cli_mod
    real = cli_mod.k_formula
    monkeypatch.setattr(cli_mod, "k_formula",
                        lambda prof, n: real(prof, n) + (1 if n == 2 else 0))
    code, lines = run_cli(capsys, "kval", "--curve", "1,0,0,0,-75",
                          "--point", "5,5", "--prime", "5", "--n-max", "3")
    assert code == 1
    assert [line["match"] for line in lines] == [True, False, True]


@pytest.mark.parametrize("exc", [InternalError("broken invariant"),
                                 ValueError("not a toolkit error")])
def test_internal_failure_gives_exit_4(capsys, monkeypatch, exc):
    # a crash must not read as a mismatch (1) or escape as a traceback
    import gcval.cli as cli_mod

    def broken(prof, n):
        raise exc

    monkeypatch.setattr(cli_mod, "k_formula", broken)
    code = main(["kval", "--curve", "1,0,0,0,-75", "--point", "5,5",
                 "--prime", "5", "--n-max", "3"])
    assert code == 4
    err = capsys.readouterr().err
    assert err == f"internal error: {type(exc).__name__}: {exc}\n"


def test_kval_formula_only(capsys):
    code, lines = run_cli(capsys, "kval", "--curve", "0,0,0,5,-125",
                          "--point", "5,5", "--prime", "5",
                          "--n-max", "3", "--mode", "formula")
    assert code == 0
    assert [set(line) for line in lines] == [{"n", "kFormula"}] * 3


def test_psi_output(capsys):
    code, lines = run_cli(capsys, "psi", "--curve", "0,0,0,0,1",
                          "--point", "2,3", "--prime", "2", "--n-max", "3")
    assert code == 0
    assert [line["psi"] for line in lines] == ["1", "6", "72"]
    assert lines[1]["vPsi"] == 1


def test_psi_prints_values_past_the_int_str_limit(capsys):
    # psi_200 has about 22.6k digits and phi_200 twice that, beyond
    # CPython's default limit of 4300 digits for int-to-str conversion
    code, lines = run_cli(capsys, "psi", "--curve", "1,0,0,0,-243",
                          "--point", "9,18", "--prime", "3", "--n-max", "200")
    assert code == 0
    assert len(lines) == 200
    seq = psi_sequence(WeierstrassModel(1, 0, 0, 0, -243), Point(9, 18), 200)
    assert int(Decimal(lines[-1]["psi"])) == seq.psi(200)
    assert int(Decimal(lines[-1]["phi"])) == seq.phi(200)


def test_formal_group_output(capsys):
    code, lines = run_cli(capsys, "formal-group", "--curve", "0,0,1,-1,0",
                          "--prime", "2", "--m", "2", "--order", "5")
    assert code == 0
    assert lines[0] == {"exponent": 1, "coefficient": "2", "valuation": 1}


def test_seq_rn_and_sn(capsys):
    code, lines = run_cli(capsys, "seq", "--rn", "2", "5", "3")
    assert code == 0 and lines[0]["rN"] == 5
    code, lines = run_cli(capsys, "seq", "--sn", "2", "1", "0", "1", "3", "2", "2")
    assert code == 0 and lines[0]["sN"] == 5


@pytest.mark.parametrize("sn", [
    "2 1 0 -1 0 2 1",   # S < 1: the j search would never end
    "0 1 0 1 0 5 1",    # B is neither 1 nor a positive multiple of P
    "3 1 0 1 0 2 1",
])
def test_seq_sn_out_of_range_exits_2(capsys, sn):
    assert main(["seq", "--sn", *sn.split()]) == 2
    assert capsys.readouterr().err.startswith("error: --sn: ")


def test_exit_2_on_malformed_input(capsys):
    assert main(["profile", "--curve", "0,0,0,0", "--prime", "5"]) == 2
    assert main(["kval", "--curve", "0,0,0,0,1", "--point", "1,1",
                 "--prime", "5", "--n-max", "3"]) == 2  # off-curve


def test_n_max_guardrail(capsys):
    assert main(["kval", "--curve", "0,0,1,-1,0", "--point", "0,0",
                 "--prime", "2", "--n-max", "201"]) == 2
    assert main(["psi", "--curve", "0,0,1,-1,0", "--point", "0,0",
                 "--prime", "2", "--n-max", "0"]) == 2


def test_exit_3_on_preconditions(capsys):
    # non-prime
    assert main(["profile", "--curve", "0,0,0,0,1", "--prime", "6"]) == 3
    # singular curve
    assert main(["profile", "--curve", "1,0,0,0,0", "--prime", "5"]) == 3
    # torsion point, in every mode: --mode direct builds no profile, so
    # the CLI asserts infinite order itself there
    for mode in ("formula", "direct", "both"):
        assert main(["kval", "--curve", "0,0,0,0,1", "--point", "2,3",
                     "--prime", "5", "--n-max", "2", "--mode", mode]) == 3


def test_verify_bundled_corpus_exits_zero(capsys):
    code, lines = run_cli(capsys, "verify", "--n-max", "6")
    assert code == 0
    report = lines[0]
    assert report["summary"]["failures"] == 0
    assert report["coverage"]["uncovered"] == []


def test_verify_empty_corpus(tmp_path, capsys):
    path = tmp_path / "empty.jsonl"
    path.write_text("# nothing here\n")
    code, lines = run_cli(capsys, "verify", "--corpus", str(path))
    assert code == 0
    assert lines[0]["warning"] == "0 entries"


def test_verify_off_curve_corpus_line(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"label": "bad", "a": ["0","0","0","0","1"], '
                    '"point": ["1","1"], "prime": 5}\n')
    assert main(["verify", "--corpus", str(path)]) == 2
    with pytest.raises(CorpusParseError) as info:
        load_corpus(path)
    assert "line 1" in str(info.value)


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
def test_verify_unreadable_corpus_exits_2(tmp_path, capsys, kind):
    path = tmp_path / "corpus.jsonl"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b"\xff\xfe")
    assert main(["verify", "--corpus", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_detects_wrong_expectation(tmp_path, capsys):
    entries = load_corpus(CORPUS_PATH)
    sample = dict(json.loads(json.dumps({
        "label": entries[0].label, "a": list(entries[0].a),
        "point": list(entries[0].point), "prime": entries[0].prime,
        "expect": {"kodaira": "II*"},
    })))
    path = tmp_path / "wrong.jsonl"
    path.write_text(json.dumps(sample) + "\n")
    code, lines = run_cli(capsys, "verify", "--corpus", str(path), "--n-max", "3")
    assert code == 1
    assert not lines[0]["entries"][0]["expectOk"]


def test_verify_output_is_deterministic(capsys):
    _, first = run_cli(capsys, "verify", "--n-max", "4")
    _, second = run_cli(capsys, "verify", "--n-max", "4")
    assert json.dumps(first) == json.dumps(second)
