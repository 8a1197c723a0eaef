"""Command-line interface.

Subcommands: profile, kval, psi, formal-group, seq, verify.  All output is
JSON (objects or JSON lines) with a fixed field order, no timestamps, so
identical inputs give byte-identical reports.

Exit codes: 0 success, 1 verification mismatch, 2 malformed input,
3 precondition violation (torsion point, singular curve, non-prime),
4 internal failure (a failed consistency check, an unsupported case, an
exceeded budget, or any other exception), reported as one line on stderr.

``seq --sn B E H S W P N`` takes B = 1 or a positive multiple of P,
E >= 1, H >= 0, S >= 1, W >= 0 (H = W = 0 when B = 1) and N >= 1, else
exit 2; a non-prime P exits 3.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources

from .corpus import load_corpus, verify_corpus
from .curve_core import (
    Point,
    WeierstrassModel,
    assert_infinite_order,
    integralize_at,
    map_point,
    require_on_curve,
)
from .divpoly import psi_sequence
from .engine import (
    classify_row,
    k_direct_range,
    k_formula,
    row_is_flagged,
    table_decomposition,
)
from .errors import InputError, PreconditionError, TorsionPointError
from .exact_numbers import (
    INFINITY,
    check_prime,
    format_rational,
    parse_rational,
    val,
    val_to_json,
)
from .formal_group import StaircaseParams, mult_by_m_series, staircase_j
from .profile import compute_profile, point_is_singular
from .sequences import r_n, s_n
from .tate import run_tate

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4

#: digit counts grow quadratically in n, so refuse unbounded sweeps
N_MAX_GUARDRAIL = 200


def _check_n_max(n_max: int) -> int:
    if n_max < 1:
        raise InputError(f"--n-max must be >= 1, got {n_max}")
    if n_max > N_MAX_GUARDRAIL:
        raise InputError(f"--n-max is capped at {N_MAX_GUARDRAIL}, got {n_max}")
    return n_max


def _parse_curve(text: str) -> WeierstrassModel:
    parts = text.split(",")
    if len(parts) != 5:
        raise InputError(f"--curve needs five comma-separated rationals, got {text!r}")
    return WeierstrassModel(*(parse_rational(s) for s in parts))


def _parse_point(text: str) -> Point:
    text = text.strip()
    if text == "O":
        return Point()
    parts = text.split(",")
    if len(parts) != 2:
        raise InputError(f"--point needs x,y or O, got {text!r}")
    return Point(parse_rational(parts[0]), parse_rational(parts[1]))


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")


def _prepare(model: WeierstrassModel, point: Point | None, p: int):
    """Integralize at p (clearing denominators is the caller's job for the
    Tate runner proper) and map the point along."""
    check_prime(p)
    model2, change = integralize_at(model, p)
    pt2 = None
    if point is not None:
        require_on_curve(model, point)
        pt2 = map_point(change, point)
    return model2, pt2


def cmd_profile(args) -> int:
    model = _parse_curve(args.curve)
    point = _parse_point(args.point) if args.point else None
    model, point = _prepare(model, point, args.prime)
    tate = run_tate(model, args.prime)
    out = {
        "kodaira": str(tate.kodaira),
        "cv": tate.cv,
        "vDelta": tate.v_delta,
        "vC4": val_to_json(tate.v_c4),
        "vJ": val_to_json(tate.v_j),
        "reduction": tate.reduction,
        "split": tate.split,
        "minimalModel": list(tate.minimal_model.to_strings()),
        "normalizedModel": list(tate.normalized_model.to_strings()),
    }
    if point is not None and not point.is_infinity:
        try:
            prof = compute_profile(tate, point)
        except TorsionPointError:
            # the point is accepted (it is on the curve); the order-dependent
            # profile fields are simply not defined for torsion points
            pt_min = map_point(tate.to_minimal, point)
            out["point"] = {
                "torsion": True,
                "singular": point_is_singular(tate.minimal_model, pt_min,
                                              args.prime),
                "vX": val_to_json(val(pt_min.x, args.prime)),
            }
        else:
            row = classify_row(prof)
            out["point"] = {
                "singular": prof.singular,
                "nP": prof.n_p,
                "mP": prof.m_p,
                "aP": prof.a_p,
                "twoPSingular": prof.two_p_singular,
                "vPsi2Sq": val_to_json(prof.v_psi2_sq),
                "vPsi3": val_to_json(prof.v_psi3),
                "vPhi2": val_to_json(prof.v_phi2),
                "vX": val_to_json(prof.v_x),
                "row": row,
                "rowFlagged": row_is_flagged(row),
            }
            if prof.singular:
                dec = table_decomposition(prof)
                out["point"]["slope"] = format_rational(dec.slope)
                out["point"]["epsilonModulus"] = dec.modulus
                out["point"]["epsilon"] = [format_rational(e) for e in dec.epsilon]
    _emit(out)
    return EXIT_OK


def cmd_kval(args) -> int:
    model = _parse_curve(args.curve)
    point = _parse_point(args.point)
    model, point = _prepare(model, point, args.prime)
    n_max = _check_n_max(args.n_max)
    mode = args.mode
    tate = run_tate(model, args.prime)
    prof = compute_profile(tate, point) if mode in ("formula", "both") else None
    direct = None
    if mode in ("direct", "both"):
        pt = prof.point if prof else assert_infinite_order(
            tate.minimal_model, map_point(tate.to_minimal, point))
        direct = {n: (k, vphi, vpsi)
                  for n, k, vphi, vpsi in k_direct_range(
                      tate.minimal_model, pt, args.prime, n_max)}
    exit_code = EXIT_OK
    for n in range(1, n_max + 1):
        line = {"n": n}
        if prof is not None:
            line["kFormula"] = k_formula(prof, n)
        if direct is not None:
            k, vphi, vpsi = direct[n]
            line["kDirect"] = val_to_json(k)
            line["vPhi"] = val_to_json(vphi)
            line["vPsiSq"] = val_to_json(vpsi)
        if mode == "both":
            line["match"] = line["kFormula"] == direct[n][0]
            if not line["match"]:
                exit_code = EXIT_MISMATCH
        _emit(line)
    return exit_code


def cmd_psi(args) -> int:
    model = _parse_curve(args.curve)
    point = _parse_point(args.point)
    model, point = _prepare(model, point, args.prime)
    n_max = _check_n_max(args.n_max)
    seq = psi_sequence(model, point, n_max)
    for n in range(1, n_max + 1):
        psi, phi = seq.psi(n), seq.phi(n)
        _emit({
            "n": n,
            "psi": format_rational(psi),
            "phi": format_rational(phi),
            "vPsi": val_to_json(val(psi, args.prime)),
            "vPhi": val_to_json(val(phi, args.prime)),
        })
    return EXIT_OK


def cmd_formal_group(args) -> int:
    model = _parse_curve(args.curve)
    model, _ = _prepare(model, None, args.prime)
    m = args.prime if args.m is None else args.m
    order = args.order if args.order else args.prime ** 2 + 1
    series = mult_by_m_series(model, m, order)
    for i in range(1, order + 1):
        c = series.coefficient(i)
        _emit({
            "exponent": i,
            "coefficient": format_rational(c),
            "valuation": val_to_json(val(c, args.prime)),
        })
    return EXIT_OK


def cmd_seq(args) -> int:
    if args.rn:
        a, modulus, n = args.rn
        _emit({"rN": r_n(a, modulus, n), "a": a, "modulus": modulus, "n": n})
        return EXIT_OK
    b, e, h, s, w, p, n = args.sn
    check_prime(p)
    if not (b == 1 or (b > 0 and b % p == 0)):
        raise InputError(f"--sn: B must be 1 or a positive multiple of P, got {b}")
    if e < 1 or s < 1 or h < 0 or w < 0:
        raise InputError(f"--sn: needs E >= 1, S >= 1, H >= 0 and W >= 0, "
                         f"got E={e} S={s} H={h} W={w}")
    if b == 1 and (h, w) != (0, 0):
        raise InputError(f"--sn: B = 1 needs H = W = 0, got H={h} W={w}")
    j = staircase_j(b, e, h, s)
    params = StaircaseParams(b, e, h, j, s, w).validate(p)
    value = s_n(params, p, n)
    _emit({"sN": val_to_json(value) if value == INFINITY else int(value),
           "b": b, "e": e, "h": h, "j": j, "s": s, "w": w, "prime": p, "n": n})
    return EXIT_OK


def _default_corpus_path() -> str:
    return str(resources.files("gcval").joinpath("data/corpus.jsonl"))


def cmd_verify(args) -> int:
    path = args.corpus or _default_corpus_path()
    entries = load_corpus(path)
    if not entries:
        _emit({"warning": "0 entries", "entries": [],
               "summary": {"entries": 0, "failures": 0, "exitCode": 0}})
        return EXIT_OK
    report = verify_corpus(entries, n_max=_check_n_max(args.n_max))
    _emit(report.to_json())
    return report.exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gcval",
        description="Exact greatest common valuation of phi_n and psi_n^2 "
                    "at points on elliptic curves over Q_p.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, point_required=None, with_nmax=False):
        p.add_argument("--curve", required=True,
                       help="a1,a2,a3,a4,a6 as rational strings")
        if point_required is not None:
            p.add_argument("--point", required=point_required,
                           help="x,y as rational strings (or O)")
        p.add_argument("--prime", type=int, required=True)
        if with_nmax:
            p.add_argument("--n-max", type=int, default=40, dest="n_max")

    p = sub.add_parser("profile", help="Tate data and the point's reduction profile")
    common(p, point_required=False)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("kval", help="k_n by closed form and/or oracle")
    common(p, point_required=True, with_nmax=True)
    p.add_argument("--mode", choices=("formula", "direct", "both"), default="both")
    p.set_defaults(func=cmd_kval)

    p = sub.add_parser("psi", help="division polynomial values at the point")
    common(p, point_required=True, with_nmax=True)
    p.set_defaults(func=cmd_psi)

    p = sub.add_parser("formal-group", help="coefficients of [m]T with valuations")
    common(p, point_required=None)
    p.add_argument("--m", type=int, default=None,
                   help="multiplier (default: the prime)")
    p.add_argument("--order", type=int, default=0,
                   help="truncation order (default: p^2+1)")
    p.set_defaults(func=cmd_formal_group)

    p = sub.add_parser("seq", help="evaluate the arithmetic sequences")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--rn", nargs=3, type=int, metavar=("A", "L", "N"))
    group.add_argument("--sn", nargs=7, type=int,
                       metavar=("B", "E", "H", "S", "W", "P", "N"))
    p.set_defaults(func=cmd_seq)

    p = sub.add_parser("verify", help="run the verification harness on a corpus")
    p.add_argument("--corpus", default=None, help="JSON-lines corpus path "
                   "(default: the bundled corpus)")
    p.add_argument("--n-max", type=int, default=40, dest="n_max")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        # a bug, not a mismatch: one line and no traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
