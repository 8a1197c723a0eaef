"""Command-line interface.

Subcommands: profile, kval, psi, formal-group, seq, verify.  All output is
JSON (objects or JSON lines) with a fixed field order, no timestamps, so
identical inputs give byte-identical reports.

Exit codes: 0 success, 1 verification mismatch, 2 malformed input,
3 precondition violation (torsion point, singular curve, non-prime),
4 internal failure (a failed consistency check, an unsupported case, or
any other exception), reported as one line on stderr.  ``verify`` prints
its full report and exits with the largest code among its entries: 1 for
a mismatch, a failed check or a failed pin, else the code of the
exception the entry raised.  ``--n-max`` above
N_MAX_GUARDRAIL and a ``formal-group`` order (default p^2+1) above
ORDER_GUARDRAIL exit 2.

``--point`` takes an affine point x,y only.  The point at infinity O has
no k_n and is not a Point (the group law writes it as None), so ``--point
O``, like an empty ``--point``, exits 2 on every command that takes one.

``seq --sn B E H S W P N`` takes B = 1 or a positive multiple of P,
E >= 1, H >= 0, S >= 1, W >= 0 (H = W = 0 when B = 1) and N >= 1, else
exit 2; a non-prime P exits 3.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from importlib import resources

from .corpus import load_corpus, verify_corpus
from .curve_core import (
    Point,
    WeierstrassModel,
    assert_infinite_order,
    integralize_point_at,
    map_point,
)
from .divpoly import division_table, psi_sequence
from .engine import (
    classify_row,
    k_direct_range,
    k_formula,
    row_is_flagged,
    table_decomposition,
)
from .errors import (
    EXIT_INTERNAL,
    EXIT_MISMATCH,
    EXIT_OK,
    InputError,
    TorsionPointError,
    exit_code,
)
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

#: digit counts grow quadratically in n, so refuse unbounded sweeps
N_MAX_GUARDRAIL = 200

#: [m]T to order N grows steeply in N (order 122, the p = 11 default, takes
#: ~16 s and order 170, at p = 13, ~69 s), so refuse orders above 122
ORDER_GUARDRAIL = 122


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
    parts = text.split(",")
    if len(parts) != 2:
        raise InputError(f"--point needs x,y, got {text!r}")
    return Point(parse_rational(parts[0]), parse_rational(parts[1]))


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")


def _val_text(v) -> str:
    """json.dumps(val_to_json(v)): kval writes its rows without json.dumps."""
    return '"inf"' if v == INFINITY else str(v)


def cmd_profile(args) -> int:
    model = _parse_curve(args.curve)
    point = None if args.point is None else _parse_point(args.point)
    model, point = integralize_point_at(model, point, args.prime)
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
    if point is not None:
        try:
            prof = compute_profile(tate, point, keep=0)
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
    model, point = integralize_point_at(model, point, args.prime)
    n_max = _check_n_max(args.n_max)
    mode = args.mode
    tate = run_tate(model, args.prime)
    prof = compute_profile(tate, point, keep=0) if mode != "direct" else None
    rows = None
    if mode != "formula":
        pt = prof.point if prof else assert_infinite_order(
            tate.minimal_model, map_point(tate.to_minimal, point))
        table = division_table(tate.minimal_model, pt, args.prime, n_max, keep=0)
        rows = k_direct_range(table, n_max)
    code = EXIT_OK
    out = []
    for n in range(1, n_max + 1):
        line = f'{{"n": {n}'
        if prof is not None:
            kf = k_formula(prof, n)
            line += f', "kFormula": {kf}'
        if rows is not None:
            _, k, vphi, vpsi = rows[n - 1]
            line += (f', "kDirect": {_val_text(k)}, "vPhi": {_val_text(vphi)}'
                     f', "vPsiSq": {_val_text(vpsi)}')
        if mode == "both":
            line += ', "match": true' if kf == k else ', "match": false'
            if kf != k:
                code = EXIT_MISMATCH
        out.append(line + "}\n")
    sys.stdout.write("".join(out))
    return code


def cmd_psi(args) -> int:
    model = _parse_curve(args.curve)
    point = _parse_point(args.point)
    model, point = integralize_point_at(model, point, args.prime)
    n_max = _check_n_max(args.n_max)
    seq = psi_sequence(model, point, args.prime, n_max)
    for n, v_phi, v_psi in seq.valuations:
        _emit({
            "n": n,
            "psi": format_rational(seq.psi(n)),
            "phi": format_rational(seq.phi(n)),
            "vPsi": val_to_json(v_psi),
            "vPhi": val_to_json(v_phi),
        })
    return EXIT_OK


def cmd_formal_group(args) -> int:
    model = _parse_curve(args.curve)
    model, _ = integralize_point_at(model, None, args.prime)
    m = args.prime if args.m is None else args.m
    order = args.prime ** 2 + 1 if args.order is None else args.order
    if order > ORDER_GUARDRAIL:
        what = "the default --order p^2+1" if args.order is None else "--order"
        raise InputError(f"{what} is capped at {ORDER_GUARDRAIL}, got {order}")
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
        try:
            value = r_n(a, modulus, n)
        except InputError as exc:
            raise InputError(f"--rn: {exc}") from None
        _emit({"rN": value, "a": a, "modulus": modulus, "n": n})
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
    if n < 1:
        raise InputError(f"--sn: N must be >= 1, got {n}")
    j = staircase_j(b, e, h, s)
    params = StaircaseParams(b, e, h, j, s, w).validate(p)
    value = s_n(params, p, n)
    _emit({"sN": val_to_json(value) if value == INFINITY else int(value),
           "b": b, "e": e, "h": h, "j": j, "s": s, "w": w, "prime": p, "n": n})
    return EXIT_OK


def _default_corpus_path() -> str:
    return str(resources.files("gcval").joinpath("data/corpus.jsonl"))


def cmd_verify(args) -> int:
    n_max = _check_n_max(args.n_max)
    entries = load_corpus(args.corpus or _default_corpus_path())
    if not entries:
        _emit({"warning": "0 entries", "entries": [],
               "summary": {"entries": 0, "failures": 0, "exitCode": 0}})
        return EXIT_OK
    report = verify_corpus(entries, n_max=n_max)
    _emit(report.to_json())
    return report.exit_code


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state between calls."""
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
                           help="x,y as rational strings")
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
    p.add_argument("--order", type=int, default=None,
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
    argv = list(sys.argv[1:] if argv is None else argv)
    # a value such as --point -3,9 is the option's value, not an option
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] in ("--curve", "--point") and re.match(r"-[\d./]", argv[i]):
            argv[i - 1:i + 1] = [argv[i - 1] + "=" + argv[i]]
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        code = exit_code(exc)
        if code == EXIT_INTERNAL:
            # a bug, not a mismatch: one line and no traceback
            print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
