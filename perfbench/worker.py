"""One workload in one fresh, single-threaded process.

Set-up (imports, corpus parsing, input generation) ends at the first timed
op; the worker prints the monotonic clock at that moment so the parent can
time set-up from process launch.  Then it runs whole passes over the ops,
one op after another (a closed loop with a single client), for about
``--seconds``, and checks every output after the timed region.  Its last
stdout line is one JSON object for run.py.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def load_program():
    """Import gcval from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import gcval.cli

    if Path(gcval.__file__).resolve().parent != src / "gcval":
        raise ImportError(f"gcval was imported from {gcval.__file__}, not {src}")
    return gcval.cli


def run_op(cli, op):
    """(exit code, stdout, seconds) of one gcval command run in-process."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(op.argv)
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code
        except Exception as exc:  # a traceback escaping gcval is a failed op
            rc = f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), time.perf_counter() - t0


def run_pass(cli, ops, tracer=None):
    """Every op once, in order; returns (wall seconds, [(rc, out, s)])."""
    gc.collect()
    results = []
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.current_op = i
        results.append(run_op(cli, op))
    return time.perf_counter() - t0, results


def check_passes(ops, passes):
    """Check every op of every pass; returns (failed, faults, pass_ok)."""
    references = {i: checks.reference_kval(op)
                  for i, op in enumerate(ops) if op.kind == "kval"}
    failed, faults, pass_ok = 0, [], True
    first = passes[0][1]
    for _, results in passes:
        rows = set()
        for i, (op, (rc, out, _)) in enumerate(zip(ops, results)):
            found = checks.check(op, rc, out, references.get(i))
            if out != first[i][1]:
                found.append("output differs from the first pass")
            if found:
                failed += 1
                faults.append(f"{op.label}: {'; '.join(found)}")
            elif op.kind == "verify":
                rows |= checks.verify_rows(out)
        if ops[0].kind == "verify" and not set(checks.REQUIRED_ROWS) <= rows:
            pass_ok = False
            faults.append(f"rows not covered: {sorted(set(checks.REQUIRED_ROWS) - rows)}")
    return failed, faults, pass_ok


def timed_run(cli, ops, seconds):
    """Whole passes until one more would overrun ``seconds``."""
    passes = []
    begin = time.perf_counter()
    while True:
        passes.append(run_pass(cli, ops))
        if time.perf_counter() - begin + passes[-1][0] > seconds:
            return passes


def traced_run(cli, ops, seconds, workload):
    """Alternate untraced and traced passes; self times are medians over the
    traced passes, counts come from the first of them."""
    untraced, traced, tracers = [], [], []
    begin = time.perf_counter()
    while True:
        untraced.append(run_pass(cli, ops))
        tracer = Tracer()
        tracer.install()
        try:
            traced.append(run_pass(cli, ops, tracer))
        finally:
            tracer.uninstall()
        tracers.append(tracer)
        pair = untraced[-1][0] + traced[-1][0]
        if time.perf_counter() - begin + pair > seconds:
            break
    WORK.mkdir(parents=True, exist_ok=True)
    tracers[-1].write(WORK / f"trace-{workload}.tsv")
    summaries = [t.summary() for t in tracers]
    first = tracers[0]
    run_traced = statistics.median(t for t, _ in traced)
    metrics = {}
    for name in first.names:
        metrics[f"{name}.calls"] = (summaries[0]["calls"][name], "count")
        metrics[f"{name}.self_s"] = (
            statistics.median(s["self_s"][name] for s in summaries), "s")
    metrics["exact_numbers.val.max_v"] = (first.val_max_v, "count")
    metrics["exact_numbers.val.max_bits"] = (first.val_max_bits, "bits")
    metrics["divpoly.psi_sequence.terms"] = (first.psi_terms, "count")
    metrics["divpoly.psi_sequence.max_bits"] = (first.psi_max_bits, "bits")
    metrics["cli.output_bytes"] = (
        sum(len(out.encode()) for _, out, _ in traced[0][1]), "bytes")
    metrics["trace.run_s"] = (run_traced, "s")
    metrics["trace.overhead_s"] = (
        run_traced - statistics.median(t for t, _ in untraced), "s")
    return untraced + traced, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    cli = load_program()
    ops = workloads.build(args.workload, args.seed, ROOT, WORK / args.workload)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    if args.trace:
        passes, metrics = traced_run(cli, ops, args.seconds, args.workload)
    else:
        passes = timed_run(cli, ops, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "run_s": (statistics.median(t for t, _ in passes), "s"),
            "op_p50_s": (statistics.median(
                statistics.median(d for _, _, d in results) for _, results in passes), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    failed, faults, pass_ok = check_passes(ops, passes)
    print(json.dumps({
        "ready": ready,
        "ops": len(ops),
        "passes": len(passes),
        "attempted": len(ops) * len(passes),
        "failed": failed,
        "correct": pass_ok and failed == 0,
        "faults": faults[:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
