"""Benchmark entry point: one workload, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout.  Set-up is timed many times, each in a
fresh worker process (worker.py) from launch to its first timed op, half of
them before the measuring worker and half after it, and the median is
reported as setup_s.  The measuring worker runs the timed passes and checks
the outputs.  Human-readable lines come first; the last stdout
line is the JSON result with exactly the metrics BENCHMARK.json names
(end_to_end with --trace 0, per_layer with --trace 1).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

#: set-up-only launches before the measuring one, and as many after it; with
#: the measuring one they all count toward setup_s, so that set-up is sampled
#: at both ends of the run rather than in one burst
SETUP_REPEATS = 8
#: all launches of one run end within this, or the run has hung
RUN_TIMEOUT_S = 170


def launch(args: list, timeout: float) -> tuple:
    """Run a worker; returns (seconds from launch to its first timed op,
    its result object)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["ready"] - t0, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gcval benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if not (ROOT / "src" / "gcval" / "cli.py").is_file():
        print(f"error: no gcval sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    setups = []

    def time_setups():
        for _ in range(0 if args.trace else SETUP_REPEATS):
            setups.append(launch(common + ["--setup-only"], deadline - time.monotonic())[0])

    time_setups()
    setup, result = launch(common + ["--seconds", str(args.seconds),
                                     "--trace", str(args.trace)],
                           deadline - time.monotonic())
    setups.append(setup)
    time_setups()
    metrics = result["metrics"]
    metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}: "
          f"{result['ops']} ops x {result['passes']} passes, "
          f"{result['failed']} of {result['attempted']} failed")
    for fault in result["faults"]:
        print(f"  FAULT {fault}")
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:>16.6f} {m['unit']}")

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: no value for {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
