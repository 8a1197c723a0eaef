"""Show that every output checker accepts a genuine output and rejects
corrupted ones.

    python3 perfbench/selftest.py

Runs one cheap op of each kind through gcval, checks the real output, then
feeds each checker hand-corrupted copies of it.  Exits 1 if a genuine
output is rejected or a corrupted one is accepted.
"""

from __future__ import annotations

import json
import sys

import checks
import worker
import workloads


def _edit_json(out: str, edit) -> str:
    obj = json.loads(out)
    edit(obj)
    return json.dumps(obj) + "\n"


def _edit_lines(out: str, edit) -> str:
    lines = [json.loads(line) for line in out.splitlines()]
    edit(lines)
    return "".join(json.dumps(line) + "\n" for line in lines)


def _entry(f):
    return lambda out: _edit_json(out, lambda r: f(r["entries"][0]))


def _set(key, value):
    return lambda obj: obj.__setitem__(key, value)


def _swap_kodaira(obj):
    """A neighbouring symbol that admits the same c_v."""
    k = obj["kodaira"]
    obj["kodaira"] = {"IV": "IV*", "IV*": "IV", "III": "III*", "III*": "III"}.get(k, "II")


CORRUPTIONS = {
    "verify": [
        ("exit code 1", None),
        ("entry not ok", _entry(_set("ok", False))),
        ("fewer n checked", _entry(_set("nChecked", 40))),
        ("a mismatch reported", _entry(_set("mismatches", [{"n": 7}]))),
        ("c_v off by one", _entry(lambda e: e.__setitem__("cv", e["cv"] + 1))),
        ("Kodaira symbol swapped", _entry(_swap_kodaira)),
    ],
    "kval": [
        ("exit code 1", None),
        ("kFormula wrong at n = 7", lambda out: _edit_lines(
            out, lambda ls: ls[6].__setitem__("kFormula", ls[6]["kFormula"] + 1))),
        ("vPhi wrong at the last n", lambda out: _edit_lines(
            out, lambda ls: ls[-1].__setitem__("vPhi", ls[-1]["vPhi"] + 2))),
        ("vPsiSq wrong at the last n", lambda out: _edit_lines(
            out, lambda ls: ls[-1].__setitem__("vPsiSq", ls[-1]["vPsiSq"] + 2))),
        ("last line missing", lambda out: "".join(out.splitlines(True)[:-1])),
    ],
}


#: the ops' inputs; any seed gives ops the checkers can be shown on
SEED = 1


def main() -> int:
    cli = worker.load_program()
    picks = {}
    for workload in workloads.WORKLOADS:
        ops = workloads.build(workload, SEED, worker.ROOT,
                              worker.WORK / f"selftest-{workload}")
        for op in sorted(ops, key=lambda o: (int(o.info.get("n", 0)), o.info["prime"])):
            if op.kind == "verify" and op.info["prime"] < 5:
                continue  # the invariant classification needs p >= 5
            picks.setdefault(op.kind, op)
    bad = 0
    for kind, op in picks.items():
        rc, out, _ = worker.run_op(cli, op)
        reference = checks.reference_kval(op) if kind == "kval" else None
        faults = checks.check(op, rc, out, reference)
        print(f"{'ok  ' if not faults else 'FAIL'} {kind:6s} {op.label}: genuine output "
              f"{'accepted' if not faults else 'rejected: ' + '; '.join(faults)}")
        bad += bool(faults)
        for what, corrupt in CORRUPTIONS[kind]:
            if corrupt is None:
                found = checks.check(op, 1, out, reference)
            else:
                found = checks.check(op, rc, corrupt(out), reference)
            print(f"{'ok  ' if found else 'FAIL'} {kind:6s} {op.label}: {what}: "
                  f"{'rejected (' + found[0] + ')' if found else 'ACCEPTED'}")
            bad += not found
        if kind == "verify":
            _, found, pass_ok = worker.check_passes([op], [(0.0, [(rc, out, 0.0)])])
            print(f"{'ok  ' if not pass_ok else 'FAIL'} verify a pass that covers one "
                  f"row: {'rejected (' + found[-1] + ')' if not pass_ok else 'ACCEPTED'}")
            bad += pass_ok
    print("selftest:", "all checks behave" if not bad else f"{bad} problems")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
