"""The benchmark's workloads: each is a list of gcval commands ("ops").

Inputs come from ``--seed`` only; gcval sees nothing but the generated
command lines.  See README.md for why each workload exists.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import arith

WORKLOADS = ("verify-corpus", "oracle-deep")

VERIFY_N_MAX = 60

#: oracle-deep: (corpus label, n_max).  Five singular points with
#: valuations in the thousands, where val's strip loop dominates; three ops
#: on one non-singular point of large height at near-zero valuation, where
#: the Fraction recurrence in psi_sequence dominates, each under its own
#: seeded translation; one cheap non-singular op.  The four non-singular
#: ops cost less than every singular one, so op_p50_s is the cheapest
#: singular op: interpreter-bound ops such as the n = 200 ones swing far
#: more with the host's load than val's long divisions do.
ORACLE_OPS = (
    ("IVstar-p5", 80),
    ("IIIstar-p5", 80),
    ("I5-split-a2-p3", 80),
    ("III-p7", 100),
    ("III-p5", 100),
) + (("III-p5-nonsingular-point", 200),) * 3 + (
    ("37a-gen-p2", 200),
)


@dataclass
class Op:
    kind: str                 # verify | kval
    label: str
    argv: list
    info: dict                # what the checker needs: a, prime, point, n


def _fmt(q) -> str:
    return str(Fraction(q))


def _curve_arg(a) -> str:
    return "--curve=" + ",".join(_fmt(c) for c in a)


def read_corpus(path: Path) -> list:
    """The bundled corpus as (label, raw line, parsed object) triples."""
    out = []
    for raw in path.read_text(encoding="utf-8").splitlines():
        text = raw.strip()
        if text and not text.startswith("#"):
            obj = json.loads(text)
            out.append((obj["label"], text, obj))
    return out


def build(workload: str, seed: int, root: Path, work: Path) -> list:
    rng = random.Random(f"{workload}:{seed}")
    corpus = read_corpus(root / "src" / "gcval" / "data" / "corpus.jsonl")
    if workload == "verify-corpus":
        ops = _verify_ops(corpus, work)
    elif workload == "oracle-deep":
        ops = _oracle_ops(corpus, rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def _verify_ops(corpus, work: Path) -> list:
    """One op per bundled entry: gcval verify on a one-entry corpus file."""
    ops = []
    work.mkdir(parents=True, exist_ok=True)
    for i, (label, text, obj) in enumerate(corpus):
        path = work / f"entry-{i:02d}.jsonl"
        path.write_text(text + "\n", encoding="utf-8")
        ops.append(Op("verify", label,
                      ["verify", f"--corpus={path}", f"--n-max={VERIFY_N_MAX}"],
                      {"a": obj["a"], "prime": obj["prime"]}))
    return ops


def _oracle_ops(corpus, rng) -> list:
    """kval --mode both on corpus points, each moved by a seeded integral
    translation (u = 1), which leaves every psi_n(P) and k_n unchanged."""
    entries = {label: obj for label, _, obj in corpus}
    ops = []
    for label, n in ORACLE_OPS:
        obj = entries[label]
        r, s, t = (rng.randint(-2, 2) for _ in range(3))
        a = arith.translate(tuple(Fraction(c) for c in obj["a"]), r, s, t)
        pt = arith.translate_point(tuple(Fraction(c) for c in obj["point"]), r, s, t)
        p = obj["prime"]
        ops.append(Op("kval", f"{label}@{n}",
                      ["kval", _curve_arg(a), f"--point={_fmt(pt[0])},{_fmt(pt[1])}",
                       f"--prime={p}", f"--n-max={n}", "--mode=both"],
                      {"a": a, "point": pt, "prime": p, "n": n}))
    return ops
