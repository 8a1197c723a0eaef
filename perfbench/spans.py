"""Span tracing of gcval's layers from outside the program.

``Tracer.install`` replaces each listed public function, in every loaded
``gcval`` module namespace that binds it, by a wrapper that records a span
(name, start, end, parent span, op).  Calls from inside a module go through
its globals, so they are caught too.  Spans are kept in flat arrays while
the traced pass runs and written out once, after it.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

#: (module, function) pairs whose spans the per-layer metrics read.
TRACED = (
    ("exact_numbers", "val"),
    ("divpoly", "psi_sequence"),
    ("curve_core", "add"),
    ("curve_core", "mul"),
    ("curve_core", "require_on_curve"),
    ("tate", "run_tate"),
    ("profile", "compute_profile"),
    ("profile", "point_is_singular"),
    ("formal_group", "mult_by_m_series"),
    ("formal_group", "formal_add"),
    ("formal_group", "unit_exponent_scan"),
    ("formal_group", "staircase_params"),
    ("engine", "k_direct_range"),
    ("engine", "k_formula"),
    ("engine", "table_decomposition"),
    ("engine", "predict_phi_val"),
    ("engine", "default_staircase_params"),
    ("corpus", "verify_entry"),
    ("corpus", "load_corpus"),
    ("cli", "main"),
)


def _bits(q) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


class Tracer:
    def __init__(self):
        self.names = [f"{mod}.{fn}" for mod, fn in TRACED]
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.current_op = -1
        self._stack = [-1]
        self._patched = []  # (module, attribute, original)
        # size counters, updated as the traced calls return
        self.val_max_v = 0
        self.val_max_bits = 0
        self.psi_terms = 0
        self.psi_max_bits = 0

    def _wrap(self, idx: int, fn):
        start, end, name, parent, op, stack = (
            self.start, self.end, self.name, self.parent, self.op, self._stack)
        after = {"exact_numbers.val": self._after_val,
                 "divpoly.psi_sequence": self._after_psi}.get(self.names[idx])

        def traced(*args, **kwargs):
            span = len(start)
            parent.append(stack[-1])
            name.append(idx)
            op.append(self.current_op)
            end.append(0.0)
            stack.append(span)
            t0 = perf_counter()
            start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _after_val(self, args, result):
        bits = _bits(args[0])
        if bits > self.val_max_bits:
            self.val_max_bits = bits
        if result != float("inf") and abs(result) > self.val_max_v:
            self.val_max_v = abs(int(result))

    def _after_psi(self, args, seq):
        values = list(seq._psi.values()) + list(seq._phi.values())
        self.psi_terms += len(values)
        self.psi_max_bits = max(self.psi_max_bits, max(_bits(v) for v in values))

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "gcval" or name.startswith("gcval.")}
        for idx, (mod, fn) in enumerate(TRACED):
            original = getattr(modules[f"gcval.{mod}"], fn)
            wrapper = self._wrap(idx, original)
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def summary(self) -> dict:
        """Per function: calls and self time (duration minus the time the
        function's child spans cover)."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            par = self.parent[i]
            if par >= 0:
                child[par] += self.end[i] - self.start[i]
        calls = dict.fromkeys(self.names, 0)
        self_s = dict.fromkeys(self.names, 0.0)
        for i in range(n):
            key = self.names[self.name[i]]
            calls[key] += 1
            self_s[key] += self.end[i] - self.start[i] - child[i]
        return {"calls": calls, "self_s": self_s}

    def write(self, path) -> None:
        """One line per span: id, name, start, end, parent id, op index."""
        with open(path, "w", encoding="ascii") as handle:
            handle.write("span\tname\tstart\tend\tparent\top\n")
            for i in range(len(self.start)):
                handle.write(f"{i}\t{self.names[self.name[i]]}\t{self.start[i]:.9f}\t"
                             f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.op[i]}\n")
