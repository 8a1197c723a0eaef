"""Every InternalError that gcval can raise fires in this file.

InternalError marks a bug (exit 4), so no valid input reaches one.  Each
row of GUARDS names one ``raise InternalError`` site by module and
function, the message it raises, and a trigger that reaches it.  A trigger
either monkeypatches one helper so that it returns a wrong value, replaces
one field of a corpus entry's TateResult or ReductionProfile, or calls the
site's function with an argument that no caller passes.  A second test
reads ``src/gcval`` with ``ast`` and holds its raise sites equal to the
table's rows.  So a new guard comes with a trigger, and a deleted guard
takes its row with it.
"""

import ast
import dataclasses
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

from gcval import divpoly, engine, formal_group, profile, tate
from gcval.curve_core import CoordinateChange
from gcval.errors import InternalError
from gcval.exact_numbers import as_rational, residue
from gcval.formal_group import TruncatedSeries

SRC = Path(__file__).resolve().parent.parent / "src" / "gcval"


class Corpus:
    """The bundled entries by label, with their Tate results and profiles."""

    def __init__(self, entries):
        self.entries = {e.label: e for e in entries}

    def model(self, label):
        return self.entries[label].model

    def tate(self, label):
        entry = self.entries[label]
        return tate.run_tate(entry.model, entry.prime)

    def profile(self, label, **tate_fields):
        """The entry's profile, built on its TateResult with tate_fields
        replaced."""
        result = dataclasses.replace(self.tate(label), **tate_fields)
        return profile.compute_profile(result, self.entries[label].curve_point)

    def table(self, label, n_max, keep=None):
        entry = self.entries[label]
        return divpoly.division_table(entry.model, entry.curve_point, entry.prime,
                                      n_max, keep)


class Guard(NamedTuple):
    module: str
    function: str
    match: str
    trigger: Callable  # (monkeypatch, Corpus) -> None; reaches the site


# the originals of two helpers that a trigger replaces by a wrapper
_SUB = divpoly._sub
_SUBLOOP = tate._istar_subloop


def _patch(module, name, value, then):
    """A trigger that sets module.name to value and then calls then(corpus)."""
    def trigger(mp, corpus):
        mp.setattr(module, name, value)
        then(corpus)
    return trigger


def _off_by_one_unit(a, b, p):
    # a difference of p-split integers whose unit is off by one
    k, u = _SUB(a, b, p)
    return (k, u + 1) if u else (k, u)


def _wrong_y_root(at_k):
    # the Y-quadratic's root, moved by one, at the step that reads p^at_k
    y_roots = tate._y_roots

    def wrong(model, p, k):
        roots = y_roots(model, p, k)
        return [(roots[0] + 1) % p] if k == at_k else roots
    return wrong


def _wrong_triple(change):
    # the step-6 cubic's triple root, as change(root, p) reports it
    analysis = tate._cubic_analysis

    def wrong(A, B, C, p):
        kind, info = analysis(A, B, C, p)
        return change(info, p) if kind == "triple" else (kind, info)
    return wrong


def _never_minimal(model, p):
    # every pass reports a non-minimal model (step 11)
    return None, None, None, tate._PassState(model, p, CoordinateChange())


def _subloop_to_one(st, v_delta):
    # the I_m* sub-loop handed a v(delta) below the type's index
    return _SUBLOOP(st, 1)


GUARDS = (
    # exact_numbers: inputs no caller passes
    Guard("exact_numbers", "as_rational", r"^float 0\.5 where an exact rational is required$",
          lambda mp, c: as_rational(0.5)),
    Guard("exact_numbers", "residue", r"^reducing 3 / 5\^1, which is not 5-integral$",
          lambda mp, c: residue(3, 5, 1)),
    Guard("exact_numbers", "residue", r"^reducing 1/5, which is not 5-integral$",
          lambda mp, c: residue(Fraction(1, 5), 5)),

    # divpoly
    Guard("divpoly", "DivisionTable.scaled_psi",
          r"^W_6 is not in the table, which keeps W_-1\.\.W_5$",
          lambda mp, c: c.table("37a-gen-p2", 10, keep=5).scaled_psi(6)),
    Guard("divpoly", "DivisionTable.valuations",
          r"^rows to n = 11 asked of a table built to n = 10$",
          lambda mp, c: c.table("37a-gen-p2", 10).valuations(11)),
    Guard("divpoly", "division_table",
          r"^\(1/4,-5/8\) is not X/e\^2, Y/e\^3 on the integral model of \(0,0,1,-1,0\)$",
          _patch(divpoly, "integral_form", lambda model, pt: (0, 0, 1),
                 lambda c: c.table("37a-x5P-p2", 5))),
    Guard("divpoly", "division_table", r"^W_2 does not divide the even step at n = 10$",
          _patch(divpoly, "_sub", _off_by_one_unit,
                 lambda c: c.table("III-p5", 30))),

    # tate
    Guard("tate", "_singular_point_mod_p",
          r"^reduced curve has positive v\(delta\) but no singular point$",
          _patch(tate, "partials_vanish", lambda *args: False, lambda c: c.tate("III-p5"))),
    Guard("tate", "_tate_pass", r"^step-6 normalization failed$",
          _patch(tate, "_y_roots", _wrong_y_root(1), lambda c: c.tate("IIIstar-p5"))),
    Guard("tate", "_tate_pass", r"^triple-root translation failed$",
          _patch(tate, "_cubic_analysis",
                 _wrong_triple(lambda root, p: ("triple", (root + 1) % p)),
                 lambda c: c.tate("IIIstar-p5"))),
    Guard("tate", "_tate_pass", r"^step-9 translation failed$",
          _patch(tate, "_y_roots", _wrong_y_root(2), lambda c: c.tate("IIIstar-p5"))),
    Guard("tate", "_istar_subloop", r"^I_m\* sub-loop entered with wrong valuations$",
          _patch(tate, "_cubic_analysis", _wrong_triple(lambda root, p: ("double", root)),
                 lambda c: c.tate("IIIstar-p5"))),
    Guard("tate", "_istar_subloop",
          r"^I_m\* sub-loop failed to terminate within v\(delta\)$",
          _patch(tate, "_istar_subloop", _subloop_to_one, lambda c: c.tate("I2star-c4-p3"))),
    Guard("tate", "run_tate", r"^minimalization did not terminate$",
          _patch(tate, "_tate_pass", _never_minimal, lambda c: c.tate("III-p5"))),
    Guard("tate", "_check_result", r"^I_m invariant v\(c4\) = 0 failed for I5: v_c4=1$",
          lambda mp, c: tate._check_result(
              dataclasses.replace(c.tate("I5-split-a2-p3"), v_c4=1))),
    Guard("tate", "_check_result",
          r"^I_m\* relation v\(delta\) = m \+ 4 \+ v\(c4\) failed for I2\*$",
          lambda mp, c: tate._check_result(
              dataclasses.replace(c.tate("I2star-c4-p3"), v_delta=9))),

    # profile.compute_profile
    Guard("profile", "compute_profile", r"^m_P search exceeded its cap of 4$",
          _patch(profile, "_reduces_singular", lambda *args: True,
                 lambda c: c.profile("IV-p5"))),
    Guard("profile", "compute_profile", r"^n_P search exceeded its cap of 9$",
          _patch(profile, "val", lambda q, p: 0, lambda c: c.profile("37a-gen-p3"))),
    Guard("profile", "compute_profile", r"^component index above \(m-1\)/2 for odd m$",
          _patch(profile, "psi2_value", lambda model, pt: 27,
                 lambda c: c.profile("I5-split-a2-p3"))),
    Guard("profile", "compute_profile", r"^singular point on non-split I_m with m odd$",
          lambda mp, c: c.profile("I2-nonsplit-p3", v_delta=3)),
    Guard("profile", "compute_profile", r"^singular multiplicative point with a_P = 0$",
          _patch(profile, "psi2_value", lambda model, pt: 1,
                 lambda c: c.profile("I5-split-a2-p3"))),
    Guard("profile", "compute_profile", r"^m_P = 5 but component index predicts 3$",
          lambda mp, c: c.profile("I5-split-a2-p3", v_delta=6)),

    # engine
    Guard("engine", "classify_row", r"^singular point on Kodaira type I0 cannot happen$",
          lambda mp, c: engine.classify_row(
              dataclasses.replace(c.profile("37a-gen-p3"), singular=True))),
    Guard("engine", "k_formula", r"^singular point on additive reduction with c_v = 1$",
          lambda mp, c: engine.k_formula(c.profile("III-p5", cv=1), 3)),
    Guard("engine", "table_decomposition",
          r"^epsilon must vanish at n = 0 mod m_P, n = 3$",
          lambda mp, c: engine.table_decomposition(
              dataclasses.replace(c.profile("III-p5"), m_p=3))),

    # formal_group
    Guard("formal_group", "mult_by_m_series", r"^\[3\]T has linear coefficient 6$",
          _patch(formal_group, "formal_exp", lambda log: TruncatedSeries((0, 2), log.order),
                 lambda c: formal_group.mult_by_m_series(c.model("37a-gen-p2"), 3, 5))),
    Guard("formal_group", "unit_exponent_scan", r"^unit coefficient with nonzero valuation$",
          _patch(formal_group, "mult_by_m_series",
                 lambda model, p, order: TruncatedSeries((0, p, Fraction(1, p)), order),
                 lambda c: formal_group.unit_exponent_scan(c.model("37a-gen-p2"), 2))),
    Guard("formal_group", "staircase_params",
          r"^b = 2 is neither 1 nor a positive multiple of 3$",
          _patch(engine, "unit_exponent_scan", lambda model, p: 2,
                 lambda c: engine.default_staircase_params(c.profile("37a-gen-p3")))),
    Guard("formal_group", "staircase_params",
          r"^v\(x/y\) at \[n_P\]P should be a positive integer, got 0$",
          lambda mp, c: engine.default_staircase_params(dataclasses.replace(
              c.profile("III-p5-nonsingular-point"),
              multiple_np=c.entries["III-p5-nonsingular-point"].curve_point))),
    # [p]q read as q itself: w = s - b s = -1 in the equality case b = 2, s = 1
    Guard("formal_group", "staircase_params", r"^negative w = -1 at b = 2, s = 1$",
          _patch(formal_group, "mul", lambda model, n, q: q,
                 lambda c: engine.default_staircase_params(c.profile("53a-x4P-p2-wcase")))),
)


@pytest.fixture(scope="module")
def corpus(corpus_entries):
    return Corpus(corpus_entries)


@pytest.mark.parametrize("guard", GUARDS, ids=lambda g: f"{g.module}.{g.function}:{g.match}")
def test_guard_fires(guard, corpus, monkeypatch):
    with pytest.raises(InternalError, match=guard.match):
        guard.trigger(monkeypatch, corpus)


def raise_sites() -> Counter:
    """(module, function) of each ``raise InternalError`` in src/gcval, the
    function qualified by its class."""
    sites = Counter()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, scope + (child.name,))
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if isinstance(exc, ast.Name) and exc.id == "InternalError":
                    sites[module, ".".join(scope)] += 1
            visit(child, module, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, ())
    return sites


def test_every_raise_site_has_one_row():
    assert raise_sites() == Counter((g.module, g.function) for g in GUARDS)
