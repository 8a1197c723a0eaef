"""Reduction-theoretic data of a specific point.

Collects everything the valuation formulas need: whether the point reduces
to the singular locus, the order n_P of its reduction, the order m_P of its
image in the component group, the component index a_P for multiplicative
reduction, and the valuations of psi_2^2, psi_3 and phi_2 on the normalized
model.  One walk over [1]P, [2]P, ... is the torsion guard (curve_core.multiples
raises at an [n]P = O), and gives n_P, m_P, [2]P's singularity, the residues
r < n_P with x([r]P) a p-adic unit, on which engine.predict_phi_val bases its
v(phi_n) prediction, [n_P]P, from which the staircase parameters read s_P, and
the first ``keep`` multiples, which verify's structural checks compare with the
division polynomials.  It ends at the first n >= max(n_P, keep) that proves P of
infinite order: n >= WALK_POINTS (Mazur), or n >= n_P for p >= 3 and 2 n_P for
p = 2, as E_1(Q_p) is torsion-free for p >= 3 and has torsion at most Z/2 at
p = 2 (Silverman, AEC IV.6.4, VII.3.1).  Points in between are dropped as the
walk passes them, so a long walk (n_P in the thousands) holds two points.

The walk's points come from curve_core's integer group law and are on the
curve by construction, so ``compute_profile`` checks the point once, where
the walk starts, and not the walked points or the normalized image.  It
reads v_p(x([n]P)) off each point's numerator and denominator and tests
singularity by tate.partials_vanish.  ``point_is_singular``, for outside
callers, checks its point first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .curve_core import (
    WALK_POINTS,
    Point,
    WeierstrassModel,
    map_point,
    multiples,
    require_on_curve,
)
from .divpoly import phi2_x, psi2_squared_x, psi2_value, psi3_value
from .errors import InternalError
from .exact_numbers import Valuation, residue, val
from .tate import TateResult, partials_vanish


@dataclass(frozen=True)
class ReductionProfile:
    tate: TateResult
    point: Point              # on the minimal model
    point_normalized: Point   # the same point on the normalized model
    singular: bool
    n_p: int
    m_p: int
    a_p: int | None           # multiplicative singular only
    two_p_singular: bool | None  # I_m* / I_0* only
    v_psi2_sq: Valuation      # on the normalized model
    v_psi3: Valuation
    v_phi2: Valuation
    v_x: Valuation            # v(x(P)) on the minimal model
    x_unit_residues: frozenset  # r in 1..n_P-1 with v(x([r]P)) = 0
    walk: tuple               # [1]P..[keep]P on the minimal model
    multiple_np: Point        # [n_P]P on the minimal model, in E_1


def point_is_singular(model: WeierstrassModel, point: Point, p: int) -> bool:
    """True iff the point reduces to the singular locus of the reduced curve.

    Uses the partial-derivative criterion, which does not depend on the
    normalization of the (p-integral) model.  A point with v(x) < 0 reduces
    to the identity and is never singular.
    """
    require_on_curve(model, point)
    return _reduces_singular(model, point, p)


def _reduces_singular(model: WeierstrassModel, point: Point, p: int) -> bool:
    """point_is_singular for an affine point known to be on the p-integral
    model: both partials vanish modulo p."""
    if point.x.denominator % p == 0:
        return False
    # integral x forces integral y on an integral model
    if point.y.denominator % p == 0:
        raise InternalError("integral x with non-integral y on an integral model")
    a = [residue(c, p) for c in model.coefficients()[:4]]
    return partials_vanish(a, residue(point.x, p), residue(point.y, p), p)


def compute_profile(tate: TateResult, point: Point,
                    keep: int = WALK_POINTS) -> ReductionProfile:
    """Profile of an infinite-order point given on the *input* model.

    ``walk`` holds its first ``keep`` multiples.  Raises TorsionPointError at
    the first [n]P = O of a torsion point, and InputError, where the walk
    starts, if the point is not on the curve.
    """
    p = tate.p
    minimal = tate.minimal_model
    pt = map_point(tate.to_minimal, point)

    # Walk to [n_P]P, the first multiple in E_1 (v(x) < 0); n_P divides
    # c_v * |E~_ns(F_p)| <= c_v * (p + 1 + 2*sqrt(p)).  m_P, the first n with
    # [n]P non-singular, divides n_P because E_1 is non-singular.  It ends
    # at the first n >= max(n_P, keep) that proves P of infinite order.
    n_cap = (p + 1 + 2 * math.isqrt(p) + 2 + 1) * tate.cv
    m_for_cap = tate.kodaira.m if tate.kodaira.series == "I" else 0
    m_cap = max(tate.cv, m_for_cap) + 1
    walk = []
    v_walk = []
    m_p = n_p = None
    for n, q in enumerate(multiples(minimal, pt), start=1):
        if n <= keep:
            walk.append(q)
        if n_p is None:
            v_walk.append(val(q.x, p))
            if m_p is None:
                if not _reduces_singular(minimal, q, p):
                    m_p = n
                elif n >= m_cap:
                    raise InternalError(f"m_P search exceeded its cap of {m_cap}")
            if v_walk[-1] < 0:
                n_p, multiple_np = n, q
                end = max(keep, min(WALK_POINTS, 2 * n_p if p == 2 else n_p))
            elif n >= n_cap:
                raise InternalError(f"n_P search exceeded its cap of {n_cap}")
        if n_p is not None and n >= end:
            break
    singular = m_p > 1

    a_p = None
    if singular and tate.reduction == "multiplicative":
        m = tate.v_delta
        if tate.split:
            # finite: psi_2(P) = 0 only at a 2-torsion P, where the walk raised
            vpsi2 = int(val(psi2_value(minimal, pt), p))
            a_p = min(vpsi2, m // 2)
            if m % 2 == 1 and vpsi2 > m // 2:
                raise InternalError("component index above (m-1)/2 for odd m")
        else:
            if m % 2:
                raise InternalError("singular point on non-split I_m with m odd")
            a_p = m // 2
        if a_p < 1:
            raise InternalError("singular multiplicative point with a_P = 0")
        expected_m_p = m // math.gcd(a_p, m) if tate.split else 2
        if m_p != expected_m_p:
            raise InternalError(
                f"m_P = {m_p} but component index predicts {expected_m_p}")

    # [2]P is singular iff the walk passed it before reaching m_P
    two_p_singular = m_p > 2 if tate.kodaira.series == "I*" and singular else None

    pt_norm = map_point(tate.to_normalized, pt)
    normalized = tate.normalized_model
    v_psi2_sq = val(psi2_squared_x(normalized, pt_norm.x), p)
    v_psi3 = val(psi3_value(normalized, pt_norm), p)
    v_phi2 = val(phi2_x(normalized, pt_norm.x), p)

    return ReductionProfile(
        tate=tate,
        point=pt,
        point_normalized=pt_norm,
        singular=singular,
        n_p=n_p,
        m_p=m_p,
        a_p=a_p,
        two_p_singular=two_p_singular,
        v_psi2_sq=v_psi2_sq,
        v_psi3=v_psi3,
        v_phi2=v_phi2,
        v_x=v_walk[0],
        x_unit_residues=frozenset(
            r for r, v in enumerate(v_walk, start=1) if v == 0),
        walk=tuple(walk),
        multiple_np=multiple_np,
    )
