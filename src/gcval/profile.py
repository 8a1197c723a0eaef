"""Reduction-theoretic data of a specific point.

Collects everything the valuation formulas need: whether the point reduces
to the singular locus, the order n_P of its reduction, the order m_P of its
image in the component group, the component index a_P for multiplicative
reduction, and the valuations of psi_2^2, psi_3 and phi_2 on the normalized
model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .curve_core import (
    Point,
    WeierstrassModel,
    _add,
    add,
    assert_infinite_order,
    map_point,
    require_on_curve,
)
from .divpoly import phi2_x, psi2_squared_x, psi2_value, psi3_value
from .errors import InternalError
from .exact_numbers import INFINITY, Valuation, val
from .tate import TateResult


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


def point_is_singular(model: WeierstrassModel, point: Point, p: int) -> bool:
    """True iff the point reduces to the singular locus of the reduced curve.

    Uses the partial-derivative criterion, which does not depend on the
    normalization of the (p-integral) model.  A point with v(x) < 0 reduces
    to the identity and is never singular.
    """
    require_on_curve(model, point)
    if point.is_infinity:
        return False
    if val(point.x, p) < 0:
        return False
    # integral x forces integral y on an integral model
    if val(point.y, p) < 0:
        raise InternalError("integral x with non-integral y on an integral model")
    a1, a2, a3, a4, _ = model.coefficients()
    fx = a1 * point.y - 3 * point.x * point.x - 2 * a2 * point.x - a4
    fy = 2 * point.y + a1 * point.x + a3
    return val(fx, p) >= 1 and val(fy, p) >= 1


def _search_multiple(model, point, predicate, cap, what):
    acc = point
    for n in range(1, cap + 1):
        if predicate(acc):
            return n
        acc = _add(model, acc, point)
    raise InternalError(f"{what} search exceeded its cap of {cap}")


def compute_profile(tate: TateResult, point: Point) -> ReductionProfile:
    """Profile of an infinite-order point given on the *input* model."""
    p = tate.p
    require_on_curve(tate.input_model, point)
    minimal = tate.minimal_model
    pt = map_point(tate.to_minimal, point)
    assert_infinite_order(minimal, pt)  # also checks pt is on the minimal model

    singular = point_is_singular(minimal, pt, p)
    v_x = val(pt.x, p)

    # n_P: the reduction of P has order dividing c_v * |E~_ns(F_p)|, and
    # |E~_ns(F_p)| <= p + 1 + 2*sqrt(p).
    n_cap = (p + 1 + 2 * math.isqrt(p) + 2 + 1) * tate.cv
    n_p = _search_multiple(
        minimal, pt, lambda q: (not q.is_infinity) and val(q.x, p) < 0,
        n_cap, "n_P")

    # m_P: order of the image in the component group.
    m_for_cap = tate.kodaira.m if tate.kodaira.series == "I" else 0
    m_cap = max(tate.cv, m_for_cap) + 1
    m_p = _search_multiple(
        minimal, pt, lambda q: not point_is_singular(minimal, q, p),
        m_cap, "m_P")
    if singular != (m_p > 1):
        raise InternalError("m_P disagrees with the singularity flag")

    a_p = None
    if singular and tate.reduction == "multiplicative":
        m = tate.v_delta
        if tate.split:
            vpsi2 = val(psi2_value(minimal, pt), p)
            a_p = min(int(vpsi2), m // 2) if vpsi2 != INFINITY else m // 2
            if m % 2 == 1 and vpsi2 != INFINITY and int(vpsi2) > m // 2:
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

    two_p_singular = None
    if tate.kodaira.series == "I*" and singular:
        two = add(minimal, pt, pt)
        two_p_singular = point_is_singular(minimal, two, p)

    pt_norm = map_point(tate.to_normalized, pt)
    normalized = tate.normalized_model
    require_on_curve(normalized, pt_norm)
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
        v_x=v_x,
    )
