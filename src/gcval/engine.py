"""Executable predictions for k_n(P) = min(v(phi_n(P)), v(psi_n^2(P))).

Two independent routes are provided and must agree:

* ``k_direct_range`` -- the ground-truth oracle: read v_p(phi_n) and
  v_p(psi_n) off a division table at the point, split at p
  (``divpoly.division_table``, which reads them during its build), and take
  the min of v_p(phi_n) and v_p(psi_n^2), for n = 1..n_max;
* ``k_formula`` -- the closed form, dispatched on the reduction profile
  (non-singular branch, multiplicative branch via r_n, additive branches
  via the psi_2^2 / psi_3 valuations).

``k_formula`` is the only statement of the closed form.
``table_decomposition`` reads the slope/epsilon presentation off it (exact
rationals, residue-class epsilon rule), and ``predict_psi_val`` /
``predict_phi_val`` take their heads from it (k_n / 2 and k_n) on the cases
where the per-factor valuations are predicted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .divpoly import DivisionTable
from .errors import (
    InputError,
    InternalError,
    PreconditionError,
    UnsupportedCaseError,
)
from .exact_numbers import Valuation
from .formal_group import StaircaseParams, staircase_params, unit_exponent_scan
from .profile import ReductionProfile
from .sequences import r_n, s_n

# Canonical row identifiers for classification, reporting and coverage.
ROW_NONSING_NEG = "nonsingular-vx-neg"
ROW_NONSING_NONNEG = "nonsingular-vx-nonneg"
ROW_III = "III"
ROW_IV = "IV"
ROW_III_STAR = "III*"
ROW_IV_STAR = "IV*"
ROW_ISTAR_C2 = "Im*-c2"
ROW_ISTAR_ODD_C4_NONSING = "Im*-modd-c4-2P-nonsingular"
ROW_ISTAR_ODD_C4_SING = "Im*-modd-c4-2P-singular"
ROW_I2MSTAR_C4 = "I2m*-c4"
ROW_IM_SPLIT = "Im-split"
ROW_IM_NONSPLIT = "Im-nonsplit"
ROW_I0STAR_C2 = "I0*-c2"
ROW_I0STAR_C4 = "I0*-c4"

#: Rows the main-theorem table states explicitly, plus the two
#: non-singular branches.  I0* rows sit outside the printed table and are
#: therefore flagged whenever they occur.
REQUIRED_ROWS = (
    ROW_NONSING_NEG,
    ROW_NONSING_NONNEG,
    ROW_III,
    ROW_IV,
    ROW_III_STAR,
    ROW_IV_STAR,
    ROW_ISTAR_C2,
    ROW_ISTAR_ODD_C4_NONSING,
    ROW_ISTAR_ODD_C4_SING,
    ROW_I2MSTAR_C4,
    ROW_IM_SPLIT,
    ROW_IM_NONSPLIT,
)

FLAGGED_ROWS = (ROW_I0STAR_C2, ROW_I0STAR_C4)


def classify_row(profile: ReductionProfile) -> str:
    """Which theorem branch / table row governs this (curve, point, prime)."""
    t = profile.tate
    if not profile.singular:
        return ROW_NONSING_NEG if profile.v_x < 0 else ROW_NONSING_NONNEG
    if t.reduction == "multiplicative":
        return ROW_IM_SPLIT if t.split else ROW_IM_NONSPLIT
    k = t.kodaira
    if k.series == "III":
        return ROW_III
    if k.series == "IV":
        return ROW_IV
    if k.series == "III*":
        return ROW_III_STAR
    if k.series == "IV*":
        return ROW_IV_STAR
    if k.series == "I*":
        if k.m == 0:
            return ROW_I0STAR_C2 if t.cv == 2 else ROW_I0STAR_C4
        if t.cv == 2:
            return ROW_ISTAR_C2
        if k.m % 2 == 0:
            return ROW_I2MSTAR_C4
        return (ROW_ISTAR_ODD_C4_SING if profile.two_p_singular
                else ROW_ISTAR_ODD_C4_NONSING)
    raise InternalError(f"singular point on Kodaira type {k} cannot happen")


def row_is_flagged(row: str) -> bool:
    return row in FLAGGED_ROWS


def k_direct_range(table: DivisionTable, n_max: int):
    """[(n, k, v_phi, v_psi_sq)] for n = 1..n_max, off a table built to at
    least n_max.

    The point's infinite order is the caller's to assert (compute_profile
    does it on the same minimal-model point).
    """
    return [(n, min(v_phi, 2 * v_psi), v_phi, 2 * v_psi)
            for n, v_phi, v_psi in table.valuations(n_max)]


def k_formula(profile: ReductionProfile, n: int) -> int:
    """The closed form for k_n(P).

    On additive reduction it is v(psi_2^2) floor(n^2 / 3) for c_v = 3, and
    v(psi_3) floor(n^2 / 4) for c_v = 2 and 4, less 1 at n = 2 mod 4 when
    c_v = 4 and [2]P is singular.  The floors are the table's v n^2 / M
    and v (n^2 - 1) / M, as n^2 mod 3 is 0 or 1 and n^2 mod 8 is 0, 1 or 4.
    """
    if n < 1:
        raise InputError(f"index must be >= 1, got {n}")
    t = profile.tate
    if not profile.singular:
        if profile.v_x >= 0:
            return 0
        return n * n * int(profile.v_x)
    if t.reduction == "multiplicative":
        return 2 * r_n(profile.a_p, t.v_delta, n)
    # additive reduction
    cv = t.cv
    if cv == 3:
        return int(profile.v_psi2_sq) * (n * n // 3)
    if cv in (2, 4):
        k = int(profile.v_psi3) * (n * n // 4)
        if cv == 4 and profile.two_p_singular and n % 4 == 2:
            return k - 1
        return k
    raise InternalError(f"singular point on additive reduction with c_v = {cv}")


@dataclass(frozen=True)
class TheoremPrediction:
    """slope * n^2 + epsilon(n mod modulus), as exact rationals."""

    slope: Fraction
    modulus: int
    epsilon: tuple  # epsilon[r] for residue r, as Fractions

    def epsilon_at(self, n: int) -> Fraction:
        return self.epsilon[n % self.modulus]

    def k_at(self, n: int) -> Fraction:
        return self.slope * n * n + self.epsilon_at(n)


def table_decomposition(profile: ReductionProfile) -> TheoremPrediction:
    """Slope and residue-class epsilon rule for a singular point.

    Only the modulus M is chosen here: v(Delta) on multiplicative reduction,
    3 for c_v = 3, 4 for c_v = 4 with [2]P singular, else 2.  The slope is
    k_M / M^2 and epsilon(n mod M) = k_n - slope * n^2 for n = M..2M-1,
    both read off ``k_formula``, whose every branch is slope * n^2 plus a
    function of n mod M by its form.  What is checked is that epsilon
    vanishes at m_P, 2 m_P, 3 m_P and 4 m_P: that compares the walk's m_P
    with the modulus read off Tate's data.
    """
    if not profile.singular:
        raise PreconditionError(
            "the slope/epsilon decomposition is defined for singular points only")
    t = profile.tate
    if t.reduction == "multiplicative":
        modulus = t.v_delta
    elif t.cv == 3:
        modulus = 3
    elif t.cv == 4 and profile.two_p_singular:
        modulus = 4
    else:
        # c_v = 2, or c_v = 4 with [2]P non-singular
        modulus = 2
    slope = Fraction(k_formula(profile, modulus), modulus * modulus)
    eps = tuple(k_formula(profile, n) - slope * n * n
                for n in range(modulus, 2 * modulus))
    pred = TheoremPrediction(slope, modulus, eps)
    for n in range(profile.m_p, 4 * profile.m_p + 1, profile.m_p):
        if pred.epsilon_at(n) != 0:
            raise InternalError(f"epsilon must vanish at n = 0 mod m_P, n = {n}")
    return pred


def _factors_predicted(profile: ReductionProfile) -> bool:
    """Whether v(psi_n) and v(phi_n) are predicted: everywhere but at a
    singular point on additive reduction."""
    return not profile.singular or profile.tate.reduction == "multiplicative"


def default_staircase_params(profile: ReductionProfile) -> StaircaseParams | None:
    """The staircase parameters the per-factor predictions call for, or
    None where no prediction is made (a singular point on additive
    reduction).

    Non-singular points read b off the multiplication-by-p series of the
    minimal model (unit_exponent_scan); singular points on multiplicative
    reduction use the prescribed b = p.  s_P is read at the profile's
    [n_P]P, and K = Q_p fixes e = 1 and h = j = 0 (staircase_params).
    """
    if not _factors_predicted(profile):
        return None
    t = profile.tate
    b = t.p if profile.singular else unit_exponent_scan(t.minimal_model, t.p)
    return staircase_params(t.minimal_model, profile.multiple_np, t.p, b)


def predict_psi_val(profile: ReductionProfile, params: StaircaseParams,
                    n: int) -> Valuation:
    """Predicted v(psi_n(P)) (not squared) in the supported cases: k_n / 2,
    plus the staircase value s_(n / n_P) where n_P divides n."""
    if not _factors_predicted(profile):
        raise UnsupportedCaseError(
            "v(psi_n) is not predicted for singular points on additive reduction")
    # k_n is even here: 2 r_n, 0, or n^2 v(x) with v(x) = -2 s in E_1
    # (Silverman, AEC VII.2); an odd one would fail psi-prediction
    head = k_formula(profile, n) // 2
    tail = s_n(params, profile.tate.p, n // profile.n_p) if n % profile.n_p == 0 else 0
    return head + tail


def predict_phi_val(profile: ReductionProfile, n: int) -> Valuation | None:
    """Predicted v(phi_n(P)), or None where no prediction is made.

    Where n_P divides n, v(phi_n) = k_n in the supported cases.  For a
    non-singular P with n_P not dividing n, v(x(P)) >= 0 (else n_P =
    1) and v(phi_n) = 0 when x([n]P) is a p-adic unit; else None.  This is
    periodic in n mod n_P: reduction E_0(Q_p) -> E~_ns(F_p) is a
    homomorphism with kernel E_1 (Silverman, AEC VII.2), so [n]P reduces
    like [n mod n_P]P, and the profile's x_unit_residues lists the residues
    where that x is a unit.
    """
    if n < 1:
        raise InputError(f"index must be >= 1, got {n}")
    r = n % profile.n_p
    if r == 0:
        return k_formula(profile, n) if _factors_predicted(profile) else None
    if not profile.singular:
        return 0 if r in profile.x_unit_residues else None
    return None
