"""Exception hierarchy.

At the CLI boundary, InputError maps to exit code 2 (malformed input),
PreconditionError to exit code 3 (well-formed input that violates a stated
precondition: torsion point, singular curve, non-prime modulus), and
InternalError, UnsupportedCaseError and any exception outside this
hierarchy to exit code 4 (internal failure).  Exit code 1 is kept for a
verification mismatch.
"""


class ToolkitError(Exception):
    pass


class InputError(ToolkitError):
    """Malformed input: unparsable rationals, off-curve points, bad corpus lines."""


class NonIntegralError(InputError):
    """A p-integral model was required; clear denominators first."""


class PreconditionError(ToolkitError):
    """Structurally valid input that violates a documented precondition."""


class NonPrimeError(PreconditionError):
    pass


class SingularCurveError(PreconditionError):
    pass


class TorsionPointError(PreconditionError):
    pass


class TwoTorsionError(PreconditionError):
    pass


class UnsupportedCaseError(ToolkitError):
    """The requested prediction is not defined for this reduction data."""


class InternalError(ToolkitError):
    """An internal consistency check failed; this indicates a bug."""

