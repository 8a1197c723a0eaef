"""Exception hierarchy and the exit codes the command line maps it to.

``exit_code`` maps InputError to exit code 2 (malformed input),
PreconditionError to exit code 3 (well-formed input that violates a stated
precondition: torsion point, singular curve, non-prime modulus), and
InternalError, UnsupportedCaseError and any exception outside this
hierarchy to exit code 4 (internal failure).  Exit code 1 is kept for a
verification mismatch.  ``cli.main`` applies it to the exception a command
raises, and the verification report to each corpus entry's exception.
"""

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4


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


def exit_code(exc: BaseException) -> int:
    if isinstance(exc, PreconditionError):
        return EXIT_PRECONDITION
    if isinstance(exc, InputError):
        return EXIT_INPUT
    return EXIT_INTERNAL
