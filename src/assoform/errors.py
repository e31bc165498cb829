"""Exception types shared across the library.

Every failure the CLI maps to an exit code derives from AssoformError:
InputError covers invalid or degenerate mathematical input (exit code 2),
PolyParseError covers malformed polynomial text (exit code 3), and every
other AssoformError is an internal error (exit code 4): a failure of the
library itself, not of its input.
"""


class AssoformError(Exception):
    pass


class InputError(AssoformError):
    """Mathematically invalid or degenerate input."""


class PolyParseError(AssoformError):
    """Malformed polynomial text; `position` is a 0-based index into it."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DegreeMismatchError(InputError):
    pass


class SingularMatrixError(InputError):
    pass


class FiniteColengthError(InputError):
    """Tuple is not a homogeneous system of parameters."""


class DegenerateSocleError(AssoformError):
    """Socle solve did not produce a one-dimensional kernel.

    Cannot happen for a finite-colength tuple; raised so a broken caller
    fails loudly rather than returning a meaningless covector.
    """


class RejectionSamplingError(AssoformError, RuntimeError):
    """Rejection sampling used up its cap without an accepted draw."""


class NondegeneracyError(InputError):
    """Form has a non-isolated singularity.

    `degree` records the graded piece in which the gradient ideal was
    found not to be full.
    """

    def __init__(self, message, degree=None):
        super().__init__(message)
        self.degree = degree


class ExcludedParameterError(InputError):
    """Family parameter hits an excluded value."""


class DegenerateFamilyError(InputError):
    """Family member with vanishing discriminant."""


class FamilyConversionError(InputError):
    """Ternary cubic outside the diagonal-plus-mixed-term family."""


class DegenerateFrameError(InputError):
    """Linearly dependent frame for a quintic in canonical form."""


class DegenerateQuinticError(InputError):
    """Quintic in canonical form with vanishing discriminant."""


class VanishingInvariantError(InputError):
    """Division by an invariant that vanishes; `invariant` names it."""

    def __init__(self, invariant):
        super().__init__(f"invariant {invariant} vanishes")
        self.invariant = invariant
