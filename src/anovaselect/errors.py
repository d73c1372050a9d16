"""Exception types shared across the package.

Plain ``ValueError`` is used for domain/precondition violations.  The two
classes below mark conditions the command line maps to exit code 3:
resource guards tripping and calibration targets that cannot be reached.
"""


class CapacityError(RuntimeError):
    """A per-shell array, lattice ball or full enumeration exceeded its bound."""


class CalibrationError(ArithmeticError):
    """A calibration equation has no solution in the admissible interval."""
