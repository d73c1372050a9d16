"""Exception types shared across the package.

Plain ``ValueError`` is used for domain/precondition violations.  The two
classes below mark conditions the command line maps to exit code 3:
resource guards tripping and calibration targets that cannot be reached.
"""


class CapacityError(RuntimeError):
    """A bound was exceeded: a per-shell array (``MAX_SHELL_INDEX``), a shell
    count beyond int64, or the subsets of one order under full enumeration
    (``MAX_FULL_SUBSETS``).
    """


class CalibrationError(ArithmeticError):
    """A calibration equation has no solution in the admissible interval."""
