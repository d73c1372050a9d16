"""Exception types shared across the package.

Plain ``ValueError`` is used for domain/precondition violations.  The two
classes below mark resource guards tripping and calibration targets that
cannot be reached; the command line maps them, like every other
``ArithmeticError`` (a division by an underflowed 0, say), to exit code 3.
"""


class CapacityError(RuntimeError):
    """A bound was exceeded: a per-shell array (``MAX_SHELL_INDEX``), a shell
    count beyond int64, an order whose subsets have ranks beyond int64, or the
    inactive subsets one order would evaluate (``MAX_EVALUATED_SUBSETS``).
    """


class CalibrationError(ArithmeticError):
    """A calibration equation has no solution in the admissible interval, or
    that interval, a radius's support or a(r) does not fit in a float."""
