"""Exception types shared across the package."""


class EmptyInput(ValueError):
    """Raised when an operand string has length zero."""


class InvalidDigit(ValueError):
    """Raised when an operand string contains a non-digit character."""

    def __init__(self, position: int, char: str):
        self.position = position
        self.char = char
        super().__init__(f"invalid digit {char!r} at position {position}")


class LengthUnderflow(ValueError):
    """Raised when asked to pad a limb sequence to fewer limbs than it has."""


class NegativeResult(ArithmeticError):
    """Raised when the subtrahend exceeds the minuend."""


class IterationLimitExceeded(RuntimeError):
    """Raised when the parallel scheme exceeds its hard cap of passes."""


class VerificationFailure(RuntimeError):
    """Raised when a benchmark result disagrees with the reference oracle."""
