"""Exception taxonomy shared across the package.

Validation failures (bad matrices, bad files, bad parameters) raise
subclasses of ``ValidationError``; infeasibility conditions discovered at
runtime (an observation the channel could never emit, a search with no
feasible point) raise subclasses of ``InfeasibleError``.  The CLI maps
the former to exit code 2 and the latter to exit code 3.
"""


class ValidationError(ValueError):
    """Base class for input-validation failures."""


class NegativeEntryError(ValidationError):
    """A channel matrix entry lies outside [0, 1]."""

    def __init__(self, row: int, col: int, value: float):
        self.row = row
        self.col = col
        self.value = value
        super().__init__(f"channel entry [{row}][{col}] = {value} outside [0, 1]")


class RowSumMismatchError(ValidationError):
    """A channel row does not sum to 1 within tolerance."""

    def __init__(self, row: int, row_sum: float):
        self.row = row
        self.row_sum = row_sum
        super().__init__(f"channel row {row} sums to {row_sum}, expected 1")


class DimensionMismatchError(ValidationError):
    """Operands disagree on domain size."""


class ValueNotInDomainError(ValidationError):
    """A value passed to a mechanism is not in its input domain."""


class ZeroEpsilonError(ValidationError):
    """epsilon = 0 makes the estimator denominator vanish."""


class ParseError(ValidationError):
    """A data file failed to parse."""

    def __init__(self, line: int, reason: str):
        self.line = line
        super().__init__(f"line {line}: {reason}")


class MissingColumnError(ValidationError):
    """A declared column is absent from the input file."""


class EmptyInputError(ValidationError):
    """The input file holds no usable rows."""


class InfeasibleError(RuntimeError):
    """Base class for runtime infeasibility conditions."""


class UnreachableOutputError(InfeasibleError):
    """An observed output has zero probability under the channel and prior."""


class NoFeasiblePointError(InfeasibleError):
    """A constrained search found no point satisfying the constraints."""


class InternalInconsistencyError(AssertionError):
    """A mathematically impossible relation was measured; indicates a bug."""
