"""Exception hierarchy for the estimation pipeline.

Errors fall into two broad families used by the CLI exit-code mapping:
data errors (malformed input) and numerical errors (degenerate or
ill-conditioned computations).
"""


class IpcError(Exception):
    """Base class for all package-specific errors."""


class DataError(IpcError):
    """Problems with the input data or its file representation."""


class NumericalError(IpcError):
    """Degenerate or ill-conditioned numerical situations."""


# --- numerics ---------------------------------------------------------------

class NonSymmetricError(NumericalError):
    pass


class NonFiniteError(NumericalError):
    pass


class RankDeficientError(NumericalError):
    pass


class InvalidDomainError(NumericalError):
    pass


# --- model / validation -----------------------------------------------------

class DimensionMismatchError(DataError):
    pass


class NonFiniteDataError(DataError):
    pass


class TimeInvariantRegressorError(DataError):
    """A regressor series is constant over time for some unit.

    Attributes
    ----------
    unit, regressor : int
        Zero-based indices of the offending (unit, regressor) pair.
    """

    def __init__(self, unit, regressor, label=None):
        self.unit = unit
        self.regressor = regressor
        msg = f"regressor {regressor} is constant over time for unit {unit}"
        if label is not None:
            msg += f" ({label})"
        super().__init__(msg)


class IdenticalUnitsError(DataError):
    """Every unit has the same y and x series: nothing varies across units."""


class DmaxTooLargeError(DataError):
    pass


class DeltaTooLargeError(DataError):
    """T^delta, the scale of the factors' Gram, overflows a float."""


# --- initial estimation -----------------------------------------------------

class SingularDesignError(NumericalError):
    pass


class MonotonicityError(NumericalError):
    """An ALS step increased the objective beyond floating-point slack."""


# --- factor selection -------------------------------------------------------

class InvalidEigenvaluesError(NumericalError):
    pass


class DegenerateThresholdError(NumericalError):
    pass


class GroupBudgetExceededError(NumericalError):
    """Group extraction hit the hard stop before a zero-dimension group.

    Attributes
    ----------
    groups : list
        The groups extracted before the stop fired.
    """

    def __init__(self, groups, message):
        self.groups = groups
        super().__init__(message)


# --- final estimation -------------------------------------------------------

class SingularLoadingsError(NumericalError):
    pass


class SingularZGramError(NumericalError):
    pass


# --- inference ----------------------------------------------------------------

class SingularCovarianceError(NumericalError):
    pass


class RankDeficientRError(NumericalError):
    pass


class EmptyGroupError(IpcError):
    pass


class ZeroLoadingsError(NumericalError):
    pass


class SubPanelError(IpcError):
    """A jackknife sub-panel fit failed.

    Attributes
    ----------
    sub_panel : str
        Which sub-panel failed ("units_first_half", "periods_odd", ...).
    """

    def __init__(self, sub_panel, cause):
        self.sub_panel = sub_panel
        super().__init__(f"pipeline failed on sub-panel '{sub_panel}': {cause}")


# --- simulation ---------------------------------------------------------------

class MonteCarloError(IpcError):
    """Too many replications failed for the aggregates to be trusted."""


# --- io -----------------------------------------------------------------------

class UnbalancedPanelError(DataError):
    def __init__(self, missing_pairs, message):
        self.missing_pairs = missing_pairs
        super().__init__(message)


class DuplicateCellError(DataError):
    pass


class CsvParseError(DataError):
    def __init__(self, row, message):
        self.row = row
        super().__init__(message)


class MissingColumnError(DataError):
    pass
