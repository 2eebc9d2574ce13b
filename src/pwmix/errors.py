"""Exception types shared across the toolkit."""


class PwmixError(Exception):
    """Base class for toolkit errors."""


class InvalidParameterError(PwmixError, ValueError):
    """A mechanism or query parameter is out of its valid range."""


class UnsupportedSpecError(PwmixError, ValueError):
    """The operation does not apply to the given mechanism spec."""


class UnsafeMechanismError(PwmixError, PermissionError):
    """A non-private mechanism was requested without the unsafe flag."""


class QueryError(PwmixError, ValueError):
    """A query references an unknown attribute or is otherwise malformed."""


class ParseError(PwmixError, ValueError):
    """Input data could not be parsed."""

    def __init__(self, message: str, row_index: int | None = None):
        super().__init__(message)
        self.row_index = row_index


class EmptyDatasetError(ParseError):
    """The input contained no records."""


class BoundNotApplicableError(PwmixError, ValueError):
    """The requested accuracy bound falls inside the break-point region."""


class UndefinedMetricError(PwmixError, ValueError):
    """The metric is undefined for the given inputs (e.g. zero true count)."""
