"""Exception hierarchy shared by all donkin modules."""


class DonkinError(Exception):
    """Base class for every error raised by this package."""


class UnknownType(DonkinError):
    """A group-type letter/rank combination outside the alias table."""


class DimensionMismatch(DonkinError):
    """A weight vector whose length differs from the ambient rank."""


class NotDominant(DonkinError):
    """An operation that requires a dominant weight received a non-dominant one."""


class BadIndex(DonkinError):
    """A simple-root node index outside the diagram."""


class AmbientMismatch(DonkinError):
    """Two characters (or a character and a map) over different groups."""


class NegativeInput(DonkinError):
    """A virtual character where a genuine (nonnegative) one is required."""


class NotSymmetric(DonkinError):
    """A character that is not Weyl-invariant, detected before decomposition."""


class IllegalStep(DonkinError):
    """A chain step that no clause of the embedding catalog accepts."""


class TypeMismatch(DonkinError):
    """Composition of maps whose endpoints do not line up."""


class InvalidJordanType(DonkinError):
    """A Jordan type violating the parity constraints of its kind."""


class TableSyntaxError(DonkinError):
    """A malformed orbit-table line; carries position information."""

    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        self.message = message
        super().__init__(f"line {line}, column {column}: {message}")
