"""Domain error hierarchy.

Every error the library raises on bad input or degenerate data derives from
:class:`CodaError` and renders to a single-line, machine-parseable record of
the form ``ErrorName:key=value,...`` (used verbatim by the CLI error stream).
"""

from __future__ import annotations


class CodaError(Exception):
    """Base class for all domain errors."""

    def detail(self) -> str:
        return " ".join(str(a) for a in self.args)

    def record(self) -> str:
        """Single-line machine-parseable form, e.g. ``UnknownRatio:wombat``."""
        detail = self.detail().replace("\n", " ")
        return f"{type(self).__name__}:{detail}"


class _CellError(CodaError):
    """A bad value in one cell of the value matrix."""

    def __init__(self, row: int, col: int, value: float):
        super().__init__(row, col, value)
        self.row, self.col, self.value = row, col, value

    def detail(self) -> str:
        return f"row={self.row},col={self.col},value={self.value!r}"


class NonPositiveValue(_CellError):
    pass


class NonFiniteValue(_CellError):
    pass


class NegativeValue(_CellError):
    pass


class DegenerateRow(CodaError):
    def __init__(self, row: int, reason: str = "no positive minimum"):
        super().__init__(row, reason)
        self.row, self.reason = row, reason

    def detail(self) -> str:
        return f"row={self.row},reason={self.reason}"


class DuplicateEntityId(CodaError):
    pass


class DuplicatePartName(CodaError):
    pass


class DimensionMismatch(CodaError):
    pass


class SamePart(CodaError):
    pass


class IndexOutOfRange(CodaError):
    pass


class UnknownPart(CodaError):
    pass


class EmptyInput(CodaError):
    pass


class TooFewValues(CodaError):
    pass


class ZeroVariance(CodaError):
    pass


class TooFewRows(CodaError):
    pass


class RankRequestTooLarge(CodaError):
    pass


class SvdFailure(CodaError):
    pass


class DegenerateVariance(CodaError):
    pass


class NonFiniteStatistic(CodaError):
    """A statistic of finite values over- or underflows float64."""


class DegenerateLink(CodaError):
    pass


class InfeasibleCut(CodaError):
    pass


class MismatchedEntities(CodaError):
    pass


class ParseError(CodaError):
    def __init__(self, line: int, column: int, token: str, reason: str = ""):
        super().__init__(line, column, token, reason)
        self.line, self.column, self.token, self.reason = line, column, token, reason

    def detail(self) -> str:
        base = f"line={self.line},column={self.column},token={self.token!r}"
        return f"{base},reason={self.reason}" if self.reason else base


class UnknownUnit(CodaError):
    pass


class UnknownRatio(CodaError):
    pass


class UnknownSector(CodaError):
    pass


class UnsupportedRank(CodaError):
    pass


class DegenerateBox(CodaError):
    pass


class InvalidOptions(CodaError):
    pass


class IoFailure(CodaError):
    pass


class InsufficientMemory(CodaError):
    pass
