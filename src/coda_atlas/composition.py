"""Compositional core: strictly positive indicator tables and log-ratio geometry.

An indicator table holds n entities described by D strictly positive parts
(financial and sustainability indicators). All multivariate analysis runs on
log-ratio coordinates: pairwise log-ratios between two parts, and the centred
log-ratio (CLR) of each part against the row's geometric mean. Natural log is
used throughout; a different base would only rescale every log-ratio quantity
uniformly and leave rankings and biplot shapes unchanged.

All functions are pure and all containers immutable (value arrays are marked
read-only), so instances can be shared across threads freely.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateRow,
    DimensionMismatch,
    DuplicateEntityId,
    DuplicatePartName,
    IndexOutOfRange,
    InvalidOptions,
    NegativeValue,
    NonFiniteValue,
    NonPositiveValue,
    SamePart,
    UnknownPart,
    UnknownRatio,
)

PART_ROLES = ("financial", "environmental", "social")


@dataclass(frozen=True)
class Part:
    """One component of a composition: a named indicator with a canonical unit."""

    index: int
    name: str
    unit: str
    role: str

    def __post_init__(self):
        if not self.name:
            raise InvalidOptions("part name must be non-empty")
        if self.role not in PART_ROLES:
            raise InvalidOptions(f"part {self.name!r}: role {self.role!r} not in {PART_ROLES}")


@dataclass(frozen=True)
class Entity:
    """Row identity: unique id, display label, free-form sector code."""

    id: str
    label: str
    sector_code: str


@dataclass(frozen=True, eq=False)
class IndicatorTable:
    """n entities x D parts of strictly positive, finite indicator values.

    Construct through :func:`validate_table`, which enforces positivity,
    finiteness, unique ids/part names and consistent dimensions, and freezes
    the value matrix read-only. Rows are in id order, so no result depends
    on the input row order; error coordinates are in input order.
    """

    parts: tuple[Part, ...]
    entities: tuple[Entity, ...]
    values: np.ndarray

    @property
    def n(self) -> int:
        return len(self.entities)

    @property
    def D(self) -> int:
        return len(self.parts)

    @property
    def entity_ids(self) -> tuple[str, ...]:
        return tuple(e.id for e in self.entities)

    @property
    def part_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.parts)

    def part_index(self, name: str) -> int:
        for p in self.parts:
            if p.name == name:
                return p.index
        raise UnknownPart(name)


@dataclass(frozen=True)
class RatioDefinition:
    """A named pairwise ratio between two parts, e.g. solvency = assets/liabilities."""

    name: str
    numerator: str
    denominator: str
    description: str = ""

    def __post_init__(self):
        if self.numerator == self.denominator:
            raise SamePart(
                f"ratio {self.name!r}: numerator and denominator are both "
                f"{self.numerator!r}"
            )

    def resolve(self, table: IndicatorTable) -> tuple[int, int]:
        """Return (numerator index, denominator index) in ``table``."""
        return table.part_index(self.numerator), table.part_index(self.denominator)


def default_ratio_catalog() -> tuple[RatioDefinition, ...]:
    """The five built-in named ratios over the default part layout."""
    return (
        RatioDefinition(
            "solvency", "total_assets", "total_liabilities",
            "total assets over total liabilities",
        ),
        RatioDefinition(
            "energy_intensity", "energy_consumption", "net_revenue",
            "energy consumed per million EUR of revenue",
        ),
        RatioDefinition(
            "water_intensity", "water_consumption", "net_revenue",
            "water consumed per million EUR of revenue",
        ),
        RatioDefinition(
            "waste_intensity", "waste_generation", "net_revenue",
            "waste generated per million EUR of revenue",
        ),
        RatioDefinition(
            "gender_employment_gap", "male_employees", "female_employees",
            "male employees per female employee",
        ),
    )


def find_ratio(catalog: Sequence[RatioDefinition], name: str) -> RatioDefinition:
    """The definition called ``name`` in ``catalog``; UnknownRatio if none is."""
    for definition in catalog:
        if definition.name == name:
            return definition
    raise UnknownRatio(name)


def resolvable_ratios(
    table: IndicatorTable, catalog: Sequence[RatioDefinition]
) -> tuple[RatioDefinition, ...]:
    """The definitions of ``catalog``, in order, whose two parts are in ``table``."""
    names = set(table.part_names)
    return tuple(r for r in catalog if r.numerator in names and r.denominator in names)


@dataclass(frozen=True, eq=False)
class ClrMatrix:
    """Row-wise CLR transform of an IndicatorTable; each row sums to zero."""

    values: np.ndarray
    parts: tuple[Part, ...]
    entity_ids: tuple[str, ...]

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def D(self) -> int:
        return self.values.shape[1]

    @property
    def part_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.parts)


def duplicated(items: Sequence) -> list:
    """The items that occur more than once, sorted; one pass over ``items``."""
    counts = Counter(items)
    return sorted(item for item, count in counts.items() if count > 1)


def check_count(name: str, value) -> None:
    """Raise InvalidOptions unless ``value`` is an integer; a bool is not a count."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidOptions(f"{name} must be an integer, got {value!r}")


def _first_offender(mask: np.ndarray) -> tuple[int, int]:
    """Row-major coordinates of the first True cell in a 2-D mask."""
    flat = int(np.flatnonzero(mask.ravel())[0])
    return flat // mask.shape[1], flat % mask.shape[1]


def validate_table(
    raw_values,
    parts: Sequence[Part],
    entities: Sequence[Entity],
) -> IndicatorTable:
    """Validate raw values against the positivity contract and build a table.

    Parameters
    ----------
    raw_values : array_like, shape (n, D)
        Indicator values, one row per entity.
    parts, entities : sequences
        Column and row metadata; lengths must match the matrix.

    Returns the table with its rows in id order (Python string order).
    Every check runs first, so error coordinates are in input order.

    Raises
    ------
    DimensionMismatch, DuplicateEntityId, DuplicatePartName,
    NonFiniteValue, NonPositiveValue
        First offending cell reported in row-major order.
    """
    values = np.asarray(raw_values, dtype=float)
    if values.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got ndim={values.ndim}")
    n, D = values.shape
    if len(entities) != n:
        raise DimensionMismatch(f"{len(entities)} entities for {n} rows")
    if len(parts) != D:
        raise DimensionMismatch(f"{len(parts)} parts for {D} columns")
    if D < 2:
        raise DimensionMismatch(f"need at least 2 parts, got {D}")

    dup = duplicated([p.name for p in parts])
    if dup:
        raise DuplicatePartName(",".join(dup))
    dup = duplicated([e.id for e in entities])
    if dup:
        raise DuplicateEntityId(",".join(dup))

    parts = tuple(replace(p, index=i) for i, p in enumerate(parts))

    bad = ~np.isfinite(values)
    if bad.any():
        r, c = _first_offender(bad)
        raise NonFiniteValue(r, c, float(values[r, c]))
    bad = values <= 0.0
    if bad.any():
        r, c = _first_offender(bad)
        raise NonPositiveValue(r, c, float(values[r, c]))

    order = sorted(range(n), key=lambda r: entities[r].id)
    values = values[order]  # a copy: the caller's array stays its own
    values.setflags(write=False)
    entities = tuple(entities[r] for r in order)
    return IndicatorTable(parts=parts, entities=entities, values=values)


def geometric_mean(row) -> float:
    """Geometric mean of strictly positive values, computed in log space.

    ``exp(mean(log(x)))`` never overflows or underflows for representable
    inputs, unlike the naive product.
    """
    row = np.asarray(row, dtype=float)
    return float(np.exp(np.mean(np.log(row))))


def pairwise_log_ratio(row, i: int, j: int) -> float:
    """ln(x_i / x_j), computed as ln(x_i) - ln(x_j).

    The subtraction form makes the antisymmetry
    ``pairwise_log_ratio(x, i, j) == -pairwise_log_ratio(x, j, i)``
    hold exactly in IEEE arithmetic.
    """
    row = np.asarray(row, dtype=float)
    if i == j:
        raise SamePart(f"i == j == {i}")
    D = row.shape[0]
    if not (0 <= i < D and 0 <= j < D):
        raise IndexOutOfRange(f"i={i},j={j},D={D}")
    return float(np.log(row[i]) - np.log(row[j]))


def clr(row) -> np.ndarray:
    """Centred log-ratio of one composition.

    Coordinate j is ``ln(x_j) - mean_k ln(x_k)``, i.e. the log of the part
    over the row's geometric mean. Coordinates sum to zero and are invariant
    to scaling the whole row by a positive constant.
    """
    logs = np.log(np.asarray(row, dtype=float))
    return logs - logs.mean()


def clr_matrix(table: IndicatorTable) -> ClrMatrix:
    """Row-wise CLR of the whole table."""
    logs = np.log(table.values)
    vals = logs - logs.mean(axis=1, keepdims=True)
    vals.setflags(write=False)
    return ClrMatrix(values=vals, parts=table.parts, entity_ids=table.entity_ids)


def named_ratio(table: IndicatorTable, definition: RatioDefinition) -> np.ndarray:
    """Raw ratio values numerator/denominator, one per entity.

    Units are those implied by the two parts' canonical units (e.g. MWh per
    MM EUR for an energy intensity). A quotient beyond float64 is inf, with
    no warning; callers that need finite ratios check for it.
    """
    i, j = definition.resolve(table)
    with np.errstate(over="ignore"):
        return table.values[:, i] / table.values[:, j]


def log_ratio_series(table: IndicatorTable, definition: RatioDefinition) -> np.ndarray:
    """Pairwise log-ratio of a named ratio, one value per entity.

    Equals ``pairwise_log_ratio(row, num, den)`` for every row; swapping
    numerator and denominator negates every value.
    """
    i, j = definition.resolve(table)
    return np.log(table.values[:, i]) - np.log(table.values[:, j])


def replace_zeros(raw_values, strategy: str = "reject", delta: float = 0.65) -> np.ndarray:
    """Handle zero cells ahead of validation.

    strategy="reject" (default) raises NonPositiveValue on the first zero.
    strategy="multiplicative" replaces each zero in row r with
    ``delta * min_positive(row r)`` and rescales the nonzero cells of that row
    by ``1 - z_r * delta * min_positive / row_sum`` (z_r = zero count), which
    preserves the row sum. Negative cells are rejected under either strategy.

    Raises DegenerateRow for an all-zero row, when a row has too many
    zeros for the chosen delta to leave the rescaled cells positive, or when
    the replacement or a rescaled cell underflows to zero.
    """
    values = np.array(raw_values, dtype=float, copy=True)
    if values.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got ndim={values.ndim}")
    neg = values < 0.0
    if neg.any():
        r, c = _first_offender(neg)
        raise NegativeValue(r, c, float(values[r, c]))

    if strategy == "reject":
        zero = values == 0.0
        if zero.any():
            r, c = _first_offender(zero)
            raise NonPositiveValue(r, c, 0.0)
        return values
    if strategy != "multiplicative":
        raise InvalidOptions(f"unknown zero strategy {strategy!r}")
    if not 0.0 < delta <= 1.0:
        raise InvalidOptions(f"delta must be in (0, 1], got {delta}")

    for r in np.flatnonzero((values == 0.0).any(axis=1)).tolist():
        row = values[r]
        zeros = row == 0.0
        z = int(zeros.sum())
        positive = row[~zeros]
        if positive.size == 0:
            raise DegenerateRow(r)
        repl = delta * float(positive.min())
        row_sum = float(row.sum())
        factor = 1.0 - z * repl / row_sum
        if factor <= 0.0:
            raise DegenerateRow(r, reason=f"too many zeros for delta={delta}")
        rescaled = positive * factor
        if repl == 0.0 or not rescaled.all():
            raise DegenerateRow(r, reason="replacement underflows to zero")
        values[r, ~zeros] = rescaled
        values[r, zeros] = repl
    return values


def aitchison_distance(row_a, row_b) -> float:
    """Euclidean distance between the CLR images of two compositions.

    The natural metric on compositions: zero between rows that differ only by
    a positive scale factor. Reduced as the distance matrix reduces it, so
    it equals ``distance_matrix``'s entry for the two rows bit for bit.
    """
    a = np.asarray(row_a, dtype=float)
    b = np.asarray(row_b, dtype=float)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shapes {a.shape} vs {b.shape}")
    diff = clr(a) - clr(b)
    return float(np.sqrt(np.sum(diff * diff)))
