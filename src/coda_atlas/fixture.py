"""Bundled synthetic indicator fixture: 17 entities, 8 parts, 2 sectors.

No real company-group data ships with this package, so examples, the CLI
demo and the end-to-end tests run on a seeded synthetic table whose shape
(17 rows, the default 8-part layout, an 11/6 sector split) and magnitudes
echo published sector aggregates. It is synthetic everywhere it appears:
ids are g01..g17 and labels say so.

The generator is a seeded log-normal draw per part; pass a seed for
another population, the default seed gives the bundled fixture.
"""

from __future__ import annotations

import sys

import numpy as np

from .composition import Entity, IndicatorTable, Part, validate_table
from .ingest import DEFAULT_PART_SCHEMA, serialize_table

DEFAULT_SEED = 101102

_N_ENTITIES = 17
_N_SECTOR_A = 11

#: per-part log-normal location (log of a typical magnitude) and shape
_PART_SCALES = {
    "net_revenue": (500.0, 0.9),
    "total_assets": (350.0, 0.9),
    "total_liabilities": (200.0, 0.9),
    "energy_consumption": (1.0e5, 1.0),
    "water_consumption": (1.0e6, 1.1),
    "waste_generation": (1.5e4, 1.0),
    "male_employees": (800.0, 0.8),
    "female_employees": (600.0, 0.8),
}


def synthetic_table(seed: int | None = None) -> IndicatorTable:
    """Generate the synthetic 17x8 indicator table.

    Values are log-normal draws around per-part typical magnitudes, rounded
    to 4 significant digits to resemble reported figures. The first 11
    entities carry sector code 101X, the remaining 6 carry 102X.
    """
    rng = np.random.default_rng(DEFAULT_SEED if seed is None else seed)

    parts = [
        Part(index=i, name=name, unit=unit, role=role)
        for i, (name, (unit, role)) in enumerate(DEFAULT_PART_SCHEMA.items())
    ]
    entities = [
        Entity(
            id=f"g{k:02d}",
            label=f"Synthetic group {k:02d}",
            sector_code="101X" if k <= _N_SECTOR_A else "102X",
        )
        for k in range(1, _N_ENTITIES + 1)
    ]

    columns = []
    for part in parts:
        typical, sigma = _PART_SCALES[part.name]
        draws = np.exp(np.log(typical) + sigma * rng.standard_normal(_N_ENTITIES))
        columns.append([float(f"{v:.4g}") for v in draws])
    values = np.array(columns, dtype=float).T
    return validate_table(values, parts, entities)


def synthetic_csv(seed: int | None = None) -> str:
    """The synthetic table rendered as canonical CSV."""
    return str(serialize_table(synthetic_table(seed)))


def write_synthetic_csv(path: str, seed: int | None = None) -> None:
    """Write the synthetic table to a CSV file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(synthetic_csv(seed))


def main(argv: list[str] | None = None) -> int:
    """Print the synthetic fixture CSV to stdout (or write to a given path)."""
    args = sys.argv[1:] if argv is None else argv
    if len(args) > 1:
        print("usage: python -m coda_atlas.fixture [output.csv]", file=sys.stderr)
        return 2
    if args:
        write_synthetic_csv(args[0])
    else:
        sys.stdout.write(synthetic_csv())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
