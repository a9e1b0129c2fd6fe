"""Seeded synthetic indicator tables of any size, as CSV text.

The columns are the eight default parts, so every ratio of the default
catalog resolves, followed by ``D - 8`` extra columns (``u01``, ``u02``,
...), which parse as unitless. Each column is a log-normal draw around a
typical magnitude, rounded to 4 significant digits like the bundled 17x8
fixture. Entity ids are unique and the same seed always gives the same
bytes.
"""

from __future__ import annotations

import numpy as np

#: default part -> (typical magnitude, log-normal shape); the fixture's scales
DEFAULT_PARTS = {
    "net_revenue": (500.0, 0.9),
    "total_assets": (350.0, 0.9),
    "total_liabilities": (200.0, 0.9),
    "energy_consumption": (1.0e5, 1.0),
    "water_consumption": (1.0e6, 1.1),
    "waste_generation": (1.5e4, 1.0),
    "male_employees": (800.0, 0.8),
    "female_employees": (600.0, 0.8),
}

#: share of rows in sector 101X, as in the fixture's 11/6 split
_SECTOR_A_SHARE = 11 / 17


def _cell(v: float) -> str:
    # Every draw stays inside [1e-4, 1e16), where repr is positional.
    return repr(float(f"{v:.4g}"))


def table_csv(n: int, D: int, seed: int) -> str:
    """CSV of an n x D table: header id,label,sector_code then D part columns."""
    if n < 3 or D < len(DEFAULT_PARTS):
        raise ValueError(f"need n >= 3 and D >= {len(DEFAULT_PARTS)}, got {n}x{D}")
    rng = np.random.default_rng(seed)
    scales = list(DEFAULT_PARTS.values())
    extra = D - len(DEFAULT_PARTS)
    scales += list(zip(10.0 ** rng.uniform(1.0, 4.0, extra), rng.uniform(0.8, 1.1, extra)))
    names = list(DEFAULT_PARTS) + [f"u{k:02d}" for k in range(1, extra + 1)]

    typical = np.log(np.array([t for t, _ in scales]))
    sigma = np.array([s for _, s in scales])
    values = np.exp(typical + sigma * rng.standard_normal((n, D))).tolist()

    n_a = round(n * _SECTOR_A_SHARE)
    width = len(str(n))
    lines = ["id,label,sector_code," + ",".join(names)]
    for r, row in enumerate(values, start=1):
        sector = "101X" if r <= n_a else "102X"
        eid = f"e{r:0{width}d}"
        lines.append(f"{eid},Synthetic entity {eid},{sector}," + ",".join(map(_cell, row)))
    return "\n".join(lines) + "\n"
