"""CSV ingestion, unit harmonization and report writing.

Input tables arrive as CSV with a fixed header prefix (id, label,
sector_code) followed by one column per part. Cells are parsed per locale
(point-decimal, or EU style with dot as thousands separator and comma as
decimal), converted to canonical units by the factors of the config's unit
table, run through the configured zero strategy and finally validated into
an IndicatorTable.

Point-decimal text in which csv quoting cannot matter (ASCII, no double
quote, carriage return, NUL or blank line, every row as wide as the
header) is converted in one ``np.loadtxt`` pass over the numeric block.
Other text (quoted cells, non-ASCII text, the EU locale) is split into
cells by the csv module and parsed row by row, cell by cell, which gives
every ParseError its line, column and token and raises the first one in
row order. Both parses live in ``_cells``.

All numeric output uses point decimals with 17 significant digits, which
round-trips IEEE doubles exactly. The report builders (serialize_table,
clr_csv and those of the other stages) check their input when called and
return a :class:`~coda_atlas._fmt.LazyText`, whose numbers are formatted
when it is read. Every report file is written by one writer,
:func:`write_outputs`, all or none. It reads each report once, as UTF-8
bytes a fill block (or a str slice) at a time, and with a manifest
(``pipeline``, :func:`write_reports`) hashes the same bytes, so reruns
can be compared byte for byte and no report is ever whole in memory.
"""

from __future__ import annotations

import contextlib
import errno
import json
import os
import re
from dataclasses import asdict, dataclass, field
from typing import Mapping

import numpy as np

from . import _cells
from ._fmt import LazyText, csv_fields, csv_line, dumps_json, fmt_rows
from .composition import (
    ClrMatrix,
    Entity,
    IndicatorTable,
    Part,
    RatioDefinition,
    default_ratio_catalog,
    duplicated,
    replace_zeros,
    validate_table,
)
from .errors import (
    InvalidOptions,
    IoFailure,
    ParseError,
    UnknownPart,
    UnknownUnit,
)

LOCALES = ("point_decimal", "eu")

#: ratio names become file names (rankings_<name>.csv), so no path separators
_RATIO_NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: canonical unit → role used when a part is absent from the schema
_ROLE_FOR_UNIT = {
    "EUR_MM": "financial",
    "MWh": "environmental",
    "m3": "environmental",
    "t": "environmental",
    "headcount": "social",
}

#: part name → (canonical unit, role); the built-in eight-part layout
DEFAULT_PART_SCHEMA: dict[str, tuple[str, str]] = {
    "net_revenue": ("EUR_MM", "financial"),
    "total_assets": ("EUR_MM", "financial"),
    "total_liabilities": ("EUR_MM", "financial"),
    "energy_consumption": ("MWh", "environmental"),
    "water_consumption": ("m3", "environmental"),
    "waste_generation": ("t", "environmental"),
    "male_employees": ("headcount", "social"),
    "female_employees": ("headcount", "social"),
}


#: units that are their own canonical unit
_CANONICAL_UNITS = ("EUR_MM", "MWh", "m3", "t", "headcount", "unitless")

#: unit → (canonical unit, multiplicative factor into it)
_CONVERSIONS = {
    "EUR": ("EUR_MM", 1e-6),
    "GWh": ("MWh", 1e3),
    "kWh": ("MWh", 1e-3),
    "L": ("m3", 1e-3),
    "kg": ("t", 1e-3),
    "kt": ("t", 1e3),
}


def _unit_table(extra_canonical_units, extra_conversions) -> dict[str, tuple[str, float]]:
    """Every known unit → (canonical unit, factor); each unit is defined once."""
    canonical = {*_CANONICAL_UNITS, *extra_canonical_units}
    if "" in canonical:
        raise InvalidOptions("canonical unit name must be non-empty")
    for target, factor in extra_conversions.values():
        if target not in canonical:
            raise UnknownUnit(f"target unit {target!r} is not canonical")
        if not (factor > 0.0 and np.isfinite(factor)):
            raise InvalidOptions(f"conversion factor must be positive, got {factor}")
    dup = duplicated([*_CANONICAL_UNITS, *_CONVERSIONS, *extra_canonical_units, *extra_conversions])
    if dup:
        raise InvalidOptions(f"unit {dup[0]!r} is defined twice")
    if "" in extra_conversions:
        raise InvalidOptions("converted unit name must be non-empty")
    extras = {unit: (target, float(f)) for unit, (target, f) in extra_conversions.items()}
    return {unit: (unit, 1.0) for unit in canonical} | _CONVERSIONS | extras


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_list_of(x, is_valid) -> bool:
    return isinstance(x, list) and all(is_valid(v) for v in x)


def _is_object_of(x, is_valid) -> bool:
    return isinstance(x, dict) and all(is_valid(v) for v in x.values())


def _is_str(x) -> bool:
    return isinstance(x, str)


def _is_ratio(x) -> bool:
    required = {"name", "numerator", "denominator"}
    return _is_object_of(x, _is_str) and required <= set(x) <= required | {"description"}


def _is_conversion(x) -> bool:
    return isinstance(x, list) and len(x) == 2 and _is_str(x[0]) and _is_number(x[1])


#: config document key -> (check of its JSON value, the expected shape in words)
_CONFIG_SHAPES = {
    "locale": (_is_str, "a string"),
    "unit_map": (lambda x: _is_object_of(x, _is_str), "an object of unit names"),
    "zero_strategy": (
        lambda x: _is_str(x) or _is_object_of(x, _is_number),
        '"reject" or {"multiplicative": delta}',
    ),
    "ratio_catalog": (
        lambda x: _is_list_of(x, _is_ratio),
        "a list of objects with string name, numerator, denominator"
        " and optional description",
    ),
    "extra_canonical_units": (lambda x: _is_list_of(x, _is_str), "a list of strings"),
    "extra_conversions": (
        lambda x: _is_object_of(x, _is_conversion),
        "an object of [canonical unit, factor] pairs",
    ),
}


@dataclass(frozen=True)
class IngestConfig:
    """Parsing options: locale, declared units, zero strategy, ratio catalog.

    zero_strategy is either the string "reject" or a mapping
    {"multiplicative": delta} with delta in (0, 1]. extra_canonical_units and
    extra_conversions extend the built-in units; extra_conversions maps a
    unit name to (canonical unit, factor). Ratio names are unique and use
    only ``[A-Za-z0-9_.-]``, because they name output files.

    The known units are one table, built when the config is created: each
    unit is defined once, so a built-in unit named again among the extras,
    or an extra named twice, is InvalidOptions, as is an extra with an
    empty name. unit_map maps column names to declared units, and every
    key must name a column of the parsed table (UnknownPart otherwise).
    """

    locale: str = "point_decimal"
    unit_map: dict[str, str] = field(default_factory=dict)
    zero_strategy: str | dict = "reject"
    ratio_catalog: tuple[RatioDefinition, ...] = field(
        default_factory=default_ratio_catalog
    )
    extra_canonical_units: tuple[str, ...] = ()
    extra_conversions: dict[str, tuple[str, float]] = field(default_factory=dict)
    _units: dict[str, tuple[str, float]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.locale not in LOCALES:
            raise InvalidOptions(f"locale {self.locale!r} not in {LOCALES}")
        names = [r.name for r in self.ratio_catalog]
        for name in names:
            if not (isinstance(name, str) and _RATIO_NAME.fullmatch(name)):
                raise InvalidOptions(f"ratio name {name!r} is not [A-Za-z0-9_.-]+")
        dup = duplicated(names)
        if dup:
            raise InvalidOptions(f"duplicate ratio names: {dup}")
        self._zero_mode()  # validates
        units = _unit_table(self.extra_canonical_units, self.extra_conversions)
        object.__setattr__(self, "_units", units)
        for column, unit in self.unit_map.items():
            try:
                self.resolve_unit(unit)
            except UnknownUnit as exc:
                raise UnknownUnit(f"column {column!r}: {exc.detail()}") from exc

    def _zero_mode(self) -> tuple[str, float]:
        strategy = self.zero_strategy
        if strategy == "reject":
            return "reject", 0.0
        if isinstance(strategy, Mapping) and set(strategy) == {"multiplicative"}:
            delta = float(strategy["multiplicative"])
            if not 0.0 < delta <= 1.0:
                raise InvalidOptions(f"delta must be in (0, 1], got {delta}")
            return "multiplicative", delta
        raise InvalidOptions(f"unrecognized zero strategy {strategy!r}")

    def resolve_unit(self, unit: str) -> tuple[str, float]:
        """Map a declared unit to (canonical unit, multiplicative factor)."""
        try:
            return self._units[unit]
        except KeyError:
            raise UnknownUnit(f"unit {unit!r} is not registered") from None

    def to_json(self) -> str:
        doc = {
            "locale": self.locale,
            "unit_map": dict(self.unit_map),
            "zero_strategy": self.zero_strategy,
            "ratio_catalog": [asdict(r) for r in self.ratio_catalog],
            "extra_canonical_units": list(self.extra_canonical_units),
            "extra_conversions": {
                unit: [canonical, factor]
                for unit, (canonical, factor) in self.extra_conversions.items()
            },
        }
        return str(dumps_json(doc))

    @classmethod
    def from_json(cls, text: str | bytes) -> "IngestConfig":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(
                line=exc.lineno, column=exc.colno, token="", reason=exc.msg
            ) from exc
        except UnicodeDecodeError as exc:  # of the encoding json.loads detected
            reason = f"not {exc.encoding}: {exc.reason}"
            raise ParseError(line=1, column=1, token="", reason=reason) from exc
        if not isinstance(doc, dict):
            raise InvalidOptions("config document must be a JSON object")
        unknown = set(doc) - set(_CONFIG_SHAPES)
        if unknown:
            raise InvalidOptions(f"unrecognized config keys: {sorted(unknown)}")
        for key, value in doc.items():
            is_valid, shape = _CONFIG_SHAPES[key]
            if not is_valid(value):
                raise InvalidOptions(f"config {key!r} must be {shape}")
        kwargs = dict(doc)
        if "ratio_catalog" in doc:
            kwargs["ratio_catalog"] = tuple(RatioDefinition(**r) for r in doc["ratio_catalog"])
        if "extra_canonical_units" in doc:
            kwargs["extra_canonical_units"] = tuple(doc["extra_canonical_units"])
        if "extra_conversions" in doc:
            kwargs["extra_conversions"] = {
                unit: (canonical, float(factor))
                for unit, (canonical, factor) in doc["extra_conversions"].items()
            }
        return cls(**kwargs)


def parse_table(data: bytes | str, config: IngestConfig | None = None) -> IndicatorTable:
    """Parse a CSV indicator table into a validated IndicatorTable.

    The header must read id,label,sector_code followed by at least two part
    columns; the table's rows are in id order. Cell failures raise ParseError
    with 1-based line and column; value-contract failures raise the
    validation errors with 0-based row/column indices in input order.
    """
    if config is None:
        config = IngestConfig()
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(
                line=1, column=1, token="", reason=f"not UTF-8: {exc.reason}"
            ) from exc

    block = _cells.read_block(data, config.locale)
    if block is None:
        cells, widths = _cells.read_cells(data)
        header = [cell.strip() for cell in cells[:widths[0]]]
    else:
        header, parsed = block
    for position, expected in enumerate(("id", "label", "sector_code")):
        got = header[position] if position < len(header) else ""
        if got != expected:
            raise ParseError(
                line=1, column=position + 1, token=got,
                reason=f"expected header column {expected!r}",
            )
    part_names = header[3:]

    missing = sorted(set(config.unit_map) - set(part_names))
    if missing:
        raise UnknownPart(f"unit_map column {missing[0]!r} is not in the table")
    parts = []
    factors = []
    for index, name in enumerate(part_names):
        if not name:
            raise ParseError(line=1, column=index + 4, token="", reason="empty part name")
        schema_unit, schema_role = DEFAULT_PART_SCHEMA.get(name, ("unitless", None))
        canonical, factor = config.resolve_unit(config.unit_map.get(name, schema_unit))
        role = schema_role or _ROLE_FOR_UNIT.get(canonical, "financial")
        parts.append(Part(index=index, name=name, unit=canonical, role=role))
        factors.append(factor)

    if block is None:
        parsed = _cells.parse_rows(cells, widths, config.locale)
        del cells  # before the entities are built: see _cells.read_cells
    ids, labels, sectors, values = parsed
    entities = list(map(Entity, ids, labels, sectors))

    with np.errstate(over="ignore"):  # an overflow is validate_table's NonFiniteValue
        raw = np.asarray(values, dtype=float) * np.asarray(factors, dtype=float)
    mode, delta = config._zero_mode()
    raw = replace_zeros(raw, strategy=mode, delta=delta)
    return validate_table(raw, parts, entities)


def serialize_table(table: IndicatorTable) -> LazyText:
    """Render a table as CSV in canonical units and point-decimal notation.

    Values use 17 significant digits, so parse(serialize(t)) reproduces t
    exactly (pass table_config(t) when t uses non-default part names).
    """
    header = csv_line(["id", "label", "sector_code", *table.part_names])
    ids = csv_fields([e.id for e in table.entities])
    labels = csv_fields([e.label for e in table.entities])
    sectors = csv_fields([e.sector_code for e in table.entities])
    prefixes = [f"{i},{label},{sector}" for i, label, sector in zip(ids, labels, sectors)]
    return header + fmt_rows(prefixes, table.values)


def table_config(table: IndicatorTable) -> IngestConfig:
    """A config under which serialize_table(table) parses back exactly.

    Declares each part's unit, and as canonical each unit that is not a
    built-in one.
    """
    extra = sorted({p.unit for p in table.parts} - set(_CANONICAL_UNITS))
    return IngestConfig(
        unit_map={p.name: p.unit for p in table.parts},
        extra_canonical_units=tuple(extra),
    )


def clr_csv(clr: ClrMatrix) -> LazyText:
    """CSV rendering of a CLR matrix: id column plus one column per part."""
    header = csv_line(["id", *clr.part_names])
    return header + fmt_rows(csv_fields(clr.entity_ids), clr.values)


#: characters of a str output encoded at a time: it is written, hashed and
#: counted one encoded slice at a time, so no whole encoded copy of it exists
_SLICE = 1 << 20


def write_outputs(
    outputs: Mapping[str, str | bytes | LazyText], directory: str, manifest: bool = False
) -> list[str]:
    """Write each output to ``directory/name``, all or none; return the paths.

    Every output goes to a temporary file in the directory first, one at a
    time: a LazyText a fill block at a time as it is formatted, a str
    encoded in slices of ``_SLICE`` characters. Each is created
    exclusively as the first free name of ``.name.tmp``, ``.name.1.tmp``...,
    so two writers never share one and a crashed run's is passed over. Only
    when all are written, and no name is taken by a directory (which a
    rename cannot replace), are they renamed over their names, in order. With
    ``manifest`` the outputs go in name order, followed by ``manifest.json``,
    which lists each one's name, sha256 and size in bytes, hashed from the
    bytes as they are written; the name ``manifest.json`` among the outputs
    is then InvalidOptions, before anything is written.

    Any failure leaves the previous files as they were and no temporary
    file behind; a failed write or a name taken by a directory raises
    IoFailure, and any other error is raised as it is. The renames are not
    one atomic step: a crash between two of them leaves the files renamed
    so far new, the rest old and their temporary files in place. No outputs
    and no manifest create nothing, not even the directory.
    """
    return _write(outputs, directory, manifest)[0]


def write_reports(outputs: Mapping[str, str | bytes | LazyText], directory: str) -> dict:
    """Write report files in name order plus a manifest.json, all or none.

    Returns the manifest document. Writing the same outputs twice yields
    byte-identical files and manifest.
    """
    return _write(outputs, directory, manifest=True)[1]


def _write(
    outputs: Mapping[str, str | bytes | LazyText], directory: str, manifest: bool
) -> tuple[list[str], dict | None]:
    """write_outputs: the paths written and the manifest document, if any."""
    if manifest:
        if "manifest.json" in outputs:
            raise InvalidOptions("output name 'manifest.json' is taken by the manifest")
        import hashlib  # loads OpenSSL, milliseconds that only callers who hash pay
    staged: list[tuple[str, str]] = []

    def stage(name: str, content: str | bytes | LazyText, digest=None) -> int:
        """Write content to a new temporary file; return its size in bytes."""
        for k in range(1 << 31):
            temp = os.path.join(directory, f".{name}.{k}.tmp" if k else f".{name}.tmp")
            with contextlib.suppress(FileExistsError):
                handle = open(temp, "xb")
                break
        staged.append((temp, os.path.join(directory, name)))
        size = 0
        with handle:
            for piece in _encoded(content):
                handle.write(piece)
                if digest is not None:
                    digest.update(piece)
                size += len(piece)
        return size

    doc = None
    try:
        if outputs or manifest:
            os.makedirs(directory, exist_ok=True)
        if manifest:
            files = []
            for name in sorted(outputs):
                digest = hashlib.sha256()
                size = stage(name, outputs[name], digest)
                files.append({"name": name, "sha256": digest.hexdigest(), "bytes": size})
            doc = {"files": files}
            stage("manifest.json", dumps_json(doc))
        else:
            for name, content in outputs.items():
                stage(name, content)
        for _, path in staged:
            if os.path.isdir(path) and not os.path.islink(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        for temp, path in staged:
            os.replace(temp, path)
    except BaseException as exc:
        for temp, _ in staged:
            with contextlib.suppress(OSError):
                os.remove(temp)
        if isinstance(exc, OSError):
            raise IoFailure(f"cannot write reports to {directory!r}: {exc}") from exc
        raise
    return [path for _, path in staged], doc


def _encoded(content: str | bytes | LazyText):
    """content as UTF-8 bytes: a LazyText a piece or fill block at a time, a
    str in slices of _SLICE characters, bytes whole."""
    if isinstance(content, LazyText):
        yield from content
    elif isinstance(content, str):
        for start in range(0, len(content), _SLICE):
            yield content[start:start + _SLICE].encode("utf-8")
    else:
        yield content
