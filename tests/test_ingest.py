"""CSV ingestion: locales, units, config round-trips, report writing."""

import csv
import hashlib
import io
import json
import os
import sys
import tempfile
import threading
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coda_atlas
from coda_atlas import (
    IngestConfig,
    RatioDefinition,
    clr_matrix,
    default_ratio_catalog,
    fit_biplot,
    make_link,
    parse_table,
    rank_along_link,
    serialize_table,
    synthetic_table,
    table_config,
    write_reports,
)
from coda_atlas import _cells, composition, ingest
from coda_atlas.cli import main
from coda_atlas.ingest import clr_csv, write_outputs
from coda_atlas.errors import (
    CodaError,
    DegenerateVariance,
    DuplicateEntityId,
    EmptyInput,
    InvalidOptions,
    IoFailure,
    NonPositiveValue,
    ParseError,
    UnknownPart,
    UnknownUnit,
)

from conftest import fail_nth_open, make_table
from oracles import per_cell_parse_table

HEADER = "id,label,sector_code,net_revenue,energy_consumption"


def csv_doc(*rows: str, header: str = HEADER) -> str:
    return "\n".join([header, *rows]) + "\n"


class TestNumberLocales:
    def test_point_decimal_reads_dot_fraction(self):
        table = parse_table(csv_doc("e1,One,1011,1.035,2.5"))
        assert table.values[0, 0] == 1.035

    def test_point_decimal_rejects_comma(self):
        with pytest.raises(ParseError) as err:
            parse_table(csv_doc("e1,One,1011,\"1,035\",2.5"))
        assert err.value.line == 2
        assert err.value.column == 4
        assert "comma" in err.value.reason

    def test_eu_dot_is_thousands_separator(self):
        config = IngestConfig(locale="eu")
        table = parse_table(csv_doc("e1,One,1011,1.035,2"), config)
        assert table.values[0, 0] == 1035.0

    def test_eu_comma_is_decimal_mark(self):
        config = IngestConfig(locale="eu")
        table = parse_table(csv_doc('e1,One,1011,"1.035,5","12,5"'), config)
        assert table.values[0, 0] == 1035.5
        assert table.values[0, 1] == 12.5

    @pytest.mark.parametrize("token", ["1.5", "1.50", "12.3456", ".5", "1.", "1,2,3", "1.000.5"])
    def test_eu_dot_must_group_thousands(self, token):
        config = IngestConfig(locale="eu")
        with pytest.raises(ParseError) as err:
            parse_table(csv_doc(f'e1,One,1011,2,"{token}"'), config)
        assert (err.value.line, err.value.column, err.value.token) == (2, 5, token)

    @pytest.mark.parametrize(
        "token", ["1_000", "inf", "-Infinity", "nan", "NaN", "\u0661\u0662", "1e", "e5"]
    )
    def test_point_decimal_rejects_what_float_alone_accepts(self, token):
        with pytest.raises(ParseError) as err:
            parse_table(csv_doc(f"e1,One,1011,2,{token}"))
        assert (err.value.line, err.value.column, err.value.token) == (2, 5, token)

    @pytest.mark.parametrize(
        "locale, token, expected",
        [
            ("point_decimal", "+2", 2.0),
            ("point_decimal", ".5", 0.5),
            ("point_decimal", "5.", 5.0),
            ("point_decimal", "1e-05", 1e-05),
            ("point_decimal", "1.0000000000000001e+20", 1.0000000000000001e20),
            ("eu", "1.000.000", 1e6),
            ("eu", ",5", 0.5),
            ("eu", "1.234,5e3", 1234.5e3),
        ],
    )
    def test_strict_grammars_keep_plain_forms(self, locale, token, expected):
        table = parse_table(csv_doc(f'e1,One,1011,2,"{token}"'), IngestConfig(locale=locale))
        assert table.values[0, 1] == expected


#: cells float() reads one way or another, which each locale's grammar
#: accepts or rejects; with blank and whitespace-only cells, a newline,
#: whitespace that str.strip() removes, a comment sign, overflow and
#: underflow, and the plain forms float() shares with numpy's text reader
SPECIAL_CELLS = [
    "1_000", "inf", "nan", "\u0663", " 1.5 ", "0x1", "1,5", "1.000,5", "", "  ", "1\n2",
    "\x1c1.5", "\x0b1.5", "\xa01.5", "#1", "1e999", "1e-400", "+1.5", "1.", "Infinity",
]

_POSITIVE = st.floats(1e-300, 1e300)


def _eu_text(v: float) -> str:
    return f"{v:,.3f}".translate(str.maketrans(",.", ".,"))


#: well-formed cells per locale: shortest repr, exponent and fixed forms
VALID_CELLS = {
    "point_decimal": st.one_of(
        _POSITIVE.map(repr), _POSITIVE.map("{:.6e}".format), st.integers(1, 10**9).map(str)
    ),
    "eu": st.one_of(
        st.floats(1e-3, 1e12).map(_eu_text),
        _POSITIVE.map(lambda v: f"{v:.4e}".replace(".", ",")),
        st.integers(1, 10**9).map(str),
    ),
}


#: how a table's text departs from one plain line per row
TABLE_SHAPES = (
    "plain", "no final newline", "blank line", "CRLF", "NUL", "ragged row",
    "# in an id", "padded id", "blank id", "quoted id",
)


@st.composite
def mixed_tables(draw, locale):
    """CSV text of a 1..6 x 2..4 table of valid cells with up to two special
    ones, in one of the TABLE_SHAPES."""
    n, D = draw(st.integers(1, 6)), draw(st.integers(2, 4))
    cells = [[draw(VALID_CELLS[locale]) for _ in range(D)] for _ in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        row, col = draw(st.integers(0, n - 1)), draw(st.integers(0, D - 1))
        cells[row][col] = draw(st.sampled_from(SPECIAL_CELLS))
    shape = draw(st.sampled_from(TABLE_SHAPES))
    rows = [[f"e{r}", f"Entity {r}", "101X", *row] for r, row in enumerate(cells)]
    r = draw(st.integers(0, n - 1))
    if shape == "# in an id":
        rows[r][0] = f"#e{r}"
    elif shape == "padded id":
        rows[r][0] = f"  e{r} "
    elif shape == "blank id":
        rows[r][0] = " "
    elif shape == "ragged row":
        rows[r] = rows[r][:-1] if draw(st.booleans()) else [*rows[r], "1"]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\r\n" if shape == "CRLF" else "\n")
    writer.writerow(["id", "label", "sector_code", *(f"p{d}" for d in range(D))])
    writer.writerows(rows)
    text = out.getvalue()
    if shape == "no final newline":
        text = text[:-1]
    elif shape == "blank line":  # anywhere after the header, the end included
        lines = text.split("\n")
        lines.insert(draw(st.integers(1, len(lines) - 1)), "")
        text = "\n".join(lines)
    elif shape == "NUL":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + "\0" + text[at:]
    elif shape == "quoted id":
        text = text.replace(f"\ne{r},", f'\n"e{r}",')
    return text


def parse_outcome(parse, text: str, config: IngestConfig):
    """The table's values (as bytes), entities and parts, or the error record."""
    try:
        table = parse(text, config)
    except CodaError as exc:
        return exc.record()
    return table.values.tobytes(), table.entities, table.parts


class TestColumnParse:
    @pytest.mark.parametrize("locale", ingest.LOCALES)
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_per_cell_parse(self, locale, data):
        text = data.draw(mixed_tables(locale))
        config = IngestConfig(locale=locale)
        expected = parse_outcome(per_cell_parse_table, text, config)
        assert parse_outcome(parse_table, text, config) == expected

    @pytest.mark.parametrize("column", [0, 3])
    def test_a_field_over_the_csv_limit_is_the_csv_error(self, column):
        row = ["e1", "One", "1011", "2", "3"]
        row[column] = "1" + "0" * csv.field_size_limit()
        text = csv_doc(",".join(row), "e2,Two,1011,4,5")
        expected = parse_outcome(per_cell_parse_table, text, IngestConfig())
        assert expected.startswith("ParseError:") and "field limit" in expected
        assert parse_outcome(parse_table, text, IngestConfig()) == expected

    @pytest.mark.parametrize(
        "locale, cell, value",
        [
            ("point_decimal", "1.5e3", 1.5e3),
            ("point_decimal", '"1.5e3"', 1.5e3),
            ("eu", '"1.234,5"', 1234.5),
        ],
    )
    def test_well_formed_table_never_parses_row_by_row(self, monkeypatch, locale, cell, value):
        def refuse(*args):
            raise AssertionError("parsed row by row")

        # quoted cells and the EU locale are parsed row by row: only the
        # block reader's table must not reach parse_rows
        if '"' not in cell:
            monkeypatch.setattr(_cells, "parse_rows", refuse)
        text = csv_doc(*(f"e{r},Entity {r},101X,{cell},{r + 1}" for r in range(50)))
        table = parse_table(text, IngestConfig(locale=locale))
        assert table.values[7, 0] == value

    @pytest.mark.parametrize("blank", [" ", "\t", "\xa0", "\x1c", "　", " \x0b\x0c"])
    def test_eu_cells_with_blanks_around_them_parse_by_column(self, blank):
        # parse_rows strips every cell: blanks around a number give the
        # per-cell parse's values bit for bit
        cells = ["1.234,5", ",5", "7", "1,25e3", "2.000.000", "+3,"]
        rows = [
            f'e{r},Entity {r},101X,"{blank * (r % 2)}{cells[r % 6]}{blank * (r % 3 > 0)}",'
            f'"{blank}{r + 1},5"'
            for r in range(60)
        ]
        text = csv_doc(*rows)
        config = IngestConfig(locale="eu")
        expected = parse_outcome(per_cell_parse_table, text, config)
        assert not isinstance(expected, str), expected
        assert parse_outcome(parse_table, text, config) == expected

    @pytest.mark.parametrize("cell", ['"1 ,5"', '"1. 234,5"', '"- 1,5"', '" "'])
    def test_eu_blank_inside_a_cell_is_the_per_cell_error(self, cell):
        text = csv_doc(*(f"e{r},Entity {r},101X,{cell if r == 7 else '1,5'},2" for r in range(20)))
        config = IngestConfig(locale="eu")
        expected = parse_outcome(per_cell_parse_table, text, config)
        assert expected.startswith("ParseError:")
        assert parse_outcome(parse_table, text, config) == expected

    @pytest.mark.parametrize("cell, value", [("1.5e3", 1.5e3), (" \x0b+2.", 2.0)])
    def test_unquoted_point_decimal_table_never_reads_cells(self, monkeypatch, cell, value):
        def refuse(*args):
            raise AssertionError("read cell by cell")

        text = csv_doc(*(f" e{r} ,Entity {r},101X,{cell},{r + 1}" for r in range(50)))
        expected = parse_outcome(per_cell_parse_table, text, IngestConfig())
        monkeypatch.setattr(_cells, "read_cells", refuse)
        table = parse_table(text)
        assert table.values[7, 0] == value
        assert parse_outcome(parse_table, text, IngestConfig()) == expected


class TestUnitRegistry:
    """The config's unit table: built-in units plus the config's extras."""

    def test_canonical_units_resolve_to_identity(self):
        config = IngestConfig()
        for unit in ("EUR_MM", "MWh", "m3", "t", "headcount", "unitless"):
            assert config.resolve_unit(unit) == (unit, 1.0)

    def test_default_conversions(self):
        config = IngestConfig()
        assert config.resolve_unit("EUR") == ("EUR_MM", 1e-6)
        assert config.resolve_unit("GWh") == ("MWh", 1e3)
        assert config.resolve_unit("kWh") == ("MWh", 1e-3)
        assert config.resolve_unit("L") == ("m3", 1e-3)
        assert config.resolve_unit("kg") == ("t", 1e-3)
        assert config.resolve_unit("kt") == ("t", 1e3)

    def test_unknown_unit_raises(self):
        with pytest.raises(UnknownUnit) as err:
            IngestConfig().resolve_unit("furlongs")
        assert err.value.record() == "UnknownUnit:unit 'furlongs' is not registered"

    def test_registering_new_units(self):
        config = IngestConfig(
            extra_canonical_units=("hours",), extra_conversions={"days": ("hours", 24.0)}
        )
        assert config.resolve_unit("hours") == ("hours", 1.0)
        assert config.resolve_unit("days") == ("hours", 24.0)

    def test_conversion_target_must_be_canonical(self):
        for target in ("hours", "GWh"):
            with pytest.raises(UnknownUnit) as err:
                IngestConfig(extra_conversions={"days": (target, 24.0)})
            assert err.value.record() == f"UnknownUnit:target unit {target!r} is not canonical"

    def test_conversion_factor_must_be_positive(self):
        for factor in (0.0, -2.0, float("nan"), float("inf")):
            with pytest.raises(InvalidOptions) as err:
                IngestConfig(extra_conversions={"days": ("MWh", factor)})
            assert err.value.record() == (
                f"InvalidOptions:conversion factor must be positive, got {factor}"
            )

    def test_canonical_unit_name_must_be_non_empty(self):
        with pytest.raises(InvalidOptions) as err:
            IngestConfig(extra_canonical_units=("",))
        assert err.value.record() == "InvalidOptions:canonical unit name must be non-empty"

    def test_converted_unit_name_must_be_non_empty(self):
        # a blank declared unit would otherwise convert its column silently
        with pytest.raises(InvalidOptions) as err:
            IngestConfig(
                extra_conversions={"": ("MWh", 2.0)}, unit_map={"energy_consumption": ""}
            )
        assert err.value.record() == "InvalidOptions:converted unit name must be non-empty"

    @pytest.mark.parametrize(
        "extras, unit",
        [
            ({"extra_conversions": {"MWh": ("t", 2.0)}}, "MWh"),
            ({"extra_canonical_units": ("GWh",)}, "GWh"),
            ({"extra_conversions": {"GWh": ("MWh", 1.0)}}, "GWh"),
            ({"extra_canonical_units": ("J",), "extra_conversions": {"J": ("MWh", 1.0)}}, "J"),
            ({"extra_canonical_units": ("J", "J")}, "J"),
        ],
        ids=[
            "conversion-of-a-canonical-unit", "canonical-conversion-unit",
            "conversion-of-a-conversion-unit", "extra-unit-converted", "extra-unit-twice",
        ],
    )
    def test_a_unit_defined_twice_is_one_error(self, extras, unit):
        with pytest.raises(InvalidOptions) as err:
            IngestConfig(**extras)
        assert err.value.record() == f"InvalidOptions:unit {unit!r} is defined twice"

    def test_unit_table_is_built_once_per_config(self, monkeypatch):
        calls = []
        build = ingest._unit_table
        monkeypatch.setattr(ingest, "_unit_table", lambda *a: calls.append(a) or build(*a))
        config = IngestConfig(unit_map={"energy_consumption": "GWh"})
        for _ in range(2):
            parse_table(csv_doc("e1,One,1011,1.0,15"), config)
        assert len(calls) == 1


class TestRatioCatalog:
    def test_exactly_five_named_ratios(self):
        catalog = default_ratio_catalog()
        got = {(r.name, r.numerator, r.denominator) for r in catalog}
        assert got == {
            ("solvency", "total_assets", "total_liabilities"),
            ("energy_intensity", "energy_consumption", "net_revenue"),
            ("water_intensity", "water_consumption", "net_revenue"),
            ("waste_intensity", "waste_generation", "net_revenue"),
            ("gender_employment_gap", "male_employees", "female_employees"),
        }
        assert len(catalog) == 5

    def test_one_catalog_importable_from_three_places(self):
        assert ingest.default_ratio_catalog is composition.default_ratio_catalog
        assert coda_atlas.default_ratio_catalog is composition.default_ratio_catalog


class TestIngestConfig:
    def test_rejects_unknown_locale(self):
        with pytest.raises(InvalidOptions):
            IngestConfig(locale="us")

    def test_rejects_bad_zero_strategy(self):
        with pytest.raises(InvalidOptions):
            IngestConfig(zero_strategy="drop")
        for delta in (0.0, 1.5, -0.1):
            with pytest.raises(InvalidOptions):
                IngestConfig(zero_strategy={"multiplicative": delta})

    def test_unit_map_checked_against_registry(self):
        with pytest.raises(UnknownUnit) as err:
            IngestConfig(unit_map={"energy_consumption": "BTU"})
        assert "energy_consumption" in err.value.detail()

    def test_extra_units_make_unit_map_valid(self):
        config = IngestConfig(
            unit_map={"fuel": "BTU"},
            extra_canonical_units=("J",),
            extra_conversions={"BTU": ("J", 1055.06)},
        )
        assert config.resolve_unit("BTU") == ("J", 1055.06)

    def test_json_round_trip(self):
        config = IngestConfig(
            locale="eu",
            unit_map={"energy_consumption": "GWh"},
            zero_strategy={"multiplicative": 0.5},
            extra_canonical_units=("J",),
            extra_conversions={"BTU": ("J", 1055.06)},
        )
        again = IngestConfig.from_json(config.to_json())
        assert again == config

    def test_duplicate_ratio_names_are_listed_once(self):
        catalog = tuple(RatioDefinition(name, "a", "b") for name in "yxyxzy")
        with pytest.raises(InvalidOptions) as err:
            IngestConfig(ratio_catalog=catalog)
        assert err.value.record() == "InvalidOptions:duplicate ratio names: ['x', 'y']"

    def test_from_json_rejects_unknown_keys(self):
        with pytest.raises(InvalidOptions):
            IngestConfig.from_json('{"locale": "eu", "separator": ";"}')

    def test_from_json_rejects_bad_documents(self):
        with pytest.raises(ParseError):
            IngestConfig.from_json("{not json")
        with pytest.raises(InvalidOptions):
            IngestConfig.from_json("[1, 2]")

    @pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16"])
    def test_from_json_detects_the_encoding(self, encoding):
        document = '{"locale": "eu"}'.encode(encoding)  # each with a byte order mark
        assert IngestConfig.from_json(document) == IngestConfig(locale="eu")


class TestParseTable:
    def test_header_must_start_with_fixed_columns(self):
        with pytest.raises(ParseError) as err:
            parse_table("identifier,label,sector_code,a,b\ne1,One,1011,1,2\n")
        assert (err.value.line, err.value.column, err.value.token) == (
            1, 1, "identifier",
        )
        with pytest.raises(ParseError) as err:
            parse_table("id,label,sector,a,b\ne1,One,1011,1,2\n")
        assert (err.value.line, err.value.column) == (1, 3)

    @pytest.mark.parametrize("cell", ["", " ", '" "'])
    @pytest.mark.parametrize("quoted_id", [False, True], ids=["block_reader", "cell_reader"])
    def test_empty_part_name_is_a_parse_error(self, cell, quoted_id):
        row = '"e1",x,s,1,2,3' if quoted_id else "e1,x,s,1,2,3"
        with pytest.raises(ParseError) as err:
            parse_table(f"id,label,sector_code,a,{cell},c\n{row}\ne2,y,s,2,3,4\n")
        assert err.value.record() == "ParseError:line=1,column=5,token='',reason=empty part name"

    def test_csv_reader_error_is_one_parse_error(self):
        text = "id,label,sector_code,a,b\ncr\rid,x,s,1,2\n"
        with pytest.raises(csv.Error) as expected:
            list(csv.reader(io.StringIO(text)))
        with pytest.raises(ParseError) as err:
            parse_table(text)
        assert (err.value.line, err.value.column, err.value.token) == (2, 1, "")
        assert err.value.reason == str(expected.value)

    def test_row_length_mismatch_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_table(csv_doc("e1,One,1011,1.0,2.0", "e2,Two,1011,1.0"))
        assert err.value.line == 3

    def test_empty_entity_id_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_table(csv_doc(",One,1011,1.0,2.0"))
        assert (err.value.line, err.value.column) == (2, 1)

    def test_cell_errors_carry_position_and_token(self):
        with pytest.raises(ParseError) as err:
            parse_table(csv_doc("e1,One,1011,1.0,", "e2,Two,1011,1.0,2.0"))
        assert (err.value.line, err.value.column) == (2, 5)
        with pytest.raises(ParseError) as err:
            parse_table(csv_doc("e1,One,1011,1.0,abc"))
        assert err.value.token == "abc"
        assert err.value.record().startswith("ParseError:")

    def test_non_utf8_bytes_rejected(self):
        with pytest.raises(ParseError):
            parse_table(b"\xff\xfe junk")

    def test_empty_inputs(self):
        with pytest.raises(EmptyInput):
            parse_table("")
        with pytest.raises(EmptyInput):
            parse_table(HEADER + "\n")

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DuplicateEntityId):
            parse_table(csv_doc("e1,One,1011,1,2", "e1,Two,1011,3,4"))

    def test_zero_rejected_by_default(self):
        with pytest.raises(NonPositiveValue) as err:
            parse_table(csv_doc("e1,One,1011,0,2"))
        assert (err.value.row, err.value.col) == (0, 0)

    def test_multiplicative_zero_replacement(self):
        config = IngestConfig(zero_strategy={"multiplicative": 0.5})
        table = parse_table(csv_doc("e1,One,1011,0,2", "e2,Two,1011,1,3"), config)
        assert np.all(table.values > 0.0)
        assert table.values[0].sum() == pytest.approx(2.0, rel=1e-12)

    def test_schema_units_and_roles(self):
        table = parse_table(csv_doc("e1,One,1011,1.0,2.0"))
        revenue, energy = table.parts
        assert (revenue.unit, revenue.role) == ("EUR_MM", "financial")
        assert (energy.unit, energy.role) == ("MWh", "environmental")

    def test_unknown_column_defaults_to_unitless_financial(self):
        table = parse_table("id,label,sector_code,widgets,gadgets\ne1,One,1011,1,2\n")
        assert all(p.unit == "unitless" for p in table.parts)
        assert all(p.role == "financial" for p in table.parts)

    def test_unit_map_converts_values_and_keeps_role(self):
        config = IngestConfig(unit_map={"energy_consumption": "GWh"})
        table = parse_table(csv_doc("e1,One,1011,1.0,15"), config)
        assert table.values[0, 1] == pytest.approx(15000.0, rel=1e-15)
        assert table.parts[1].unit == "MWh"
        assert table.parts[1].role == "environmental"

    @pytest.mark.parametrize(
        "name, declared, unit, role, factor",
        [
            ("energy_consumption", None, "MWh", "environmental", 1.0),
            ("energy_consumption", "GWh", "MWh", "environmental", 1e3),
            ("water_intake", "L", "m3", "environmental", 1e-3),
            ("staff", "headcount", "headcount", "social", 1.0),
            ("widgets", "unitless", "unitless", "financial", 1.0),
            ("widgets", None, "unitless", "financial", 1.0),
        ],
        ids=[
            "schema", "schema-declared", "declared-extra", "declared-extra-social",
            "declared-extra-no-role", "undeclared-extra",
        ],
    )
    def test_one_rule_gives_each_column_its_unit_role_and_values(
        self, name, declared, unit, role, factor
    ):
        config = IngestConfig(unit_map={} if declared is None else {name: declared})
        table = parse_table(
            csv_doc("e1,One,1011,7.0,2.5", "e2,Two,1011,3.0,0.125",
                    header=f"id,label,sector_code,total_assets,{name}"),
            config,
        )
        part = table.parts[1]
        assert (part.name, part.unit, part.role) == (name, unit, role)
        assert table.parts[0].unit == "EUR_MM" and table.parts[0].role == "financial"
        assert table.values[:, 1].tolist() == [2.5 * factor, 0.125 * factor]
        assert table.values[:, 0].tolist() == [7.0, 3.0]

    @pytest.mark.parametrize("parse", [parse_table, per_cell_parse_table])
    def test_unit_map_key_must_name_a_column(self, parse):
        config = IngestConfig(unit_map={"energy_consumptoin": "GWh", "net_revenue": "EUR"})
        with pytest.raises(UnknownPart) as err:
            parse(csv_doc("e1,One,1011,1.0,15"), config)
        assert err.value.record() == (
            "UnknownPart:unit_map column 'energy_consumptoin' is not in the table"
        )

    def test_declared_unit_scaling_is_exact_thousandfold(self):
        base = csv_doc("e1,One,1011,3.5,15", "e2,Two,1022,2.0,40")
        in_mwh = parse_table(
            csv_doc("e1,One,1011,3.5,15000", "e2,Two,1022,2.0,40000")
        )
        in_gwh = parse_table(base, IngestConfig(unit_map={"energy_consumption": "GWh"}))
        assert np.max(np.abs(in_mwh.values - in_gwh.values)) < 1e-9 * np.max(
            in_mwh.values
        )


DEFAULT_PARTS = list(ingest.DEFAULT_PART_SCHEMA)

#: a declared unit's factor moves a parsed value by at most this relative error
UNIT_RTOL = 1e-15


@st.composite
def default_layout_rows(draw):
    """3..12 rows of values for the default eight-part layout."""
    n = draw(st.integers(3, 12))
    cells = st.floats(1e-3, 1e6)
    return [[draw(cells) for _ in DEFAULT_PARTS] for _ in range(n)]


def layout_csv(rows, column: int = 0, scale: float = 1.0) -> str:
    """The rows as a default-layout CSV, column ``column`` multiplied by ``scale``."""
    lines = [",".join(["id", "label", "sector_code", *DEFAULT_PARTS])]
    for r, row in enumerate(rows):
        cells = [repr(v * scale if d == column else v) for d, v in enumerate(row)]
        lines.append(",".join([f"e{r:02d}", f"Entity {r}", "101X" if r % 3 else "102X", *cells]))
    return "\n".join(lines) + "\n"


def pipeline_outcome(text: str, config: IngestConfig | None = None):
    """Exit code, stderr and every written file of ``pipeline`` on the CSV text."""
    with tempfile.TemporaryDirectory() as work:
        table = Path(work, "table.csv")
        table.write_text(text)
        out_dir = Path(work, "reports")
        argv = ["pipeline", str(table), "-o", str(out_dir)]
        if config is not None:
            Path(work, "config.json").write_text(config.to_json())
            argv += ["--config", str(Path(work, "config.json"))]
        stderr = io.StringIO()
        with redirect_stderr(stderr), redirect_stdout(io.StringIO()):
            code = main(argv)
        files = {path.name: path.read_bytes() for path in sorted(out_dir.glob("*"))}
    return code, stderr.getvalue(), files


class TestDeclaredUnits:
    @given(default_layout_rows(), st.integers(0, 7), st.integers(-20, 20).filter(bool))
    @settings(max_examples=25, deadline=None)
    def test_power_of_two_unit_gives_the_plain_pipeline_bytes(self, rows, column, k):
        # x * 2**k is exact in the CSV text, and so is its factor 2**-k back
        name = DEFAULT_PARTS[column]
        canonical = ingest.DEFAULT_PART_SCHEMA[name][0]
        config = IngestConfig(
            unit_map={name: "scaled"}, extra_conversions={"scaled": (canonical, 2.0**-k)}
        )
        plain = pipeline_outcome(layout_csv(rows))
        assert pipeline_outcome(layout_csv(rows, column, 2.0**k), config) == plain

    @given(
        default_layout_rows(),
        st.sampled_from(
            [("energy_consumption", "GWh", 1e3), ("energy_consumption", "kWh", 1e-3),
             ("water_consumption", "L", 1e-3)]
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_declared_unit_changes_values_and_orders_only_by_rounding(self, rows, declared):
        name, unit, factor = declared
        config = IngestConfig(unit_map={name: unit})
        plain = parse_table(layout_csv(rows))
        converted = parse_table(layout_csv(rows, DEFAULT_PARTS.index(name), 1.0 / factor), config)
        assert (converted.parts, converted.entities) == (plain.parts, plain.entities)
        assert np.all(np.abs(converted.values - plain.values) <= UNIT_RTOL * plain.values)
        # at full compositional rank the scores are the centred log-ratios,
        # whichever basis the SVD picks for a degenerate spectrum
        models = []
        for table in (plain, converted):
            clr = clr_matrix(table)
            try:
                models.append(fit_biplot(clr, k=min(clr.n - 1, clr.D - 1)))
            except DegenerateVariance:
                models.append(None)
        if models[0] is None:
            assert models[1] is None
            return
        for definition in default_ratio_catalog():
            links = [make_link(model, *definition.resolve(plain)) for model in models]
            if any(link.degenerate for link in links):
                continue
            base, scores = (rank_along_link(*pair).scores for pair in zip(models, links))
            tol = 1e-12 * max(1.0, float(np.max(np.abs(base))))
            apart = base[:, None] - base[None, :] > tol
            assert np.max(np.abs(scores - base)) <= tol
            assert np.all((scores[:, None] > scores[None, :])[apart])


class TestRoundTrip:
    def test_synthetic_table_round_trips_exactly(self):
        table = synthetic_table(seed=7)
        again = parse_table(serialize_table(table))
        assert np.array_equal(again.values, table.values)
        assert again.entity_ids == table.entity_ids
        assert again.parts == table.parts
        assert [e.label for e in again.entities] == [e.label for e in table.entities]
        assert [e.sector_code for e in again.entities] == [
            e.sector_code for e in table.entities
        ]

    def test_custom_units_round_trip_via_table_config(self, rng):
        table = make_table(
            np.exp(rng.normal(size=(4, 3))),
            part_names=["alpha", "beta", "gamma"],
            units=["widgets", "MWh", "widgets"],
        )
        config = table_config(table)
        again = parse_table(serialize_table(table), config)
        assert np.array_equal(again.values, table.values)
        assert again.part_names == table.part_names
        assert [p.unit for p in again.parts] == [p.unit for p in table.parts]
        # the CSV format has no role column, so roles come from the unit
        assert [p.role for p in again.parts] == ["financial", "environmental", "financial"]


class TestReports:
    def test_manifest_lists_written_files(self, tmp_path):
        outputs = {"b.csv": "x,y\n1,2\n", "a.json": '{"k": 1}\n'}
        manifest = write_reports(outputs, str(tmp_path))
        assert [f["name"] for f in manifest["files"]] == ["a.json", "b.csv"]
        for entry in manifest["files"]:
            path = tmp_path / entry["name"]
            blob = path.read_bytes()
            assert len(blob) == entry["bytes"]
        doc = json.loads((tmp_path / "manifest.json").read_text())
        assert doc == manifest

    def test_rewriting_is_byte_stable(self, tmp_path):
        outputs = {"r.csv": "a\n1\n"}
        first = write_reports(outputs, str(tmp_path / "one"))
        second = write_reports(outputs, str(tmp_path / "two"))
        assert first == second
        assert (tmp_path / "one" / "manifest.json").read_bytes() == (
            tmp_path / "two" / "manifest.json"
        ).read_bytes()

    def test_empty_outputs_give_empty_manifest(self, tmp_path):
        assert write_reports({}, str(tmp_path)) == {"files": []}

    def test_writer_holds_no_whole_encoded_output(self, tmp_path):
        size = 8 << 20
        outputs = {"a.csv": "a" * size, "b.csv": "b" * size}
        write_reports({"warm.csv": "x"}, str(tmp_path / "warm"))  # warms the writer untraced
        tracemalloc.start()
        try:
            manifest = write_reports(outputs, str(tmp_path / "out"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [entry["bytes"] for entry in manifest["files"]] == [size, size]
        # a few encoded slices, never one whole 8 MiB output
        assert peak < 4 << 20, peak

    @pytest.mark.parametrize(
        "content",
        [
            "a" * (ingest._SLICE - 1) + "\u00e9\u00e9" + "z",
            b"\x00raw\xff bytes",
            "",
        ],
        ids=["two_byte_char_at_slice_boundary", "bytes", "empty"],
    )
    def test_manifest_entries_match_the_files(self, tmp_path, content):
        manifest = write_reports({"r.txt": content, "s.csv": "x\n"}, str(tmp_path))
        for entry in manifest["files"]:
            blob = (tmp_path / entry["name"]).read_bytes()
            assert entry["sha256"] == hashlib.sha256(blob).hexdigest()
            assert entry["bytes"] == len(blob)
        expected = content.encode("utf-8") if isinstance(content, str) else content
        assert (tmp_path / "r.txt").read_bytes() == expected

    def test_each_output_is_encoded_once(self, tmp_path):
        encoded = []

        class Tallied(str):
            """A str whose slices are Tallied too; encode records its length."""

            def __getitem__(self, key):
                return Tallied(str.__getitem__(self, key))

            def encode(self, *args, **kwargs):
                encoded.append(len(self))
                return str.encode(self, *args, **kwargs)

        short, long = Tallied("x,\u00e9\n" * 100), Tallied("y" * (ingest._SLICE + 5))
        write_reports({"a.csv": short, "b.csv": long}, str(tmp_path / "manifested"))
        assert encoded == [len(short), ingest._SLICE, 5]
        encoded.clear()
        write_outputs({"b.csv": long, "a.csv": short}, str(tmp_path / "plain"))
        assert encoded == [ingest._SLICE, 5, len(short)]

    def test_an_output_named_manifest_is_rejected_before_writing(self, tmp_path):
        out = tmp_path / "reports"
        with pytest.raises(InvalidOptions) as err:
            write_reports({"a.csv": "x\n", "manifest.json": "user content\n"}, str(out))
        assert err.value.record() == (
            "InvalidOptions:output name 'manifest.json' is taken by the manifest"
        )
        assert not out.exists()
        # without a manifest the name is an ordinary output
        write_outputs({"manifest.json": "user content\n"}, str(out))
        assert (out / "manifest.json").read_text() == "user content\n"

    @pytest.mark.parametrize("write", [write_outputs, write_reports])
    def test_unencodable_output_leaves_no_temporary_file(self, tmp_path, write):
        out = tmp_path / "reports"
        old = {"a.csv": "old a\n", "b.csv": "old b\n", "c.csv": "old c\n"}
        write_outputs(old, str(out))
        new = {"a.csv": "new a\n", "b.csv": "lone \ud800 surrogate\n", "c.csv": "new c\n"}
        with pytest.raises(UnicodeEncodeError):
            write(new, str(out))
        assert {path.name: path.read_text() for path in out.iterdir()} == old

    def test_failure_on_the_third_file_leaves_the_last_run_in_place(self, tmp_path, monkeypatch):
        out = tmp_path / "reports"
        write_reports({"a.csv": "old a\n", "b.csv": "old b\n", "c.csv": "old c\n"}, str(out))
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        fail_nth_open(monkeypatch, ingest, 3)
        new = {"a.csv": "new a\n", "b.csv": "new b\n", "c.csv": "new c\n", "d.csv": "new d\n"}
        with pytest.raises(IoFailure) as err:
            write_reports(new, str(out))
        assert err.value.record().startswith(f"IoFailure:cannot write reports to {str(out)!r}: ")
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_two_writers_never_share_a_temporary_file(self, tmp_path, monkeypatch):
        # A has staged a.csv and is about to stage the manifest when B starts
        # to write a.csv into the same directory; B pauses after its first
        # slice until A has returned
        out = str(tmp_path / "reports")
        a_staged, b_wrote, a_returned = (threading.Event() for _ in range(3))
        results = {}

        class PausingFile:
            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

            def write(self, data):
                self.handle.write(data)
                self.handle.flush()
                if not b_wrote.is_set():
                    b_wrote.set()
                    a_returned.wait(10)

        def interleaving_open(path, *args, **kwargs):
            writer = threading.current_thread().name
            if writer == "A" and os.path.basename(path).startswith(".manifest.json"):
                a_staged.set()
                b_wrote.wait(10)
            handle = open(path, *args, **kwargs)
            return PausingFile(handle) if writer == "B" else handle

        def writer_a():
            try:
                manifest = write_reports({"a.csv": "A" * 3_000_000}, out)
                on_disk = {name: (Path(out) / name).read_bytes() for name in os.listdir(out)}
                results["A"] = (manifest, on_disk)
            except Exception as exc:
                results["A"] = exc
            finally:
                a_returned.set()

        def writer_b():
            a_staged.wait(10)
            try:
                results["B"] = write_outputs({"a.csv": "B" * 3_000_000}, out)
            except Exception as exc:
                results["B"] = exc

        monkeypatch.setattr(ingest, "open", interleaving_open, raising=False)
        threads = [
            threading.Thread(target=writer_a, name="A"),
            threading.Thread(target=writer_b, name="B"),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
            assert not thread.is_alive()
        assert b_wrote.is_set()
        # at A's return every file it listed is the one it wrote
        assert not isinstance(results["A"], Exception), results["A"]
        manifest, on_disk = results["A"]
        for entry in manifest["files"]:
            blob = on_disk[entry["name"]]
            assert entry["bytes"] == len(blob)
            assert entry["sha256"] == hashlib.sha256(blob).hexdigest()
        assert results["B"] == [os.path.join(out, "a.csv")]
        assert sorted(os.listdir(out)) == ["a.csv", "manifest.json"]
        assert (Path(out) / "a.csv").read_text() == "B" * 3_000_000

    def test_concurrent_writers_each_publish_whole_files(self, tmp_path):
        out = str(tmp_path / "reports")
        names = ("a.csv", "b.csv", "c.csv")
        written, failures = set(), []

        def writer(k):
            try:
                for round_ in range(20):
                    outputs = {name: f"{name} {k} {round_}\n" * 500 for name in names}
                    write_outputs(outputs, out)
                    written.update(outputs.values())
            except Exception as exc:
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer, args=(k,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
        assert sorted(os.listdir(out)) == list(names)
        for name in names:
            assert (Path(out) / name).read_text() in written

    def test_a_temporary_file_left_by_a_crashed_run_is_passed_over(self, tmp_path):
        out = tmp_path / "reports"
        out.mkdir()
        (out / ".a.csv.tmp").write_text("crashed")
        (out / ".a.csv.1.tmp").mkdir()
        manifest = write_reports({"a.csv": "new a\n"}, str(out))
        assert (out / "a.csv").read_text() == "new a\n"
        assert manifest["files"][0]["bytes"] == len("new a\n")
        assert (out / ".a.csv.tmp").read_text() == "crashed"
        assert sorted(os.listdir(out)) == [".a.csv.1.tmp", ".a.csv.tmp", "a.csv", "manifest.json"]

    def test_outputs_are_written_in_order_and_replace_old_files(self, tmp_path):
        (tmp_path / "b.txt").write_text("stale")
        paths = write_outputs({"b.txt": "two", "a.txt": b"one"}, str(tmp_path))
        assert paths == [str(tmp_path / "b.txt"), str(tmp_path / "a.txt")]
        assert sorted(os.listdir(tmp_path)) == ["a.txt", "b.txt"]
        assert (tmp_path / "b.txt").read_text() == "two"

    def test_no_outputs_create_no_directory(self, tmp_path):
        assert write_outputs({}, str(tmp_path / "absent")) == []
        assert not (tmp_path / "absent").exists()

    def test_unwritable_directory_raises(self, tmp_path):
        blocker = tmp_path / "occupied"
        blocker.write_text("a file, not a directory")
        with pytest.raises(IoFailure):
            write_reports({"x.txt": "hi"}, str(blocker))

    def test_clr_csv_layout(self):
        table = make_table([[1.0, 4.0], [4.0, 1.0]], ids=["e1", "e2"])
        text = clr_csv(clr_matrix(table))
        lines = text.strip().split("\n")
        assert lines[0] == "id,part_0,part_1"
        assert lines[1].startswith("e1,")
        first = float(lines[1].split(",")[1])
        assert first == pytest.approx(-np.log(2.0), rel=1e-15)

    def test_serialized_values_are_point_decimal(self):
        table = synthetic_table(seed=3)
        text = serialize_table(table)
        body = text.split("\n", 1)[1]
        assert "," in body
        for line in body.strip().split("\n"):
            for cell in line.split(",")[3:]:
                float(cell)
