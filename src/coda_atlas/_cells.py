"""CSV cells to entity texts and numbers, under a locale's strict grammar.

Two paths, tried in order. The first returns None whenever it cannot vouch
for its result, and where it returns, the second gives the same texts and
bit-identical values:

* :func:`read_block` takes point-decimal ASCII text in which csv quoting
  cannot matter (no double quote, carriage return, NUL or blank line,
  every line as wide as the header, every id non-empty, every value
  finite) and converts the whole numeric block in one C pass;
* :func:`read_cells` splits any other text into cells with the csv
  module, and :func:`parse_rows` decides them one row and one cell at a
  time, raising the first ParseError in row order with its line, column
  and token. Quoted cells, non-ASCII text and the EU locale, whose decimal
  commas are always quoted, come here.
"""

from __future__ import annotations

import csv
import io
import re

import numpy as np

from .errors import EmptyInput, ParseError

#: EU cell grammar: ASCII digits, a dot only between groups of three
#: integer digits, an optional decimal comma, sign and exponent
EU_NUMBER = re.compile(
    r"[+-]?(?:(?:[0-9]{1,3}(?:\.[0-9]{3})+|[0-9]+)(?:,[0-9]*)?|,[0-9]+)(?:[eE][+-]?[0-9]+)?"
)


def parse_number(text: str, locale: str, line: int, column: int) -> float:
    """One cell, already stripped, under the locale's strict number grammar."""
    if not text:
        raise ParseError(line=line, column=column, token=text, reason="empty cell")
    if locale == "point_decimal":
        if "," in text:
            raise ParseError(
                line=line, column=column, token=text,
                reason="comma in point-decimal locale",
            )
        # float() also takes "_" digit separators, inf/infinity/nan (every
        # spelling has an n) and non-ASCII digits; none is a number here
        strict = text.isascii() and "_" not in text and "n" not in text and "N" not in text
        number = text
    else:
        strict = EU_NUMBER.fullmatch(text) is not None
        number = text.replace(".", "").replace(",", ".")
    if strict:
        try:
            return float(number)
        except ValueError:
            pass
    raise ParseError(
        line=line, column=column, token=text,
        reason=f"not a number in the {locale} locale",
    )


def read_block(data: str, locale: str):
    """(header cells, (ids, labels, sector codes, values)), or None.

    None unless the locale is point-decimal and the text is ASCII with no
    double quote, carriage return, NUL or blank line, every line has the
    header's comma count, every id is non-empty and every value is finite.
    csv's reader would then split each line at its commas, and
    ``np.loadtxt`` converts with ``PyOS_string_to_double``, the conversion
    float() uses. What it declines (``_`` digit separators, an empty cell,
    a ragged row) the cell path decides, with its error records.
    """
    if locale != "point_decimal" or not data.isascii():
        return None
    if '"' in data or "\r" in data or "\0" in data:
        return None
    lines = data.split("\n")
    if lines[-1] == "":
        lines.pop()
    if len(lines) < 2:
        return None
    header = lines[0].split(",")
    width = len(header)
    # a blank line has no comma, a ragged row another count
    if width < 4 or [line.count(",") for line in lines].count(width - 1) != len(lines):
        return None
    # a longer field is csv's error, which the cell path reports
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    rows = lines[1:]
    try:
        values = np.loadtxt(
            rows, delimiter=",", usecols=range(3, width),
            comments=None, quotechar=None, ndmin=2,
        )
    except ValueError:
        return None
    if not np.isfinite(values).all():
        return None
    fields = [row.split(",", 3) for row in rows]
    ids, labels, sectors = ([f[k].strip() for f in fields] for k in range(3))
    if not all(ids):
        return None
    return [cell.strip() for cell in header], (ids, labels, sectors, values)


def read_cells(data: str) -> tuple[list[str], list[int]]:
    """Every CSV cell in one flat list, and each record's cell count.

    One flat list instead of a list per record: the cyclic GC walks every
    cell of a live container at the collections that later allocations
    trigger, and a list per record would keep them all young together.
    """
    reader = csv.reader(io.StringIO(data))
    cells: list[str] = []
    widths: list[int] = []
    try:
        for record in reader:
            cells += record
            widths.append(len(record))
    except csv.Error as exc:
        raise ParseError(line=reader.line_num, column=1, token="", reason=str(exc)) from exc
    if not widths:
        raise EmptyInput("no CSV content")
    return cells, widths


def parse_rows(cells: list[str], widths: list[int], locale: str):
    """(ids, labels, sector codes, values) of the data rows, cell by cell.

    Raises the first ParseError in row order, with its line, column and
    token, or EmptyInput when there are no rows.
    """
    width = widths[0]
    ids, labels, sectors, values = [], [], [], []
    at = width
    for row_number, row_width in enumerate(widths[1:], start=2):
        cells_of_row = [cell.strip() for cell in cells[at:at + row_width]]
        at += row_width
        if row_width != width:
            raise ParseError(
                line=row_number, column=min(row_width + 1, width),
                token="", reason=f"expected {width} cells, got {row_width}",
            )
        if not cells_of_row[0]:
            raise ParseError(
                line=row_number, column=1, token="", reason="empty entity id"
            )
        ids.append(cells_of_row[0])
        labels.append(cells_of_row[1])
        sectors.append(cells_of_row[2])
        values.append(
            [
                parse_number(cells_of_row[3 + k], locale, row_number, 4 + k)
                for k in range(width - 3)
            ]
        )
    if not ids:
        raise EmptyInput("no data rows")
    return ids, labels, sectors, values
