"""Deterministic numeric and JSON formatting shared by all report writers.

All numeric report output uses point-decimal notation with 17 significant
digits, which round-trips IEEE double exactly. Report tables are formatted
whole-array at a time by one formatter, :func:`fill_rows`, whose output is
``template % row`` for every row of typed columns. Finiteness is checked
once per array (:func:`check_finite`), and a non-finite cell raises the
same error as :func:`fmt_float` would for it.

Report text is a :class:`LazyText`: str pieces and fills, in order. A
fill checks its template and columns when it is made and writes its rows
with numpy, a block at a time, only when the text is read; only floats
outside a kernel's exact range are formatted one at a time by ``%``.
Iterating a LazyText gives its UTF-8 bytes a block at a time, which is
how the report writer reads it, so no report is ever whole in memory;
``str()`` gives the whole text. The implementation of the fills, and the
argument that they give ``%``'s text exactly, are in ``_fill``, which is
imported on the first call to fill_rows: a process that formats nothing
never compiles it.

Text in CSV reports (ids, labels, sector codes, part names) follows one
quoting rule, :func:`csv_fields`: csv's QUOTE_MINIMAL, which wraps a field
that holds ``,``, ``"``, ``\r`` or ``\n`` in double quotes and doubles its
quotes. (Before Python 3.13, ``csv.writer`` with a ``"\n"`` terminator
leaves a bare ``\r`` unquoted, which breaks the line for any reader.)

The stdlib ``json`` module cannot format floats that way, hence the small
emitter below; string escaping is delegated back to ``json``'s own encoder.
It is the one JSON layout: :func:`json_rows` writes a list of records by
laying out one record through it and filling that template with
:func:`fill_rows`; :func:`dumps_json` keeps such a list lazy.
"""

from __future__ import annotations

import math
from itertools import groupby
from json.encoder import encode_basestring_ascii
from typing import Any, Sequence

import numpy as np

#: bytes of one block's buffer, at most, unless the block is one row
_BLOCK_BYTES = 1 << 20

#: the JSON pad added per nesting level
_INDENT = "  "

#: the characters that make a CSV field need quotes
_QUOTED_CHARS = ',"\r\n'


def _needs_quotes(text: str) -> bool:
    return any(c in text for c in _QUOTED_CHARS)


def csv_fields(texts: Sequence[str]) -> Sequence[str]:
    """Each text as one CSV field, quoted where needed.

    One scan of the joined texts decides; when none needs quotes, ``texts``
    itself is returned, so the common case costs no call per text.
    """
    if not _needs_quotes("".join(texts)):
        return texts
    return ['"%s"' % t.replace('"', '""') if _needs_quotes(t) else t for t in texts]


def csv_line(fields: Sequence[str]) -> str:
    """One CSV line of text fields, quoted where needed, ending in newline."""
    return ",".join(csv_fields(fields)) + "\n"


def fmt_float(x: float) -> str:
    """17-significant-digit point-decimal rendering of a finite float."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"non-finite value in report output: {x!r}")
    return format(x, ".17g")


def check_finite(values) -> None:
    """Raise fmt_float's error for the first non-finite cell in row-major order."""
    values = np.asarray(values, dtype=float)
    finite = np.isfinite(values)
    if not finite.all():
        fmt_float(values.flat[np.argmin(finite)])


class LazyText:
    """Report text made of str pieces and fills, formatted when it is read.

    Iterating it gives its UTF-8 bytes, a str piece or a fill block at a
    time; ``str()`` and ``encode()`` give the whole text, and ``+`` with a
    str or another LazyText gives a LazyText. It can be read any number of
    times. Text with a lone surrogate gives it in ``str()``, and raises
    str.encode's UnicodeEncodeError when its bytes are read.
    """

    __slots__ = ("pieces",)

    def __init__(self, *pieces):
        self.pieces = pieces  # str, LazyText or _fill.Fill

    def __add__(self, other):
        return LazyText(self, other)

    def __radd__(self, other):
        return LazyText(other, self)

    def __iter__(self):
        for piece in self.pieces:
            if isinstance(piece, str):
                yield piece.encode("utf-8")
            else:
                yield from piece

    def __str__(self) -> str:
        text = ""
        for piece in self._texts():
            text += piece  # CPython grows text in place: it is its only reference
        return text

    def _texts(self):
        """The text in pieces: str pieces as they are, a fill a block at a time."""
        for piece in self.pieces:
            if isinstance(piece, str):
                yield piece
            elif isinstance(piece, LazyText):
                yield from piece._texts()
            else:
                for block in piece.blocks():
                    yield str(block, "utf-8", "surrogatepass")

    def encode(self, encoding: str = "utf-8") -> bytes:
        """The whole text encoded; in UTF-8, the bytes that iterating gives."""
        return b"".join(self) if encoding == "utf-8" else str(self).encode(encoding)


def fill_rows(template: str, *columns: Sequence) -> LazyText:
    """``template % row`` for every row, concatenated.

    The template is literal text, ``%%`` and the conversions ``%.17g``,
    ``%.6f``, ``%d`` and ``%s``. Each column fills the next field (1-D) or
    the next k fields (n x k) of every row: a float array ``%.17g`` or
    ``%.6f`` fields and an integer array ``%d`` fields, all of one
    conversion; a sequence of str one ``%s`` field. Any other template or
    column is a TypeError or ValueError naming the field, raised here; the
    rows are formatted when the text is read, from the columns as they are
    now. Floats format exactly as ``format(x, spec)`` does. No finiteness
    check is made here; see check_finite.
    """
    return _filled(template, columns)


def _filled(template: str, columns: tuple, trim: int = 0) -> LazyText:
    """fill_rows, without its last ``trim`` bytes."""
    from . import _fill  # here, not at import: see the module docstring

    return LazyText(_fill.Fill(template, columns, _BLOCK_BYTES, trim))


def fmt_rows(prefixes: Sequence[str], values) -> LazyText:
    """CSV lines ``prefix,v1,...,vk`` of an n x k float array, each ending in newline.

    Values are checked finite and formatted with 17 significant digits,
    exactly as fmt_float formats each one.
    """
    values = np.asarray(values, dtype=float)
    check_finite(values)
    return fill_rows("%s" + ",%.17g" * values.shape[1] + "\n", prefixes, values)


class RawJson(str):
    """JSON text already formatted for where it sits; dumps_json copies it as is."""


def _emit(obj: Any, level: int, out: list[str]) -> None:
    pad = _INDENT * level
    child_pad = pad + _INDENT
    if isinstance(obj, (RawJson, LazyText)):
        out.append(obj)
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            out.append(child_pad)
            out.append(encode_basestring_ascii(str(key)))
            out.append(": ")
            _emit(value, level + 1, out)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)) or isinstance(obj, np.ndarray):
        items = list(obj)
        if not items:
            out.append("[]")
            return
        out.append("[\n")
        for i, value in enumerate(items):
            out.append(child_pad)
            _emit(value, level + 1, out)
            out.append(",\n" if i < len(items) - 1 else "\n")
        out.append(pad + "]")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(fmt_float(float(obj)))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to report JSON")


def json_text(obj: Any, level: int) -> str:
    """``obj`` laid out as dumps_json lays it out at nesting ``level``, no final newline."""
    out: list[str] = []
    _emit(obj, level, out)
    return "".join(out)


def dumps_json(obj: Any) -> LazyText:
    """Serialize to JSON: two spaces per level, deterministic key order, .17g floats.

    The json_rows lists in ``obj`` stay lazy: their rows are filled when
    the text is read.
    """
    out: list = []
    _emit(obj, 0, out)
    out.append("\n")
    try:
        return LazyText("".join(out))
    except TypeError:  # a LazyText among the pieces: join the str runs around it
        runs = groupby(out, lambda piece: isinstance(piece, str))
        return LazyText(*("".join(run) if text else LazyText(*run) for text, run in runs))


def _conversions(element: Any) -> Any:
    """``element`` with each leaf as RawJson and each ``%`` in a key doubled."""
    if isinstance(element, dict):
        # json escaping leaves "%" as it is, so doubling before it is the same
        return {str(key).replace("%", "%%"): _conversions(v) for key, v in element.items()}
    if isinstance(element, (list, tuple)):
        return [_conversions(value) for value in element]
    return RawJson(element)


def json_rows(element: dict, level: int, *columns: Sequence) -> LazyText:
    """A list of records, one per row of ``columns``, laid out for nesting ``level``.

    ``element`` is the record's shape: a dict whose leaves are ``%``
    conversions (``"%d"``, ``"%.17g"``, ``"%s"`` for JSON text). It is laid
    out once by dumps_json's emitter into a template, which fill_rows fills
    from ``columns``, typed as fill_rows takes them, so the list has the
    bytes dumps_json would give the list of filled records at ``level``;
    zero rows give ``[]``. No check is made here; see check_finite.
    """
    if not len(columns[0]):
        return LazyText("[]")
    pad = _INDENT * level
    record = pad + _INDENT + json_text(_conversions(element), level + 1) + ",\n"
    # the last record's ",\n" is left out of the fill's last block
    return LazyText("[\n", _filled(record, columns, trim=2), "\n" + pad + "]")
