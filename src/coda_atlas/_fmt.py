"""Deterministic numeric and JSON formatting shared by all report writers.

All numeric report output uses point-decimal notation with 17 significant
digits, which round-trips IEEE double exactly. Report tables are formatted
whole-array at a time by one formatter, :func:`fill_rows`: it fills a
``%``-template row by row from one flat argument tuple per block of rows,
so the cost is the float formatting itself and never a Python call per
cell. Finiteness is checked once per array (:func:`check_finite`), and a
non-finite cell raises the same error as :func:`fmt_float` would for it.

Text in CSV reports (ids, labels, sector codes, part names) follows one
quoting rule, :func:`csv_fields`: csv's QUOTE_MINIMAL, which wraps a field
that holds ``,``, ``"``, ``\r`` or ``\n`` in double quotes and doubles its
quotes. (Before Python 3.13, ``csv.writer`` with a ``"\n"`` terminator
leaves a bare ``\r`` unquoted, which breaks the line for any reader.)

The stdlib ``json`` module cannot format floats that way, hence the small
emitter below; string escaping is delegated back to ``json``'s own encoder.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii
from typing import Any, Sequence

import numpy as np

#: rows formatted per block; bounds the Python objects alive at any time
_BLOCK_ROWS = 1024

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


def fill_rows(template: str, *columns: Sequence) -> str:
    """``template % row`` for every row, concatenated.

    Each column is a 1-D sequence of length n (one ``%`` field) or an n x k
    array (k fields); a row's fields are the columns side by side. Floats
    format exactly as ``format(x, spec)`` does (``"%.17g" % x`` equals
    ``format(x, ".17g")``). No check is made here; see check_finite.
    """
    blocks = []
    for column in columns:
        if not isinstance(column, np.ndarray):
            column = np.array(column, dtype=object)
        blocks.append(column[:, None] if column.ndim == 1 else column)
    n = len(blocks[0])
    width = sum(block.shape[1] for block in blocks)
    out = []
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n)
        args = np.empty((hi - lo, width), dtype=object)
        at = 0
        for block in blocks:
            args[:, at:at + block.shape[1]] = block[lo:hi]
            at += block.shape[1]
        out.append((template * (hi - lo)) % tuple(args.ravel().tolist()))
    return "".join(out)


def fmt_rows(prefixes: Sequence[str], values) -> str:
    """CSV lines ``prefix,v1,...,vk`` of an n x k float array, each ending in newline.

    Values are checked finite and formatted with 17 significant digits,
    exactly as fmt_float formats each one.
    """
    values = np.asarray(values, dtype=float)
    check_finite(values)
    return fill_rows("%s" + ",%.17g" * values.shape[1] + "\n", prefixes, values)


def _check_floats(items: list) -> None:
    # the sum of finite floats is finite unless it overflows, and any inf or
    # nan makes it non-finite: only the overflow case needs the cell checks
    if not math.isfinite(sum(items)):
        for x in items:
            fmt_float(x)


def _emit_floats(items: list, child_pad: str, pad: str, out: list[str]) -> None:
    _check_floats(items)
    sep = ",\n" + child_pad
    out.append("[\n" + child_pad + sep.join(["%.17g"] * len(items)) % tuple(items))
    out.append("\n" + pad + "]")


def _emit_float_dict(obj: dict, child_pad: str, pad: str, out: list[str]) -> None:
    values = list(obj.values())
    _check_floats(values)
    args = [None] * (2 * len(values))
    args[0::2] = [encode_basestring_ascii(str(key)) for key in obj]
    args[1::2] = values
    sep = ",\n" + child_pad
    out.append("{\n" + child_pad + sep.join(["%s: %.17g"] * len(values)) % tuple(args))
    out.append("\n" + pad + "}")


class RawJson(str):
    """JSON text already formatted for where it sits; dumps_json copies it as is."""


def _emit(obj: Any, level: int, out: list[str]) -> None:
    pad = _INDENT * level
    child_pad = pad + _INDENT
    if isinstance(obj, RawJson):
        out.append(obj)
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        if all(type(x) is float for x in obj.values()):
            _emit_float_dict(obj, child_pad, pad, out)
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
        if all(type(x) is float for x in items):
            _emit_floats(items, child_pad, pad, out)
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


def dumps_json(obj: Any) -> str:
    """Serialize to JSON: two spaces per level, deterministic key order, .17g floats.

    A list of plain floats, or a dict whose values are all plain floats, is
    formatted in one pass; any other value is emitted item by item.
    """
    out: list[str] = []
    _emit(obj, 0, out)
    out.append("\n")
    return "".join(out)
