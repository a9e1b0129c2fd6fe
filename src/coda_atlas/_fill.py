"""fill_rows' implementation: numpy kernels that write report numbers.

``_fmt.fill_rows`` imports this module on its first call, so importing
``_fmt``, which every CLI process does, compiles and loads none of it
(without a bytecode cache, compiling this module takes ~3.6 ms and
``_fmt`` ~1.0 ms).

It fills the typed columns of ``_fmt.fill_rows``' four conversions a
block of rows at a time, with no Python call per cell. Each cell of a
block gets a fixed-width slot in one byte buffer, padded with the byte
0xFF, which UTF-8 never holds. One ``bytes.translate`` pass deletes the
padding, and each block is decoded to text on its own. A block's rows are
chosen from its widest row, so its buffer stays under ``block_bytes`` (a
row wider than that is a block alone). The conversions are written this
way:

* ``%.17g`` for finite |x| in [1e-4, 1e17), the range ``g`` writes without
  an exponent. The exponent E comes from ``log10``. v = |x| * 10^(16-E)
  is computed exactly, as p + e, by Dekker's TwoProduct (1971): 10^s is an
  exact double for 0 <= s <= 22, and p >= 10^16 > 2^53 is a whole, even
  number. Where v falls outside [10^16, 10^17), E moves by one. As p is
  even, p + rint(e) is v rounded half to even, as CPython's correctly
  rounded conversion rounds (``1000000000000000.2`` for 1e15 + 0.25). The
  rounding never carries to 10^17: 17 digits tell every double from the
  power of ten above it. The digits go through a 4-digit lookup table;
  those after the point that end in zeros are dropped, and the sign, the
  ``0.000`` prefix and the point are laid around them (a 40-byte slot).
* ``%.6f`` for |x| < 1e8: |x| * 10^6 by the same exact product, rounded
  half to even (a 24-byte slot).
* ``%d``: the integer's digits (24 bytes).
* ``%s``: each text's UTF-8 bytes, placed by offset in a slot as wide as
  the block's widest.

The floats outside a kernel's range (zeros, subnormals, inf and nan, and
the magnitudes ``g`` writes with an exponent for ``%.17g``; |x| >= 1e8,
inf and nan for ``%.6f``) are formatted one at a time by ``%``, and their
text is placed like any other.

Measured at 20000 x 32 on a 2-vCPU x86 VM (Python 3.11, numpy 2.4; medians
of 5 alternating processes): ``clr_csv`` takes 123 ms and
``serialize_table`` 138 ms, against 282 and 194 ms when ``%`` formatted
each cell, with the table cut in row shares across both CPUs by forked
children. The lookup tables are built on the first call, in ~1 ms.
"""

from __future__ import annotations

import functools
import re

import numpy as np
from numpy.lib.stride_tricks import as_strided

#: the byte that pads every slot; UTF-8 text never holds it
_PAD = 0xFF

#: one conversion of a fill_rows template, or a literal "%%"
_SPEC = r"%(?:%|\.17g|\.6f|d|s)"

#: the conversions the kernels write, with their slot widths in bytes
_KERNEL_WIDTH = {"%.17g": 40, "%.6f": 24, "%d": 24}


def fill_rows(template: str, columns: tuple, block_bytes: int) -> str:
    """``template % row`` for every row of ``columns``, as ``_fmt.fill_rows``.

    A block has at most ``block_bytes`` of buffer, unless it is one row.
    """
    literals, specs = _parse(template)
    groups, texts, n = _fields(specs, columns)
    if n == 0:
        return ""
    tables = _tables()
    literals = [np.frombuffer(text.encode("utf-8", "surrogatepass"), np.uint8) for text in literals]
    base = [0] * len(specs)  # each slot's width, before its texts
    for group in groups:
        for f in group.fields:
            base[f] = _KERNEL_WIDTH[group.spec]
    fixed = sum(map(len, literals)) + sum(base)
    text_lens = [column.lens for column in texts.values()]
    out = []
    for lo, hi in _spans(n, fixed, text_lens, block_bytes):
        widths = base.copy()
        slots, cells = [], [(f, *column.rows(lo, hi)) for f, column in texts.items()]
        for group in groups:
            words, fallback = group.fill(lo, hi, tables)
            slots.append((group.fields, words.view(np.uint8)))
            cells += fallback
        for f, _, lens, _ in cells:
            if len(lens):
                widths[f] = max(widths[f], int(lens.max()))
        buffer, at = _buffer(hi - lo, literals, widths)
        for group_fields, slot in slots:
            _put_slots(buffer, [at[f] for f in group_fields], slot)
        for f, rows, lens, data in cells:
            _put_cells(buffer, at[f], widths[f], rows, lens, data)
        out.append(buffer.tobytes().translate(None, b"\xff").decode("utf-8", "surrogatepass"))
    return "".join(out)


def _parse(template: str):
    """(the literal texts around the conversions, the conversions).

    A ``%`` that is neither ``%%`` nor one of the four conversions is a
    ValueError naming its field.
    """
    literals, specs = [""], []
    for i, piece in enumerate(re.split(f"({_SPEC})", template)):  # text, spec, text, ...
        if i % 2 and piece != "%%":
            specs.append(piece)
            literals.append("")
        elif not i % 2 and "%" in piece:
            bad = piece[piece.index("%"):][:5]
            raise ValueError(
                f"fill_rows field {len(specs) + 1}: {bad!r} is not %.17g, %.6f, %d or %s")
        else:
            literals[-1] += piece.replace("%%", "%")
    return literals, specs


def _fields(specs: list[str], columns: tuple):
    """(kernel groups, {field: _Texts}, the row count) of the typed columns.

    A kernel column is one group, whose k fields share its conversion. A
    column that does not fit the template is a TypeError or ValueError
    naming its first field.
    """
    groups, texts, field, n = [], {}, 0, None
    for column in columns:
        if field == len(specs):
            raise ValueError(f"fill_rows field {field + 1}: the template has only {field}")
        spec, array = specs[field], isinstance(column, np.ndarray)
        where = f"fill_rows field {field + 1} ({spec})"
        what = f"a {column.ndim}-D {column.dtype} array" if array else f"a {type(column).__name__}"
        if spec == "%s":
            if array and (column.ndim != 1 or column.dtype.kind not in "OU"):
                raise TypeError(f"{where} takes a sequence of str, not {what}")
            try:
                texts[field] = _Texts(column)
            except TypeError as error:  # a cell that is not a str
                raise TypeError(f"{where}: {error}") from None
            k = 1
        else:
            kinds, kind = ("iu", "an integer") if spec == "%d" else ("f", "a float")
            if not (array and column.ndim in (1, 2) and column.dtype.kind in kinds
                    and column.dtype.itemsize <= 8):
                raise TypeError(f"{where} takes {kind} array, 1-D or 2-D, not {what}")
            data = column[:, None] if column.ndim == 1 else column
            k = data.shape[1]
            if specs[field:field + k] != [spec] * k:
                raise ValueError(f"{where}: {what} spans {', '.join(specs[field:field + k])}")
            if spec != "%d":
                data = data.astype(np.float64, copy=False)
            groups.append(_Group(spec, data, range(field, field + k)))
        if n is None:
            n = len(column)
        elif len(column) != n:
            raise ValueError(f"{where}: {len(column)} rows, where field 1 has {n}")
        field += k
    if n is None or field < len(specs):
        raise ValueError(f"fill_rows field {field + 1}: no column")
    return groups, texts, n


def _utf8(texts: list[str]):
    """(each text's UTF-8 byte count, all their bytes in order), with no call per text."""
    joined = "".join(texts)
    data = np.frombuffer(joined.encode("utf-8", "surrogatepass"), np.uint8)
    lens = np.fromiter(map(len, texts), np.int64, len(texts))
    if len(data) != len(joined):  # not ASCII: each char starts at a non-continuation byte
        starts = np.append(np.flatnonzero((data & 0xC0) != 0x80), len(data))
        lens = np.diff(starts[np.cumsum(lens)], prepend=0)
    return lens, data


class _Texts:
    """A text field's cells as UTF-8, sliced by rows."""

    def __init__(self, texts: list[str]):
        self.lens, self.data = _utf8(texts)
        self.starts = np.concatenate(([0], np.cumsum(self.lens)))

    def rows(self, lo: int, hi: int):
        """(None: every row; byte counts; bytes) of rows lo..hi."""
        return None, self.lens[lo:hi], self.data[self.starts[lo]:self.starts[hi]]


class _Group:
    """One column's fields, which one kernel writes: conversion, n x k data, field numbers."""

    def __init__(self, spec: str, data, fields):
        self.spec, self.data, self.fields = spec, data, list(fields)

    def fill(self, lo: int, hi: int, tables):
        """(the slot words of rows lo..hi; [(field, rows, byte counts, bytes)] of
        the cells outside the kernel's range, each formatted by ``%``)."""
        x = self.data[lo:hi]
        if self.spec == "%d":
            return _d_words(x, tables), []
        a = np.abs(x)
        fits = (a >= 1e-4) & (a < 1e17) if self.spec == "%.17g" else a < 1e8
        fallback = []
        if not fits.all():
            for c in np.flatnonzero(~fits.all(axis=0)):
                rows = np.flatnonzero(~fits[:, c])
                texts = [self.spec % (value,) for value in x[rows, c].tolist()]
                fallback.append((self.fields[c], rows, *_utf8(texts)))
            a = np.where(fits, a, 1.0)
        kernel = _g_words if self.spec == "%.17g" else _f_words
        return kernel(a, np.signbit(x), tables), fallback


def _spans(n: int, fixed: int, text_lens: list, block_bytes: int):
    """Row blocks (lo, hi), in order, halved until each fits.

    A block fits in at most ``block_bytes`` of buffer (``fixed`` bytes a
    row, plus each text field's widest cell), with its texts padding no
    more bytes than the rest of it holds. One row always fits, however long
    its texts.
    """
    todo = [(0, n)]
    while todo:
        lo, hi = todo.pop()
        m = hi - lo
        widest = sum(int(lens[lo:hi].max()) for lens in text_lens)
        held = sum(int(lens[lo:hi].sum()) for lens in text_lens)
        if m > 1 and (m * (fixed + widest) > block_bytes or m * widest - held > m * fixed + held):
            mid = (lo + hi) // 2
            todo += [(mid, hi), (lo, mid)]
        else:
            yield lo, hi


def _buffer(m: int, literals: list, widths: list[int]):
    """An m-row buffer holding the literals around padded slots; each slot's offset."""
    pad = np.full(max(widths, default=0), _PAD, np.uint8)
    pieces, at, offset = [literals[0]], [], len(literals[0])
    for width, literal in zip(widths, literals[1:]):
        at.append(offset)
        pieces += [pad[:width], literal]
        offset += width + len(literal)
    buffer = np.empty((m, offset), np.uint8)
    buffer[...] = np.concatenate(pieces)
    return buffer, at


def _put_slots(buffer, at: list[int], slots) -> None:
    """Copy an m x k x width slot array to the k slots at offsets ``at``."""
    m, k, width = slots.shape
    step = at[1] - at[0] if k > 1 else 0
    if all(b - a == step for a, b in zip(at, at[1:])):  # evenly spaced: one copy
        as_strided(buffer[:, at[0]:], (m, k, width), (buffer.strides[0], step, 1))[...] = slots
    else:
        for c, offset in enumerate(at):
            buffer[:, offset:offset + width] = slots[:, c]


def _put_cells(buffer, at: int, width: int, rows, lens, data) -> None:
    """Write cells' bytes left-aligned into a slot, padding the rest of it.

    ``rows`` are the block rows the cells belong to (None: every row);
    ``data`` is their bytes in row order and ``lens`` each one's count.
    """
    cells = np.full((len(lens), width), _PAD, np.uint8)
    cells[np.arange(width) < lens[:, None]] = data
    if rows is None:
        buffer[:, at:at + width] = cells
    else:
        buffer[rows, at:at + width] = cells


def _two_product(a, b):
    """(p, e) with p = a * b rounded and p + e = a * b exactly (Dekker, 1971)."""
    p = a * b
    a_hi, a_lo = _halves(a)
    b_hi, b_lo = _halves(b)
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _halves(a):
    """Veltkamp's split of a into two 26-bit halves, a = hi + lo."""
    c = a * 134217729.0  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _g_words(a, negative, t):
    """``%.17g`` slots of |x| = ``a`` in [1e-4, 1e17): five 8-byte words a cell.

    The first word holds the sign, the ``0.000`` prefix and the first digit;
    each other word four digits, each followed by a padding byte. Digits
    after the last one written become padding, and the padding byte after
    digit E becomes the point where digits follow it.
    """
    s = np.clip(16 - np.floor(np.log10(a)), 0, 22).astype(np.intp)
    p, e = _two_product(a, t.pow10[s])
    if p.min() <= 1e16 or p.max() >= 1e17:  # log10 may miss the exponent by one
        below = (p < 1e16) | ((p == 1e16) & (e < 0))
        above = (p > 1e17) | ((p == 1e17) & (e >= 0))
        if below.any() or above.any():
            s += below
            s -= above
            p, e = _two_product(a, t.pow10[s])
    # p is even, so rint(e) rounds ties to even; no carry reaches 10^17, as
    # 17 digits tell every double from the power of ten above it
    digits = p.astype(np.int64) + np.rint(e).astype(np.int64)
    exponent = 16 - s
    first, *groups = _groups(digits, 5)
    zeros = t.trailing_zeros[groups[0]]  # of the 16 digits after the first
    for g in groups[1:]:
        zeros = np.where(g > 0, t.trailing_zeros[g], zeros + 4)
    last = 16 - zeros  # the last nonzero digit
    keep = np.maximum(last, exponent)  # digits 0..keep are written
    words = np.empty(a.shape + (5,), np.uint64)
    words[..., 0] = t.g_head[(negative * 21 + exponent + 4) * 10 + first]
    for j, g in enumerate(groups):
        words[..., j + 1] = t.g_digits[g] | t.g_drop[np.clip(keep - 4 * j, 0, 4)]
    dotted = np.flatnonzero((last > exponent) & (exponent >= 0))  # digits follow digit E
    if dotted.size:
        words.view(np.uint8).reshape(-1)[dotted * 40 + 2 * exponent.reshape(-1)[dotted] + 7] = 46
    return words


def _f_words(a, negative, t):
    """``%.6f`` slots of |x| = ``a`` < 1e8: six 4-byte words a cell.

    a * 10^6 = p + e exactly, and p < 2^47 lies on a grid of at most 1/64,
    on which 0.5 lies: p's fraction decides the rounding unless it is 0.5,
    and then the sign of e, or for e = 0 the parity, does.
    """
    p, e = _two_product(a, 1e6)
    whole = np.floor(p)
    fraction = p - whole
    whole = whole.astype(np.int64)
    up = (fraction > 0.5) | ((fraction == 0.5) & ((e > 0) | ((e == 0) & (whole & 1 == 1))))
    integer, decimals = np.divmod(whole + up, 10**6)
    words = np.empty(a.shape + (6,), np.uint32)
    words[..., 0] = np.take(t.sign, negative)
    _integer_words(words[..., 1:4], _groups(integer, 3), t)
    high, low = np.divmod(decimals, 10**4)
    words[..., 4] = t.point_two_digits[high]
    words[..., 5] = t.digits[low]
    return words


def _d_words(x, t):
    """``%d`` slots of 64-bit integers: a sign word and five 4-digit words a cell."""
    negative = x < 0
    u = x.astype(np.uint64)
    np.negative(u, out=u, where=negative)
    words = np.empty(x.shape + (6,), np.uint32)
    words[..., 0] = np.take(t.sign, negative)
    _integer_words(words[..., 1:], [g.astype(np.intp) for g in _groups(u, 5)], t)
    return words


def _groups(u, count: int) -> list:
    """u's last 4 * count digits, four to a group, the most significant first."""
    groups = []
    for _ in range(count - 1):
        u, g = np.divmod(u, 10**4)
        groups.append(g)
    return [u, *reversed(groups)]


def _integer_words(words, groups, t) -> None:
    """Each group's four digits into one word, leading zeros as padding; the
    last group shows one digit at least."""
    started = np.zeros(groups[0].shape, bool)
    for j, g in enumerate(groups[:-1]):
        words[..., j] = np.where(started, t.digits[g], t.lead_or_pad[g])
        started |= g > 0
    words[..., -1] = np.where(started, t.digits[groups[-1]], t.lead[groups[-1]])


def _words(table):
    """Each row of a k x w byte table as one w-byte word: a byte view, so no
    step depends on the byte order."""
    dtype = {4: np.uint32, 8: np.uint64}[table.shape[1]]
    return np.ascontiguousarray(table, np.uint8).view(dtype)[:, 0]


class _Tables:
    """The kernels' digit and layout words, built with numpy on first use."""

    def __init__(self):
        digits = np.indices((10,) * 4, np.uint8).reshape(4, -1).T + 48  # row n: "0042"
        zero = (digits == 48).astype(np.int8)
        #: trailing zeros of each 4-digit group (4 for 0)
        self.trailing_zeros = zero[:, 3] * (1 + zero[:, 2] * (1 + zero[:, 1] * (1 + zero[:, 0])))
        self.digits = _words(digits)
        leading = np.logical_and.accumulate(zero, axis=1, dtype=bool)
        leading[:, 3] = False
        self.lead = _words(np.where(leading, _PAD, digits))  # 42 as "..42", 0 as "...0"
        self.lead_or_pad = self.lead.copy()
        self.lead_or_pad[0] = _words(np.full((1, 4), _PAD))[0]  # 0 as "...."
        # %.17g: four digits, each followed by a padding byte; the masks
        # that turn all but the first k of them into padding
        spaced = np.full((10000, 8), _PAD, np.uint8)
        spaced[:, 0::2] = digits
        self.g_digits = _words(spaced)
        drop = np.where(np.arange(4) >= np.arange(5)[:, None], _PAD, 0)
        self.g_drop = _words(np.repeat(drop, 2, axis=1))
        # head key: (negative * 21 + E + 4) * 10 + first digit
        negative, e, first = np.indices((2, 21, 10)).reshape(3, -1)
        head = np.full((len(e), 8), _PAD)
        head[:, 0] = np.where(negative, ord("-"), _PAD)
        prefix = np.frombuffer(b"0.000", np.uint8)
        head[:, 1:6] = np.where((e[:, None] < 4) & (np.arange(5) <= 4 - e[:, None]), prefix, _PAD)
        head[:, 6] = first + 48
        self.g_head = _words(head)
        self.pow10 = np.cumprod(np.r_[1.0, np.full(22, 10.0)])  # every one exact
        # %d and %.6f: the sign; the point and the first two decimals
        self.sign = _words(np.array([[_PAD] * 4, [ord("-")] + [_PAD] * 3]))
        point = np.full((100, 4), _PAD)
        point[:, 0] = ord(".")
        point[:, 2:] = digits[:100, 2:]
        self.point_two_digits = _words(point)


@functools.cache
def _tables() -> _Tables:
    """The lookup tables, built on the first fill_rows call, never at import."""
    return _Tables()
