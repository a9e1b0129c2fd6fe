"""Deterministic numeric and JSON formatting shared by all report writers.

All numeric report output uses point-decimal notation with 17 significant
digits, which round-trips IEEE double exactly. Report tables are formatted
whole-array at a time by one formatter, :func:`fill_rows`: it fills a
``%``-template row by row from one flat argument tuple per block of rows,
so the cost is the float formatting itself and never a Python call per
cell. Finiteness is checked once per array (:func:`check_finite`), and a
non-finite cell raises the same error as :func:`fmt_float` would for it.

A large table is formatted on several CPUs, into the same text. From
``_PARALLEL_FIELDS`` (2^18) fields (rows times template fields) and two
whole blocks on, its rows are cut at block boundaries into one share per
allowed CPU, each of at least 2^17 fields. This process formats the first
share, and each other share goes to a forked child. The child writes it UTF-8 encoded into an anonymous
memory file (``memfd``) and leaves by ``os._exit``. The shares are joined
in row order. Each child is pinned to a CPU other than this process's: on
a 2-vCPU Linux VM the scheduler left an unpinned forked child on its
parent's CPU, so the two took turns (a 2M-step Python loop took ~120 ms
alone, ~245 ms beside an unpinned forked copy and ~125 ms beside a pinned
one). A share whose child fails is formatted here, so a bad cell raises
the serial path's error, and every child is reaped before the call
returns or raises. Formatting stays serial for a smaller table, with one
allowed CPU, without ``os.fork`` or ``os.memfd_create``, and while another
Python thread runs.

The threshold is measured. A fork costs a ~190 MB process ~2-3 ms, and
afterwards each page the process writes takes a copy-on-write fault. In
such a process (the 20000x32 pipeline's), a forked n x 33 ``fmt_rows``
plus the ``render_biplot`` after it took 150 ms against 174 ms serially
at 2^17 fields, 206 against 227 ms at 2^18 and 300 against 432 ms at
2^19. Inside the pipeline, forking its 80000-field tables (the rankings
and each link's ticks in the SVG) made ranking and rendering 45-80 ms
slower in all. At 20000x32 ``serialize_table`` and ``clr_csv`` (660000
fields each) went from ~0.35 and ~0.48 s to ~0.23 and ~0.31 s. A memory
file, not a pipe, brings a share back: a 6.5 MB share took ~17 ms to read
from a pipe in 64 KiB pieces and ~2.5 ms to read from the file.

Text in CSV reports (ids, labels, sector codes, part names) follows one
quoting rule, :func:`csv_fields`: csv's QUOTE_MINIMAL, which wraps a field
that holds ``,``, ``"``, ``\r`` or ``\n`` in double quotes and doubles its
quotes. (Before Python 3.13, ``csv.writer`` with a ``"\n"`` terminator
leaves a bare ``\r`` unquoted, which breaks the line for any reader.)

The stdlib ``json`` module cannot format floats that way, hence the small
emitter below; string escaping is delegated back to ``json``'s own encoder.
It is the one JSON layout: :func:`json_rows` writes a list of records by
laying out one record through it and filling that template with
:func:`fill_rows`.
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from json.encoder import encode_basestring_ascii
from typing import Any, Sequence

import numpy as np

#: rows formatted per block; bounds the Python objects alive at any time
_BLOCK_ROWS = 1024

#: fields (rows times template fields) from which fill_rows forks; each
#: forked share then has at least half this many. Measured break-even: see
#: the module docstring.
_PARALLEL_FIELDS = 1 << 18

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
    ``format(x, ".17g")``). No check is made here; see check_finite. A
    table of _PARALLEL_FIELDS fields or more is formatted in row shares on
    several CPUs (see the module docstring), into the same text.
    """
    blocks = []
    for column in columns:
        if not isinstance(column, np.ndarray):
            column = np.array(column, dtype=object)
        blocks.append(column[:, None] if column.ndim == 1 else column)
    n = len(blocks[0])
    width = sum(block.shape[1] for block in blocks)

    def fill(lo: int, hi: int) -> str:
        out = []
        for start in range(lo, hi, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, hi)
            args = np.empty((stop - start, width), dtype=object)
            at = 0
            for block in blocks:
                args[:, at:at + block.shape[1]] = block[start:stop]
                at += block.shape[1]
            out.append((template * (stop - start)) % tuple(args.ravel().tolist()))
        return "".join(out)

    # one share per CPU, each of whole blocks and at least half the threshold
    full_blocks = n // _BLOCK_ROWS
    shares = min(full_blocks, n * width * 2 // _PARALLEL_FIELDS)
    cpus = _child_cpus() if shares > 1 else []
    shares = min(shares, len(cpus) + 1)
    if shares < 2:
        return fill(0, n)
    # equal shares, cut at the nearest block boundaries
    cuts = [round(n * s / shares / _BLOCK_ROWS) * _BLOCK_ROWS for s in range(shares)] + [n]
    return _fill_forked(fill, list(zip(cuts, cuts[1:])), cpus)


def _current_cpu() -> int | None:
    """The CPU this process last ran on (field 39 of /proc/self/stat), or None."""
    try:
        with open("/proc/self/stat", "rb") as handle:
            stat = handle.read()
        # the command name (field 2) may hold spaces; it ends at the last ")"
        return int(stat[stat.rindex(b")") + 2:].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _child_cpus() -> list[int | None]:
    """The CPU to pin each forked child to (None: not pinned); [] for no child.

    No child is forked without ``os.fork`` and ``os.memfd_create``, or while
    another Python thread runs: it could hold a lock that the child would
    then wait for forever. A child is pinned to an allowed CPU other than
    this process's, because the scheduler may leave it on this one.
    """
    if not hasattr(os, "fork") or not hasattr(os, "memfd_create"):
        return []
    if threading.active_count() > 1:
        return []
    if not hasattr(os, "sched_setaffinity"):
        return [None] * ((os.cpu_count() or 1) - 1)
    allowed = os.sched_getaffinity(0)
    here = _current_cpu()
    if here not in allowed:
        return [None] * (len(allowed) - 1)
    return sorted(allowed - {here})


def _fork_share(fill, lo: int, hi: int, cpu: int | None) -> tuple[int, int] | None:
    """Fork a child that writes ``fill(lo, hi)`` as UTF-8 into an anonymous file.

    Returns (pid, file descriptor), or None when no child could be started.
    The child runs none of the parent's cleanup (no atexit handler, no
    flush of stdout): it leaves by ``os._exit``, with status 0 only once
    every byte is written.
    """
    try:
        fd = os.memfd_create("fill_rows")
    except OSError:
        return None
    try:
        with warnings.catch_warnings():
            # Python >= 3.12 warns on fork when the process has other OS
            # threads, such as OpenBLAS's pool, since a lock one of them holds
            # stays locked in the child. This child takes none of their locks:
            # it only fills a template, encodes and writes, and calls no BLAS.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(fd)
        return None
    if pid == 0:
        status = 1
        try:
            if cpu is not None:
                try:
                    os.sched_setaffinity(0, {cpu})
                except OSError:
                    pass
            data = memoryview(fill(lo, hi).encode("utf-8", "surrogatepass"))
            while data:
                data = data[os.write(fd, data):]
            status = 0
        finally:
            os._exit(status)
    return pid, fd


def _read_share(fd: int) -> str | None:
    """A child's share from its memory file; None when one read misses bytes.

    The raw bytes die on return, so they are not alive beside the shares
    when those are joined.
    """
    size = os.fstat(fd).st_size
    data = os.pread(fd, size, 0)
    if len(data) != size:  # one read returns at most ~2 GiB
        return None
    return data.decode("utf-8", "surrogatepass")


def _fill_forked(fill, ranges: list[tuple[int, int]], cpus: list[int | None]) -> str:
    """``fill`` over consecutive row ranges: the first here, one child per other.

    The shares are joined in row order. A share whose child fails, or
    whose exit status is lost to another reaper, is formatted here, so a
    bad cell raises what the serial path raises. Every
    child is reaped (killed first if still running) and every file closed
    before this returns or raises.
    """
    children = []  # [pid, or None once reaped; fd, or None; lo; hi]
    try:
        for (lo, hi), cpu in zip(ranges[1:], cpus):
            started = _fork_share(fill, lo, hi, cpu)
            children.append([*(started or (None, None)), lo, hi])
        parts = [fill(*ranges[0])]
        for child in children:
            pid, fd, lo, hi = child
            if pid is not None:
                try:
                    _, status = os.waitpid(pid, 0)
                    done = os.waitstatus_to_exitcode(status) == 0
                except ChildProcessError:  # reaped elsewhere: SIGCHLD ignored, say
                    done = False
                child[0] = None
                share = _read_share(fd) if done else None
                if share is not None:
                    parts.append(share)
                    continue
            parts.append(fill(lo, hi))
        return "".join(parts)
    finally:
        for pid, fd, _, _ in children:
            if pid is not None:
                import signal  # here only: loading it costs every CLI start ~1 ms

                try:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                except (ProcessLookupError, ChildProcessError):  # reaped elsewhere
                    pass
            if fd is not None:
                os.close(fd)


def fmt_rows(prefixes: Sequence[str], values) -> str:
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
    if isinstance(obj, RawJson):
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


def dumps_json(obj: Any) -> str:
    """Serialize to JSON: two spaces per level, deterministic key order, .17g floats."""
    return json_text(obj, 0) + "\n"


def _conversions(element: Any) -> Any:
    """``element`` with each leaf as RawJson and each ``%`` in a key doubled."""
    if isinstance(element, dict):
        # json escaping leaves "%" as it is, so doubling before it is the same
        return {str(key).replace("%", "%%"): _conversions(v) for key, v in element.items()}
    if isinstance(element, (list, tuple)):
        return [_conversions(value) for value in element]
    return RawJson(element)


def json_rows(element: dict, level: int, *columns: Sequence) -> RawJson:
    """A list of records, one per row of ``columns``, laid out for nesting ``level``.

    ``element`` is the record's shape: a dict whose leaves are ``%``
    conversions (``"%d"``, ``"%.17g"``, ``"%s"`` for JSON text). It is laid
    out once by dumps_json's emitter into a template, which fill_rows fills
    from ``columns``, so the list has the bytes dumps_json would give the
    list of filled records at ``level``; zero rows give ``[]``. No check is
    made here; see check_finite.
    """
    if not len(columns[0]):
        return RawJson("[]")
    pad = _INDENT * level
    record = pad + _INDENT + json_text(_conversions(element), level + 1) + ",\n"
    return RawJson("[\n" + fill_rows(record, *columns)[:-2] + "\n" + pad + "]")
