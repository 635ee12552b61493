"""Deterministic text renderings of experiment reports.

Two formats are produced from the same report object: a structured
human-readable summary and a flat CSV of per-case rows. The renderers
know no experiment column: a report's ``columns`` are ``(name, values)``
pairs in report order, led by the case index; values are a numpy array
or any other sequence.

Both formats are rendered in blocks of ``_WRITE_BLOCK_ROWS`` rows. Each
file's block is one ``(rows, width)`` byte matrix: the cells and the
literals between them (``case ``, `` | name = ``, parentheses, ``, ``,
``j``, CSV commas and quotes, the newline), with ``_GAP`` in every byte
that is not written; the block's bytes are the matrix without its gaps.

Every float and complex part of a block's numpy columns goes through one
call of an array kernel, ``_number_slots``, whose byte rows both files
share; so do the ints of every int column whose values all lie below
2**53 in magnitude, as floats, which print the same digits. It prints
``'%.17g' % x`` exactly: the decimal exponent from ``log2``, the 17
digits as an integer from Dekker's exact split product with a table of
10**k as two doubles, the digits through a table of 4-digit groups, and
each value's layout (fixed or exponent notation, trailing zeros dropped)
from a table of byte masks. The kernel keeps to numpy loops that the
experiments use too (float64 arithmetic; int64 adds, shifts, bit
operations and ``divmod``): numpy pages each other loop in from its
library on first use, which once added about 0.75 MB to the peak RSS of
a run of a few small reports.
``'%.17g' %`` itself, value by value, prints only what the kernel cannot
decide: non-finite values, values outside ``_BAND``, values within
``_TIE`` of a rounding tie, and values whose exponent estimate is off.
Any other column is listed: ``format_value`` of each value.

The structured head comes before the first block and the summary after
the last. ``write_report`` streams the blocks into a temp file per
format and renames them into place at the end, so writing a report
holds one block, not the file; ``render_structured`` and
``render_tabular`` join the same blocks into a string. Floats print with
round-trip precision, so identical runs produce byte-identical files,
whatever the block size.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import os
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np

__all__ = [
    "FORMAT_HEADER",
    "format_float",
    "format_value",
    "render_structured",
    "render_tabular",
    "write_bytes_atomic",
    "write_report",
]

FORMAT_HEADER = "format: onticsim-report 11"

# Rows per block in which write_report streams both files: each block's cells are formatted
# once, shared by both files and written out before the next block is formatted.
_WRITE_BLOCK_ROWS = 256


def format_float(x: float) -> str:
    """17 significant digits, which round-trip any float64."""
    return f"{x:.17g}"


def format_value(value) -> str:
    """Canonical token for any report field value."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, complex):
        return f"{format_float(value.real)}{value.imag:+.17g}j"
    if isinstance(value, tuple):
        return "(" + ", ".join(map(format_value, value)) + ")"
    return str(value)


def _python_values(values):
    """A column's values as plain Python values, the rows of a 2-D array as tuples."""
    if isinstance(values, np.ndarray):
        return list(map(tuple, values.tolist())) if values.ndim == 2 else values.tolist()
    return values


# A byte that UTF-8 never holds: it marks the bytes of a block matrix that are not written.
_GAP = 0xFF
# |x| that the number kernel decides: 10**k for every exponent it can estimate is split exactly below.
_BAND = (1e-280, 1e280)
_X_MIN, _X_MAX = -281, 280  # the estimates of floor(log10(|x|)) over the band, their rounding included
# A value whose scaled 17-digit remainder lies this near one half is left to '%.17g' %.
_TIE = 1e-9
# A float's slot, 8 words of 4 bytes: [gap, sign, "0", "."]; the leading digit as the group
# "000d", whose zeros print after "0." below 1; the other 16 digits as four groups; [a spare
# byte for the last digit, gap, gap, "e"]; the exponent as the group "0hto", its "0" turned into
# the exponent's sign. A layout prints some of these bytes: a point, when it has one, takes the
# place of a digit, and the digits from there on move one byte right.
_FLOAT_SLOT = 32
_SIGN, _DIGITS, _EXP_SIGN = 1, 7, 28


def _word(text: bytes) -> np.uint32:
    """Four bytes as the word that holds them in memory."""
    return np.frombuffer(text, dtype=np.uint32)[0]


def _split(x):
    """Veltkamp's split of doubles into halves of 26 bits: x = hi + lo, exactly."""
    c = x * 134217729.0  # 2**27 + 1
    hi = c - (c - x)
    return hi, x - hi


def _layout(notation: int, digits: int) -> tuple:
    """The slot bytes printed with ``digits`` significant digits, and the point's byte (or None).

    Notations 0..20 are fixed point with decimal exponent ``notation - 4``; 21 and 22 are
    exponent notation with two and three exponent digits.
    """
    exponent = notation - 4
    if notation > 20:
        exp = [27, _EXP_SIGN, 29, 30, 31] if notation == 22 else [27, _EXP_SIGN, 30, 31]
        if digits == 1:
            return [_SIGN, _DIGITS, *exp], None
        return [_SIGN, *range(_DIGITS, _DIGITS + digits + 1), *exp], _DIGITS + 1
    if exponent < 0:
        return [_SIGN, 2, 3, *range(_DIGITS + exponent + 1, _DIGITS + digits)], None
    whole = _DIGITS + exponent + 1
    if digits <= exponent + 1:
        return [_SIGN, *range(_DIGITS, whole)], None
    return [_SIGN, *range(_DIGITS, _DIGITS + digits + 1)], whole


@functools.cache
def _tables() -> SimpleNamespace:
    """Tables of ``_number_slots``, built on first use.

    ``groups``: each 4-digit group's ASCII as one word; ``zeros``: its trailing zeros (4 for
    0000). Indexed by X - _X_MIN for the decimal exponent X: ``powers``, rows of 10**(16 - X) as the
    double hi nearest to it, hi's halves and the double lo nearest to 10**(16 - X) - hi, both
    rounded from exact integer ratios; ``exponents``, the word of X's sign and 3 digits;
    ``layouts``, the layout of X's notation with 17 digits. ``signs``: a float slot's first word
    by 2 * sign bit + plus. By layout, 18 * notation + digits: ``shift``, the bytes that take
    the byte before them; ``keep``, the bytes kept; ``put``, the bytes set (the point, and a gap
    in every byte not printed); ``stops``, one past the last byte printed.
    They are built in Python and handed to numpy whole, so building them runs no numpy code.
    """
    groups = bytearray(4 * 10**4)
    for place in range(4):  # byte `place` of group i is the digit i // 10**(3 - place) % 10
        groups[place::4] = b"".join(bytes([d]) * 10 ** (3 - place) for d in b"0123456789") * 10**place
    zeros = [0] * 10**4
    for j in range(1, 5):  # the multiples of 10**j end in j zeros or more
        zeros[:: 10**j] = [j] * 10 ** (4 - j)
    exponents = range(_X_MIN, _X_MAX + 2)  # a carry can take X one past _X_MAX
    hi, lo = [], []
    for x in exponents[:-1]:  # 10**(16 - x) = top / bottom, exactly, in Python ints
        top, bottom = (10 ** (16 - x), 1) if x <= 16 else (1, 10 ** (x - 16))
        hi.append(top / bottom)  # an int quotient rounds correctly
        p, q = hi[-1].as_integer_ratio()
        lo.append((top * q - p * bottom) / (bottom * q))
    notations = [x + 4 if -4 <= x < 17 else 21 if abs(x) < 100 else 22 for x in exponents]
    shift, keep, put = (bytearray([fill]) * (23 * 18 * _FLOAT_SLOT) for fill in (0, 0xFF, _GAP))
    stops = [0] * (23 * 18)
    for notation, digits in itertools.product(range(23), range(1, 18)):
        layout = 18 * notation + digits
        printed, point = _layout(notation, digits)
        row = _FLOAT_SLOT * layout
        for byte in printed:
            put[row + byte] = 0
        stops[layout] = max(printed) + 1
        if point is not None:
            shift[row + point + 1 : row + _DIGITS + 18] = b"\xff" * (_DIGITS + 17 - point)
            keep[row + point], put[row + point] = 0, ord(".")
    tables = SimpleNamespace(
        groups=np.frombuffer(groups, dtype=np.uint32),
        zeros=np.array(zeros, dtype=np.intp),
        powers=np.array([hi, *_split(np.array(hi)), lo]),
        exponents=np.frombuffer(b"".join(b"%+04d" % x for x in exponents), dtype=np.uint32),
        layouts=np.array([18 * notation + 17 for notation in notations], dtype=np.intp),
        signs=np.array([_word(f"\xff{c}0.".encode("latin-1")) for c in "\xff+--"]),
        shift=np.frombuffer(shift, dtype=np.uint8).reshape(-1, _FLOAT_SLOT),
        keep=np.frombuffer(keep, dtype=np.uint8).reshape(-1, _FLOAT_SLOT),
        put=np.frombuffer(put, dtype=np.uint8).reshape(-1, _FLOAT_SLOT),
        stops=np.array(stops, dtype=np.intp),
    )
    for table in vars(tables).values():
        table.flags.writeable = False  # every caller shares them
    return tables


def _packed(lists, width: int = 0) -> list:
    """Each list of texts as a byte matrix: a row per text in UTF-8, padded with gaps to the
    longest of its list (and to at least ``width``)."""
    out = []
    for texts in lists:
        texts = [text.encode("utf-8") for text in texts]
        longest = max(width, *map(len, texts)) if texts else width
        chars = b"".join(text.ljust(longest, bytes([_GAP])) for text in texts)
        out.append(np.frombuffer(chars, dtype=np.uint8).reshape(len(texts), longest))
    return out


def _decimal(x, plus) -> tuple:
    """Each float64's digits D, table row X - _X_MIN, sign code, and the undecided rows' texts.

    For |x| in ``_BAND``, X = floor(log2(|x|) * log10(2)) estimates the decimal exponent and
    D = round(|x| * 10**(16 - X)) is formed from Dekker's exact product with 10**(16 - X) as
    hi + lo: its double part is a whole number wherever D can hold 17 digits, so the floor F
    of the product is exact and its remainder is off by under 1e-14. D holds the 17 digits to
    print when 10**16 <= F < 10**17 and the remainder is not within ``_TIE`` of one half;
    D = 10**17 carries into X. Zero is decided too, with D = 0 and X = 0. The sign code is
    2 * sign bit + plus. F's range and the carry are tested on product - 10**k + carried, in
    floats: that sum is exact wherever its sign is in doubt.
    """
    tables = _tables()
    a = np.abs(x)
    zero = a == 0.0
    decided = a >= _BAND[0]
    decided &= a <= _BAND[1]
    np.fmax(a, _BAND[0], out=a)
    np.fmin(a, _BAND[1], out=a)  # every row computes inside the band
    estimate = np.log2(a)
    estimate *= math.log10(2)
    row = np.floor(estimate, out=estimate).astype(np.intp)
    del estimate  # the big temporaries go as soon as they are used, so a block holds fewer at once
    row -= _X_MIN
    hi, hi1, hi2, lo = tables.powers.take(row, axis=1)
    a1, a2 = _split(a)
    rest = a1 * hi1  # Dekker: ((a1*hi1 - product) + a1*hi2 + a2*hi1) + a2*hi2 is exact
    product = np.multiply(a, hi, out=hi)
    rest -= product
    rest += np.multiply(a1, hi2, out=a1)
    rest += np.multiply(a2, hi1, out=hi1)
    rest += np.multiply(a2, hi2, out=hi2)
    rest += np.multiply(a, lo, out=lo)
    del a, a1, a2, hi, hi1, hi2, lo
    carried = np.floor(rest)
    rest -= carried
    decided &= np.abs(rest - 0.5) >= _TIE
    up = np.rint(rest)
    del rest
    decided &= product - 1e16 + carried >= 0  # F - 10**16 >= 0
    top = product - 1e17
    top += carried
    decided &= top < 0  # F - 10**17 < 0
    top += up
    carry = top == 0  # D = 10**17
    del top
    digits = product.astype(np.int64)
    del product
    digits += carried.astype(np.int64)
    digits += up.astype(np.int64)
    del carried, up
    digits[carry], row[carry] = 10**16, row[carry] + 1
    digits[zero], row[zero] = 0, -_X_MIN
    undecided = np.flatnonzero(~(decided | zero))
    texts = [("%+.17g" if p else "%.17g") % v for v, p in zip(x[undecided].tolist(), plus[undecided])]
    sign = x.view(np.int64) >> 63  # -1 where the sign bit is set
    sign *= -2
    sign += plus
    return digits, row, sign, undecided, texts


def _groups(values) -> np.ndarray:
    """The five 4-digit groups of non-negative integers below 10**20, as rows, most significant first."""
    groups = np.empty((5, len(values)), dtype=np.int64)
    for group in groups[:0:-1]:
        values, _ = np.divmod(values, 10**4, out=(None, group))
    groups[0] = values
    return groups


def _trailing_zeros(groups) -> np.ndarray:
    """Trailing zeros of the 16 digits in the last four rows of ``groups``, the 4-digit groups."""
    zeros = _tables().zeros
    trailing = zeros.take(groups[1])
    for group in groups[2:]:  # 0000 has 4, on top of those before it: more >> 2 is 1 for 0000 alone
        more = zeros.take(group)
        trailing *= more >> 2
        trailing += more
    return trailing


def _number_slots(floats, plus) -> tuple:
    """``'%.17g' % x`` of each float64 (``'%+.17g'`` where ``plus``) in a ``_FLOAT_SLOT``-byte
    row from byte 1 on, and each row's stop, one past its last printed byte.

    ``_decimal`` gives each value's 17 digits D and exponent X. Each row's layout, its
    notation and its digits kept once trailing zeros go, selects its masks. A value the
    kernel does not decide (non-finite, outside ``_BAND``, within ``_TIE`` of a tie, or with
    an exponent estimate that is off) is printed on its own by ``%``.
    """
    tables = _tables()
    digits, row, sign, undecided, texts = _decimal(floats, plus)
    digits[undecided] = 0
    row[undecided] = -_X_MIN  # X = 0, inside every table
    words = np.empty((_FLOAT_SLOT // 4, len(digits)), dtype=np.uint32)
    tables.signs.take(sign, out=words[0], mode="clip")
    groups = _groups(digits)
    tables.groups.take(groups, out=words[1:6], mode="clip")
    words[6] = _word(b"\xff\xff\xffe")
    tables.exponents.take(row, out=words[7], mode="clip")
    layout = tables.layouts.take(row)
    layout -= _trailing_zeros(groups)
    del groups  # the big temporaries go as soon as they are used, so a block holds fewer at once
    slots = np.ascontiguousarray(words.T).view(np.uint8)
    del words
    flat, mask = slots.view(np.int64), np.empty_like(slots)  # the masks go 8 bytes at a time
    mask.ravel()[1:] = slots.ravel()[:-1]  # each byte's left neighbour
    moved = mask.view(np.int64)
    moved ^= flat
    moved &= tables.shift.take(layout, axis=0).view(np.int64)
    flat ^= moved
    flat &= tables.keep.take(layout, axis=0, out=mask, mode="clip").view(np.int64)
    flat |= tables.put.take(layout, axis=0, out=mask, mode="clip").view(np.int64)
    stops = tables.stops.take(layout)
    if len(undecided):
        slots[undecided] = _GAP
        slots[undecided, 1:] = _packed([texts], _FLOAT_SLOT - 1)[0]
        stops[undecided] = [len(text) + 1 for text in texts]
    return slots, stops


@functools.cache
def _ends(count: int, tail: bytes, parens: bool) -> np.ndarray:
    """The bytes after each value of a cell: ``tail``, then in a 2-D row ", " before the next."""
    ends = np.full((count, len(tail) + 2 * parens), _GAP, dtype=np.uint8)
    ends[:, : len(tail)] = np.frombuffer(tail, dtype=np.uint8)
    if parens:
        ends[:-1, len(tail) :] = np.frombuffer(b", ", dtype=np.uint8)
    ends.flags.writeable = False  # one array serves every block
    return ends


def _block_cells(columns, rows: slice) -> list:
    """One block's cells for each column.

    For a numpy column of 1-D or 2-D floats, complex numbers or ints below 2**53 in magnitude,
    ``(cells, width)``: ``cells`` holds each row's values, their "j"s and the ", " between them
    as one byte row, every value's slot trimmed to the bytes any of them prints, and ``width``
    is the row width of a 2-D column (None for 1-D); all of a block's numbers go through one
    ``_number_slots`` call. For any other column, the list of each row's ``format_value``
    token.
    """
    n = rows.stop - rows.start
    out, floats, numbers = [], [], []
    for _, values in columns:
        part = values[rows]
        kind = part.dtype.kind if isinstance(part, np.ndarray) and part.ndim in (1, 2) else None
        if kind in ("i", "u") and part.size and not -(2**53) < part.min() <= part.max() < 2**53:
            kind = None  # not every value is a float64: listed
        if kind in ("i", "u", "f", "c"):  # ints as the floats that print their digits
            numbers.append((len(out), part.shape[1] if part.ndim == 2 else None, kind == "c"))
            part = np.ascontiguousarray(part, dtype=np.complex128 if kind == "c" else np.float64)
            part = part.view(np.float64).reshape(-1)  # a complex value: its real, then its imaginary part
            floats.append(part)
        else:
            part = list(map(format_value, _python_values(part)))
        out.append(part)
    flat = np.concatenate(floats) if floats else np.empty(0)
    plus = np.zeros(len(flat), dtype=np.intp)  # the imaginary parts print with a sign
    first = 0
    for i, _, is_complex in numbers:
        if is_complex:
            plus[first + 1 : first + len(out[i]) : 2] = 1
        first += len(out[i])
    slots, stops = _number_slots(flat, plus)
    sizes = [len(out[i]) for i, _, _ in numbers]
    starts = list(itertools.accumulate(sizes, initial=0))
    spans = iter(np.maximum.reduceat(stops, [a for a, size in zip(starts, sizes) if size]).tolist() if len(stops) else [])
    for (i, width, is_complex), first, size in zip(numbers, starts, sizes):
        count = 1 if width is None else width
        stop = next(spans) if size else 1
        cells = slots[first : first + size, 1:stop].reshape(n, count, (stop - 1) * (1 + is_complex))
        ends = _ends(count, b"j" if is_complex else b"", width is not None)
        if ends.shape[1]:
            joined = np.empty((n, count, cells.shape[2] + ends.shape[1]), dtype=np.uint8)
            joined[:, :, : cells.shape[2]] = cells
            joined[:, :, cells.shape[2] :] = ends
            cells = joined
        out[i] = (cells.reshape(n, count * cells.shape[2]), width)
    return out


def _block_lines(parts, rows: int) -> list:
    """Each format's lines of one block, each from a byte matrix of its pieces.

    ``parts`` holds per format its ``(before, content, after)`` pieces per column: literal
    strs around a cell of ``_block_cells`` or a list of one text per row. A format's
    literals form one row that every row starts from; the cells and lists are then put in.
    All the lists of a block are packed by one ``_packed`` call.
    """
    packed = iter(_packed([content for columns in parts for _, content, _ in columns if isinstance(content, list)]))
    out = []
    for columns in parts:
        template, fills = bytearray(), []
        for before, content, after in columns:
            template += before.encode("utf-8")
            content = next(packed) if isinstance(content, list) else content[0]
            fills.append((len(template), content))
            template += bytes(content.shape[1])
            template += after.encode("utf-8")
        template += b"\n"
        chars = np.empty((rows, len(template)), dtype=np.uint8)
        chars[:] = np.frombuffer(template, dtype=np.uint8)
        for at, content in fills:
            chars[:, at : at + content.shape[1]] = content
        out.append(chars.tobytes().translate(None, bytes([_GAP])))
    return out


def _structured_head(report) -> str:
    out = [FORMAT_HEADER, "[config]"]
    for name, value in report.config.items():
        out.append(f"{name} = {format_value(value)}")
    out += [f"digest = {report.config.digest()}", "[cases]", ""]
    return "\n".join(out)


def _structured_parts(i: int, name: str, cell) -> tuple:
    # "case " and the first cell, then " | name = " and each other cell
    label = "case " if i == 0 else f" | {name} = "
    if isinstance(cell, list):
        return "", [label + t for t in cell], ""
    return (label, cell, "") if cell[1] is None else (label + "(", cell, ")")


def _structured_tail(report) -> str:
    out = ["[summary]"]
    for name, value in report.summary.stats:
        out.append(f"{name} = {format_value(value)}")
    for name, ok in report.summary.criteria:
        out.append(f"criterion {name} = {'pass' if ok else 'fail'}")
    out += [f"passed = {format_value(report.passed)}", ""]  # "" ends the text with a newline
    return "\n".join(out)


def _csv_cell(token: str) -> str:
    """A cell as ``csv.writer(buf, lineterminator="\\n")`` writes it: a lone "\\r" is not quoted."""
    quote = "," in token or '"' in token or "\n" in token
    return '"' + token.replace('"', '""') + '"' if quote else token


def _tabular_head(report) -> str:
    return ",".join(_csv_cell(name) for name, _ in report.columns) + "\n"


def _tabular_parts(i: int, name: str, cell) -> tuple:
    # A numpy column's cells hold no ',', '"' or "\n" but for the ", " between the values
    # of a 2-D row, so only rows of two or more are quoted.
    comma = "," if i else ""
    if isinstance(cell, list):
        return "", [comma + _csv_cell(t) for t in cell], ""
    width = cell[1]
    quote = '"' if width is not None and width > 1 else ""
    return (comma, cell, "") if width is None else (comma + quote + "(", cell, ")" + quote)


# Report format -> (file name, head of the report, a column's pieces of a block's lines, tail).
_FORMATS = {
    "structured": ("report.txt", _structured_head, _structured_parts, _structured_tail),
    "tabular": ("cases.csv", _tabular_head, _tabular_parts, lambda report: ""),
}


def _pieces(report, formats):
    """Each format's bytes in pieces, in step: the heads, each block's lines, the tails.

    A block's cells are formatted once, for every format.
    """
    parts = [_FORMATS[fmt][1:] for fmt in formats]
    yield [head(report).encode("utf-8") for head, _, _ in parts]
    names = [name for name, _ in report.columns]
    n = len(report.columns[0][1])
    for start in range(0, n, _WRITE_BLOCK_ROWS):
        rows = slice(start, min(n, start + _WRITE_BLOCK_ROWS))
        cells = _block_cells(report.columns, rows)
        columns = [[column(*named, cell) for named, cell in zip(enumerate(names), cells)] for _, column, _ in parts]
        yield _block_lines(columns, rows.stop - start)
    yield [tail(report).encode("utf-8") for _, _, tail in parts]


def render_structured(report) -> str:
    """Sectioned text report: config, one line per case, summary."""
    return b"".join(data for data, in _pieces(report, ["structured"])).decode("utf-8")


def render_tabular(report) -> str:
    """One CSV row per case; the header is the column names."""
    return b"".join(data for data, in _pieces(report, ["tabular"])).decode("utf-8")


@contextlib.contextmanager
def _atomic_files(paths):
    """Binary handles to same-directory temp files, renamed onto ``paths`` when the block ends.

    On any error every temp file is closed and unlinked, and no path is replaced.
    """
    targets, temps = [Path(path) for path in paths], []
    try:
        for target in targets:
            target.parent.mkdir(parents=True, exist_ok=True)
            fd, name = tempfile.mkstemp(dir=target.parent, prefix=target.name + ".")
            temps.append((name, os.fdopen(fd, "wb")))
        yield [handle for _, handle in temps]
        for _, handle in temps:
            handle.close()
        for (name, _), target in zip(temps, targets):
            os.replace(name, target)
    except BaseException:
        for name, handle in temps:
            handle.close()
            try:
                os.unlink(name)
            except OSError:
                pass
        raise


def write_bytes_atomic(path, data: bytes) -> Path:
    """Write bytes through a same-directory temp file and an atomic rename."""
    with _atomic_files([path]) as (handle,):
        handle.write(data)
    return Path(path)


def write_report(report, directory, *, formats=("structured", "tabular")) -> list[Path]:
    """Render the requested formats into a directory; returns written paths.

    All formats are checked before any file is written. The files are written block by
    block into temp files, which replace the paths together once the last block is out.
    """
    unknown = [fmt for fmt in formats if fmt not in _FORMATS]
    if unknown:
        raise ValueError(f"unknown report format: {unknown[0]!r}")
    paths = [Path(directory) / _FORMATS[fmt][0] for fmt in formats]
    with _atomic_files(paths) as handles:
        for piece in _pieces(report, formats):
            for handle, data in zip(handles, piece):
                handle.write(data)
    return paths
