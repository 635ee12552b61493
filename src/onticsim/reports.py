"""Deterministic text renderings of experiment reports.

Two formats are produced from the same report object: a structured
human-readable summary and a flat CSV of per-case rows. The renderers
know no experiment column: a report's ``columns`` are ``(name, values)``
pairs in report order, led by the case index; values are a numpy array,
any other sequence, or None for a column no case sets.

Both formats are rendered in blocks of ``_WRITE_BLOCK_ROWS`` rows. Per
block, each column is formatted once (a numpy column of ints, floats, or
float or complex rows by one ``%`` over the block) and each file forms
the block's case lines from one row template; the structured head comes
before the first block and the summary after the last. ``write_report``
streams the blocks into a temp file per format and renames them into
place at the end, so writing a report holds one block's text, not the
file's; ``render_structured`` and ``render_tabular`` join the same
blocks into a string. Floats print with round-trip precision, so
identical runs produce byte-identical files, whatever the block size.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
from pathlib import Path

import numpy as np

__all__ = [
    "FORMAT_HEADER",
    "format_float",
    "format_value",
    "render_structured",
    "render_tabular",
    "write_bytes_atomic",
    "write_text_atomic",
    "write_report",
]

FORMAT_HEADER = "format: onticsim-report 8"

# Rows per block in which write_report streams both files: each block's tokens are formatted
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


def _python_values(values, n: int):
    """A column's n values as plain Python values, the rows of a 2-D array as tuples."""
    if values is None:
        return [None] * n
    if isinstance(values, np.ndarray):
        return list(map(tuple, values.tolist())) if values.ndim == 2 else values.tolist()
    return values


# %-format of one value of a float or complex column
_FORMS = {"f": "%.17g", "c": "%.17g%+.17gj"}


def _column_tokens(values, n: int) -> tuple:
    """One column's tokens (None for a column no case sets) and whether it is listed.

    A numpy column of 1-D ints, or of 1-D or 2-D floats or complex numbers, is
    formatted at once; any other column is listed, formatted value by value with
    None for a None value. Tokens equal ``format_value`` on ``_python_values``.
    """
    kind = values.dtype.kind if isinstance(values, np.ndarray) else None
    if kind in ("i", "u") and values.ndim == 1:
        return list(map(str, values.tolist())), False
    if kind in _FORMS and values.ndim in (1, 2):
        form = _FORMS[kind] if values.ndim == 1 else f"({', '.join([_FORMS[kind]] * values.shape[1])})"
        if kind == "c":  # each complex value as its (real, imag) pair
            values = np.ascontiguousarray(values, dtype=complex).view(float)
        return ((form + "\0") * n % tuple(values.ravel().tolist())).split("\0")[:-1], False
    if values is None:
        return None, True
    return [None if v is None else format_value(v) for v in _python_values(values, n)], True


def _blocks(report):
    """(name, tokens, listed) per column for each block of ``_WRITE_BLOCK_ROWS`` rows in order."""
    n = len(report.columns[0][1])
    for start in range(0, n, _WRITE_BLOCK_ROWS):
        rows = slice(start, min(n, start + _WRITE_BLOCK_ROWS))
        yield [(name, *_column_tokens(None if values is None else values[rows], rows.stop - start))
               for name, values in report.columns]


def _structured_head(report) -> str:
    out = [FORMAT_HEADER, "[config]"]
    for name, value in report.config.items():
        out.append(f"{name} = {format_value(value)}")
    out += [f"digest = {report.config.digest()}", "[cases]", ""]
    return "\n".join(out)


def _structured_lines(columns) -> str:
    # One template forms every case line; a listed column's cell is "" for a None value.
    template, cells = "case %s", [columns[0][1]]
    for name, tokens, listed in columns[1:]:
        if tokens is not None:
            template += "%s" if listed else f" | {name.replace('%', '%%')} = %s"
            cells.append(["" if t is None else f" | {name} = {t}" for t in tokens] if listed else tokens)
    return "".join(map((template + "\n").__mod__, zip(*cells)))


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


def _tabular_lines(columns) -> str:
    # One template forms every row; an unset column is an empty cell. An array column's tokens
    # share one form: rows of two or more values hold ", ", no other ',', '"' or "\\n".
    parts, cells = [], []
    for _, tokens, listed in columns:
        quoted = not listed and tokens and "," in tokens[0]
        parts.append("" if tokens is None else '"%s"' if quoted else "%s")
        if tokens is not None:
            cells.append(["" if t is None else _csv_cell(t) for t in tokens] if listed else tokens)
    return "".join(map((",".join(parts) + "\n").__mod__, zip(*cells)))


# Report format -> (file name, head of the report, lines of a block's token columns, tail).
_FORMATS = {
    "structured": ("report.txt", _structured_head, _structured_lines, _structured_tail),
    "tabular": ("cases.csv", _tabular_head, _tabular_lines, lambda report: ""),
}


def _pieces(report, formats):
    """Each format's text in pieces, in step: the heads, each block's lines, the tails.

    A block's token columns are formatted once, for every format.
    """
    parts = [_FORMATS[fmt][1:] for fmt in formats]
    yield [head(report) for head, _, _ in parts]
    for columns in _blocks(report):
        yield [lines(columns) for _, lines, _ in parts]
    yield [tail(report) for _, _, tail in parts]


def render_structured(report) -> str:
    """Sectioned text report: config, one line per case, summary."""
    return "".join(text for text, in _pieces(report, ["structured"]))


def render_tabular(report) -> str:
    """One CSV row per case; the header is the column names."""
    return "".join(text for text, in _pieces(report, ["tabular"]))


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


def write_text_atomic(path, text: str) -> Path:
    """Write text as UTF-8, newlines as given, through ``write_bytes_atomic``."""
    return write_bytes_atomic(path, text.encode("utf-8"))


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
            for handle, text in zip(handles, piece):
                handle.write(text.encode("utf-8"))
    return paths
