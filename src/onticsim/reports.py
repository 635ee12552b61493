"""Deterministic text renderings of experiment reports.

Two formats are produced from the same report object: a structured
human-readable summary and a flat CSV of per-case rows. The renderers
know no experiment column: a report's ``columns`` are ``(name, values)``
pairs in report order, led by the case index; values are a numpy array,
any other sequence, or None for a column no case sets. Each is formatted
once (a numpy column of ints, floats, or float or complex rows by one
``%`` over the whole column) and each file forms its case lines from one
row template. Floats print with round-trip precision and files are
written atomically, so identical runs produce byte-identical files.
"""

from __future__ import annotations

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

FORMAT_HEADER = "format: onticsim-report 7"


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


def _token_columns(report) -> list:
    """(name, tokens, listed) per column, each column formatted once."""
    n = len(report.columns[0][1])
    return [(name, *_column_tokens(values, n)) for name, values in report.columns]


def _structured(report, columns) -> str:
    out = [FORMAT_HEADER, "[config]"]
    for name, value in report.config.items():
        out.append(f"{name} = {format_value(value)}")
    out.append(f"digest = {report.config.digest()}")
    out.append("[cases]")
    # One template forms every case line; a listed column's cell is "" for a None value.
    template, cells = "case %s", [columns[0][1]]
    for name, tokens, listed in columns[1:]:
        if tokens is not None:
            template += "%s" if listed else f" | {name.replace('%', '%%')} = %s"
            cells.append(["" if t is None else f" | {name} = {t}" for t in tokens] if listed else tokens)
    out.extend(map(template.__mod__, zip(*cells)))
    out.append("[summary]")
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


def _tabular(report, columns) -> str:
    # One template forms every row; an unset column is an empty cell. An array column's tokens
    # share one form: rows of two or more values hold ", ", no other ',', '"' or "\\n".
    parts, cells = [], []
    for _, tokens, listed in columns:
        quoted = not listed and tokens and "," in tokens[0]
        parts.append("" if tokens is None else '"%s"' if quoted else "%s")
        if tokens is not None:
            cells.append(["" if t is None else _csv_cell(t) for t in tokens] if listed else tokens)
    header = ",".join(_csv_cell(name) for name, _, _ in columns)
    return "\n".join([header, *map(",".join(parts).__mod__, zip(*cells)), ""])


def render_structured(report) -> str:
    """Sectioned text report: config, one line per case, summary."""
    return _structured(report, _token_columns(report))


def render_tabular(report) -> str:
    """One CSV row per case; the header is the column names."""
    return _tabular(report, _token_columns(report))


def write_bytes_atomic(path, data: bytes) -> Path:
    """Write bytes through a same-directory temp file and an atomic rename."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=target.parent, prefix=target.name + ".")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return target


def write_text_atomic(path, text: str) -> Path:
    """Write text as UTF-8, newlines as given, through ``write_bytes_atomic``."""
    return write_bytes_atomic(path, text.encode("utf-8"))


# Report format -> (file name, renderer taking the report and its token columns).
_FORMATS = {"structured": ("report.txt", _structured), "tabular": ("cases.csv", _tabular)}


def write_report(report, directory, *, formats=("structured", "tabular")) -> list[Path]:
    """Render the requested formats into a directory; returns written paths.

    All formats are checked before any file is written, and share the token columns.
    """
    unknown = [fmt for fmt in formats if fmt not in _FORMATS]
    if unknown:
        raise ValueError(f"unknown report format: {unknown[0]!r}")
    columns = _token_columns(report)
    return [
        write_text_atomic(Path(directory) / name, render(report, columns))
        for name, render in map(_FORMATS.get, formats)
    ]
