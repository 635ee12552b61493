"""Deterministic text renderings of experiment reports.

Two formats are produced from the same report object: a structured
human-readable summary and a flat CSV of per-case rows. The renderers
know no experiment column: a report's ``columns`` are ``(name, values)``
pairs in report order, led by the case index. Values are a numpy array
(formatted at once by dtype and shape), any other sequence (formatted
value by value), or None for a column no case sets. Each column is
formatted once into tokens that both formats share. Every float is
printed with round-trip precision and files are written atomically, so
a report is a pure function of its config and seed; identical runs
produce byte-identical files.
"""

from __future__ import annotations

import csv
import io
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


# %-format of one component of a float or complex row
_ROW_FORMS = {"f": "%.17g", "c": "%.17g%+.17gj"}


def _column_tokens(values, n: int):
    """Tokens of one column of n values; None stands for a None value.

    A numpy column of 1-D floats or ints, or of rows of floats or of complex
    numbers, takes one formatter for all of it; the tokens are those of
    ``format_value`` on its ``_python_values``. Any other column goes value by value.
    """
    kind = values.dtype.kind if isinstance(values, np.ndarray) else None
    if kind in ("i", "u") and values.ndim == 1:
        return map(str, values.tolist())
    if kind == "f" and values.ndim == 1:
        return map("%.17g".__mod__, values.tolist())
    if kind in _ROW_FORMS and values.ndim == 2:
        form = ("(" + ", ".join([_ROW_FORMS[kind]] * values.shape[1]) + ")").__mod__
        if kind == "c":  # each complex value as its (real, imag) pair
            values = np.ascontiguousarray(values, dtype=complex).view(float)
        return map(form, map(tuple, values.tolist()))
    return [None if v is None else format_value(v) for v in _python_values(values, n)]


def _token_table(report) -> list[tuple]:
    """Each case's tokens, each column formatted once."""
    n = len(report.columns[0][1])
    return list(zip(*(_column_tokens(values, n) for _, values in report.columns)))


def _structured(report, table) -> str:
    out = [FORMAT_HEADER, "[config]"]
    for name, value in report.config.items():
        out.append(f"{name} = {format_value(value)}")
    out.append(f"digest = {report.config.digest()}")
    out.append("[cases]")
    names = [name for name, _ in report.columns[1:]]
    for index, *tokens in table:
        # the structured line leaves out values that are None
        cells = [f"{n} = {t}" for n, t in zip(names, tokens) if t is not None]
        out.append(" | ".join([f"case {index}", *cells]))
    out.append("[summary]")
    for name, value in report.summary.stats:
        out.append(f"{name} = {format_value(value)}")
    for name, ok in report.summary.criteria:
        out.append(f"criterion {name} = {'pass' if ok else 'fail'}")
    out.append(f"passed = {format_value(report.passed)}")
    return "\n".join(out) + "\n"


def _tabular(report, table) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([name for name, _ in report.columns])
    writer.writerows(table)  # a None token is written as an empty cell
    return buf.getvalue()


def render_structured(report) -> str:
    """Sectioned text report: config, one line per case, summary."""
    return _structured(report, _token_table(report))


def render_tabular(report) -> str:
    """One CSV row per case; the header is the column names."""
    return _tabular(report, _token_table(report))


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


# Report format -> (file name, renderer taking the report and its token table).
_FORMATS = {"structured": ("report.txt", _structured), "tabular": ("cases.csv", _tabular)}


def write_report(report, directory, *, formats=("structured", "tabular")) -> list[Path]:
    """Render the requested formats into a directory; returns written paths.

    All formats are checked before any file is written, and share one token table.
    """
    unknown = [fmt for fmt in formats if fmt not in _FORMATS]
    if unknown:
        raise ValueError(f"unknown report format: {unknown[0]!r}")
    table = _token_table(report)
    return [
        write_text_atomic(Path(directory) / name, render(report, table))
        for name, render in map(_FORMATS.get, formats)
    ]
