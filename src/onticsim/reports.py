"""Deterministic text renderings of experiment reports.

Two formats are produced from the same report object: a structured
human-readable summary and a flat CSV of per-case rows. The renderers
know no experiment column: a report holds at least one record, and each
record is a namedtuple whose fields are the columns in report order,
led by the case index. Every value is formatted once into a token table
that both formats share. Every float is printed with round-trip
precision and files are written atomically, so a report is a pure
function of its config and seed; identical runs produce byte-identical
files.
"""

from __future__ import annotations

import csv
import io
import itertools
import os
import tempfile
from pathlib import Path

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

FORMAT_HEADER = "format: onticsim-report 5"


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
        # float and complex components (v, w, psi, phi cells) inline, without a call each
        tokens = [
            f"{c:.17g}" if type(c) is float
            else f"{c.real:.17g}{c.imag:+.17g}j" if type(c) is complex
            else format_value(c)
            for c in value
        ]
        return "(" + ", ".join(tokens) + ")"
    return str(value)


def _column_tokens(column: tuple):
    """Tokens of one column, with one formatter for all of it when its values share a type.

    Float, int and None columns, and tuple columns whose cells have one length
    and only float or only complex components, take the fast path; the tokens
    are those of ``format_value``. Any other column goes value by value.
    """
    kinds = set(map(type, column))
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind is float:
        return map("%.17g".__mod__, column)
    if kind is int:
        return map(str, column)
    if kind is type(None):
        return [""] * len(column)
    if kind is tuple and len(set(map(len, column))) == 1:
        parts = set(map(type, itertools.chain.from_iterable(column)))
        width = len(column[0])
        if parts == {float}:
            return map(("(" + ", ".join(["%.17g"] * width) + ")").__mod__, column)
        if parts == {complex}:
            form = ("(" + ", ".join(["%.17g%+.17gj"] * width) + ")").__mod__
            return [form(tuple(x for c in cell for x in (c.real, c.imag))) for cell in column]
    return map(format_value, column)


def _token_table(records) -> list[tuple[str, ...]]:
    """Each record's values as tokens, each value formatted once, column by column."""
    return list(zip(*map(_column_tokens, zip(*records))))


def _structured(report, table) -> str:
    out = [FORMAT_HEADER, "[config]"]
    for name, value in report.config.items():
        out.append(f"{name} = {format_value(value)}")
    out.append(f"digest = {report.config.digest()}")
    out.append("[cases]")
    names = report.records[0]._fields[1:]
    for record, (index, *tokens) in zip(report.records, table):
        # the structured line leaves out values that are None
        cells = [f"{n} = {t}" for n, v, t in zip(names, record[1:], tokens) if v is not None]
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
    writer.writerow(report.records[0]._fields)
    writer.writerows(table)
    return buf.getvalue()


def render_structured(report) -> str:
    """Sectioned text report: config, one line per case, summary."""
    return _structured(report, _token_table(report.records))


def render_tabular(report) -> str:
    """One CSV row per case; the header is the first record's field names."""
    return _tabular(report, _token_table(report.records))


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
    table = _token_table(report.records)
    return [
        write_text_atomic(Path(directory) / name, render(report, table))
        for name, render in map(_FORMATS.get, formats)
    ]
