"""Deterministic text renderings of experiment reports.

Two formats are produced from the same report object: a structured
human-readable summary and a flat CSV of per-case rows. Every float is
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

FORMAT_HEADER = "format: onticsim-report 4"


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
        return "(" + ", ".join(format_value(v) for v in value) + ")"
    return str(value)


def _config_lines(config) -> list[str]:
    lines = []
    for name, value in config.items():
        lines.append(f"{name} = {format_value(value)}")
    lines.append(f"digest = {config.digest()}")
    return lines


_FIXED_FIELDS = ("exact_p", "born_p", "freq", "z", "exact_match", "rejections")


def _columns(record) -> list[tuple[str, object, bool]]:
    """(name, value, fixed) for each column of a record, in report order.

    Inputs come first, then the fixed fields, then the extras.
    """
    return [
        *((name, value, False) for name, value in record.inputs),
        *((name, getattr(record, name), True) for name in _FIXED_FIELDS),
        *((name, value, False) for name, value in record.extras),
    ]


def render_structured(report) -> str:
    """Sectioned text report: config, one line per case, summary."""
    out = [FORMAT_HEADER, "[config]"]
    out.extend(_config_lines(report.config))
    out.append("[cases]")
    for record in report.records:
        # the structured line leaves out fixed fields that are None
        tokens = [
            f"{name} = {format_value(value)}"
            for name, value, fixed in _columns(record)
            if not (fixed and value is None)
        ]
        out.append(" | ".join([f"case {record.index}", *tokens]))
    out.append("[summary]")
    for name, value in report.summary.stats:
        out.append(f"{name} = {format_value(value)}")
    for name, ok in report.summary.criteria:
        out.append(f"criterion {name} = {'pass' if ok else 'fail'}")
    out.append(f"passed = {format_value(report.passed)}")
    return "\n".join(out) + "\n"


def render_tabular(report) -> str:
    """One CSV row per case; column set is fixed by the first record."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if not report.records:
        writer.writerow(["index"])
        return buf.getvalue()
    writer.writerow(["index", *(name for name, _, _ in _columns(report.records[0]))])
    for record in report.records:
        writer.writerow([str(record.index), *(format_value(value) for _, value, _ in _columns(record))])
    return buf.getvalue()


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


def write_report(report, directory, *, formats=("structured", "tabular")) -> list[Path]:
    """Render the requested formats into a directory; returns written paths."""
    directory = Path(directory)
    written = []
    for fmt in formats:
        if fmt == "structured":
            written.append(write_text_atomic(directory / "report.txt", render_structured(report)))
        elif fmt == "tabular":
            written.append(write_text_atomic(directory / "cases.csv", render_tabular(report)))
        else:
            raise ValueError(f"unknown report format: {fmt!r}")
    return written
