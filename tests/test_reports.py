import csv
import functools
import io
import pickle

import numpy as np
import pytest

from onticsim import EXPERIMENT_KINDS, ExperimentConfig, run_experiment
from onticsim.reports import (
    _token_table,
    format_float,
    format_value,
    render_structured,
    render_tabular,
    write_report,
    write_bytes_atomic,
    write_text_atomic,
)


def test_format_float_round_trips():
    rng = np.random.default_rng(31)
    for _ in range(10**4):
        x = float(rng.standard_normal() * 10.0 ** rng.integers(-12, 12))
        assert float(format_float(x)) == x


def test_format_value_tokens():
    assert format_value(None) == ""
    assert format_value(True) == "true"
    assert format_value(False) == "false"
    assert format_value(3) == "3"
    assert format_value((1.0, 2.0)) == "(1, 2)"
    assert format_value((0.5 - 0.25j, 1j)) == "(0.5-0.25j, 0+1j)"
    assert format_value(()) == "()"
    # tuples of other components still format each one as a value of its own
    assert format_value((1, None, True, 0.5, 1 + 2j)) == "(1, , true, 0.5, 1+2j)"
    assert format_value(((1.0,), 2.0)) == "((1), 2)"
    assert float(format_value(0.1)) == 0.1
    token = format_value(0.5 - 0.25j)
    assert complex(token) == 0.5 - 0.25j


def test_render_deterministic():
    cfg = ExperimentConfig(kind="exact-qubit", pairs=20, region="cone", seed=3)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert render_structured(a) == render_structured(b)
    assert render_tabular(a) == render_tabular(b)


def test_structured_layout():
    cfg = ExperimentConfig(kind="witness", seed=5)
    text = render_structured(run_experiment(cfg))
    lines = text.splitlines()
    assert lines[0] == "format: onticsim-report 5"
    assert "[config]" in lines
    assert "[cases]" in lines
    assert "[summary]" in lines
    assert any(line.startswith("digest = sha256:") for line in lines)
    assert lines[-1] == "passed = true"


def test_tabular_layout():
    cfg = ExperimentConfig(kind="exact-qubit", pairs=5, region="cone", seed=3)
    text = render_tabular(run_experiment(cfg))
    rows = text.splitlines()
    assert len(rows) == 6
    header = rows[0].split(",")
    assert header[0] == "index"
    for name in ("exact_p", "born_p", "freq", "z", "exact_match", "rejections"):
        assert name in header


def test_write_report_files(tmp_path):
    cfg = ExperimentConfig(kind="witness", seed=5)
    report = run_experiment(cfg)
    paths = write_report(report, tmp_path, formats=("structured", "tabular"))
    assert [p.name for p in paths] == ["report.txt", "cases.csv"]
    assert (tmp_path / "report.txt").read_text() == render_structured(report)
    assert (tmp_path / "cases.csv").read_text() == render_tabular(report)
    with pytest.raises(ValueError):
        write_report(report, tmp_path / "bad", formats=("structured", "yaml"))
    assert not (tmp_path / "bad").exists()  # every format is checked before writing


def test_write_text_atomic(tmp_path):
    target = tmp_path / "nested" / "out.txt"
    write_text_atomic(target, "alpha\n")
    assert target.read_text() == "alpha\n"
    write_text_atomic(target, "beta\n")
    assert target.read_text() == "beta\n"
    write_bytes_atomic(target, b"\x00\n\xff")
    assert target.read_bytes() == b"\x00\n\xff"
    assert list(target.parent.iterdir()) == [target]


# One small run per experiment kind, and the qubit kinds in both regions.
ROW_CONFIGS = {
    "exact-qubit-sphere": dict(kind="exact-qubit", pairs=6),
    "exact-qubit-cone": dict(kind="exact-qubit", pairs=6, region="cone"),
    "mc-qubit-sphere": dict(kind="mc-qubit", pairs=6, samples=100),
    "mc-qubit-cone": dict(kind="mc-qubit", pairs=6, samples=100, region="cone"),
    "exact-ndim": dict(kind="exact-ndim", pairs=6, dim=3),
    "mc-ndim": dict(kind="mc-ndim", pairs=6, samples=100, dim=3, scheme="ground"),
    "positivity-sweep": dict(kind="positivity-sweep", x_step=0.05, events=50),
    "covering": dict(kind="covering", pairs=100),
    "witness": dict(kind="witness"),
}
PER_PAIR_KINDS = ("exact-qubit", "mc-qubit", "exact-ndim", "mc-ndim")


@functools.lru_cache(maxsize=None)
def _row_report(name):
    return run_experiment(ExperimentConfig(seed=2, **ROW_CONFIGS[name]))


def test_row_configs_cover_every_kind():
    assert {cfg["kind"] for cfg in ROW_CONFIGS.values()} == set(EXPERIMENT_KINDS)


@pytest.mark.parametrize("name", ROW_CONFIGS)
def test_rows_are_the_report_columns(name):
    report = _row_report(name)
    fields = report.records[0]._fields
    assert fields[0] == "index"
    assert all(type(r) is type(report.records[0]) for r in report.records)
    assert [r.index for r in report.records] == list(range(len(report.records)))
    assert pickle.loads(pickle.dumps(report)) == report
    assert next(csv.reader(io.StringIO(render_tabular(report)))) == list(fields)
    # a structured case line names exactly the fields whose value is not None
    lines = [line for line in render_structured(report).splitlines() if line.startswith("case ")]
    for record, line in zip(report.records, lines, strict=True):
        names = [cell.split(" = ")[0] for cell in line.split(" | ")[1:]]
        assert names == [f for f, v in zip(fields[1:], record[1:]) if v is not None]


@pytest.mark.parametrize("name", ROW_CONFIGS)
def test_per_pair_rows_carry_rejections(name):
    # perfbench/tracing.py sums r.rejections over the per-pair kinds
    report = _row_report(name)
    if report.config.kind in PER_PAIR_KINDS:
        assert all(type(r.rejections) is int for r in report.records)
    else:
        assert all(r.rejections is None for r in report.records)


@pytest.mark.parametrize("name", ROW_CONFIGS)
def test_write_report_matches_the_renderers(name, tmp_path):
    report = _row_report(name)
    write_report(report, tmp_path)
    assert (tmp_path / "report.txt").read_bytes() == render_structured(report).encode("utf-8")
    assert (tmp_path / "cases.csv").read_bytes() == render_tabular(report).encode("utf-8")
    write_report(report, tmp_path / "one", formats=("tabular",))
    assert [p.name for p in (tmp_path / "one").iterdir()] == ["cases.csv"]


_NAN = float("nan")
_INF = float("inf")
# Columns that each take the one-formatter path, and columns that must go value by value.
_TOKEN_COLUMNS = {
    "floats": [0.1, -0.0, 0.0, _INF, -_INF, _NAN, 1e-300, -2.5e300, 5e-324],
    "ints": [0, -1, 7, 2**70, -(2**63), 3, 4, 5, 6],
    "nones": [None] * 9,
    "bools": [True, False] * 4 + [True],
    "float_triples": [(0.1, -0.0, _NAN), (_INF, -_INF, 1.0)] * 4 + [(0.0, 0.0, 0.0)],
    "complex_pairs": [
        (complex(-0.0, -0.0), complex(_NAN, 1.0)),
        (complex(1.0, _NAN), complex(0.5, -0.0)),
        (complex(_INF, -_INF), complex(-1e-300, 2.0)),
    ] * 3,
    "ragged_floats": [(0.5,), (0.5, -0.0)] * 4 + [()],
    "empty_tuples": [()] * 9,
    "mixed_tuples": [(1.0, 2), (1.0, 2.0), (0.5 + 1j, None), (True, -0.0), (_NAN, 1j),
                     (("x",), 2.0), (1.0, 2.0), (-0.0, _INF), (0.5, 0.5)],
    "float_and_complex": [(1.0, 2.0), (1j, 2j)] * 4 + [(0.0, 0.0)],
    "z": [None, 1.5, -0.0, None, _NAN, 2.0, None, -_INF, 0.25],
    "exact_match": [None, True, False, None, None, True, None, None, False],
    "ints_and_floats": [1, 1.0, 2, 2.5, -0.0, 0, 3, 4.0, 5],
    "numpy_floats": [np.float64(0.1), np.float64(-0.0)] * 4 + [np.float64(_NAN)],
    "strings": ["global_min", "a", "b", "", "x, y", "q", "r", "s", "t"],
}


def test_token_table_matches_format_value():
    records = list(zip(range(9), *_TOKEN_COLUMNS.values(), strict=True))
    table = _token_table(records)
    assert len(table) == len(records)
    for record, tokens in zip(records, table, strict=True):
        assert len(tokens) == len(record)
        for value, token in zip(record, tokens):
            assert type(token) is str and token == format_value(value), value


@pytest.mark.parametrize("name", ROW_CONFIGS)
def test_token_table_of_each_kind_matches_format_value(name):
    records = _row_report(name).records
    assert _token_table(records) == [tuple(map(format_value, r)) for r in records]
