import numpy as np
import pytest

from onticsim import ExperimentConfig, run_experiment
from onticsim.reports import (
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
    assert lines[0] == "format: onticsim-report 4"
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
        write_report(report, tmp_path, formats=("yaml",))


def test_write_text_atomic(tmp_path):
    target = tmp_path / "nested" / "out.txt"
    write_text_atomic(target, "alpha\n")
    assert target.read_text() == "alpha\n"
    write_text_atomic(target, "beta\n")
    assert target.read_text() == "beta\n"
    write_bytes_atomic(target, b"\x00\n\xff")
    assert target.read_bytes() == b"\x00\n\xff"
    assert list(target.parent.iterdir()) == [target]
