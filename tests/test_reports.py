import copy
import csv
import dataclasses
import functools
import io
import pickle
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onticsim import (
    EXPERIMENT_KINDS,
    ExperimentConfig,
    ExperimentReport,
    case_rng,
    harness,
    run_experiment,
)
from onticsim import icosa, reports
from onticsim.harness import _summary
from onticsim.reports import (
    format_float,
    format_value,
    render_structured,
    render_tabular,
    write_report,
    write_bytes_atomic,
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
    assert lines[0] == "format: onticsim-report 11"
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
    assert rows[0] == "index,v,w,exact_p,born_p,rejections,abs_error"


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


def test_write_bytes_atomic(tmp_path):
    target = tmp_path / "nested" / "out.bin"
    write_bytes_atomic(target, b"alpha\n")
    assert target.read_bytes() == b"alpha\n"
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
    "protocol": dict(kind="protocol", pairs=3, samples=100),
}
PER_PAIR_KINDS = ("exact-qubit", "mc-qubit", "exact-ndim", "mc-ndim", "protocol")
# The columns each report holds, in order: index, the kind's inputs, then what it computes.
_MC = "born_p,freq,z,rejections"
ROW_COLUMNS = {
    "exact-qubit-sphere": "index,v,w,patch,exact_p,born_p,rejections,abs_error",
    "exact-qubit-cone": "index,v,w,exact_p,born_p,rejections,abs_error",
    "mc-qubit-sphere": "index,v,w,patch," + _MC,
    "mc-qubit-cone": "index,v,w," + _MC,
    "exact-ndim": "index,psi,phi,exact_p,born_p,rejections,abs_error,cond_min,cond_max",
    "mc-ndim": "index,psi,phi," + _MC,
    "positivity-sweep": "index,quantity,x,n,event,value",
    "covering": "index,direction,worst_vector,patch,angle_to_nearest_vertex",
    "witness": "index,preparation,theta,phi,v,zenith_rate,fd_rate,fd_error",
    "protocol": "index,v,w,patch," + _MC,
}


@functools.lru_cache(maxsize=None)
def _row_report(name):
    return run_experiment(ExperimentConfig(seed=2, **ROW_CONFIGS[name]))


def test_row_configs_cover_every_kind():
    assert {cfg["kind"] for cfg in ROW_CONFIGS.values()} == set(EXPERIMENT_KINDS)


def _is_plain(value) -> bool:
    if isinstance(value, tuple):
        return all(map(_is_plain, value))
    return type(value) in (int, float, complex, bool, str, type(None))


@pytest.mark.parametrize("name", ROW_CONFIGS)
def test_rows_are_the_report_columns(name):
    report = _row_report(name)
    records = report.records
    fields = records[0]._fields
    assert fields == tuple(column for column, _ in report.columns)
    assert fields[0] == "index"
    assert len(records) == len(report.columns[0][1])
    assert [records[i] for i in range(len(records))] == list(records)
    assert all(type(r) is type(records[0]) for r in records)
    assert all(_is_plain(value) for r in records for value in r)
    assert [r.index for r in records] == list(range(len(records)))
    # columns hold numpy arrays, so == on two reports is ambiguous; compare what they render
    copy = pickle.loads(pickle.dumps(report))
    assert render_structured(copy) == render_structured(report)
    assert render_tabular(copy) == render_tabular(report)
    assert next(csv.reader(io.StringIO(render_tabular(report)))) == list(fields)
    # a structured case line names every field
    lines = [line for line in render_structured(report).splitlines() if line.startswith("case ")]
    for line in lines:
        assert [cell.split(" = ")[0] for cell in line.split(" | ")[1:]] == list(fields[1:])
    assert len(lines) == len(records)


@pytest.mark.parametrize("name", ROW_CONFIGS)
def test_reports_hold_only_computed_columns(name):
    report = _row_report(name)
    assert all(values is not None for _, values in report.columns)
    assert all(value is not None for record in report.records for value in record)
    assert render_tabular(report).split("\n", 1)[0] == ROW_COLUMNS[name]


@pytest.mark.parametrize("name", ROW_CONFIGS)
def test_per_pair_rows_carry_rejections(name):
    # perfbench/tracing.py sums r.rejections over the per-pair kinds
    report = _row_report(name)
    if report.config.kind in PER_PAIR_KINDS:
        assert all(type(r.rejections) is int for r in report.records)
    else:
        assert "rejections" not in dict(report.columns)


@pytest.mark.parametrize("name", ROW_CONFIGS)
def test_run_draws_from_one_generator(name, monkeypatch):
    cfg = ExperimentConfig(seed=3, **ROW_CONFIGS[name])
    calls = []

    def counted(seed, index):
        calls.append((seed, index))
        return case_rng(seed, index)

    monkeypatch.setattr(harness, "case_rng", counted)
    run_experiment(cfg)
    if cfg.kind == "covering":  # one generator per block: block b's is (seed, b)
        assert calls == [(3, b) for b in range(len(icosa._covering_blocks(cfg.pairs)))]
    else:
        assert calls in ([], [(3, 0)])


def test_building_a_config_makes_no_generator(monkeypatch):
    harness._MEMO.clear()
    calls = []

    def counted(seed, index):
        calls.append((seed, index))
        return case_rng(seed, index)

    monkeypatch.setattr(harness, "case_rng", counted)
    for config in ROW_CONFIGS.values():
        ExperimentConfig(seed=4, **config)
    # a radius that admits no in-region pair is found by the run, not when the config is built
    ExperimentConfig(seed=4, kind="exact-ndim", dim=12, scheme="ground", pole_mass=0.9, radius=10.0)
    assert calls == []
    # as in verify-ndim --samples: the mc-ndim run takes the pairs the exact-ndim run drew
    exact = ExperimentConfig(seed=4, kind="exact-ndim", pairs=6, dim=3)
    run_experiment(exact)
    mc = ExperimentConfig(seed=4, kind="mc-ndim", pairs=6, dim=3, samples=100)
    run_experiment(mc)
    assert calls == [(4, 0)] * 2
    harness._MEMO.clear()
    fresh = run_experiment(ExperimentConfig(seed=4, kind="mc-ndim", pairs=6, dim=3, samples=100))
    assert render_tabular(run_experiment(mc)) == render_tabular(fresh)


@pytest.mark.parametrize("name", ["exact-ndim", "mc-ndim"])
def test_ndim_pairs_drawn_once_per_config(name, monkeypatch):
    harness._MEMO.clear()  # a draw held from an earlier test would hide this one
    draw, draws = harness.make_in_region_pair, []

    def counted(*args, **kwargs):
        draws.append(args)
        return draw(*args, **kwargs)

    monkeypatch.setattr(harness, "make_in_region_pair", counted)
    cfg = ExperimentConfig(seed=6, **ROW_CONFIGS[name])
    reports = [run_experiment(cfg), run_experiment(cfg), run_experiment(copy.copy(cfg))]
    assert len(draws) == 1
    assert len({render_structured(r) + render_tabular(r) for r in reports}) == 1
    # the draw is held by the harness, not the config: it stays out of ==, the hash and the identity
    assert cfg == ExperimentConfig(seed=6, **ROW_CONFIGS[name])
    assert hash(cfg) == hash(ExperimentConfig(seed=6, **ROW_CONFIGS[name]))
    assert set(vars(cfg)) == {f.name for f in dataclasses.fields(cfg)}


@pytest.mark.parametrize("name", ROW_CONFIGS)
def test_write_report_matches_the_renderers(name, tmp_path):
    report = _row_report(name)
    write_report(report, tmp_path)
    assert (tmp_path / "report.txt").read_bytes() == render_structured(report).encode("utf-8")
    assert (tmp_path / "cases.csv").read_bytes() == render_tabular(report).encode("utf-8")
    write_report(report, tmp_path / "one", formats=("tabular",))
    assert [p.name for p in (tmp_path / "one").iterdir()] == ["cases.csv"]


@pytest.mark.parametrize("block_rows", [1, 2, 3, 7])
@pytest.mark.parametrize("name", ROW_CONFIGS)
def test_streamed_blocks_never_change_bytes(name, block_rows, tmp_path, monkeypatch):
    report = _row_report(name)
    structured, tabular = render_structured(report), render_tabular(report)  # default blocks
    monkeypatch.setattr(reports, "_WRITE_BLOCK_ROWS", block_rows)
    write_report(report, tmp_path)
    assert (tmp_path / "report.txt").read_bytes() == structured.encode("utf-8")
    assert (tmp_path / "cases.csv").read_bytes() == tabular.encode("utf-8")


@pytest.mark.parametrize("earlier", [False, True])
def test_failure_in_a_later_block_leaves_the_directory_clean(earlier, tmp_path, monkeypatch):
    report = _row_report("exact-qubit-sphere")  # 6 rows: blocks of 2 rows, 3 blocks
    if earlier:
        write_report(_row_report("exact-qubit-cone"), tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    cells, calls = reports._block_cells, []

    def second_block_fails(columns, rows):
        calls.append(rows)
        if len(calls) > 1:  # the cells of the second block
            raise OSError("disk full")
        return cells(columns, rows)

    monkeypatch.setattr(reports, "_WRITE_BLOCK_ROWS", 2)
    monkeypatch.setattr(reports, "_block_cells", second_block_fails)
    with pytest.raises(OSError, match="disk full"):
        write_report(report, tmp_path)
    assert calls == [slice(0, 2), slice(2, 4)]
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


_NAN = float("nan")
_INF = float("inf")
_SPECIAL = [0.1, -0.0, 0.0, _INF, -_INF, _NAN, 1e-300, -2.5e300, 5e-324]
# Numpy columns, each formatted at once by its dtype and shape.
_ARRAY_COLUMNS = {
    "floats": np.array(_SPECIAL),
    "int64": np.array([0, -1, 7, 2**62, -(2**63), 2**63 - 1, 3, 4, 5], dtype=np.int64),
    "float_rows": np.array(_SPECIAL)[(np.arange(9)[:, None] + np.arange(3)) % 9],
    "complex_rows": np.array([
        [complex(-0.0, -0.0), complex(_NAN, 1.0), complex(0.0, -0.0)],
        [complex(1.0, _NAN), complex(0.5, -0.0), complex(-_INF, _INF)],
        [complex(_INF, -_INF), complex(-1e-300, 2.0), complex(5e-324, -2.5e300)],
    ] * 3),
    "float_rows_transposed": np.array([_SPECIAL, _SPECIAL[::-1], _SPECIAL[4:] + _SPECIAL[:4]]).T,
    "complex_rows_of_a_slice": (np.arange(18) * (0.5 - 1.5j)).reshape(9, 2)[:, ::-1],
}
# Python columns, which go value by value.
_TOKEN_COLUMNS = {
    "floats": list(_SPECIAL),
    "ints": [0, -1, 7, 2**70, -(2**63), 3, 4, 5, 6],
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
    "ints_and_floats": [1, 1.0, 2, 2.5, -0.0, 0, 3, 4.0, 5],
    "numpy_floats": [np.float64(0.1), np.float64(-0.0)] * 4 + [np.float64(_NAN)],
    "strings": ["global_min", "a", "b", "", "x, y", "q", "r", "s", "t"],
}


def _report(columns):
    """A report of hand-built columns."""
    cfg = ExperimentConfig(kind="exact-qubit", pairs=len(columns[0][1]))
    return ExperimentReport(cfg, tuple(columns), _summary((("cases", len(columns[0][1])),), (("ok", True),)))


def _assert_cells_match_format_value(report, csv_reads_back=True):
    """Every rendered cell is format_value of its record value, cell by cell."""
    names = [name for name, _ in report.columns]
    if csv_reads_back:
        rows = list(csv.reader(io.StringIO(render_tabular(report), newline="")))
        assert rows == [names, *([format_value(v) for v in r] for r in report.records)]
    lines = []
    for record in report.records:
        cells = [f"{n} = {format_value(v)}" for n, v in zip(names[1:], record[1:])]
        lines.append(" | ".join([f"case {record.index}", *cells]) + "\n")
    text = render_structured(report)
    assert text[text.index("\n[cases]\n") + 9 : text.rindex("\n[summary]\n") + 1] == "".join(lines)


def test_token_table_matches_format_value():
    # the tokens both files render, read back cell by cell, for array and listed columns
    columns = [("index", np.arange(9))]
    columns += [(f"array_{k}", v) for k, v in _ARRAY_COLUMNS.items()]
    columns += [(f"list_{k}", v) for k, v in _TOKEN_COLUMNS.items()]
    _assert_cells_match_format_value(_report(columns))


@pytest.mark.parametrize("name", ROW_CONFIGS)
def test_token_table_of_each_kind_matches_format_value(name):
    _assert_cells_match_format_value(_row_report(name))


def _csv_writer_text(report) -> str:
    """The CSV that csv.writer makes of the report's format_value tokens."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([name for name, _ in report.columns])
    writer.writerows([format_value(v) for v in r] for r in report.records)
    return buf.getvalue()


_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
# text that csv must quote or leave alone: commas, quotes, \n, \r, leading spaces, ""
_TEXT = st.one_of(st.text(',"\n\r a|=', max_size=6), st.text(max_size=6))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_csv_cells_render_as_csv_writer(data):
    n = data.draw(st.integers(1, 4), label="cases")
    width = data.draw(st.integers(0, 3), label="row width")
    block_rows = data.draw(st.integers(1, 5), label="block rows")

    def array(shape, elements):
        return np.array(data.draw(st.lists(elements, min_size=n * width, max_size=n * width))).reshape(shape)

    floats = np.array(data.draw(st.lists(_FLOATS, min_size=n, max_size=n)), dtype=float)
    with np.errstate(over="ignore"):  # floats near the float64 maximum become infinities, as drawn
        complex_floats = floats * (1 - 2j)
    columns = [
        ("index", np.arange(n)),
        ("text", data.draw(st.lists(_TEXT, min_size=n, max_size=n), label="text")),
        ("floats", floats),
        ("float_rows", array((n, width), _FLOATS).astype(float)),
        ("complex_rows", array((n, width), st.complex_numbers()).astype(complex)),
        ("complex", complex_floats),
        ("int_rows", array((n, width), st.integers(-(2**63), 2**63 - 1)).astype(np.int64)),
        ("ints", np.arange(n, dtype=np.uint8)),
    ]
    report = _report(columns)
    with mock.patch.object(reports, "_WRITE_BLOCK_ROWS", block_rows):
        text = render_tabular(report)
        assert text == _csv_writer_text(report)
        # csv.writer leaves a lone "\r" unquoted, so only such a cell does not read back
        reads_back = not any("\r" in t and not set(',"\n') & set(t) for t in columns[1][1])
        _assert_cells_match_format_value(report, reads_back)


def test_degenerate_monte_carlo_case_renders_z_limit():
    # p = 1 met exactly scores z = 0; missed, z is an infinity with the sign of freq - p
    cfg = ExperimentConfig(kind="mc-qubit", pairs=2, samples=100, region="cone")
    v = np.array([[0.5, 0.0, 0.75**0.5]] * 2)
    born, freq = np.array([1.0, 1.0]), np.array([1.0, 0.99])
    columns = (
        ("index", np.arange(2)), ("v", v), ("w", v), ("born_p", born), ("freq", freq),
        ("z", harness.z_score(freq, born, 100)), ("rejections", np.zeros(2, dtype=np.int64)),
    )
    report = ExperimentReport(cfg, columns, _summary((), (("z_within_limit", False),)))
    lines = [x for x in render_structured(report).splitlines() if x.startswith("case ")]
    assert lines == [f"case {i} | v = (0.5, 0, 0.8660254037844386) | w = (0.5, 0, 0.8660254037844386)"
                     f" | born_p = 1 | freq = {f} | z = {z} | rejections = 0"
                     for i, f, z in ((0, "1", "0"), (1, "0.98999999999999999", "-inf"))]
    assert render_tabular(report).splitlines()[1:] == [
        '0,"(0.5, 0, 0.8660254037844386)","(0.5, 0, 0.8660254037844386)",1,1,0,0',
        '1,"(0.5, 0, 0.8660254037844386)","(0.5, 0, 0.8660254037844386)",1,0.98999999999999999,-inf,0',
    ]
    assert [r.z for r in report.records] == [0.0, -_INF]


def _kernel_texts(floats, plus=False):
    """What the number kernel prints for float64 values, one text per value.

    Also checks each row's stop: no byte at or past it, nor byte 0, is printed.
    """
    floats = np.asarray(floats, dtype=np.float64)
    slots, stops = reports._number_slots(floats, np.broadcast_to(plus, floats.shape).copy())
    assert slots.shape == (len(floats), reports._FLOAT_SLOT)
    assert (slots[np.arange(reports._FLOAT_SLOT) >= stops[:, None]] == reports._GAP).all()
    assert (slots[:, 0] == reports._GAP).all()
    lines = np.concatenate([slots, np.full((len(slots), 1), ord("\n"), np.uint8)], axis=1)
    return lines.tobytes().translate(None, bytes([reports._GAP])).decode("ascii").split("\n")[:-1]


def _assert_kernel_prints_like_percent(floats):
    floats = np.asarray(floats, dtype=np.float64).ravel()
    values = floats.tolist()
    assert _kernel_texts(floats) == ["%.17g" % v for v in values]
    assert _kernel_texts(floats, plus=True) == ["%+.17g" % v for v in values]


def _neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([np.nextafter(values, -np.inf), values, np.nextafter(values, np.inf)])


_HARD_FLOATS = np.concatenate([
    [0.0, -0.0, _INF, -_INF, _NAN, -_NAN, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308],
    np.ldexp(1.0, np.arange(-1074, 1024)),
    _neighbours([float(f"1e{k}") for k in range(-323, 309)]),
    _neighbours([1e-5, 1e-4, 1e16, 1e17, 9.9999999999999997e-278, *reports._BAND]),
    # odd N times 2**-20 or 2**-10 whose exact decimals are 18 digits ending in 5: ties at 17
    np.ldexp(np.arange(1049, 10486, 2, dtype=np.float64), -20),
    np.ldexp(np.arange(10240000001, 10240004001, 2, dtype=np.float64), -10),
])


def test_kernel_prints_the_hard_places_like_percent():
    with_signs = np.concatenate([_HARD_FLOATS, -_HARD_FLOATS])
    assert np.signbit(with_signs[5]) and np.isnan(with_signs[5])  # nan with its sign bit set
    _assert_kernel_prints_like_percent(with_signs)
    assert _kernel_texts([2.0**-25, 9.9999999999999997e-278, 1e-5, 1e16, 1e17, -0.0]) == [
        "2.9802322387695312e-08", "9.9999999999999997e-278", "1.0000000000000001e-05",
        "10000000000000000", "1e+17", "-0"]


def test_kernel_prints_a_seeded_sweep_of_patterns_like_percent():
    rng = np.random.default_rng(23)
    for _ in range(16):  # 2**20 raw 64-bit patterns, in chunks that keep the arrays small
        _assert_kernel_prints_like_percent(rng.integers(0, 2**64, 2**16, dtype=np.uint64).view(np.float64))
    # and 2**18 within the kernel's band, where the exact product decides
    exponents = rng.integers(1023 - 930, 1023 + 930, 2**18, dtype=np.uint64)
    mantissas = rng.integers(0, 2**52, 2**18, dtype=np.uint64)
    _assert_kernel_prints_like_percent(((exponents << np.uint64(52)) | mantissas).view(np.float64))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40), st.lists(st.booleans(), min_size=40, max_size=40))
def test_kernel_prints_any_pattern_like_percent(patterns, plus):
    floats = np.array(patterns, dtype=np.uint64).view(np.float64)
    plus = np.array(plus[: len(floats)])
    expected = [("%+.17g" if p else "%.17g") % v for v, p in zip(floats.tolist(), plus.tolist())]
    assert _kernel_texts(floats, plus) == expected


def test_kernel_decides_zeros_and_ordinary_values():
    # '%' is left only for the rows the kernel cannot decide: none of these. (From about 1e13
    # up, a double has so few fraction bits that exact ties are common; '%' prints those.)
    rng = np.random.default_rng(5)
    ordinary = np.concatenate([np.zeros(100), -np.zeros(100), rng.standard_normal(10**4),
                               rng.random(10**4) * 10.0 ** rng.integers(-30, 12, 10**4)])
    *_, undecided, texts = reports._decimal(ordinary, np.zeros(len(ordinary), dtype=bool))
    assert len(undecided) == len(texts) == 0
    *_, undecided, _ = reports._decimal(np.array([_NAN, _INF, 1e-300, 1e300, 1.0]), np.zeros(5, dtype=bool))
    assert undecided.tolist() == [0, 1, 2, 3]


@pytest.mark.parametrize("with_floats", [False, True])
def test_int_columns_print_like_str(with_floats):
    # beside floats, ints below 2**53 in magnitude go through the kernel as floats; a column
    # with any larger one, and every int column of a block without floats, is listed
    small = np.array([0, -1, 7, 10**15, 2**53 - 1, -(2**53 - 1), 100, 9], dtype=np.int64)
    large = np.array([0, -(2**63), 2**63 - 1, 2**53, -(2**53), 10**17, 3, 4], dtype=np.int64)
    columns = [("index", np.arange(8)), ("small", small), ("large", large),
               ("unsigned", np.array([2**64 - 1, 0, 1, 2, 3, 4, 5, 6], dtype=np.uint64)),
               ("bytes", np.arange(250, 258).astype(np.uint8)), ("pairs", small.reshape(4, 2).repeat(2, axis=0))]
    columns += [("floats", np.linspace(-1.0, 1.0, 8))] if with_floats else []
    assert _kernel_texts(small) == [str(v) for v in small.tolist()]
    for block_rows in (3, 256):
        with mock.patch.object(reports, "_WRITE_BLOCK_ROWS", block_rows):
            _assert_cells_match_format_value(_report(columns))
    assert _kernel_texts([]) == []


def test_zero_width_rows_and_one_row_blocks(monkeypatch):
    columns = [("index", np.arange(3)), ("floats", np.empty((3, 0))), ("complex", np.empty((3, 0), complex)),
               ("ints", np.empty((3, 0), dtype=np.int64)), ("one", np.array([[0.25], [-0.0], [1e300]]))]
    for block_rows in (1, 2, 256):
        monkeypatch.setattr(reports, "_WRITE_BLOCK_ROWS", block_rows)
        _assert_cells_match_format_value(_report(columns))
        assert render_structured(_report(columns)).count("| floats = () | complex = () | ints = () |") == 3


def test_configs_are_equal_exactly_when_their_digests_are():
    base = dict(kind="protocol", pairs=1, samples=50, seed=3)
    pairs = [(((zero, 0.0, 1.0), (0.6, 0.0, 0.8)),) for zero in (-0.0, 0.0)]
    signed, unsigned = (ExperimentConfig(**base, fixed_pairs=p) for p in pairs)
    assert signed != unsigned and len({signed, unsigned}) == 2
    one, two = ExperimentConfig(**base, workers=1), ExperimentConfig(**base, workers=2)
    assert one == two and hash(one) == hash(two) and one.digest() == two.digest()
    assert ExperimentConfig(kind="witness") != "witness"
