import concurrent.futures
import math
import multiprocessing.process
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from onticsim import (
    COVERING_RADIUS,
    EDGE_LENGTH,
    MESSAGE_SIZE,
    THETA0,
    ExperimentConfig,
    OutOfConeError,
    RadiusError,
    allowed_z_failures,
    build_frame,
    case_rng,
    covering_check,
    prepare_messages,
    random_bloch,
    run_experiment,
    sample_ontic,
    z_score,
)
from onticsim import harness
from onticsim.cli import main
from onticsim.harness import (
    _CONE_Z_MIN,
    _COVERING_BANDS,
    _COVERING_BEYOND,
    _COVERING_BLOCK_ROWS,
    _covering_blocks,
    _covering_rows,
    _farthest_from_vertices,
    _nearest_vertex_bound,
)
from onticsim.reports import render_structured, render_tabular


def test_config_validation():
    ExperimentConfig(kind="exact-qubit")
    with pytest.raises(ValueError):
        ExperimentConfig(kind="bogus")
    with pytest.raises(ValueError):
        ExperimentConfig(kind="exact-qubit", pairs=0)
    with pytest.raises(ValueError):
        ExperimentConfig(kind="exact-qubit", seed=-1)
    with pytest.raises(ValueError):
        ExperimentConfig(kind="exact-qubit", seed=2**64)
    with pytest.raises(ValueError):
        ExperimentConfig(kind="exact-ndim", dim=1)
    with pytest.raises(ValueError):
        ExperimentConfig(kind="exact-ndim", scheme="other")
    with pytest.raises(ValueError):
        ExperimentConfig(kind="mc-qubit", samples=-1)
    with pytest.raises(ValueError):
        run_experiment(ExperimentConfig(kind="mc-qubit", samples=0))
    with pytest.raises(ValueError, match="mc-ndim needs samples"):
        ExperimentConfig(kind="mc-ndim", samples=0)
    # a radius too large for the scheme is found by the run's own draw
    with pytest.raises(RadiusError, match="radius"):
        run_experiment(ExperimentConfig(kind="exact-ndim", dim=12, scheme="ground", pole_mass=0.9,
                                        radius=10.0))
    # bools are not numbers here: True must not pass as pairs = 1
    for name in ("pairs", "seed", "x_step", "theta"):
        with pytest.raises(ValueError, match=f"{name} must be"):
            ExperimentConfig(kind="exact-qubit", **{name: True})
    with pytest.raises(ValueError, match="pairs must be int"):
        ExperimentConfig(kind="exact-qubit", pairs=2.0)
    # witness angles are checked when the config is built, not in the run
    with pytest.raises(ValueError, match="zenith"):
        ExperimentConfig(kind="witness", theta=0.0)
    # non-finite floats are rejected up front, not deep inside a run
    for name in ("x_step", "radius", "theta", "phi_a", "phi_b"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                ExperimentConfig(kind="positivity-sweep", **{name: bad})


def test_config_digest_excludes_workers():
    a = ExperimentConfig(kind="exact-qubit", pairs=10, seed=1, workers=1)
    b = ExperimentConfig(kind="exact-qubit", pairs=10, seed=1, workers=7)
    assert a.digest() == b.digest()
    assert "workers" not in dict(a.items())
    c = ExperimentConfig(kind="exact-qubit", pairs=11, seed=1)
    assert a.digest() != c.digest()


def test_case_rng_streams():
    assert case_rng(5, 0).random() == case_rng(5, 0).random()
    assert case_rng(5, 0).random() != case_rng(5, 1).random()
    assert case_rng(5, 0).random() != case_rng(6, 0).random()


def test_protocol_draws_the_pairs_of_mc_qubit():
    runs = [run_experiment(ExperimentConfig(kind=kind, pairs=5, samples=10, seed=4))
            for kind in ("protocol", "mc-qubit")]
    protocol, mc = (dict(run.columns) for run in runs)
    for name in ("v", "w", "patch", "born_p"):
        assert np.array_equal(protocol[name], mc[name]), name


def test_fixed_pairs_draw_messages_then_outcomes_pair_after_pair(frame):
    v0, v1 = (0.6, 0.0, 0.8), (0.6, 0.0, -0.8)  # off the vertices: both branches drawn
    fixed = ((v0, (0.0, 0.0, 1.0)), (v1, (1.0, 0.0, 0.0)))
    cfg = ExperimentConfig(kind="protocol", pairs=2, samples=50, seed=8, fixed_pairs=fixed)
    wire = bytes(dict(run_experiment(cfg).files)["messages.bin"])
    # fixed pairs draw nothing: pair 0's messages start the run's generator
    rng = case_rng(8, 0)
    first = prepare_messages(frame, np.array(v0), 50, rng).tobytes()
    rng.random(50)  # pair 0's outcomes
    second = prepare_messages(frame, np.array(v1), 50, rng).tobytes()
    assert wire == first + second


def test_z_score():
    assert z_score(0.51, 0.5, 10**4) == pytest.approx(2.0, abs=1e-12)
    # a degenerate p scores its limit; p one ulp past 1 makes p * (1 - p) < 0, never NaN
    cases = [(1.0, 1.0 + 2**-52, -math.inf), (0.0, 0.0, 0.0), (1.0, 1.0, 0.0), (0.5, 0.0, math.inf)]
    for freq, p, z in cases:
        assert z_score(freq, p, 100) == z and type(z_score(freq, p, 100)) is float
    freq, p, z = (np.array(column) for column in zip(*cases))
    np.testing.assert_array_equal(z_score(freq, p, 100), z)
    rows = np.random.default_rng(0).random((2, 1000))  # floats and arrays give the same bits
    assert z_score(*rows, 100).tolist() == [z_score(f, q, 100) for f, q in rows.T.tolist()]
    with pytest.raises(ValueError):
        z_score(0.5, 0.5, 0)


def test_allowed_z_failures():
    assert allowed_z_failures(1) == 0
    assert allowed_z_failures(2) == 1
    assert allowed_z_failures(100) == 1
    assert allowed_z_failures(199) == 1
    assert allowed_z_failures(1000) == 10


def test_one_pair_mc_run_can_fail_its_gate(monkeypatch):
    cfg = ExperimentConfig(kind="mc-qubit", pairs=1, samples=10000, seed=4)
    assert run_experiment(cfg).passed
    monkeypatch.setattr(harness, "sample_hits", lambda v, w, samples, rng: np.zeros(len(v), dtype=np.int64))
    report = run_experiment(cfg)
    stats = dict(report.summary.stats)
    assert (stats["z_failures"], stats["allowed_failures"]) == (1, 0)
    assert not report.passed


def test_exact_qubit_runs_both_regions():
    for region in ("cone", "sphere"):
        report = run_experiment(
            ExperimentConfig(kind="exact-qubit", pairs=500, region=region, seed=2)
        )
        assert report.passed
        stats_map = dict(report.summary.stats)
        assert stats_map["max_abs_error"] <= 1e-12
        assert len(report.records) == 500
    # the cone region samples its cap directly: nothing is redrawn
    report = run_experiment(
        ExperimentConfig(kind="exact-qubit", pairs=500, region="cone", seed=2)
    )
    assert dict(report.summary.stats)["total_rejections"] == 0
    rng = np.random.default_rng(0)
    for record in report.records:
        sample_ontic(record.v, rng)  # raises outside the cone


def test_cone_cap_draws():
    # v_z uniform on the cap with a uniform azimuth is Haar on the cap
    rng = np.random.default_rng(12)
    vz = [random_bloch(rng, z_min=_CONE_Z_MIN)[2] for _ in range(10**5)]
    assert min(vz) > 0.6
    assert stats.kstest(vz, stats.uniform(loc=0.6, scale=0.4).cdf).pvalue > 1e-4


class _FixedUniforms:
    """Stands in for a generator: ``random(2)`` returns the given pair."""

    def __init__(self, u, t):
        self.pair = np.array([u, t])

    def random(self, size):
        return self.pair


def test_cone_cap_lower_bound_passes_gate():
    # u = 0 puts v_z exactly on the lower bound of the cap
    rng = np.random.default_rng(0)
    for k in range(8):
        sample_ontic(random_bloch(_FixedUniforms(0.0, k / 8), z_min=_CONE_Z_MIN), rng)
        with pytest.raises(OutOfConeError):
            sample_ontic(random_bloch(_FixedUniforms(0.0, k / 8), z_min=0.6), rng)
    for bad in (-1.5, 1.0, math.nan):
        with pytest.raises(ValueError, match="z_min"):
            random_bloch(np.random.default_rng(0), z_min=bad)


def test_mc_qubit_statistics():
    report = run_experiment(
        ExperimentConfig(kind="mc-qubit", pairs=50, samples=4 * 10**4, seed=3)
    )
    assert report.passed
    stats_map = dict(report.summary.stats)
    assert stats_map["z_failures"] <= stats_map["allowed_failures"]
    assert all(r.freq is not None for r in report.records)


def test_mc_degenerate_probability_scores_its_limit(monkeypatch):
    # the sampler meets a degenerate p exactly, and a run scores z = 0 there, or an infinity on a miss
    from onticsim.cone import sample_hits

    v = np.array([0.5, 0.0, math.sqrt(0.75)])  # sin(theta) = 0.5: both branches drawn
    assert sample_hits(v, v, 1000, np.random.default_rng(0)) == 1000
    assert sample_hits(v, -v, 1000, np.random.default_rng(0)) == 0
    monkeypatch.setattr(harness, "born_probability_qubit", lambda v, w: np.array([0.0, 1.0, 1.0 + 2**-52, 0.5]))
    monkeypatch.setattr(harness, "sample_hits", lambda v, w, samples, rng: np.array([0, 100, 100, 50]))
    report = run_experiment(ExperimentConfig(kind="mc-qubit", pairs=4, samples=100, seed=0))
    assert [r.z for r in report.records] == [0.0, 0.0, -math.inf, 0.0]
    stats_map = dict(report.summary.stats)
    assert stats_map["z_failures"] == 1 and stats_map["max_abs_z"] == math.inf
    assert report.passed  # one failure is within the budget of 4 pairs


def test_mc_frequency_past_2_53_samples_is_the_python_quotient(monkeypatch):
    samples, hits = 2**53 + 1, [1, 3, 2**52 + 1]
    monkeypatch.setattr(harness, "sample_hits", lambda v, w, samples, rng: np.array(hits))
    report = run_experiment(ExperimentConfig(kind="mc-qubit", pairs=3, samples=samples, seed=0))
    freq = [h / samples for h in hits]
    assert [r.freq for r in report.records] == freq
    # numpy rounds samples to 2**53 first: every one of these quotients would differ
    assert all(a != b for a, b in zip((np.array(hits) / samples).tolist(), freq))


def test_exact_ndim_summary_criteria():
    report = run_experiment(
        ExperimentConfig(kind="exact-ndim", pairs=200, dim=3, seed=4)
    )
    assert report.passed
    stats_map = dict(report.summary.stats)
    assert stats_map["max_abs_error"] <= 1e-12
    assert stats_map["cond_min"] > 0.0
    assert stats_map["cond_max"] <= 1.0
    assert stats_map["max_ungated_error"] <= 1e-12
    names = [name for name, _ in report.summary.criteria]
    assert names == ["born_identity", "conditionals_in_unit_interval", "ungated_identity"]


def test_mc_ndim_runs():
    report = run_experiment(
        ExperimentConfig(kind="mc-ndim", pairs=30, samples=2 * 10**4, dim=2, seed=5)
    )
    assert report.passed


def test_ground_scheme_accepted():
    report = run_experiment(
        ExperimentConfig(
            kind="exact-ndim", pairs=50, dim=4, scheme="ground", pole_mass=0.5, seed=6
        )
    )
    assert report.passed


def test_same_seed_byte_identical():
    cfg = ExperimentConfig(kind="mc-qubit", pairs=20, samples=10**4, seed=7)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert render_structured(a) == render_structured(b)
    assert render_tabular(a) == render_tabular(b)


def test_worker_count_byte_identical():
    kinds = (
        dict(kind="exact-qubit", pairs=60, region="sphere", seed=8),
        dict(kind="exact-ndim", pairs=40, dim=3, seed=8),
        dict(kind="mc-ndim", pairs=20, samples=5000, dim=2, seed=8),
    )
    for kw in kinds:
        serial = run_experiment(ExperimentConfig(workers=1, **kw))
        parallel = run_experiment(ExperimentConfig(workers=3, **kw))
        assert render_structured(serial) == render_structured(parallel)
        assert render_tabular(serial) == render_tabular(parallel)


def test_runs_stay_in_one_process(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a run started another process")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    for kw in (
        dict(kind="exact-qubit", pairs=20, region="sphere"),
        dict(kind="exact-ndim", pairs=20, dim=3),
        dict(kind="mc-qubit", pairs=20, samples=1000),
    ):
        assert run_experiment(ExperimentConfig(workers=3, seed=4, **kw)).passed
    argv = ["verify-qubit", "--pairs", "20", "--samples", "1000", "--workers", "2"]
    assert main([*argv, "--seed", "4", "--out-dir", str(tmp_path)]) == 0


def test_z_scores_normally_distributed():
    # calibration: under a correct model, z over many cases is standard normal
    report = run_experiment(
        ExperimentConfig(kind="mc-qubit", pairs=200, samples=10**5, seed=9)
    )
    zs = [r.z for r in report.records]
    assert len(zs) == 200
    result = stats.kstest(zs, "norm")
    assert result.pvalue > 1e-3


def test_positivity_sweep_experiment():
    report = run_experiment(
        ExperimentConfig(kind="positivity-sweep", x_step=0.01, events=500, seed=0)
    )
    assert report.passed
    stats_map = dict(report.summary.stats)
    assert stats_map["min_value"] >= -1e-12
    assert stats_map["max_value"] <= 1.0 + 1e-12
    assert abs(stats_map["boundary_value"]) <= 1e-12
    assert stats_map["beyond_value"] < 0.0


def test_covering_experiment():
    report = run_experiment(ExperimentConfig(kind="covering", pairs=2 * 10**4, seed=1))
    assert report.passed
    stats_map = dict(report.summary.stats)
    assert stats_map["max_angle"] <= COVERING_RADIUS + 1e-6
    assert stats_map["max_angle"] < THETA0
    assert stats_map["edge_count"] == 30


def test_covering_check_vertices_are_zero(frame):
    assert covering_check(frame, frame.vertices) < 1e-7


def _lone_row_last(frame, rows):
    """rows, the last one swapped for one whose one-row product max rounds unlike the stacked one.

    A reduction that split off a one-row tail block would then differ on it.
    Rows stay as they are where no such row turns up.
    """
    stacked = (rows[:200] @ frame.vertices.T).max(axis=1)
    lone = [
        i for i in range(len(stacked))
        if (rows[i : i + 1] @ frame.vertices.T).max() != stacked[i]
    ]
    if lone:
        rows = rows.copy()
        rows[-1] = rows[lone[0]]
    return rows


# Row counts as (whole blocks B, extra rows).
_COVERING_SIZES = [(0, 1), (0, 2), (1, -1), (1, 0), (1, 1), (2, 1)]
_COVERING_IDS = ["1", "2", "B-1", "B", "B+1", "2B+1"]


def _unblocked(frame, rows) -> tuple:
    """The largest angle to the nearest vertex, its first index and row, from one ``rows @ vertices.T``."""
    angles = np.arccos(np.clip(rows @ frame.vertices.T, -1.0, 1.0).max(axis=1))
    i = int(np.argmax(angles))
    return angles[i].tobytes(), i, tuple(rows[i].tolist())


def _blocked(frame, rows, calls=None) -> tuple:
    """``_farthest_from_vertices`` over ``rows`` in covering blocks, as ``_unblocked`` reads it.

    ``calls`` collects, per block, the indices at which its rows were asked for.
    """
    def block(part):
        asked = []
        if calls is not None:
            calls.append(asked)
        return part[:, 2], lambda index: asked.append(index) or part[index]

    angle, index, row = _farthest_from_vertices(frame, (block(rows[b]) for b in _covering_blocks(len(rows))))
    return np.float64(angle).tobytes(), index, row


def _face_centres(frame) -> np.ndarray:
    """The 20 face centres of the frame's icosahedron, the directions farthest from every vertex."""
    v = frame.vertices
    near = np.abs(np.linalg.norm(v[:, None] - v[None], axis=2) - EDGE_LENGTH) < 0.1
    faces = [(i, j, k) for i in range(12) for j in range(i) for k in range(j) if near[i, j] and near[j, k] and near[i, k]]
    centres = np.array([v[list(face)].sum(axis=0) for face in faces])
    return centres / np.linalg.norm(centres, axis=1, keepdims=True)


# Row counts as (whole blocks B, extra rows), and the vertices themselves.
@pytest.mark.parametrize(
    "size", [*_COVERING_SIZES, (0, 10**5), None], ids=[*_COVERING_IDS, "1e5", "vertices"]
)
def test_nearest_vertex_angles_match_the_unblocked_reduction(frame, size):
    B = _COVERING_BLOCK_ROWS
    if size is None:
        rows = frame.vertices
    else:
        n = size[0] * B + size[1]
        rows = random_bloch(np.random.default_rng(n), size=n)
        if n > 1:
            rows = _lone_row_last(frame, rows)
    assert _blocked(frame, rows) == _unblocked(frame, rows)
    # blocks cover the rows in order; the last takes the remainder, and none is a lone row
    blocks = _covering_blocks(len(rows))
    assert [b.start for b in blocks] == [i * B for i in range(len(blocks))]
    assert blocks[-1].stop == len(rows)
    assert all(b.stop == b.start + B for b in blocks[:-1])
    assert len(rows) == 1 or all(b.stop - b.start > 1 for b in blocks)


def test_farthest_from_vertices_keeps_the_first_of_equal_angles(frame):
    # the same direction in two blocks, and twice in one: the first index wins
    rows = np.repeat(random_bloch(np.random.default_rng(3), size=4), 2, axis=0)
    far = int(np.argmax(np.arccos(np.clip(rows @ frame.vertices.T, -1.0, 1.0).max(axis=1))))
    assert far % 2 == 0
    assert _farthest_from_vertices(frame, [(rows[:, 2], rows.__getitem__)])[1] == far
    parts = rows[: far + 1], rows[far + 1 :]
    assert _farthest_from_vertices(frame, [(part[:, 2], part.__getitem__) for part in parts])[1] == far


def test_nearest_vertex_bound_is_the_least_over_azimuth(frame):
    # at each height, the least largest dot product over 20001 azimuths never falls below the
    # bound, and meets it to within the grid's spacing
    phi = np.linspace(0.0, 2.0 * math.pi, 20001)
    for height in [0.0, 0.05, 0.17, 0.1876, 0.2, 0.222, 0.4, 0.5257, 0.775, 0.7947, 0.806, 0.95, 1.0]:
        s = math.sqrt(1.0 - height * height)
        for z in (height, -height):
            rows = np.column_stack((s * np.cos(phi), s * np.sin(phi), np.full_like(phi, z)))
            least = (rows @ frame.vertices.T).max(axis=1).min()
            assert _nearest_vertex_bound(height) - 1e-15 <= least <= _nearest_vertex_bound(height) + 1e-4
    # its only local minima are the face centres' heights, inside the bands, where it reads
    # cos(COVERING_RADIUS); the edges hold it about a degree above
    h = np.linspace(0.0, 1.0, 20001)
    bound = np.array([_nearest_vertex_bound(x) for x in h])
    minima = h[1:-1][(bound[1:-1] <= bound[:-2]) & (bound[1:-1] <= bound[2:])]
    assert len(minima) == 2
    for (lo, hi), m in zip(_COVERING_BANDS, minima):
        assert lo < m < hi
        assert _nearest_vertex_bound(m) == pytest.approx(math.cos(COVERING_RADIUS), abs=1e-5)
    assert COVERING_RADIUS - math.radians(1.0) < math.acos(_COVERING_BEYOND) < COVERING_RADIUS - math.radians(0.7)
    (a, b), (c, d) = _COVERING_BANDS
    assert bound[(h < a) | ((b < h) & (h < c)) | (h > d)].min() > _COVERING_BEYOND


def test_face_centres_tie_within_and_across_blocks(frame):
    # the 20 farthest directions, each in several places of three blocks among random ones
    centres = _face_centres(frame)
    rng = np.random.default_rng(20)
    rows = random_bloch(rng, size=3 * _COVERING_BLOCK_ROWS)
    rows[rng.choice(len(rows), size=60, replace=False)] = np.repeat(centres, 3, axis=0)
    assert _blocked(frame, rows) == _unblocked(frame, rows)
    for one in centres[[0, 7, 19]]:  # one of them throughout, so every row ties
        same = np.repeat(one[None], 2 * _COVERING_BLOCK_ROWS + 3, axis=0)
        assert _blocked(frame, same) == _unblocked(frame, same) and _blocked(frame, same)[1] == 0


def test_rows_on_the_band_edges(frame):
    rng = np.random.default_rng(21)
    edges = [e for band in _COVERING_BANDS for e in band]
    z = np.array([f(e, to) for e in edges for f, to in ((np.nextafter, 0.0), (lambda e, _: e, None), (np.nextafter, 1.0))])
    z = np.concatenate([z, -z, rng.choice(z, size=_COVERING_BLOCK_ROWS)])
    phi = rng.uniform(0.0, 2.0 * math.pi, len(z))
    s = np.sqrt(1.0 - z * z)
    rows = np.column_stack((s * np.cos(phi), s * np.sin(phi), z))
    assert _blocked(frame, rows) == _unblocked(frame, rows)


def test_a_block_with_one_row_in_the_bands(frame):
    # one direction near a face centre, whose one-row product rounds unlike a stacked one, among
    # rows at heights the bands leave out: its block evaluates it stacked, and alone
    rng = np.random.default_rng(22)
    z = rng.uniform(0.3, 0.7, 2 * _COVERING_BLOCK_ROWS)
    phi = rng.uniform(0.0, 2.0 * math.pi, len(z))
    s = np.sqrt(1.0 - z * z)
    rows = np.column_stack((s * np.cos(phi), s * np.sin(phi), z))
    near = _face_centres(frame)[5] + rng.normal(scale=1e-4, size=(400, 3))
    near /= np.linalg.norm(near, axis=1, keepdims=True)
    lone = _lone_row_last(frame, near)[-1]
    assert (lone[None] @ frame.vertices.T).max() != (np.stack((lone, lone)) @ frame.vertices.T).max(axis=1)[0]
    rows[_COVERING_BLOCK_ROWS + 123] = lone
    calls = []
    assert _blocked(frame, rows, calls) == _unblocked(frame, rows)
    assert [len(index) for index in calls[1]] == [2]  # its block asked for the one row, twice


def test_blocks_near_vertices_fall_back_to_every_row(frame):
    # rows within 0.1 rad of a vertex, some with |z| in the bands: no evaluated row comes
    # near the bound, so each block evaluates all its rows
    rng = np.random.default_rng(23)
    n = 2 * _COVERING_BLOCK_ROWS + 7
    rows = frame.vertices[rng.integers(0, 12, n)] + rng.normal(scale=0.05, size=(n, 3))
    rows[:50] = [0.0, 0.0, 0.2]
    rows[:50, 0] = math.sqrt(1.0 - 0.04)  # |z| in a band, at the azimuth of a ring vertex
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    calls = []
    assert _blocked(frame, rows, calls) == _unblocked(frame, rows)
    assert all(len(asked) == 2 and asked[-1] == slice(None) for asked in calls)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3 * _COVERING_BLOCK_ROWS), st.integers(0, 2**32 - 1), st.integers(0, 20))
def test_covering_matches_the_unblocked_reduction_on_drawn_sizes(frame, n, seed, centres):
    blocks = _covering_blocks(n)
    drawn = np.concatenate([rows(slice(None)) for _, rows in _covering_rows(seed, blocks)])
    angle, index, row = _farthest_from_vertices(frame, _covering_rows(seed, blocks))
    assert (np.float64(angle).tobytes(), index, row) == _unblocked(frame, drawn)
    rows = random_bloch(np.random.default_rng(seed), size=n)
    rng = np.random.default_rng(seed + 1)
    rows[rng.integers(0, n, centres)] = _face_centres(frame)[rng.integers(0, 20, centres)]
    assert _blocked(frame, rows) == _unblocked(frame, rows)


@pytest.mark.parametrize("size", _COVERING_SIZES, ids=_COVERING_IDS)
def test_covering_draws_follow_one_stream(size):
    # block b of k rows draws from a stream of its own: k heights uniform(-1, 1), then k azimuths
    n = size[0] * _COVERING_BLOCK_ROWS + size[1]
    blocks = _covering_blocks(n)
    drawn = list(_covering_rows(7, blocks))
    assert len(drawn) == len(blocks)
    expected_rows = []
    for b, (block, (z, rows)) in enumerate(zip(blocks, drawn)):
        one, k = case_rng(7, b), block.stop - block.start
        height = one.uniform(-1.0, 1.0, k)
        azimuth = one.uniform(0.0, 2.0 * math.pi, k)
        s = np.sqrt(np.maximum(0.0, 1.0 - height * height))
        expected = np.column_stack((s * np.cos(azimuth), s * np.sin(azimuth), height))
        assert z.tobytes() == height.tobytes()
        assert rows(slice(None)).tobytes() == expected.tobytes()
        some = np.flatnonzero(np.random.default_rng(b).random(k) < 0.1)
        assert rows(some).tobytes() == expected[some].tobytes()  # a subset's trig has the same bits
        expected_rows.append(expected)
    # the reported worst vector is that row of its block
    drawn = np.concatenate(expected_rows)
    angles = np.arccos(np.clip(drawn @ build_frame().vertices.T, -1.0, 1.0).max(axis=1))
    report = run_experiment(ExperimentConfig(kind="covering", pairs=n, seed=7))
    assert dict(report.columns)["worst_vector"] == [tuple(drawn[int(np.argmax(angles))].tolist())]


@pytest.mark.parametrize("vectors", [
    [(2.0, 0.0, 0.0)],
    [(0.0, 0.0, 1.0 + 1e-9)],
    [(math.nan, 0.0, 1.0)],
    [(0.0, -math.inf, 0.0)],
    [(0.0, 0.0, 1.0), (0.0, 0.6, 0.6)],
    np.empty((0, 3)),
])
def test_covering_check_rejects_bad_vectors(frame, vectors):
    with pytest.raises(ValueError, match="unit norm" if len(vectors) else "at least one direction"):
        covering_check(frame, vectors)


def test_witness_experiment():
    report = run_experiment(ExperimentConfig(kind="witness", seed=0))
    assert report.passed
    stats_map = dict(report.summary.stats)
    assert stats_map["rate_a"] == pytest.approx(1.0, abs=1e-12)
    assert stats_map["rate_b"] == pytest.approx(0.0, abs=1e-12)
    assert stats_map["max_fd_error"] <= 1e-7


def test_protocol_holds_each_message_once():
    # 50 pairs x 20000 rounds are 10 MB of messages; keeping each pair's bytes and
    # joining them into the file as well would peak at over twice that
    cfg = ExperimentConfig(kind="protocol", pairs=50, samples=20000, seed=5)
    tracemalloc.start()
    try:
        report = run_experiment(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = cfg.pairs * cfg.samples * MESSAGE_SIZE
    assert report.passed and len(dict(report.files)["messages.bin"]) == size
    assert peak < 1.5 * size, f"peak {peak / size:.2f} x the messages"
