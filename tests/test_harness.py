import math

import numpy as np
import pytest
from scipy import stats

from onticsim import (
    COVERING_RADIUS,
    THETA0,
    ExperimentConfig,
    allowed_z_failures,
    build_frame,
    case_rng,
    covering_check,
    run_experiment,
    z_score,
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


def test_z_score():
    assert z_score(0.51, 0.5, 10**4) == pytest.approx(2.0, abs=1e-12)
    assert z_score(1.0, 1.0, 100) is None
    assert z_score(0.0, 0.0, 100) is None
    with pytest.raises(ValueError):
        z_score(0.5, 0.5, 0)


def test_allowed_z_failures():
    assert allowed_z_failures(1) == 1
    assert allowed_z_failures(100) == 1
    assert allowed_z_failures(199) == 1
    assert allowed_z_failures(1000) == 10


def test_exact_qubit_runs_both_regions():
    for region in ("cone", "sphere"):
        report = run_experiment(
            ExperimentConfig(kind="exact-qubit", pairs=500, region=region, seed=2)
        )
        assert report.passed
        stats_map = dict(report.summary.stats)
        assert stats_map["max_abs_error"] <= 1e-12
        assert len(report.records) == 500
    # cone region redraws some preparations and records it
    report = run_experiment(
        ExperimentConfig(kind="exact-qubit", pairs=500, region="cone", seed=2)
    )
    assert dict(report.summary.stats)["total_rejections"] > 0


def test_mc_qubit_statistics():
    report = run_experiment(
        ExperimentConfig(kind="mc-qubit", pairs=50, samples=4 * 10**4, seed=3)
    )
    assert report.passed
    stats_map = dict(report.summary.stats)
    assert stats_map["z_failures"] <= stats_map["allowed_failures"]
    assert all(r.freq is not None for r in report.records)


def test_mc_degenerate_probability_uses_exact_match():
    # z is undefined at p = 0 or 1; degenerate draws must match exactly
    from onticsim.cone import sample_hits
    from onticsim.harness import _case_mc_qubit

    v = np.array([0.5, 0.0, math.sqrt(0.75)])  # sin(theta) = 0.5: both branches drawn
    assert sample_hits(v, v, 1000, np.random.default_rng(0)) == 1000
    assert sample_hits(v, -v, 1000, np.random.default_rng(0)) == 0
    cfg = ExperimentConfig(kind="mc-qubit", pairs=1, samples=100, seed=0)
    record = _case_mc_qubit(cfg, 0)
    assert (record.z is None) == (record.exact_match is not None)


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


def test_z_scores_normally_distributed():
    # calibration: under a correct model, z over many cases is standard normal
    report = run_experiment(
        ExperimentConfig(kind="mc-qubit", pairs=200, samples=10**5, seed=9)
    )
    zs = [r.z for r in report.records if r.z is not None]
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


def test_witness_experiment():
    report = run_experiment(ExperimentConfig(kind="witness", seed=0))
    assert report.passed
    stats_map = dict(report.summary.stats)
    assert stats_map["rate_a"] == pytest.approx(1.0, abs=1e-12)
    assert stats_map["rate_b"] == pytest.approx(0.0, abs=1e-12)
    assert stats_map["max_fd_error"] <= 1e-7
