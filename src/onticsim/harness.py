"""Seeded verification experiments over the hidden-variable models.

Each experiment kind turns a typed config into a report of per-case
records plus summary criteria. Case ``i`` always draws from its own
generator ``default_rng(SeedSequence([seed, i]))``, so results are a
function of (config, seed) only: running with one worker or many
produces byte-identical reports.

Statistical kinds compare Monte Carlo frequencies against exact
probabilities through the normal z-score

    z = (freq - p) * sqrt(samples) / sqrt(p * (1 - p))

with degenerate probabilities (p = 0 or 1) checked for exact frequency
match instead. Each case draws its hit count hierarchically through the
model's own count sampler (``sample_hits``, ``sample_hits_patched``,
``sample_hits_ndim``): exact in distribution to drawing every round, at
a cost that does not grow with ``samples``. A run passes when at most
max(1, pairs // 100) cases land outside |z| <= 5.
"""

from __future__ import annotations

import concurrent.futures
import functools
import hashlib
import math
from dataclasses import dataclass, fields

import numpy as np

from .cone import (
    THETA0,
    QubitOnticState,
    conditional_probability_unchecked,
    exact_event_probability,
    sample_hits,
    sweep_positivity,
)
from .dynamics import evolve_bloch, non_markov_witness
from .geometry import born_probability_ndim, born_probability_qubit, random_amplitudes, random_bloch, to_spherical
from .icosa import (
    COVERING_RADIUS,
    EDGE_LENGTH,
    assign_patch,
    build_frame,
    extended_exact_probability,
    sample_hits_patched,
)
from .ndim import (
    WeightScheme,
    conditional_probability_grid,
    exact_event_probability_ndim,
    ground_weighted,
    make_in_region_pair,
    sample_hits_ndim,
    uniform_weights,
    weighted_probability_sum,
)
from .reports import format_value

__all__ = [
    "EXPERIMENT_KINDS",
    "EXACT_TOLERANCE",
    "Z_LIMIT",
    "ExperimentConfig",
    "CaseRecord",
    "ExperimentSummary",
    "ExperimentReport",
    "case_rng",
    "z_score",
    "allowed_z_failures",
    "covering_check",
    "run_experiment",
]

EXPERIMENT_KINDS = (
    "exact-qubit",
    "mc-qubit",
    "exact-ndim",
    "mc-ndim",
    "positivity-sweep",
    "covering",
    "witness",
)

EXACT_TOLERANCE = 1e-12
Z_LIMIT = 5.0

_SCHEMES = ("uniform", "ground")
_REGIONS = ("sphere", "cone")


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one experiment run.

    ``workers`` controls scheduling only; it is excluded from the
    serialized identity so reports do not depend on it.
    """

    kind: str
    pairs: int = 100
    samples: int = 0
    dim: int = 2
    scheme: str = "uniform"
    pole_mass: float = 0.6
    region: str = "sphere"
    seed: int = 0
    workers: int = 1
    x_step: float = 1e-3
    events: int = 10000
    theta: float = 0.5
    phi_a: float = 0.0
    phi_b: float = math.pi / 2.0
    radius: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        for name in ("x_step", "radius", "theta", "phi_a", "phi_b"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.pairs < 1:
            raise ValueError("pairs must be at least 1")
        if self.samples < 0:
            raise ValueError("samples cannot be negative")
        if self.dim < 2:
            raise ValueError("dim must be at least 2")
        if self.scheme not in _SCHEMES:
            raise ValueError(f"scheme must be one of {_SCHEMES}, got {self.scheme!r}")
        if not 0.0 < self.pole_mass < 1.0:
            raise ValueError("pole_mass must lie strictly in (0, 1)")
        if self.region not in _REGIONS:
            raise ValueError(f"region must be one of {_REGIONS}, got {self.region!r}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.x_step <= 0.0:
            raise ValueError("x_step must be positive")
        if self.events < 1:
            raise ValueError("events must be at least 1")
        if self.radius is not None and self.radius <= 0.0:
            raise ValueError("radius must be positive when given")

    def items(self):
        """(name, value) pairs identifying the experiment, in field order."""
        for f in fields(self):
            if f.name == "workers":
                continue
            yield f.name, getattr(self, f.name)

    def digest(self) -> str:
        text = "\n".join(f"{name}={format_value(value)}" for name, value in self.items())
        return "sha256:" + hashlib.sha256(text.encode("ascii")).hexdigest()


@dataclass(frozen=True)
class CaseRecord:
    """One verification case: inputs, probabilities and checks."""

    index: int
    inputs: tuple
    exact_p: float | None = None
    born_p: float | None = None
    freq: float | None = None
    z: float | None = None
    exact_match: bool | None = None
    rejections: int | None = None
    extras: tuple = ()


@dataclass(frozen=True)
class ExperimentSummary:
    """Aggregate statistics plus named pass/fail criteria."""

    stats: tuple
    criteria: tuple
    passed: bool


@dataclass(frozen=True)
class ExperimentReport:
    """Everything a run produced; renderable via the reports module."""

    config: object
    records: tuple
    summary: ExperimentSummary

    @property
    def passed(self) -> bool:
        return self.summary.passed


def case_rng(seed: int, index: int) -> np.random.Generator:
    """Independent generator for case ``index`` of a seeded run."""
    return np.random.default_rng(np.random.SeedSequence([seed, index]))


def z_score(freq: float, p: float, samples: int) -> float | None:
    """Normal-approximation z of a frequency; None when p is degenerate."""
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if p <= 0.0 or p >= 1.0:
        return None
    return (freq - p) * math.sqrt(samples) / math.sqrt(p * (1.0 - p))


def allowed_z_failures(pairs: int) -> int:
    """Budget of cases allowed outside |z| <= Z_LIMIT."""
    return max(1, pairs // 100)


@functools.lru_cache(maxsize=1)
def _frame():
    return build_frame()


def _scheme_for(cfg: ExperimentConfig) -> WeightScheme:
    if cfg.scheme == "uniform":
        return uniform_weights(cfg.dim)
    return ground_weighted(cfg.dim, cfg.pole_mass)


def _bloch_tuple(v: np.ndarray) -> tuple:
    return tuple(float(c) for c in v)


def _amp_tuple(psi: np.ndarray) -> tuple:
    return tuple(complex(c) for c in psi)


def _draw_qubit_pair(cfg: ExperimentConfig, rng: np.random.Generator):
    """Preparation and event; cone region redraws until strictly inside."""
    rejections = 0
    v = random_bloch(rng)
    if cfg.region == "cone":
        while to_spherical(v).theta >= THETA0:
            rejections += 1
            v = random_bloch(rng)
    w = random_bloch(rng)
    return v, w, rejections


def _case_exact_qubit(cfg: ExperimentConfig, index: int) -> CaseRecord:
    rng = case_rng(cfg.seed, index)
    v, w, rejections = _draw_qubit_pair(cfg, rng)
    born = born_probability_qubit(v, w)
    if cfg.region == "cone":
        exact = exact_event_probability(v, w)
        inputs = (("v", _bloch_tuple(v)), ("w", _bloch_tuple(w)))
    else:
        exact = extended_exact_probability(_frame(), v, w)
        inputs = (("v", _bloch_tuple(v)), ("w", _bloch_tuple(w)), ("patch", assign_patch(_frame(), v)))
    return CaseRecord(
        index=index,
        inputs=inputs,
        exact_p=exact,
        born_p=born,
        rejections=rejections,
        extras=(("abs_error", abs(exact - born)),),
    )


def _mc_record(
    index: int, inputs: tuple, born: float, hits: int, samples: int, rejections: int
) -> CaseRecord:
    freq = hits / samples
    z = z_score(freq, born, samples)
    return CaseRecord(
        index=index,
        inputs=inputs,
        exact_p=None,
        born_p=born,
        freq=freq,
        z=z,
        exact_match=(freq == born) if z is None else None,
        rejections=rejections,
    )


def _case_mc_qubit(cfg: ExperimentConfig, index: int) -> CaseRecord:
    rng = case_rng(cfg.seed, index)
    v, w, rejections = _draw_qubit_pair(cfg, rng)
    inputs = (("v", _bloch_tuple(v)), ("w", _bloch_tuple(w)))
    if cfg.region == "cone":
        hits = sample_hits(v, w, cfg.samples, rng)
    else:
        hits = sample_hits_patched(_frame(), v, w, cfg.samples, rng)
        inputs += (("patch", assign_patch(_frame(), v)),)
    return _mc_record(index, inputs, born_probability_qubit(v, w), hits, cfg.samples, rejections)


def _case_exact_ndim(cfg: ExperimentConfig, index: int) -> CaseRecord:
    rng = case_rng(cfg.seed, index)
    scheme = _scheme_for(cfg)
    pair = make_in_region_pair(cfg.dim, scheme, rng, radius=cfg.radius)
    exact = exact_event_probability_ndim(pair.psi, pair.phi, scheme)
    born = born_probability_ndim(pair.psi, pair.phi)
    grid = conditional_probability_grid(pair.psi, pair.phi, scheme)
    # Unconstrained pair: the weighted sum telescopes to the quantum
    # value even when positivity fails.
    psi_any = random_amplitudes(cfg.dim, rng)
    phi_any = random_amplitudes(cfg.dim, rng)
    ungated_error = abs(
        weighted_probability_sum(psi_any, phi_any, scheme)
        - born_probability_ndim(psi_any, phi_any)
    )
    return CaseRecord(
        index=index,
        inputs=(("psi", _amp_tuple(pair.psi)), ("phi", _amp_tuple(pair.phi))),
        exact_p=exact,
        born_p=born,
        rejections=pair.rejections,
        extras=(
            ("abs_error", abs(exact - born)),
            ("cond_min", float(grid.min())),
            ("cond_max", float(grid.max())),
            ("ungated_error", ungated_error),
        ),
    )


def _case_mc_ndim(cfg: ExperimentConfig, index: int) -> CaseRecord:
    rng = case_rng(cfg.seed, index)
    scheme = _scheme_for(cfg)
    pair = make_in_region_pair(cfg.dim, scheme, rng, radius=cfg.radius)
    hits = sample_hits_ndim(pair.psi, pair.phi, scheme, cfg.samples, rng)
    inputs = (("psi", _amp_tuple(pair.psi)), ("phi", _amp_tuple(pair.phi)))
    born = born_probability_ndim(pair.psi, pair.phi)
    return _mc_record(index, inputs, born, hits, cfg.samples, pair.rejections)


def _map_cases(fn, cfg: ExperimentConfig, count: int) -> tuple:
    """Run cases serially or across processes; order and results identical."""
    if cfg.workers <= 1 or count <= 1:
        return tuple(fn(cfg, i) for i in range(count))
    bound = functools.partial(fn, cfg)
    chunk = max(1, count // (cfg.workers * 8))
    with concurrent.futures.ProcessPoolExecutor(max_workers=cfg.workers) as pool:
        return tuple(pool.map(bound, range(count), chunksize=chunk))


def _mc_summary(cfg: ExperimentConfig, records: tuple) -> ExperimentSummary:
    z_values = [abs(r.z) for r in records if r.z is not None]
    failures = sum(
        1
        for r in records
        if (r.z is not None and abs(r.z) > Z_LIMIT) or (r.z is None and not r.exact_match)
    )
    allowed = allowed_z_failures(cfg.pairs)
    stats = (
        ("max_abs_z", max(z_values) if z_values else 0.0),
        ("z_failures", failures),
        ("allowed_failures", allowed),
        ("samples_per_pair", cfg.samples),
        ("total_rejections", sum(r.rejections or 0 for r in records)),
    )
    criteria = (("z_within_limit", failures <= allowed),)
    return ExperimentSummary(stats=stats, criteria=criteria, passed=failures <= allowed)


def _exact_qubit_summary(cfg: ExperimentConfig, records: tuple) -> ExperimentSummary:
    errors = [abs(r.exact_p - r.born_p) for r in records]
    max_error = max(errors)
    stats = (
        ("max_abs_error", max_error),
        ("mean_abs_error", sum(errors) / len(errors)),
        ("total_rejections", sum(r.rejections or 0 for r in records)),
    )
    ok = max_error <= EXACT_TOLERANCE
    return ExperimentSummary(stats=stats, criteria=(("born_identity", ok),), passed=ok)


def _exact_ndim_summary(cfg: ExperimentConfig, records: tuple) -> ExperimentSummary:
    def extra(record: CaseRecord, name: str) -> float:
        return dict(record.extras)[name]

    max_error = max(extra(r, "abs_error") for r in records)
    cond_min = min(extra(r, "cond_min") for r in records)
    cond_max = max(extra(r, "cond_max") for r in records)
    max_ungated = max(extra(r, "ungated_error") for r in records)
    total_rejections = sum(r.rejections for r in records)
    stats = (
        ("max_abs_error", max_error),
        ("cond_min", cond_min),
        ("cond_max", cond_max),
        ("max_ungated_error", max_ungated),
        ("total_rejections", total_rejections),
    )
    criteria = (
        ("born_identity", max_error <= EXACT_TOLERANCE),
        ("conditionals_in_unit_interval", cond_min > 0.0 and cond_max <= 1.0),
        ("ungated_identity", max_ungated <= EXACT_TOLERANCE),
    )
    passed = all(ok for _, ok in criteria)
    return ExperimentSummary(stats=stats, criteria=criteria, passed=passed)


def _run_sweep(cfg: ExperimentConfig) -> ExperimentReport:
    report = sweep_positivity(cfg.x_step, cfg.events)
    z_axis = (0.0, 0.0, 1.0)
    boundary = conditional_probability_unchecked(z_axis, QubitOnticState(THETA0, 1))
    beyond = conditional_probability_unchecked(z_axis, QubitOnticState(THETA0 + 0.05, 1))
    records = (
        CaseRecord(
            index=0,
            inputs=(
                ("quantity", "global_min"),
                ("x", report.min_x),
                ("n", report.min_n),
                ("event", report.min_event),
            ),
            extras=(("value", report.min_value),),
        ),
        CaseRecord(
            index=1,
            inputs=(
                ("quantity", "global_max"),
                ("x", report.max_x),
                ("n", report.max_n),
                ("event", report.max_event),
            ),
            extras=(("value", report.max_value),),
        ),
        CaseRecord(
            index=2,
            inputs=(("quantity", "boundary_zero"), ("x", THETA0), ("n", 1), ("event", z_axis)),
            extras=(("value", boundary),),
        ),
        CaseRecord(
            index=3,
            inputs=(("quantity", "beyond_cone"), ("x", THETA0 + 0.05), ("n", 1), ("event", z_axis)),
            extras=(("value", beyond),),
        ),
    )
    criteria = (
        ("lower_bound", report.min_value >= -EXACT_TOLERANCE),
        ("upper_bound", report.max_value <= 1.0 + EXACT_TOLERANCE),
        ("boundary_zero", abs(boundary) <= EXACT_TOLERANCE),
        ("beyond_cone_negative", beyond < 0.0),
    )
    stats = (
        ("min_value", report.min_value),
        ("max_value", report.max_value),
        ("n_evaluations", report.n_evaluations),
        ("boundary_value", boundary),
        ("beyond_value", beyond),
    )
    passed = all(ok for _, ok in criteria)
    summary = ExperimentSummary(stats=stats, criteria=criteria, passed=passed)
    return ExperimentReport(config=cfg, records=records, summary=summary)


def covering_check(frame, vectors) -> float:
    """Largest angle from any of the vectors to its nearest vertex."""
    arr = np.atleast_2d(np.asarray(vectors, dtype=float))
    dots = np.clip(arr @ frame.vertices.T, -1.0, 1.0)
    return float(np.arccos(dots.max(axis=1)).max())


def _run_covering(cfg: ExperimentConfig) -> ExperimentReport:
    frame = _frame()
    rng = case_rng(cfg.seed, 0)
    vz = rng.uniform(-1.0, 1.0, cfg.pairs)
    ph = rng.uniform(0.0, 2.0 * math.pi, cfg.pairs)
    s = np.sqrt(np.maximum(0.0, 1.0 - vz * vz))
    vectors = np.column_stack((s * np.cos(ph), s * np.sin(ph), vz))
    dots = np.clip(vectors @ frame.vertices.T, -1.0, 1.0)
    angles = np.arccos(dots.max(axis=1))
    worst = int(np.argmax(angles))
    max_angle = float(angles[worst])

    diff = frame.vertices[:, None, :] - frame.vertices[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    iu = np.triu_indices(12, k=1)
    pairwise = dist[iu]
    edge_mask = np.abs(pairwise - EDGE_LENGTH) < 0.1
    edge_count = int(edge_mask.sum())
    max_edge_dev = float(np.abs(pairwise[edge_mask] - EDGE_LENGTH).max())

    records = (
        CaseRecord(
            index=0,
            inputs=(("worst_vector", _bloch_tuple(vectors[worst])),),
            extras=(("angle_to_nearest_vertex", max_angle),),
        ),
    )
    criteria = (
        ("within_covering_radius", max_angle <= COVERING_RADIUS + 1e-6),
        ("inside_validity_cone", max_angle < THETA0),
        ("edge_lengths", edge_count == 30 and max_edge_dev <= 1e-9),
    )
    stats = (
        ("max_angle", max_angle),
        ("covering_radius", COVERING_RADIUS),
        ("validity_cone", THETA0),
        ("edge_count", edge_count),
        ("max_edge_deviation", max_edge_dev),
        ("directions", cfg.pairs),
    )
    passed = all(ok for _, ok in criteria)
    summary = ExperimentSummary(stats=stats, criteria=criteria, passed=passed)
    return ExperimentReport(config=cfg, records=records, summary=summary)


def _fd_zenith_rate(v, dt: float) -> float:
    """Central-difference zenith velocity under the y-axis rotation."""
    forward = to_spherical(evolve_bloch(v, dt)).theta
    backward = to_spherical(evolve_bloch(v, -dt)).theta
    return (forward - backward) / (2.0 * dt)


def _run_witness(cfg: ExperimentConfig) -> ExperimentReport:
    witness = non_markov_witness(cfg.theta, cfg.phi_a, cfg.phi_b)
    dt = 1e-4
    fd_a = _fd_zenith_rate(np.array(witness.v_a), dt)
    fd_b = _fd_zenith_rate(np.array(witness.v_b), dt)
    err_a = abs(fd_a - witness.rate_a)
    err_b = abs(fd_b - witness.rate_b)
    records = (
        CaseRecord(
            index=0,
            inputs=(
                ("preparation", "a"),
                ("theta", witness.theta),
                ("phi", witness.phi_a),
                ("v", witness.v_a),
            ),
            extras=(("zenith_rate", witness.rate_a), ("fd_rate", fd_a), ("fd_error", err_a)),
        ),
        CaseRecord(
            index=1,
            inputs=(
                ("preparation", "b"),
                ("theta", witness.theta),
                ("phi", witness.phi_b),
                ("v", witness.v_b),
            ),
            extras=(("zenith_rate", witness.rate_b), ("fd_rate", fd_b), ("fd_error", err_b)),
        ),
    )
    criteria = (
        ("distinct_rates", witness.discrepancy > 0.0),
        ("finite_difference", max(err_a, err_b) <= 1e-7),
    )
    stats = (
        ("shared_ontic_x", witness.ontic_x),
        ("rate_a", witness.rate_a),
        ("rate_b", witness.rate_b),
        ("discrepancy", witness.discrepancy),
        ("max_fd_error", max(err_a, err_b)),
    )
    passed = all(ok for _, ok in criteria)
    summary = ExperimentSummary(stats=stats, criteria=criteria, passed=passed)
    return ExperimentReport(config=cfg, records=records, summary=summary)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Execute the experiment the config describes."""
    if config.kind == "exact-qubit":
        records = _map_cases(_case_exact_qubit, config, config.pairs)
        return ExperimentReport(config, records, _exact_qubit_summary(config, records))
    if config.kind == "mc-qubit":
        if config.samples < 1:
            raise ValueError("mc-qubit needs samples >= 1")
        records = _map_cases(_case_mc_qubit, config, config.pairs)
        return ExperimentReport(config, records, _mc_summary(config, records))
    if config.kind == "exact-ndim":
        records = _map_cases(_case_exact_ndim, config, config.pairs)
        return ExperimentReport(config, records, _exact_ndim_summary(config, records))
    if config.kind == "mc-ndim":
        if config.samples < 1:
            raise ValueError("mc-ndim needs samples >= 1")
        records = _map_cases(_case_mc_ndim, config, config.pairs)
        return ExperimentReport(config, records, _mc_summary(config, records))
    if config.kind == "positivity-sweep":
        return _run_sweep(config)
    if config.kind == "covering":
        return _run_covering(config)
    if config.kind == "witness":
        return _run_witness(config)
    raise ValueError(f"unknown experiment kind {config.kind!r}")
