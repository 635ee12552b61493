"""Seeded verification experiments over the hidden-variable models.

Each experiment kind turns a typed config into a report of per-case
columns plus summary criteria. One table, ``_KINDS``, maps every kind to
the function that runs the whole experiment in the calling process and
returns (columns, summary), and for ``protocol`` the files it leaves at
the run root; its order is ``EXPERIMENT_KINDS``. The columns are
``(name, values)`` pairs in report order: ``index``, the kind's inputs,
then what the kind computes, and no other. The per-pair kinds keep the
arrays their kernels return as the values, and every one of them has a
``rejections`` column (all zero for the qubit kinds). Only this module
names the columns.

Results are a function of (config, seed) only. Every per-pair run draws
from one generator, ``case_rng(seed, 0)``: the qubit kinds all of V,
then all of W (or take ``fixed_pairs``), then for MC each of the three
binomials for every pair, for ``protocol`` per pair its messages and then
its outcomes; so case i depends on ``pairs``. The cone region draws V on
its cap; the sphere draw also rotates V and W into V's patch frame.
``covering`` draws block b of its directions from ``case_rng(seed, b)``.
A one-slot memo, filled only by runs, holds the last pair draw, keyed by
its arguments, with the generator's state after it, so the runs of one
subcommand share a draw. Replaying one case means rerunning its experiment.

Statistical kinds compare Monte Carlo frequencies against exact
probabilities through the normal z-score

    z = (freq - p) * sqrt(samples) / sqrt(p * (1 - p))

where a degenerate probability (p <= 0 or p >= 1) scores its limit: 0
when freq == p, else an infinity with the sign of freq - p. Each ``mc-*``
case draws its hit count hierarchically through the model's own count
sampler (``sample_hits`` in the patch frame, ``sample_hits_ndim``): exact
in distribution to drawing every round, at a cost that does not grow
with ``samples``. An ``mc-*`` run passes when at most
``allowed_z_failures(pairs)`` cases land outside |z| <= 5; ``protocol``
draws every round through 10-byte wire messages and passes only when
every pair does.
"""

from __future__ import annotations

import collections
import hashlib
import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .cone import (
    _CONE_Z_MIN,
    THETA0,
    QubitOnticState,
    conditional_probability_unchecked,
    exact_event_probability,
    sample_hits,
    sweep_positivity,
)
from .dynamics import evolve_bloch, non_markov_witness
from .geometry import _sphere_rows, as_bloch, born_probability_ndim, born_probability_qubit
from .geometry import random_amplitudes, random_bloch, to_spherical
from .icosa import (
    COVERING_RADIUS,
    EDGE_LENGTH,
    MESSAGE_SIZE,
    _covering_blocks,
    _farthest_from_vertices,
    assign_patch,
    build_frame,
    into_patch,
    measure_messages,
    prepare_messages,
)
from .ndim import (
    conditional_probability_grid,
    exact_event_probability_ndim,
    ground_weighted,
    make_in_region_pair,
    sample_hits_ndim,
    uniform_weights,
    weighted_probability_sum,
)
from .reports import _python_values, format_float, format_value

__all__ = [
    "EXPERIMENT_KINDS",
    "EXACT_TOLERANCE",
    "Z_LIMIT",
    "ExperimentConfig",
    "ExperimentSummary",
    "ExperimentReport",
    "RadiusError",
    "case_rng",
    "z_score",
    "allowed_z_failures",
    "run_experiment",
]

EXACT_TOLERANCE = 1e-12
Z_LIMIT = 5.0

_SCHEMES = ("uniform", "ground")
_SAMPLED = ("mc-qubit", "mc-ndim", "protocol")
_REGIONS = ("sphere", "cone")


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one experiment run.

    ``workers`` is accepted and checked (at least 1) but selects
    nothing: every run uses one process. It is excluded from the
    serialized identity, so reports do not depend on it. ``protocol`` counts
    rounds in ``samples``; its ``fixed_pairs``, one unit ``(v, w)`` tuple per
    pair, replace the random pairs and are left out of the identity when empty.
    Building one draws nothing: an N-level run whose ``radius`` admits no pair raises ``RadiusError``.
    Equality and the hash use the identity that ``digest`` hashes, the ``items`` tokens: two
    configs are equal exactly when their digests are, also when only ``workers`` differs, and
    a zero's sign (which the reports print) tells configs apart.
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
    fixed_pairs: tuple = ()

    def __post_init__(self) -> None:
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type in ("str", "tuple") or (value is None and f.type == "float | None"):
                continue
            # bool is an int subclass; True must not pass as pairs = 1
            number = numbers.Integral if f.type == "int" else numbers.Real
            if isinstance(value, bool) or not isinstance(value, number):
                raise ValueError(f"{f.name} must be {f.type.split()[0]}, got {value!r}")
            if not isinstance(value, numbers.Integral) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if self.pairs < 1:
            raise ValueError("pairs must be at least 1")
        if self.samples < 0:
            raise ValueError("samples cannot be negative")
        if self.samples > 2**63 - 1:  # numpy draws hit counts as int64; no other size bounds samples
            raise ValueError(f"samples must be at most 2**63 - 1, got {self.samples}")
        if self.kind in _SAMPLED and self.samples < 1:
            raise ValueError(f"{self.kind} needs samples >= 1")
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
        if self.fixed_pairs and (self.kind != "protocol" or len(self.fixed_pairs) != self.pairs):
            raise ValueError("fixed_pairs needs kind protocol and one (v, w) per pair")
        for v, w in self.fixed_pairs:
            as_bloch(v), as_bloch(w)  # raises on a vector that is not unit
        if self.kind == "witness":
            non_markov_witness(self.theta, self.phi_a, self.phi_b)  # raises on bad angles

    def items(self):
        """(name, value) pairs identifying the experiment, in field order."""
        for f in fields(self):
            if f.name == "workers" or (f.name == "fixed_pairs" and not self.fixed_pairs):
                continue
            yield f.name, getattr(self, f.name)

    def _tokens(self) -> tuple:
        return tuple(f"{name}={format_value(value)}" for name, value in self.items())

    def __eq__(self, other):
        if not isinstance(other, ExperimentConfig):
            return NotImplemented
        return self._tokens() == other._tokens()

    def __hash__(self) -> int:
        return hash(self._tokens())

    def digest(self) -> str:
        text = "\n".join(self._tokens())
        return "sha256:" + hashlib.sha256(text.encode("ascii")).hexdigest()


def _columns(**columns) -> tuple:
    """Report columns: index, then the given columns in order."""
    n = len(next(iter(columns.values())))
    return (("index", np.arange(n)), *columns.items())


@dataclass(frozen=True)
class ExperimentSummary:
    """Aggregate statistics plus named pass/fail criteria."""

    stats: tuple
    criteria: tuple
    passed: bool


def _summary(stats: tuple, criteria: tuple) -> ExperimentSummary:
    return ExperimentSummary(stats=stats, criteria=criteria, passed=all(ok for _, ok in criteria))


@dataclass(frozen=True)
class ExperimentReport:
    """Everything a run produced; renderable via the reports module.

    ``columns`` holds the per-case values as ``(name, values)`` pairs in
    report order (see the module docstring): only the columns the kind
    computes, each a sequence of one value per case, none of them None.
    ``records`` is a read-only view of them, built when read: one
    namedtuple of plain Python values per case. Running and writing a
    report never builds it. ``files`` holds the ``(name, bytes)`` pairs a
    kind leaves at the run root.
    """

    config: object
    columns: tuple
    summary: ExperimentSummary
    files: tuple = ()

    @property
    def passed(self) -> bool:
        return self.summary.passed

    @property
    def records(self) -> tuple:
        row = collections.namedtuple("Row", [name for name, _ in self.columns])
        values = [_python_values(values) for _, values in self.columns]
        return tuple(map(row._make, zip(*values)))


class RadiusError(ValueError):
    """An N-level run's radius admits no in-region pair for its scheme: bad input, not a failed run."""


def case_rng(seed: int, index: int) -> np.random.Generator:
    """Generator ``index`` of a seeded run: per-pair kinds draw from 0, covering block b from b."""
    return np.random.default_rng(np.random.SeedSequence([seed, index]))


def z_score(freq, p, samples: int):
    """Normal-approximation z of frequencies against probabilities p, floats or arrays alike.

    A degenerate p (p <= 0 or p >= 1, where p * (1 - p) may be negative) scores its limit, never
    NaN: 0 where freq == p, else an infinity with the sign of freq - p.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    diff = np.subtract(freq, p)
    inside = (p > 0.0) & (p < 1.0)
    z = diff * math.sqrt(samples) / np.sqrt(np.where(inside, p * (1.0 - p), 1.0))
    z = np.where(inside, z, np.where(diff == 0.0, 0.0, np.copysign(math.inf, diff)))
    return z if z.ndim else float(z)


def allowed_z_failures(pairs: int) -> int:
    """Budget of cases allowed outside |z| <= Z_LIMIT: one in 100, at least 1, fewer than pairs."""
    return min(pairs - 1, max(1, pairs // 100))


# The one slot of the pair-draw memo, {key: (generator state after the draw, what it drew)}.
_MEMO: dict = {}


def _drawn(draw, seed: int, *args) -> tuple:
    """The run's one generator, after ``draw(case_rng(seed, 0), *args)``, then what it drew.

    A held draw's generator is set to the state after it: one ``case_rng`` call either way.
    The key is the arguments' repr, as -0.0 and 0.0 compare equal but print apart in a report.
    """
    key, rng = (draw, repr((seed, *args))), case_rng(seed, 0)
    if key not in _MEMO:
        _MEMO.clear()  # frees the previous draw before this one is made
        values = draw(rng, *args)
        for value in values:
            if isinstance(value, np.ndarray):
                value.setflags(write=False)  # shared by every run that holds the draw
        _MEMO[key] = rng.bit_generator.state, values
    else:
        rng.bit_generator.state = _MEMO[key][0]
    return rng, *_MEMO[key][1]


def _draw_qubit(rng, pairs: int, region: str, fixed_pairs: tuple) -> tuple:
    """V and W as (pairs, 3) stacks, V's patch column (None on the cone), then V and W in its frame."""
    if fixed_pairs:
        v, w = (np.array(column, dtype=float) for column in zip(*fixed_pairs))
    else:
        v = random_bloch(rng, z_min=_CONE_Z_MIN if region == "cone" else -1.0, size=pairs)
        w = random_bloch(rng, size=pairs)
    return (v, w, None, v, w) if region == "cone" else (v, w, *into_patch(build_frame(), v, w))


def _qubit_pairs(cfg: ExperimentConfig) -> tuple:
    """The run's generator, V and W, both in V's patch frame, the input columns and 0 rejections."""
    rng, v, w, patch, *framed = _drawn(_draw_qubit, cfg.seed, cfg.pairs, cfg.region, cfg.fixed_pairs)
    inputs = {"v": v, "w": w} if patch is None else {"v": v, "w": w, "patch": patch}
    return rng, v, w, framed, inputs, np.zeros(cfg.pairs, dtype=np.int64)


def _run_exact_qubit(cfg: ExperimentConfig) -> tuple:
    _, v, w, framed, inputs, rejections = _qubit_pairs(cfg)
    exact = exact_event_probability(*framed)
    born = born_probability_qubit(v, w)
    abs_error = np.abs(exact - born)
    stats = (
        ("max_abs_error", float(abs_error.max())),
        ("mean_abs_error", math.fsum(abs_error) / len(abs_error)),
        ("total_rejections", 0),
    )
    summary = _summary(stats, (("born_identity", bool(abs_error.max() <= EXACT_TOLERANCE)),))
    columns = _columns(**inputs, exact_p=exact, born_p=born, rejections=rejections, abs_error=abs_error)
    return columns, summary


def _mc_columns(cfg: ExperimentConfig, inputs: dict, born, hits, rejections, allowed) -> tuple:
    """Monte Carlo columns and summary: each case's frequency and z.

    ``freq`` is ``hits / samples`` in numpy, the Python quotient while both counts are exact
    doubles; past 2**53 samples numpy would round them first, so Python divides. A case fails
    when not |z| <= Z_LIMIT, and the run passes when at most ``allowed`` cases fail.
    """
    freq = hits / cfg.samples if cfg.samples <= 2**53 else np.array([h / cfg.samples for h in hits.tolist()])
    z = z_score(freq, born, cfg.samples)
    failures = int(np.count_nonzero(~(np.abs(z) <= Z_LIMIT)))
    stats = (
        ("max_abs_z", float(np.abs(z).max())),
        ("z_failures", failures),
        ("allowed_failures", allowed),
        ("samples_per_pair", cfg.samples),
        ("total_rejections", int(rejections.sum())),
    )
    columns = _columns(**inputs, born_p=born, freq=freq, z=z, rejections=rejections)
    return columns, _summary(stats, (("z_within_limit", failures <= allowed),))


def _run_mc_qubit(cfg: ExperimentConfig) -> tuple:
    rng, v, w, framed, inputs, rejections = _qubit_pairs(cfg)
    hits = sample_hits(*framed, cfg.samples, rng)
    born = born_probability_qubit(v, w)
    return _mc_columns(cfg, inputs, born, hits, rejections, allowed_z_failures(cfg.pairs))


def _draw_ndim(rng, pairs: int, dim: int, scheme: str, pole_mass: float, radius) -> tuple:
    """The cell weights of the scheme, then an in-region pair stack: psi, phi, rejections."""
    weights = uniform_weights(dim) if scheme == "uniform" else ground_weighted(dim, pole_mass)
    try:
        return weights, *make_in_region_pair(dim, weights, rng, radius=radius, size=pairs)
    except RuntimeError as exc:  # every attempt at some row fell outside the region
        raise RadiusError(f"radius {radius} too large for the {scheme} scheme: {exc}") from exc


def _ndim_pairs(cfg: ExperimentConfig) -> tuple:
    """The run's generator after its pair draw, the cell weights, psi, phi and the rejections."""
    args = (cfg.pairs, cfg.dim, cfg.scheme, cfg.pole_mass, cfg.radius)
    return _drawn(_draw_ndim, cfg.seed, *args)


def _run_exact_ndim(cfg: ExperimentConfig) -> tuple:
    rng, scheme, psi, phi, rejections = _ndim_pairs(cfg)
    exact = exact_event_probability_ndim(psi, phi, scheme)
    born = born_probability_ndim(psi, phi)
    grid = conditional_probability_grid(psi, phi, scheme)
    # Unconstrained pairs: the weighted sum telescopes to the quantum
    # value even when positivity fails.
    psi_any = random_amplitudes(cfg.dim, rng, size=cfg.pairs)
    phi_any = random_amplitudes(cfg.dim, rng, size=cfg.pairs)
    ungated = weighted_probability_sum(psi_any, phi_any, scheme)
    abs_error = np.abs(exact - born)
    cond_min = grid.min(axis=(1, 2))
    cond_max = grid.max(axis=(1, 2))
    ungated_error = np.abs(ungated - born_probability_ndim(psi_any, phi_any))
    columns = _columns(
        psi=psi, phi=phi, exact_p=exact, born_p=born, rejections=rejections, abs_error=abs_error,
        cond_min=cond_min, cond_max=cond_max,
    )
    stats = (
        ("max_abs_error", float(abs_error.max())),
        ("cond_min", float(cond_min.min())),
        ("cond_max", float(cond_max.max())),
        ("max_ungated_error", float(ungated_error.max())),
        ("total_rejections", int(rejections.sum())),
    )
    value = dict(stats)
    criteria = (
        ("born_identity", value["max_abs_error"] <= EXACT_TOLERANCE),
        ("conditionals_in_unit_interval", value["cond_min"] > 0.0 and value["cond_max"] <= 1.0),
        ("ungated_identity", value["max_ungated_error"] <= EXACT_TOLERANCE),
    )
    return columns, _summary(stats, criteria)


def _run_mc_ndim(cfg: ExperimentConfig) -> tuple:
    rng, scheme, psi, phi, rejections = _ndim_pairs(cfg)
    hits = sample_hits_ndim(psi, phi, scheme, cfg.samples, rng)
    born = born_probability_ndim(psi, phi)
    return _mc_columns(cfg, {"psi": psi, "phi": phi}, born, hits, rejections, allowed_z_failures(cfg.pairs))


def _run_protocol(cfg: ExperimentConfig) -> tuple:
    """Each pair's rounds as 10-byte wire messages, measured from the bytes alone.

    V and W come from ``_qubit_pairs``, as for ``mc-qubit``, unrotated. Then, pair after
    pair, the run's generator draws pair i's messages into row i of the one
    buffer that is ``messages.bin``, then its outcomes; these shrink to a hit
    count and the running frequencies of the transcript.
    """
    rng, v, w, _, inputs, rejections = _qubit_pairs(cfg)
    frame = build_frame()
    size = cfg.samples * MESSAGE_SIZE  # bytes per pair
    wire = bytearray(cfg.pairs * size)
    hits = np.empty(cfg.pairs, dtype=np.int64)
    checkpoints = [10**j for j in range(1, len(str(cfg.samples)))]  # 10, 100, ...
    running = []  # per pair, its checkpoint lines of the transcript
    for i in range(cfg.pairs):
        row = memoryview(wire)[i * size : (i + 1) * size]
        # one byte copy: assigning to a MESSAGE_DTYPE row would copy field by field
        row[:] = prepare_messages(frame, v[i], cfg.samples, rng).view(np.uint8)
        # The measurer sees only the wire bytes and the event.
        outcomes = rng.random(cfg.samples) < measure_messages(frame, w[i], row)
        hits[i] = outcomes.sum()
        running.append([f"  checkpoint {c} freq = {format_float(float(outcomes[:c].sum() / c))}"
                        for c in checkpoints])
    columns, summary = _mc_columns(cfg, inputs, born_probability_qubit(v, w), hits, rejections, 0)

    lines = [f"rounds_per_pair = {cfg.samples}", f"message_bytes = {MESSAGE_SIZE}",
             f"seed = {cfg.seed}"]
    for i, failed in enumerate((~(np.abs(dict(columns)["z"]) <= Z_LIMIT)).tolist()):
        lines += [f"pair {i}", *running[i], f"  status = {'outside tolerance' if failed else 'ok'}"]
    lines.append(f"passed = {format_value(summary.passed)}")
    transcript = ("\n".join(lines) + "\n").encode()
    return columns, summary, (("messages.bin", wire), ("transcript.txt", transcript))


def _run_sweep(cfg: ExperimentConfig) -> tuple:
    scan = sweep_positivity(cfg.x_step, cfg.events)
    z_axis = (0.0, 0.0, 1.0)
    boundary = conditional_probability_unchecked(z_axis, QubitOnticState(THETA0, 1))
    beyond = conditional_probability_unchecked(z_axis, QubitOnticState(THETA0 + 0.05, 1))
    columns = _columns(
        quantity=["global_min", "global_max", "boundary_zero", "beyond_cone"],
        x=[scan.min_x, scan.max_x, THETA0, THETA0 + 0.05],
        n=[scan.min_n, scan.max_n, 1, 1],
        event=[scan.min_event, scan.max_event, z_axis, z_axis],
        value=[scan.min_value, scan.max_value, boundary, beyond],
    )
    criteria = (
        ("lower_bound", scan.min_value >= -EXACT_TOLERANCE),
        ("upper_bound", scan.max_value <= 1.0 + EXACT_TOLERANCE),
        ("boundary_zero", abs(boundary) <= EXACT_TOLERANCE),
        ("beyond_cone_negative", beyond < 0.0),
    )
    stats = (
        ("min_value", scan.min_value),
        ("max_value", scan.max_value),
        ("n_evaluations", scan.n_evaluations),
        ("boundary_value", boundary),
        ("beyond_value", beyond),
    )
    return columns, _summary(stats, criteria)


def _covering_block(seed: int, b: int, k: int) -> tuple:
    """Block b as (z, rows): from ``case_rng(seed, b)``, k heights z in [-1, 1), then k azimuths;
    ``rows(index)`` gives the unit vectors at an index array or slice, their trig computed then."""
    rng = case_rng(seed, b)
    z = rng.uniform(-1.0, 1.0, k)
    azimuth = rng.uniform(0.0, 2.0 * math.pi, k)
    return z, lambda index: _sphere_rows(z[index], azimuth[index])


def _covering_rows(seed: int, blocks):
    """Each block's ``_covering_block``, drawn when asked for; nothing here holds a block."""
    return (_covering_block(seed, b, block.stop - block.start) for b, block in enumerate(blocks))


def _run_covering(cfg: ExperimentConfig) -> tuple:
    frame = build_frame()
    rows = _covering_rows(cfg.seed, _covering_blocks(cfg.pairs))
    max_angle, direction, worst_vector = _farthest_from_vertices(frame, rows)

    diff = frame.vertices[:, None, :] - frame.vertices[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    iu = np.triu_indices(12, k=1)
    pairwise = dist[iu]
    edge_mask = np.abs(pairwise - EDGE_LENGTH) < 0.1
    edge_count = int(edge_mask.sum())
    max_edge_dev = float(np.abs(pairwise[edge_mask] - EDGE_LENGTH).max())

    columns = _columns(direction=[direction], worst_vector=[worst_vector],
                       patch=[assign_patch(frame, worst_vector)], angle_to_nearest_vertex=[max_angle])
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
    return columns, _summary(stats, criteria)


def _fd_zenith_rate(v, dt: float) -> float:
    """Central-difference zenith velocity under the y-axis rotation."""
    forward = to_spherical(evolve_bloch(v, dt)).theta
    backward = to_spherical(evolve_bloch(v, -dt)).theta
    return (forward - backward) / (2.0 * dt)


def _run_witness(cfg: ExperimentConfig) -> tuple:
    witness = non_markov_witness(cfg.theta, cfg.phi_a, cfg.phi_b)
    dt = 1e-4
    fd_a = _fd_zenith_rate(np.array(witness.v_a), dt)
    fd_b = _fd_zenith_rate(np.array(witness.v_b), dt)
    err_a = abs(fd_a - witness.rate_a)
    err_b = abs(fd_b - witness.rate_b)
    columns = _columns(
        preparation=["a", "b"], theta=[witness.theta] * 2, phi=[witness.phi_a, witness.phi_b],
        v=[witness.v_a, witness.v_b], zenith_rate=[witness.rate_a, witness.rate_b],
        fd_rate=[fd_a, fd_b], fd_error=[err_a, err_b],
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
    return columns, _summary(stats, criteria)


_KINDS = {
    "exact-qubit": _run_exact_qubit,
    "mc-qubit": _run_mc_qubit,
    "exact-ndim": _run_exact_ndim,
    "mc-ndim": _run_mc_ndim,
    "positivity-sweep": _run_sweep,
    "covering": _run_covering,
    "witness": _run_witness,
    "protocol": _run_protocol,
}
EXPERIMENT_KINDS = tuple(_KINDS)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Execute the experiment the config describes."""
    return ExperimentReport(config, *_KINDS[config.kind](config))
