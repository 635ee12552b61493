"""Hierarchical hit-count samplers: hard places and the law they draw from.

``sample_hits``, ``sample_hits_patched`` and ``sample_hits_ndim`` draw
the number of outcomes among N rounds as nested binomials. The
per-round algorithm below (branch bit or cell first, then the outcome,
one uniform each per round) is kept as the reference they are checked
against, together with the exact Bin(N, Born p) law and the library's
own per-round stacks (``sample_ontic``, ``prepare_messages`` with
``measure_messages``, and ``sample_ndim``).
"""

import math

import numpy as np
import pytest
from scipy import stats

from onticsim import (
    THETA0,
    OutOfConeError,
    PositivityError,
    NdimOnticState,
    QubitOnticState,
    assign_patch,
    born_probability_ndim,
    born_probability_qubit,
    conditional_probability,
    conditional_probability_grid,
    conditional_probability_ndim,
    conditional_probability_unchecked,
    from_spherical,
    ground_weighted,
    make_in_region_pair,
    measure_messages,
    prepare_messages,
    random_bloch,
    sample_hits,
    sample_hits_ndim,
    sample_hits_patched,
    sample_ndim,
    sample_ontic,
    to_spherical,
    uniform_weights,
)
from onticsim.cone import _unit_probability

ROUNDS = 20
REPEATS = 2 * 10**4
P_FLOOR = 1e-4


def _branch_responses(v, w):
    theta, phi = to_spherical(v)
    p0 = conditional_probability_unchecked(w, QubitOnticState(phi, 0))
    p1 = conditional_probability_unchecked(w, QubitOnticState(theta, 1))
    return math.sin(theta), p0, p1


def _rotated_pair(frame, v, w):
    rot = frame.rotations[assign_patch(frame, v) - 1]
    v_rot = rot @ v
    v_rot /= np.linalg.norm(v_rot)
    w_rot = rot @ w
    w_rot /= np.linalg.norm(w_rot)
    return v_rot, w_rot


def _per_round_qubit(v, w, rng):
    """Reference: a branch bit per round, then the outcome given the branch."""
    sin_theta, p0, p1 = _branch_responses(v, w)
    branch = rng.random((REPEATS, ROUNDS)) < sin_theta
    p = np.where(branch, p0, p1)
    return (rng.random((REPEATS, ROUNDS)) < p).sum(axis=1)


def _per_round_ndim(psi, phi, scheme, rng):
    """Reference: an inverse-CDF cell per round, then a Bernoulli outcome."""
    cell_p = conditional_probability_grid(psi, phi, scheme).ravel()
    idx = np.searchsorted(scheme.cumulative, rng.random((REPEATS, ROUNDS)), side="right")
    idx = np.minimum(idx, cell_p.size - 1)
    return (rng.random((REPEATS, ROUNDS)) < cell_p[idx]).sum(axis=1)


def _counts(p, rng):
    """Outcome counts of REPEATS runs of ROUNDS rounds; round j has an outcome with probability p[j]."""
    return (rng.random(p.size) < p).reshape(REPEATS, ROUNDS).sum(axis=1)


def _priced(states, price):
    """``price(*row)`` for every row of a C-contiguous 2-d states, once per distinct row of bytes."""
    rows = states.view(f"V{states[0].nbytes}").ravel()
    _, first, which = np.unique(rows, return_index=True, return_inverse=True)
    return np.array([price(*row) for row in states[first].tolist()])[which]


def _shipped_qubit(v, w, rng):
    """The library's rounds: one ``sample_ontic`` stack, each state priced by its response."""
    x, n = sample_ontic(v, rng, REPEATS * ROUNDS)
    p = _priced(np.column_stack((x, n)), lambda x, n: conditional_probability(w, QubitOnticState(x, int(n))))
    return _counts(p, rng)


def _shipped_patched(frame, v, w, rng):
    """The library's wire rounds: ``prepare_messages``, priced from the bytes by ``measure_messages``."""
    messages = prepare_messages(frame, v, REPEATS * ROUNDS, rng)
    return _counts(measure_messages(frame, w, messages.tobytes()), rng)


def _shipped_ndim(psi, phi, scheme, rng):
    """The library's rounds: one ``sample_ndim`` stack, each cell state priced by its response."""
    n, m, X = sample_ndim(psi, scheme, rng, REPEATS * ROUNDS)

    def price(n, m, re, im):
        return conditional_probability_ndim(phi, NdimOnticState(int(n), int(m), complex(re, im)), scheme)

    return _counts(_priced(np.column_stack((n, m, X.real, X.imag)), price), rng)


def _groups(expected):
    """Join adjacent outcomes until every group expects at least 5 counts."""
    labels = np.empty(expected.size, dtype=int)
    group, acc = 0, 0.0
    for i, e in enumerate(expected):
        labels[i] = group
        acc += e
        if acc >= 5.0:
            group, acc = group + 1, 0.0
    if acc > 0.0 and group > 0:
        labels[labels == group] = group - 1
    return labels


def _assert_same_binomial_law(p, *samples):
    """Every count sample follows Bin(ROUNDS, p), and they agree with each other."""
    expected = REPEATS * stats.binom.pmf(np.arange(ROUNDS + 1), ROUNDS, p)
    labels = _groups(expected)
    merged_expected = np.bincount(labels, weights=expected)
    rows = []
    for counts in samples:
        observed = np.bincount(labels, weights=np.bincount(counts, minlength=ROUNDS + 1))
        scaled = merged_expected * observed.sum() / merged_expected.sum()
        assert stats.chisquare(observed, scaled).pvalue > P_FLOOR
        rows.append(observed)
    table = np.array(rows)
    assert stats.chi2_contingency(table[:, table.sum(axis=0) > 0]).pvalue > P_FLOOR


def test_cone_counts_match_per_round_and_binomial():
    v = from_spherical((0.6, 1.0))
    w = from_spherical((1.8, 2.5))  # southern event: the complement rule folds it
    p = born_probability_qubit(v, w)
    assert 0.2 < p < 0.8
    rng = np.random.default_rng(101)
    hierarchical = np.array([sample_hits(v, w, ROUNDS, rng) for _ in range(REPEATS)])
    per_round = _per_round_qubit(v, w, np.random.default_rng(102))
    shipped = _shipped_qubit(v, w, np.random.default_rng(121))
    _assert_same_binomial_law(p, hierarchical, per_round, shipped)


def test_patched_counts_match_per_round_and_binomial(frame):
    v = from_spherical((2.2, 0.4))
    w = from_spherical((1.2, 1.5))
    p = born_probability_qubit(v, w)
    assert 0.2 < p < 0.8 and assign_patch(frame, v) != 1
    rng = np.random.default_rng(103)
    hierarchical = np.array([sample_hits_patched(frame, v, w, ROUNDS, rng) for _ in range(REPEATS)])
    per_round = _per_round_qubit(*_rotated_pair(frame, v, w), np.random.default_rng(104))
    shipped = _shipped_patched(frame, v, w, np.random.default_rng(122))
    _assert_same_binomial_law(p, hierarchical, per_round, shipped)


def _hand_pair():
    # psi = |0>, phi at 0.7 rad with a phase: cell responses 0.39 to 0.79,
    # so a cell/response mismatch under unequal weights shifts the law
    a = 0.7
    return np.array([1.0, 0.0], dtype=complex), np.array([math.cos(a), math.sin(a) * 1j])


def _region_pair():
    scheme = ground_weighted(3, 0.6)
    pair = make_in_region_pair(3, scheme, np.random.default_rng(105), radius=0.3)
    return pair.psi, pair.phi


@pytest.mark.parametrize(
    "make_pair, scheme",
    [(_hand_pair, ground_weighted(2, 0.6)), (_region_pair, ground_weighted(3, 0.6))],
    ids=["dim2-hand", "dim3-region"],
)
def test_ndim_counts_match_per_round_and_binomial(make_pair, scheme):
    psi, phi = make_pair()
    p = born_probability_ndim(psi, phi)
    assert 0.0 < p < 1.0
    rng = np.random.default_rng(106)
    hierarchical = np.array([sample_hits_ndim(psi, phi, scheme, ROUNDS, rng) for _ in range(REPEATS)])
    per_round = _per_round_ndim(psi, phi, scheme, np.random.default_rng(107))
    shipped = _shipped_ndim(psi, phi, scheme, np.random.default_rng(123))
    _assert_same_binomial_law(p, hierarchical, per_round, shipped)


def test_unit_probability_clips_rounding_only():
    assert _unit_probability(0.25) == 0.25
    assert _unit_probability(1.0 + 2.0**-52) == 1.0
    assert _unit_probability(-2.2e-16) == 0.0
    assert _unit_probability(1.0 + 1e-12) == 1.0
    assert _unit_probability(-1e-12) == 0.0
    for bad in (1.0 + 1e-9, -1e-9, math.nan, math.inf):
        with pytest.raises(ValueError):
            _unit_probability(bad)


def test_poles_are_exact(frame):
    north, south = np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])
    rng = np.random.default_rng(108)
    assert sample_hits(north, north, 1000, rng) == 1000
    assert sample_hits(north, south, 1000, rng) == 0
    for v in (north, south):
        assert sample_hits_patched(frame, v, v, 1000, rng) == 1000
        assert sample_hits_patched(frame, v, -v, 1000, rng) == 0


def test_certain_events_survive_rounding(frame):
    # w = +-v makes a branch response round to just outside [0, 1] for
    # many preparations; the draw must treat it as exactly 1 or 0.
    rng = np.random.default_rng(109)
    preparations = list(frame.vertices) + [random_bloch(rng) for _ in range(2000)]
    outside = 0
    for v in preparations:
        for w in (v, -v):
            _, p0, p1 = _branch_responses(*_rotated_pair(frame, v, w))
            outside += not (0.0 <= p0 <= 1.0 and 0.0 <= p1 <= 1.0)
        assert sample_hits_patched(frame, v, v, 1000, rng) == 1000
        assert sample_hits_patched(frame, v, -v, 1000, rng) == 0
    assert outside > 0  # the guard is exercised, not bypassed


class _CountingRng:
    """Generator proxy that records the name of every draw."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.calls = []

    def __getattr__(self, name):
        def draw(*args, **kwargs):
            self.calls.append(name)
            return getattr(self._rng, name)(*args, **kwargs)

        return draw


def test_documented_variates(frame):
    v, w = from_spherical((0.4, 2.0)), from_spherical((1.3, 0.2))
    rng = _CountingRng(110)
    sample_hits(v, w, 10**6, rng)
    assert rng.calls == ["binomial"] * 3
    rng = _CountingRng(111)
    sample_hits_patched(frame, from_spherical((2.5, 5.0)), w, 10**6, rng)
    assert rng.calls == ["binomial"] * 3
    psi, phi = _hand_pair()
    rng = _CountingRng(112)
    sample_hits_ndim(psi, phi, uniform_weights(2), 10**6, rng)
    assert rng.calls == ["multinomial", "binomial"]


def test_samplers_reject_bad_input(frame):
    rng = np.random.default_rng(113)
    w = from_spherical((1.0, 1.0))
    with pytest.raises(OutOfConeError):
        sample_hits(from_spherical((THETA0 + 0.01, 0.0)), w, 10, rng)
    with pytest.raises(ValueError):
        sample_hits(from_spherical((0.3, 0.0)), w, -1, rng)
    assert sample_hits(from_spherical((0.3, 0.0)), w, 0, rng) == 0
    assert sample_hits_patched(frame, w, w, 0, rng) == 0
    psi = np.array([1.0, 0.0], dtype=complex)
    phi = np.array([0.0, 1.0], dtype=complex)
    with pytest.raises(PositivityError):
        sample_hits_ndim(psi, phi, uniform_weights(2), 10, rng)
    with pytest.raises(ValueError):
        sample_hits_ndim(psi, psi, uniform_weights(2), -1, rng)


BAD_SAMPLES = [2.5, 2.0, True, -1, np.float64(3.0), 2**63]


@pytest.mark.parametrize("samples", BAD_SAMPLES, ids=repr)
def test_sample_hits_rejects_bad_samples_before_any_draw(samples):
    rng = np.random.default_rng(114)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="samples"):
        sample_hits(from_spherical((0.3, 0.0)), from_spherical((1.0, 1.0)), samples, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("samples", BAD_SAMPLES, ids=repr)
def test_sample_hits_patched_rejects_bad_samples_before_any_draw(frame, samples):
    rng = np.random.default_rng(115)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="samples"):
        sample_hits_patched(frame, from_spherical((2.2, 0.4)), from_spherical((1.2, 1.5)), samples, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("samples", BAD_SAMPLES, ids=repr)
def test_sample_hits_ndim_rejects_bad_samples_before_any_draw(samples):
    rng = np.random.default_rng(116)
    state = rng.bit_generator.state
    psi, phi = _hand_pair()
    with pytest.raises(ValueError, match="samples"):
        sample_hits_ndim(psi, phi, ground_weighted(2, 0.6), samples, rng)
    assert rng.bit_generator.state == state


def test_samplers_take_numpy_integer_samples():
    v, w = from_spherical((0.3, 0.0)), from_spherical((1.0, 1.0))
    a, b = np.random.default_rng(117), np.random.default_rng(117)
    assert sample_hits(v, w, np.int64(50), a) == sample_hits(v, w, 50, b)
    psi, phi = _hand_pair()
    scheme = ground_weighted(2, 0.6)
    assert sample_hits_ndim(psi, phi, scheme, np.int64(50), a) == sample_hits_ndim(psi, phi, scheme, 50, b)
