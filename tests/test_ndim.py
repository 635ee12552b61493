import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onticsim import (
    InRegionPair,
    NdimOnticState,
    PositivityError,
    WeightScheme,
    born_probability_ndim,
    conditional_probability_grid,
    conditional_probability_ndim,
    exact_event_probability_ndim,
    ground_weighted,
    make_in_region_pair,
    positivity_check,
    random_amplitudes,
    sample_hits_ndim,
    sample_ndim,
    sufficient_condition,
    uniform_weights,
    weighted_probability_sum,
)


def test_uniform_weights_values():
    scheme = uniform_weights(2)
    assert np.all(scheme.weights == 0.25)
    assert scheme.dim == 2
    for dim in (2, 3, 4, 8):
        assert abs(uniform_weights(dim).weights.sum() - 1.0) < 1e-12


def test_ground_weighted_values():
    scheme = ground_weighted(2, 0.6)
    np.testing.assert_allclose(
        scheme.weights, [[0.2, 0.2], [0.2, 0.4]], atol=1e-15
    )
    for dim in (2, 3, 5):
        w = ground_weighted(dim, 0.3).weights
        assert abs(w.sum() - 1.0) < 1e-12
        assert np.all(w > 0.0)


def test_weight_scheme_validation():
    with pytest.raises(ValueError):
        WeightScheme(np.array([[0.5, 0.5], [0.5, -0.5]]))
    with pytest.raises(ValueError):
        WeightScheme(np.full((2, 3), 1.0 / 6.0))
    with pytest.raises(ValueError):
        WeightScheme(np.full((2, 2), 0.3))
    with pytest.raises(ValueError):
        ground_weighted(2, 1.0)
    with pytest.raises(ValueError):
        uniform_weights(1)


def test_weights_read_only():
    scheme = uniform_weights(2)
    with pytest.raises(ValueError):
        scheme.weights[0, 0] = 0.5


def test_sample_ndim_basis_state(rng):
    psi = np.array([1.0, 0.0])
    scheme = uniform_weights(2)
    seen = set()
    for _ in range(200):
        s = sample_ndim(psi, scheme, rng)
        seen.add((s.n, s.m))
        assert s.X == complex(np.conj(psi[s.n]) * psi[s.m])
        assert s.X in (0j, 1 + 0j)
        if (s.n, s.m) == (0, 0):
            assert s.X == 1 + 0j
    assert (0, 0) in seen


def test_sample_ndim_carries_exact_products(rng):
    for dim in (2, 3, 4):
        scheme = uniform_weights(dim)
        psi = random_amplitudes(dim, rng)
        for _ in range(200):
            s = sample_ndim(psi, scheme, rng)
            assert s.X == complex(np.conj(psi[s.n]) * psi[s.m])


def test_sample_ndim_cell_frequencies():
    rng = np.random.default_rng(17)
    scheme = ground_weighted(2, 0.6)
    psi = random_amplitudes(2, rng)
    draws = 10**6
    n, m, _ = sample_ndim(psi, scheme, rng, draws)
    counts = np.bincount(2 * n + m, minlength=4).reshape(2, 2)
    freq = counts / draws
    sigma = np.sqrt(scheme.weights * (1.0 - scheme.weights) / draws)
    assert np.all(np.abs(freq - scheme.weights) <= 4.0 * sigma)


@pytest.mark.parametrize("scheme", [uniform_weights(3), ground_weighted(3, 0.6), ground_weighted(2, 0.6)],
                         ids=["uniform-3", "ground-3", "ground-2"])
def test_sample_ndim_stack_equals_single_calls(scheme):
    single, stacked = np.random.default_rng(37), np.random.default_rng(37)
    psi = random_amplitudes(scheme.dim, np.random.default_rng(38))
    draws = [sample_ndim(psi, scheme, single) for _ in range(2000)]
    n, m, X = sample_ndim(psi, scheme, stacked, 2000)
    assert [(s.n, s.m) for s in draws] == list(zip(n.tolist(), m.tolist()))
    assert np.array([s.X for s in draws]).tobytes() == X.tobytes()
    assert single.bit_generator.state == stacked.bit_generator.state


def test_sample_ndim_deterministic():
    scheme = uniform_weights(3)
    a = np.random.default_rng(23)
    b = np.random.default_rng(23)
    psi = random_amplitudes(3, a)
    psi_b = random_amplitudes(3, b)
    for _ in range(500):
        assert sample_ndim(psi, scheme, a) == sample_ndim(psi_b, scheme, b)


def test_ontic_state_validation():
    NdimOnticState(0, 0, 1 + 0j)
    with pytest.raises(ValueError):
        NdimOnticState(-1, 0, 0j)
    with pytest.raises(ValueError):
        NdimOnticState(0, 0, 2 + 0j)


def test_conditional_probability_self_event(rng):
    scheme = uniform_weights(3)
    psi = random_amplitudes(3, rng)
    for _ in range(100):
        s = sample_ndim(psi, scheme, rng)
        assert conditional_probability_ndim(psi, s, scheme) == 1.0


def test_conditional_probability_counterexample():
    # orthogonal basis states under the uniform N=2 scheme leave the region
    scheme = uniform_weights(2)
    state = NdimOnticState(0, 0, 1 + 0j)
    value = conditional_probability_ndim(np.array([0.0, 1.0]), state, scheme)
    assert value == pytest.approx(-1.0, abs=1e-15)


def test_conditional_probability_in_region_range(rng):
    for dim in (2, 4):
        scheme = uniform_weights(dim)
        for _ in range(100):
            pair = make_in_region_pair(dim, scheme, rng)
            grid = conditional_probability_grid(pair.psi, pair.phi, scheme)
            assert grid.min() > 0.0
            assert grid.max() <= 1.0


def test_positivity_check_self():
    scheme = ground_weighted(2, 0.6)
    psi = np.array([1.0, 0.0])
    check = positivity_check(psi, psi, scheme)
    assert check.ok
    assert check.margin == pytest.approx(2.0 * float(scheme.weights.min()), abs=1e-15)


def test_positivity_check_counterexample():
    scheme = uniform_weights(2)
    check = positivity_check(np.array([1.0, 0.0]), np.array([0.0, 1.0]), scheme)
    assert not check.ok
    assert check.margin == pytest.approx(-0.5, abs=1e-15)
    assert check.worst in ((0, 0), (1, 1))


def test_sufficient_condition_threshold():
    # uniform N=2: componentwise bound is |psi_n - phi_n| < 1/(2*sqrt(2))
    scheme = uniform_weights(2)
    threshold = 1.0 / (2.0 * math.sqrt(2.0))
    psi = np.array([1.0, 0.0])

    def shifted(eps):
        phi = np.array([math.sqrt(1.0 - eps * eps), eps])
        delta = float(np.abs(psi - phi).max())
        return phi, delta

    phi_in, delta_in = shifted(0.2)
    assert delta_in < threshold
    assert sufficient_condition(psi, phi_in, scheme)
    phi_out, delta_out = shifted(0.5)
    assert delta_out > threshold
    assert not sufficient_condition(psi, phi_out, scheme)
    assert sufficient_condition(psi, psi, scheme)


def test_sufficient_condition_implies_positivity(rng):
    scheme = uniform_weights(2)
    found = 0
    while found < 10**3:
        psi = random_amplitudes(2, rng)
        mag = 0.2 * rng.random(2)
        ang = 2.0 * math.pi * rng.random(2)
        phi = psi + mag * np.exp(1j * ang)
        phi /= np.linalg.norm(phi)
        if not sufficient_condition(psi, phi, scheme):
            continue
        found += 1
        assert positivity_check(psi, phi, scheme).ok


def test_weighted_sum_self(rng):
    scheme = uniform_weights(4)
    psi = random_amplitudes(4, rng)
    assert weighted_probability_sum(psi, psi, scheme) == pytest.approx(1.0, abs=1e-12)


def test_weighted_sum_matches_born_in_region(rng):
    scheme = uniform_weights(3)
    for _ in range(300):
        pair = make_in_region_pair(3, scheme, rng)
        assert weighted_probability_sum(pair.psi, pair.phi, scheme) == pytest.approx(
            born_probability_ndim(pair.psi, pair.phi), abs=1e-12
        )


def test_weighted_sum_ungated_identity(rng):
    # the telescoping holds even for the orthogonal counterexample pair
    scheme = uniform_weights(2)
    psi = np.array([1.0, 0.0])
    phi = np.array([0.0, 1.0])
    assert weighted_probability_sum(psi, phi, scheme) == pytest.approx(0.0, abs=1e-15)
    for dim in (2, 3, 8):
        sch = uniform_weights(dim)
        for _ in range(200):
            a = random_amplitudes(dim, rng)
            b = random_amplitudes(dim, rng)
            assert weighted_probability_sum(a, b, sch) == pytest.approx(
                born_probability_ndim(a, b), abs=1e-12
            )


def test_exact_event_probability_gates(rng):
    scheme = uniform_weights(2)
    with pytest.raises(PositivityError) as err:
        exact_event_probability_ndim(np.array([1.0, 0.0]), np.array([0.0, 1.0]), scheme)
    assert err.value.margin < 0.0
    assert err.value.worst in ((0, 0), (1, 1))
    pair = make_in_region_pair(2, scheme, rng)
    value = exact_event_probability_ndim(pair.psi, pair.phi, scheme)
    assert value == pytest.approx(born_probability_ndim(pair.psi, pair.phi), abs=1e-12)


def test_make_in_region_pair_contract(rng):
    for dim, scheme in ((2, uniform_weights(2)), (3, ground_weighted(3, 0.5))):
        for _ in range(200):
            pair = make_in_region_pair(dim, scheme, rng)
            assert isinstance(pair, InRegionPair)
            assert positivity_check(pair.psi, pair.phi, scheme).ok
            assert abs(np.linalg.norm(pair.psi) - 1.0) < 1e-12
            assert abs(np.linalg.norm(pair.phi) - 1.0) < 1e-12
            assert pair.rejections >= 0


def test_make_in_region_pair_acceptance_at_explicit_radius(rng):
    # nonzero acceptance at N=2, uniform weights, radius 0.1
    scheme = uniform_weights(2)
    accepted = 0
    for _ in range(10**3):
        pair = make_in_region_pair(2, scheme, rng, radius=0.1)
        if pair.rejections == 0:
            accepted += 1
    assert accepted > 0


def test_make_in_region_pair_errors(rng):
    scheme = uniform_weights(2)
    with pytest.raises(ValueError):
        make_in_region_pair(3, scheme, rng)
    state = rng.bit_generator.state
    for radius in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="radius"):
            make_in_region_pair(2, scheme, rng, radius=radius)
    assert rng.bit_generator.state == state  # refused before any draw
    # at dim 16 a radius of 10 never lands in the region: every attempt is rejected
    with pytest.raises(RuntimeError, match="1000 rejections"):
        make_in_region_pair(16, uniform_weights(16), np.random.default_rng(4), radius=10.0)


@settings(max_examples=100, deadline=None)
@given(dim=st.integers(min_value=2, max_value=6), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_telescoping_property(dim, seed):
    rng = np.random.default_rng(seed)
    scheme = uniform_weights(dim)
    a = random_amplitudes(dim, rng)
    b = random_amplitudes(dim, rng)
    assert weighted_probability_sum(a, b, scheme) == pytest.approx(
        born_probability_ndim(a, b), abs=1e-12
    )


SCHEMES = [
    pytest.param(dim, name, id=f"{name}-{dim}")
    for dim in (2, 3, 4, 8, 16)
    for name in ("uniform", "ground")
]


def _scheme(dim, name):
    return uniform_weights(dim) if name == "uniform" else ground_weighted(dim, 0.6)


@pytest.mark.parametrize("dim, name", SCHEMES)
def test_stacked_calls_match_single_pairs(dim, name):
    scheme = _scheme(dim, name)
    rng = np.random.default_rng(dim)
    pairs = make_in_region_pair(dim, scheme, rng, size=50)
    assert pairs.psi.shape == pairs.phi.shape == (50, dim)
    assert pairs.rejections.shape == (50,)
    any_psi = random_amplitudes(dim, rng, size=50)
    any_phi = random_amplitudes(dim, rng, size=50)
    exact = exact_event_probability_ndim(pairs.psi, pairs.phi, scheme)
    grid = conditional_probability_grid(pairs.psi, pairs.phi, scheme)
    born = born_probability_ndim(pairs.psi, pairs.phi)
    check = positivity_check(pairs.psi, pairs.phi, scheme)
    ungated = weighted_probability_sum(any_psi, any_phi, scheme)
    # far pairs too, so both outcomes of the sufficient condition occur
    near = sufficient_condition(pairs.psi, pairs.phi, scheme)
    far = sufficient_condition(any_psi, any_phi, scheme)
    assert near.shape == far.shape == (50,)
    assert {*near.tolist(), *far.tolist()} == {True, False}
    for i in range(50):
        psi, phi = pairs.psi[i], pairs.phi[i]
        assert exact[i] == exact_event_probability_ndim(psi, phi, scheme)
        assert np.array_equal(grid[i], conditional_probability_grid(psi, phi, scheme))
        assert abs(born[i] - born_probability_ndim(psi, phi)) <= 1e-15
        single = positivity_check(psi, phi, scheme)
        assert single.ok
        assert (check.ok[i], check.margin[i]) == (single.ok, single.margin)
        assert (check.worst[0][i], check.worst[1][i]) == single.worst
        assert ungated[i] == weighted_probability_sum(any_psi[i], any_phi[i], scheme)
        assert near[i] == sufficient_condition(psi, phi, scheme)
        assert far[i] == sufficient_condition(any_psi[i], any_phi[i], scheme)
    # one pair as a stack of one draws the same counts as the pair alone
    psi, phi = pairs.psi[0], pairs.phi[0]
    stacked = sample_hits_ndim(psi[None], phi[None], scheme, 1000, np.random.default_rng(1))
    assert stacked.tolist() == [sample_hits_ndim(psi, phi, scheme, 1000, np.random.default_rng(1))]


def test_single_pair_calls_return_python_scalars():
    scheme = uniform_weights(3)
    pair = make_in_region_pair(3, scheme, np.random.default_rng(3))
    assert type(pair.rejections) is int
    assert type(exact_event_probability_ndim(pair.psi, pair.phi, scheme)) is float
    assert type(born_probability_ndim(pair.psi, pair.phi)) is float
    check = positivity_check(pair.psi, pair.phi, scheme)
    assert (type(check.ok), type(check.margin), type(check.worst[0])) == (bool, float, int)
    hits = sample_hits_ndim(pair.psi, pair.phi, scheme, 100, np.random.default_rng(3))
    assert type(hits) is int
    assert type(sufficient_condition(pair.psi, pair.phi, scheme)) is bool
    # one result per pair of a stack: orthogonal basis states are far apart
    a = np.eye(2, dtype=complex)
    stacked = sufficient_condition(a, a[::-1], uniform_weights(2))
    assert stacked.tolist() == [False, False]
    assert sufficient_condition(a, a[[0, 0]], uniform_weights(2)).tolist() == [True, False]


def test_per_cell_calls_refuse_stacks(rng):
    scheme = uniform_weights(2)
    stack = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="shape"):
        sample_ndim(stack, scheme, rng)
    with pytest.raises(ValueError, match="shape"):
        conditional_probability_ndim(stack, NdimOnticState(0, 0, 1 + 0j), scheme)


def test_stacked_out_of_region_row_is_named():
    scheme = uniform_weights(2)
    pairs = make_in_region_pair(2, scheme, np.random.default_rng(8), size=6)
    psi, phi = pairs.psi.copy(), pairs.phi.copy()
    psi[4], phi[4] = [1.0, 0.0], [0.0, 1.0]
    for call in (
        lambda: exact_event_probability_ndim(psi, phi, scheme),
        lambda: sample_hits_ndim(psi, phi, scheme, 10, np.random.default_rng(0)),
    ):
        with pytest.raises(PositivityError, match=r"cell \(4, ") as err:
            call()
        assert err.value.worst[0] == 4
        assert err.value.margin < 0.0


def test_make_in_region_pair_stack_rows_pass(rng):
    for dim, scheme in ((2, uniform_weights(2)), (4, ground_weighted(4, 0.5))):
        # a wide radius makes rows fail and be redrawn
        pairs = make_in_region_pair(dim, scheme, rng, radius=1.5 / dim, size=300)
        assert pairs.rejections.sum() > 0
        for psi, phi in zip(pairs.psi, pairs.phi):
            assert positivity_check(psi, phi, scheme).ok


def _reference_pair(dim, scheme, rng, radius):
    """The per-attempt loop that single-pair draws must reproduce."""
    rejections = 0
    while True:
        z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        psi = z / np.linalg.norm(z)
        mag = radius * np.sqrt(rng.random(dim))
        ang = 2.0 * math.pi * rng.random(dim)
        phi = psi + mag * np.exp(1j * ang)
        phi = phi / np.linalg.norm(phi)
        if positivity_check(psi, phi, scheme).ok:
            return psi, phi, rejections
        rejections += 1


@pytest.mark.parametrize("dim, name", SCHEMES)
def test_single_pair_stream_matches_per_attempt_loop(dim, name):
    scheme = _scheme(dim, name)
    a = np.random.default_rng(dim)
    b = np.random.default_rng(dim)
    # a wide radius makes some draws take more than one attempt
    for _ in range(50):
        pair = make_in_region_pair(dim, scheme, a, radius=1.5 / dim)
        psi, phi, rejections = _reference_pair(dim, scheme, b, 1.5 / dim)
        assert pair.rejections == rejections
        np.testing.assert_allclose(pair.psi, psi, rtol=0, atol=1e-15)
        np.testing.assert_allclose(pair.phi, phi, rtol=0, atol=1e-15)
    assert a.bit_generator.state == b.bit_generator.state
