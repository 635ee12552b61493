import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onticsim import (
    SphericalAngles,
    as_amplitudes,
    as_bloch,
    born_probability_ndim,
    born_probability_qubit,
    fibonacci_sphere,
    from_spherical,
    random_amplitudes,
    random_bloch,
    to_spherical,
)


def test_to_spherical_poles_and_axes():
    assert to_spherical((0.0, 0.0, 1.0)) == SphericalAngles(0.0, 0.0)
    theta, phi = to_spherical((1.0, 0.0, 0.0))
    assert theta == pytest.approx(math.pi / 2, abs=1e-15)
    assert phi == 0.0
    # south pole: azimuth pinned to 0 by convention
    assert to_spherical((0.0, 0.0, -1.0)) == SphericalAngles(math.pi, 0.0)


def test_from_spherical_axes():
    np.testing.assert_allclose(
        from_spherical(SphericalAngles(0.0, 2.3)), [0.0, 0.0, 1.0], atol=1e-15
    )
    np.testing.assert_allclose(
        from_spherical(SphericalAngles(math.pi / 2, math.pi / 2)),
        [0.0, 1.0, 0.0],
        atol=1e-15,
    )
    # sin(arccos(3/5)) = 4/5
    np.testing.assert_allclose(
        from_spherical(SphericalAngles(math.acos(0.6), 0.0)),
        [0.8, 0.0, 0.6],
        atol=1e-15,
    )


def test_spherical_round_trip_many(rng):
    for _ in range(10**4):
        v = random_bloch(rng)
        back = from_spherical(to_spherical(v))
        np.testing.assert_allclose(back, v, atol=1e-12)


def test_azimuth_range(rng):
    for _ in range(2000):
        theta, phi = to_spherical(random_bloch(rng))
        assert 0.0 <= theta <= math.pi
        assert 0.0 <= phi < 2.0 * math.pi


def test_as_bloch_rejects_bad_input():
    with pytest.raises(ValueError):
        as_bloch((1.0, 0.0, 0.1))
    with pytest.raises(ValueError):
        as_bloch((1.0, 0.0))
    with pytest.raises(ValueError):
        as_bloch((math.nan, 0.0, 1.0))


def test_as_amplitudes_rejects_bad_input():
    with pytest.raises(ValueError):
        as_amplitudes([0.9, 0.0])
    with pytest.raises(ValueError):
        as_amplitudes([1.0])
    with pytest.raises(ValueError):
        as_amplitudes([math.nan, 1.0])
    # stacks are checked row by row
    assert as_amplitudes([[1.0, 0.0], [0.0, 1.0]]).shape == (2, 2)
    with pytest.raises(ValueError):
        as_amplitudes([[1.0, 0.0], [0.9, 0.0]])


def test_born_qubit_values():
    v = np.array([0.0, 0.0, 1.0])
    assert born_probability_qubit(v, v) == 1.0
    assert born_probability_qubit(v, -v) == 0.0
    assert born_probability_qubit(v, (1.0, 0.0, 0.0)) == 0.5


def test_born_ndim_values():
    psi = np.array([1.0, 0.0])
    phi = np.array([0.0, 1.0])
    assert born_probability_ndim(psi, psi) == pytest.approx(1.0, abs=1e-15)
    assert born_probability_ndim(psi, phi) == 0.0
    half = np.array([1.0, 1.0]) / math.sqrt(2.0)
    assert born_probability_ndim(half, psi) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(ValueError):
        born_probability_ndim(psi, np.array([1.0, 0.0, 0.0]))


def test_random_bloch_statistics():
    rng = np.random.default_rng(11)
    vz = random_bloch(rng, size=10**6)[:, 2]
    assert abs(float(np.mean(vz))) < 0.005


@pytest.mark.parametrize("z_min", [-1.0, 0.6])
def test_random_bloch_stack_rows_match_single_draws(z_min):
    # the stack consumes the same variates; numpy's sin and cos may differ from math's in the last bit
    a = np.random.default_rng(15)
    b = np.random.default_rng(15)
    stack = random_bloch(a, z_min=z_min, size=1000)
    singles = np.array([random_bloch(b, z_min=z_min) for _ in range(1000)])
    assert stack.shape == (1000, 3) and stack.flags.c_contiguous
    assert np.abs(stack - singles).max() <= 1e-15
    assert np.array_equal(stack[:, 2], singles[:, 2])
    assert a.bit_generator.state == b.bit_generator.state


def test_random_bloch_unit_and_deterministic():
    a = np.random.default_rng(5)
    b = np.random.default_rng(5)
    for _ in range(1000):
        va = random_bloch(a)
        assert abs(np.linalg.norm(va) - 1.0) < 1e-12
        assert np.array_equal(va, random_bloch(b))


def test_random_bloch_matches_two_uniform_draws():
    # one rng.random(2) call gives the bits and the stream of two rng.uniform calls
    def reference(rng):
        vz = rng.uniform(-1.0, 1.0)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        s = math.sqrt(max(0.0, 1.0 - vz * vz))
        return np.array([s * math.cos(phi), s * math.sin(phi), vz])

    a = np.random.default_rng(14)
    b = np.random.default_rng(14)
    for _ in range(10**5):
        assert np.array_equal(random_bloch(a), reference(b))
    assert a.bit_generator.state == b.bit_generator.state


def test_random_amplitudes_statistics():
    rng = np.random.default_rng(13)
    first = np.abs(random_amplitudes(4, rng, size=10**5)[:, 0]) ** 2
    assert abs(float(np.mean(first)) - 0.25) < 0.01


def test_random_amplitudes_single_state_stream():
    # one state draws the real block then the imaginary block, as the
    # per-state loop it replaced did; values agree to the last bits
    def reference(dim, rng):
        while True:
            z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            norm = float(np.linalg.norm(z))
            if norm > 1e-12:
                return z / norm

    for dim in (2, 3, 4, 8):
        a = np.random.default_rng(dim)
        b = np.random.default_rng(dim)
        for _ in range(100):
            np.testing.assert_allclose(random_amplitudes(dim, a), reference(dim, b), rtol=0, atol=1e-15)
        assert a.bit_generator.state == b.bit_generator.state


def test_random_amplitudes_unit_norm(rng):
    for dim in (2, 3, 8):
        psi = random_amplitudes(dim, rng)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        random_amplitudes(1, rng)


def test_fibonacci_sphere_grid():
    pts = fibonacci_sphere(5000)
    assert pts.shape == (5000, 3)
    np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    assert np.array_equal(pts, fibonacci_sphere(5000))
    with pytest.raises(ValueError):
        fibonacci_sphere(0)


@settings(max_examples=200, deadline=None)
@given(
    theta=st.floats(min_value=1e-6, max_value=math.pi - 1e-6),
    phi=st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True),
)
def test_round_trip_property(theta, phi):
    back_theta, back_phi = to_spherical(from_spherical(SphericalAngles(theta, phi)))
    assert back_theta == pytest.approx(theta, abs=1e-9)
    # azimuth is only meaningful away from the poles
    if math.sin(theta) > 1e-9:
        diff = (back_phi - phi) % (2.0 * math.pi)
        assert min(diff, 2.0 * math.pi - diff) < 1e-6
