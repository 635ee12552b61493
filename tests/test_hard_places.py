"""Worst-case audit of the exact qubit paths at the hard places.

Random pairs rarely land where the model is most fragile, so this test
builds its preparations deterministically: the poles (exactly, and
within ``POLE_SIN_EPS`` of them), the patch ties between icosahedron
vertices (edge midpoints and face centres), and the cone edge
theta = THETA0 - eps. Events are fixed directions, the equator with
w_z = +0.0 and -0.0 (the boundary of the complement fold), and +-v.
Next to each vertex (1e-4 down to 1e-12 rad off it), w = +-v sits next
to the patch pole, where ``1 - w_z**2`` would cancel.

The same places, and random pairs, check that (m, 3) stacks give what
the single-pair calls give, row by row. At each place both branch messages
go through the 10-byte wire format, and their two prices, weighted by the
branch rule, give the Born probability.
"""

import math

import numpy as np
import pytest

from onticsim import (
    THETA0,
    OutOfConeError,
    assign_patch,
    born_probability_qubit,
    build_frame,
    exact_event_probability,
    extended_exact_probability,
    fibonacci_sphere,
    from_spherical,
    measure_messages,
    prepare_messages,
    random_bloch,
    sample_hits,
    sample_hits_patched,
    sample_ontic,
    to_spherical,
)
from onticsim.geometry import POLE_SIN_EPS

BOUND = 1e-12
SAMPLES = 16


def _unit(x):
    return np.asarray(x, dtype=float) / np.linalg.norm(x)


def _near_pole(pole, rho):
    """Unit vector at distance rho from the +z or -z pole, exactly normalised."""
    return np.array([rho, 0.0, math.copysign(math.sqrt(1.0 - rho * rho), pole)])


def _places():
    verts = build_frame().vertices
    adjacent = verts @ verts.T > 0.4
    np.fill_diagonal(adjacent, False)
    edges = [(i, j) for i in range(12) for j in range(i + 1, 12) if adjacent[i, j]]
    faces = [(i, j, k) for i, j in edges for k in range(j + 1, 12) if adjacent[i, k] and adjacent[j, k]]
    assert len(edges) == 30 and len(faces) == 20
    poles = [np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0]), *verts]
    for pole in (1.0, -1.0):
        for rho in (0.5 * POLE_SIN_EPS, 0.999 * POLE_SIN_EPS, 2.0 * POLE_SIN_EPS):
            poles.append(_near_pole(pole, rho))
    cone_edge = [
        from_spherical((THETA0 - eps, phi))
        for eps in (1e-3, 1e-6, 1e-9, 1e-12)
        for phi in (0.0, 0.7, math.pi, 5.1)
    ]
    tilt = _unit([1.0, 2.0, 3.0])
    near_vertices = [
        math.cos(eps) * u + math.sin(eps) * _unit(np.cross(u, tilt))
        for u in verts
        for eps in (1e-4, 1e-6, 1e-8, 1e-9, 1e-10, 1e-12)
    ]
    return {
        "poles": poles,
        "ties": [_unit(verts[i] + verts[j]) for i, j in edges]
        + [_unit(verts[i] + verts[j] + verts[k]) for i, j, k in faces],
        "cone_edge": cone_edge,
        "near_vertices": near_vertices,
    }


def _events(v):
    fixed = list(np.vstack((np.eye(3), -np.eye(3), fibonacci_sphere(24))))
    equator = [
        np.array([math.cos(a), math.sin(a), z])
        for a in (0.0, 0.5 * math.pi, 2.0, math.pi, 4.5)
        for z in (0.0, -0.0)
    ]
    return fixed + equator + [np.array(v), -np.array(v)]


@pytest.mark.parametrize("place", ["poles", "ties", "cone_edge", "near_vertices"])
def test_exact_paths_at_hard_places(frame, place):
    rng = np.random.default_rng(5)
    worst_cone = worst_sphere = 0.0
    cone_pairs = 0
    for v in _places()[place]:
        in_cone = to_spherical(v).theta < THETA0
        for w in _events(v):
            born = born_probability_qubit(v, w)
            worst_sphere = max(worst_sphere, abs(extended_exact_probability(frame, v, w) - born))
            assert 0 <= sample_hits_patched(frame, v, w, SAMPLES, rng) <= SAMPLES
            if in_cone:
                cone_pairs += 1
                worst_cone = max(worst_cone, abs(exact_event_probability(v, w) - born))
                assert 0 <= sample_hits(v, w, SAMPLES, rng) <= SAMPLES
    print(f"{place}: max |model - Born| cone {worst_cone:.2e} ({cone_pairs} pairs), "
          f"sphere {worst_sphere:.2e}")
    assert cone_pairs > 0
    assert worst_cone <= BOUND
    assert worst_sphere <= BOUND


class _BothBranches:
    """Generator stand-in: round 0 draws 0.0, round 1 the largest variate below 1.

    ``prepare_messages`` takes the azimuth branch where the variate is below
    sin(theta), so round 0 takes it wherever sin(theta) > 0 and round 1 never does.
    """

    def random(self, n):
        assert n == 2
        return np.array([0.0, 1.0 - 2.0**-53])


@pytest.mark.parametrize("place", ["poles", "ties", "cone_edge", "near_vertices"])
def test_wire_messages_at_hard_places(frame, place):
    # the shipped wire path: patch angles from sample_ontic, each message priced from
    # its bytes alone through math.cos(x), not the _cone_trig path of the exact kernels
    worst = 0.0
    for v in _places()[place]:
        messages = prepare_messages(frame, v, 2, _BothBranches())
        sin_theta = math.sin(messages["x"][1])  # the azimuth branch's probability
        assert messages["n"].tolist() == [0 if sin_theta > 0.0 else 1, 1]
        for w in _events(v):
            p = measure_messages(frame, w, messages.tobytes())
            model = sin_theta * p[0] + (1.0 - sin_theta) * p[1]
            worst = max(worst, abs(model - born_probability_qubit(v, w)))
    print(f"{place}: max |wire model - Born| {worst:.2e}")
    assert worst <= BOUND


def _stacked_pairs(place):
    """(v, w) rows: every hard place against each of its events, or random pairs."""
    if place == "random":
        rng = np.random.default_rng(6)
        v = np.vstack((random_bloch(rng, size=300), random_bloch(rng, z_min=0.6, size=300)))
        return v, random_bloch(rng, size=600)
    pairs = [(v, w) for v in _places()[place] for w in _events(v)]
    return np.array([v for v, _ in pairs]), np.array([w for _, w in pairs])


def _refused(fn, *args):
    try:
        fn(*args)
    except OutOfConeError:
        return True
    return False


@pytest.mark.parametrize("place", ["poles", "ties", "cone_edge", "near_vertices", "random"])
def test_stacks_match_single_pairs(frame, place):
    v, w = _stacked_pairs(place)
    patches = assign_patch(frame, v)
    assert patches.tolist() == [assign_patch(frame, u) for u in v]
    for u, k in zip(v, patches.tolist()):
        dots = frame.vertices @ u
        assert k == 1 + int(np.flatnonzero(dots == dots.max())[0])  # ties go to the lowest
    sphere = extended_exact_probability(frame, v, w)
    assert sphere.tolist() == [extended_exact_probability(frame, a, b) for a, b in zip(v, w)]
    born = born_probability_qubit(v, w)
    assert born.tolist() == [born_probability_qubit(a, b) for a, b in zip(v, w)]

    refused = [i for i, (a, b) in enumerate(zip(v, w)) if _refused(exact_event_probability, a, b)]
    if refused:
        with pytest.raises(OutOfConeError) as info:
            exact_event_probability(v, w)
        assert info.value.rows == tuple(refused)
        with pytest.raises(OutOfConeError) as info:
            sample_hits(v, w, SAMPLES, np.random.default_rng(0))
        assert info.value.rows == tuple(refused)
    inside = np.setdiff1d(np.arange(len(v)), refused)
    assert inside.size > 0
    cone = exact_event_probability(v[inside], w[inside])
    assert cone.tolist() == [exact_event_probability(a, b) for a, b in zip(v[inside], w[inside])]

    # a stack of one draws the same counts, and leaves the generator where the pair alone does
    for i in range(0, len(v), 5):
        one = np.random.default_rng(i), np.random.default_rng(i)
        pair = sample_hits_patched(frame, v[i], w[i], SAMPLES, one[0])
        assert sample_hits_patched(frame, v[i : i + 1], w[i : i + 1], SAMPLES, one[1]).tolist() == [pair]
        if i in inside:
            pair = sample_hits(v[i], w[i], SAMPLES, one[0])
            assert sample_hits(v[i : i + 1], w[i : i + 1], SAMPLES, one[1]).tolist() == [pair]
        assert one[0].bit_generator.state == one[1].bit_generator.state
    hits = sample_hits_patched(frame, v, w, SAMPLES, np.random.default_rng(1))
    assert hits.shape == (len(v),) and 0 <= hits.min() and hits.max() <= SAMPLES


def test_one_gate_at_the_cone_boundary():
    # the 81 floats nearest v_z = 3/5, each at 97 azimuths: every single-pair call
    # refuses exactly the preparations with v_z <= 3/5, and a stack names the same rows
    heights = [0.6]
    for _ in range(40):
        heights = [math.nextafter(heights[0], 0.0), *heights, math.nextafter(heights[-1], 1.0)]
    v = np.array([
        (math.sqrt(1.0 - z * z) * math.cos(a), math.sqrt(1.0 - z * z) * math.sin(a), z)
        for z in heights
        for a in (2.0 * math.pi * j / 97 for j in range(97))
    ])
    w = np.array([0.0, 0.0, 1.0])
    expected = [i for i, z in enumerate(v[:, 2]) if z <= 0.6]
    assert len(expected) == 41 * 97
    rng = np.random.default_rng(0)
    for fn in (
        lambda u: sample_ontic(u, rng),
        lambda u: exact_event_probability(u, w),
        lambda u: sample_hits(u, w, SAMPLES, rng),
    ):
        assert [i for i, u in enumerate(v) if _refused(fn, u)] == expected
    with pytest.raises(OutOfConeError) as info:
        exact_event_probability(v, np.tile(w, (len(v), 1)))
    assert info.value.rows == tuple(expected)
