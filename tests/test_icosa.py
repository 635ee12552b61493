import math
import struct
import tracemalloc

import numpy as np
import pytest

from onticsim import (
    COVERING_RADIUS,
    EDGE_LENGTH,
    MESSAGE_SIZE,
    THETA0,
    PatchedOnticState,
    assign_patch,
    born_probability_qubit,
    deserialize_message,
    extended_exact_probability,
    into_patch,
    measure_messages,
    measure_probability,
    prepare,
    prepare_messages,
    random_bloch,
    serialize_message,
    simulate_outcome,
)
from onticsim import icosa
from onticsim.icosa import MESSAGE_DTYPE, MESSAGE_STRUCT


def test_edge_length_value():
    assert EDGE_LENGTH == pytest.approx(1.0514622242382672, abs=1e-15)
    assert abs(EDGE_LENGTH - 4.0 / math.sqrt(10.0 + 2.0 * math.sqrt(5.0))) <= 1e-9


def test_covering_radius_value():
    assert COVERING_RADIUS == pytest.approx(0.6523581397843683, abs=1e-15)
    assert math.degrees(COVERING_RADIUS) == pytest.approx(37.3773681406497, abs=1e-9)
    assert COVERING_RADIUS < THETA0


def test_frame_vertices(frame):
    assert frame.vertices.shape == (12, 3)
    np.testing.assert_allclose(np.linalg.norm(frame.vertices, axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(frame.vertices[0], [0.0, 0.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(frame.vertices[11], [0.0, 0.0, -1.0], atol=1e-15)
    ring = math.acos(1.0 / math.sqrt(5.0))
    zeniths = np.arccos(np.clip(frame.vertices[:, 2], -1.0, 1.0))
    np.testing.assert_allclose(zeniths[1:6], ring, atol=1e-12)
    np.testing.assert_allclose(zeniths[6:11], math.pi - ring, atol=1e-12)


def test_frame_edges(frame):
    diff = frame.vertices[:, None, :] - frame.vertices[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    iu = np.triu_indices(12, k=1)
    near = np.abs(dist[iu] - EDGE_LENGTH) < 0.1
    assert int(near.sum()) == 30
    assert float(np.abs(dist[iu][near] - EDGE_LENGTH).max()) <= 1e-9


def test_frame_rotations(frame):
    for k in range(12):
        rot = frame.rotations[k]
        np.testing.assert_allclose(rot @ rot.T, np.eye(3), atol=1e-14)
        assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(rot @ frame.vertices[k], [0.0, 0.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(frame.rotations[0], np.eye(3), atol=1e-15)


def test_frame_arrays_write_protected(frame):
    with pytest.raises(ValueError):
        frame.vertices[0, 0] = 2.0
    with pytest.raises(ValueError):
        frame.rotations[0, 0, 0] = 2.0


def test_assign_patch_poles(frame):
    assert assign_patch(frame, (0.0, 0.0, 1.0)) == 1
    assert assign_patch(frame, (0.0, 0.0, -1.0)) == 12


def test_assign_patch_within_covering_radius(frame, rng):
    for _ in range(10**4):
        v = random_bloch(rng)
        k = assign_patch(frame, v)
        angle = math.acos(min(1.0, max(-1.0, float(np.dot(frame.vertices[k - 1], v)))))
        assert angle <= COVERING_RADIUS + 1e-9


def test_into_patch_puts_v_in_its_cone(frame, rng):
    v, w = random_bloch(rng, size=2000), random_bloch(rng, size=2000)
    k, v_in, w_in = into_patch(frame, v, w)
    assert np.array_equal(k, assign_patch(frame, v))
    assert (v_in[:, 2] >= math.cos(COVERING_RADIUS) - 1e-12).all()  # inside the validity cone
    # one rotation for both: v.w is kept, and each row is the single call's
    assert np.allclose((v_in * w_in).sum(axis=1), (v * w).sum(axis=1), rtol=0, atol=1e-14)
    for i in (0, 1, 1999):
        single = into_patch(frame, v[i], w[i])
        assert single[0] == k[i]
        assert np.array_equal(single[1], v_in[i]) and np.array_equal(single[2], w_in[i])


def test_prepare_at_vertex(frame, rng):
    v = np.array(frame.vertices[4])
    for _ in range(50):
        s = prepare(frame, v, rng)
        assert s.k == 5
        assert s.n == 1
        # rotated vertex lands on the patch pole up to rounding
        assert abs(s.x) <= 1e-15


def test_prepare_preserves_angle_to_vertex(frame, rng):
    # tilt vertex 3 by 0.3 rad: every zenith-branch draw carries x = 0.3
    n3 = frame.vertices[2]
    axis = np.cross(n3, [0.0, 0.0, 1.0])
    axis /= np.linalg.norm(axis)
    v = math.cos(0.3) * n3 + math.sin(0.3) * np.cross(axis, n3)
    v /= np.linalg.norm(v)
    zenith_draws = 0
    for _ in range(60):
        s = prepare(frame, v, rng)
        assert s.k == 3
        if s.n == 1:
            zenith_draws += 1
            assert s.x == pytest.approx(0.3, abs=1e-12)
    assert zenith_draws > 0


def test_prepare_deterministic(frame):
    a = np.random.default_rng(21)
    b = np.random.default_rng(21)
    v = random_bloch(a)
    v2 = random_bloch(b)
    assert np.array_equal(v, v2)
    for _ in range(200):
        assert prepare(frame, v, a) == prepare(frame, v2, b)


def test_prepare_messages_matches_per_round_prepare(frame):
    # prepare is one round of prepare_messages: n one-round draws must equal one n-round draw
    tie = frame.vertices[0] + frame.vertices[1]
    fixed = [frame.vertices[0], frame.vertices[11], tie / np.linalg.norm(tie)]
    for seed in range(200):
        v = fixed[seed] if seed < len(fixed) else random_bloch(np.random.default_rng([seed, 1]))
        batched_rng = np.random.default_rng(seed)
        reference_rng = np.random.default_rng(seed)
        batched = prepare_messages(frame, v, 50, batched_rng).tobytes()
        reference = b"".join(serialize_message(prepare(frame, v, reference_rng)) for _ in range(50))
        assert batched == reference
        assert batched_rng.random() == reference_rng.random()


def test_prepare_messages_peak_under_twice_the_messages(frame):
    # the messages are allocated after the draw: x, n and the messages are alive at once,
    # 19 bytes a round, not the draw's transients as well
    v, rounds = random_bloch(np.random.default_rng(4)), 10**6
    prepare_messages(frame, v, 10, np.random.default_rng(0))  # first-call set-up is not the run
    tracemalloc.start()
    try:
        messages = prepare_messages(frame, v, rounds, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert messages.nbytes == rounds * MESSAGE_SIZE
    assert peak < 2 * messages.nbytes, f"peak {peak / messages.nbytes:.2f} x the messages"


def test_measure_messages_prices_each_distinct_message_once(frame, rng, monkeypatch):
    v, w = random_bloch(rng), random_bloch(rng)
    data = prepare_messages(frame, v, 1000, rng).tobytes()
    chunks = [data[i : i + MESSAGE_SIZE] for i in range(0, len(data), MESSAGE_SIZE)]
    # per-message decode + measure_probability is the reference
    reference = [measure_probability(frame, w, deserialize_message(c)) for c in chunks]
    calls = []

    def counted(*args):
        calls.append(args)
        return measure_probability(*args)

    monkeypatch.setattr(icosa, "measure_probability", counted)
    assert measure_messages(frame, w, data).tolist() == reference
    assert len(calls) == len(set(chunks)) <= 2  # one per branch at most


def test_measure_probability_at_shared_vertex(frame):
    state = PatchedOnticState(x=0.0, n=1, k=1)
    assert measure_probability(frame, (0.0, 0.0, 1.0), state) == 1.0


def test_measure_probability_bounded(frame, rng):
    for _ in range(500):
        v = random_bloch(rng)
        w = random_bloch(rng)
        s = prepare(frame, v, rng)
        p = measure_probability(frame, w, s)
        assert -1e-12 <= p <= 1.0 + 1e-12


def test_measure_probability_averages_to_extended(frame, rng):
    # weighting the two branch responses reproduces the exact marginal
    from onticsim.cone import QubitOnticState, conditional_probability_unchecked
    from onticsim.geometry import to_spherical

    for _ in range(300):
        v = random_bloch(rng)
        w = random_bloch(rng)
        k = assign_patch(frame, v)
        rot = frame.rotations[k - 1]
        v_rot = rot @ v
        v_rot /= np.linalg.norm(v_rot)
        w_rot = rot @ w
        w_rot /= np.linalg.norm(w_rot)
        theta, phi = to_spherical(v_rot)
        p0 = conditional_probability_unchecked(w_rot, QubitOnticState(phi, 0))
        p1 = conditional_probability_unchecked(w_rot, QubitOnticState(theta, 1))
        marginal = math.sin(theta) * p0 + (1.0 - math.sin(theta)) * p1
        assert marginal == pytest.approx(extended_exact_probability(frame, v, w), abs=1e-12)


def test_extended_exact_probability_identity(frame, rng):
    for _ in range(10**3):
        v = random_bloch(rng)
        w = random_bloch(rng)
        assert extended_exact_probability(frame, v, w) == pytest.approx(
            born_probability_qubit(v, w), abs=1e-12
        )
    v = random_bloch(rng)
    assert extended_exact_probability(frame, v, v) == pytest.approx(1.0, abs=1e-12)
    assert extended_exact_probability(frame, v, -v) == pytest.approx(0.0, abs=1e-12)


def test_simulate_outcome_certain_event(frame, rng):
    state = PatchedOnticState(x=0.0, n=1, k=1)
    assert all(
        simulate_outcome(frame, (0.0, 0.0, 1.0), state, rng) == 1 for _ in range(200)
    )


def test_simulate_outcome_frequency(frame):
    # v at the pole pins the ontic state; w at 60 degrees gives p = 0.75
    rng = np.random.default_rng(8)
    v = np.array([0.0, 0.0, 1.0])
    w = np.array([math.sqrt(3.0) / 2.0, 0.0, 0.5])
    assert born_probability_qubit(v, w) == pytest.approx(0.75, abs=1e-15)
    state = prepare(frame, v, rng)
    runs = 2 * 10**5
    hits = int(simulate_outcome(frame, w, state, rng, runs).sum())
    freq = hits / runs
    assert abs(freq - 0.75) < 5.0 * math.sqrt(0.75 * 0.25 / runs)


@pytest.mark.parametrize(
    "state",
    [PatchedOnticState(0.0, 1, 1), PatchedOnticState(THETA0 - 1e-9, 1, 3), PatchedOnticState(2.0, 0, 7)],
    ids=["pole", "cone-edge", "azimuth"],
)
def test_simulate_outcome_stack_equals_single_calls(frame, state):
    single, stacked = np.random.default_rng(41), np.random.default_rng(41)
    for w in random_bloch(np.random.default_rng(42), size=5):
        outcomes = [simulate_outcome(frame, w, state, single) for _ in range(400)]
        assert outcomes == simulate_outcome(frame, w, state, stacked, 400).tolist()
    assert single.bit_generator.state == stacked.bit_generator.state


def test_simulate_outcome_deterministic(frame):
    a = np.random.default_rng(9)
    b = np.random.default_rng(9)
    v = random_bloch(a)
    random_bloch(b)
    w = random_bloch(a)
    random_bloch(b)
    sa = prepare(frame, v, a)
    sb = prepare(frame, v, b)
    outcomes_a = [simulate_outcome(frame, w, sa, a) for _ in range(500)]
    outcomes_b = [simulate_outcome(frame, w, sb, b) for _ in range(500)]
    assert outcomes_a == outcomes_b


def test_message_wire_format():
    assert MESSAGE_SIZE == 10
    assert MESSAGE_STRUCT.size == 10
    assert struct.Struct("<dBB").size == 10
    assert MESSAGE_DTYPE.itemsize == 10


def test_message_round_trip(rng):
    for _ in range(10**4):
        n = int(rng.integers(0, 2))
        if n == 0:
            x = float(rng.uniform(0.0, 2.0 * math.pi))
        else:
            x = float(rng.uniform(0.0, math.pi))
        state = PatchedOnticState(x=x, n=n, k=int(rng.integers(1, 13)))
        blob = serialize_message(state)
        assert len(blob) == 10
        assert deserialize_message(blob) == state


def test_message_rejects_bad_input():
    with pytest.raises(ValueError):
        deserialize_message(b"\x00" * 9)
    with pytest.raises(ValueError):
        PatchedOnticState(x=0.0, n=0, k=0)
    with pytest.raises(ValueError):
        PatchedOnticState(x=0.0, n=0, k=13)
    with pytest.raises(ValueError):
        PatchedOnticState(x=0.0, n=3, k=1)
