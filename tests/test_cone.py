import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onticsim import (
    THETA0,
    OutOfConeError,
    PositivityReport,
    QubitOnticState,
    born_probability_qubit,
    conditional_probability,
    conditional_probability_unchecked,
    exact_event_probability,
    fibonacci_sphere,
    positivity_minimum_n0,
    random_bloch,
    sample_ontic,
    sweep_positivity,
    to_spherical,
)
from onticsim import cone
from onticsim.geometry import from_spherical, SphericalAngles


def test_theta0_value():
    assert THETA0 == pytest.approx(0.9272952180016123, abs=1e-15)
    # the defining algebra is exact in floats
    assert math.cos(THETA0) == 0.6
    assert math.sin(THETA0) == 0.8


def test_ontic_state_validation():
    QubitOnticState(0.0, 0)
    QubitOnticState(math.pi, 1)
    with pytest.raises(ValueError):
        QubitOnticState(0.0, 2)
    with pytest.raises(ValueError):
        QubitOnticState(2.0 * math.pi, 0)
    with pytest.raises(ValueError):
        QubitOnticState(math.pi + 0.1, 1)
    with pytest.raises(ValueError):
        QubitOnticState(-0.1, 1)


def test_sample_ontic_pole_always_zenith_branch(rng):
    for _ in range(100):
        s = sample_ontic((0.0, 0.0, 1.0), rng)
        assert s == QubitOnticState(0.0, 1)


def test_sample_ontic_branch_frequency():
    # theta = 30 degrees: P(n=0) = sin(theta) = 1/2
    rng = np.random.default_rng(3)
    v = from_spherical(SphericalAngles(math.pi / 6, 1.0))
    x, n = sample_ontic(v, rng, 10**6)
    freq = np.count_nonzero(n == 0) / len(n)
    assert abs(freq - 0.5) < 0.0025
    assert np.all(x[n == 0] == 1.0)
    theta = to_spherical(v).theta
    assert np.all(x[n == 1] == theta)


@pytest.mark.parametrize(
    "v",
    [(0.0, 0.0, 1.0), from_spherical((0.4, 2.0)), from_spherical((THETA0 - 1e-9, 5.0))],
    ids=["pole", "inside", "cone-edge"],
)
def test_sample_ontic_stack_equals_single_calls(v):
    single, stacked = np.random.default_rng(31), np.random.default_rng(31)
    draws = [sample_ontic(v, single) for _ in range(2000)]
    x, n = sample_ontic(v, stacked, 2000)
    assert np.array([s.x for s in draws]).tobytes() == x.tobytes()
    assert [s.n for s in draws] == n.tolist()
    assert single.bit_generator.state == stacked.bit_generator.state


def test_sample_ontic_rejects_out_of_cone(rng):
    v = from_spherical(SphericalAngles(THETA0 + 0.01, 0.3))
    with pytest.raises(OutOfConeError):
        sample_ontic(v, rng)
    with pytest.raises(OutOfConeError):
        sample_ontic(v, rng, 10)


def test_conditional_probability_aligned_cases():
    assert conditional_probability((1.0, 0.0, 0.0), QubitOnticState(0.0, 0)) == 1.0
    assert conditional_probability((0.0, 0.0, 1.0), QubitOnticState(0.0, 1)) == 1.0


def test_conditional_probability_gates_cone_boundary():
    z = (0.0, 0.0, 1.0)
    with pytest.raises(OutOfConeError):
        conditional_probability(z, QubitOnticState(THETA0, 1))
    # the raw evaluator exposes the boundary zero instead
    assert abs(conditional_probability_unchecked(z, QubitOnticState(THETA0, 1))) < 1e-12
    assert conditional_probability_unchecked(z, QubitOnticState(THETA0 + 0.05, 1)) < 0.0


def test_unchecked_denominator_guard():
    with pytest.raises(ValueError):
        conditional_probability_unchecked((0.0, 0.0, 1.0), QubitOnticState(math.pi / 2, 1))


def test_azimuth_branch_ignores_cone():
    # n = 0 is defined for every azimuth; no gate applies
    p = conditional_probability((0.0, 1.0, 0.0), QubitOnticState(3.0, 0))
    assert 0.0 <= p <= 1.0


@settings(max_examples=300, deadline=None)
@given(
    x=st.floats(min_value=0.0, max_value=THETA0 - 1e-9),
    n=st.integers(min_value=0, max_value=1),
    wz=st.floats(min_value=-1.0, max_value=1.0),
    wphi=st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True),
)
def test_complement_rule(x, n, wz, wphi):
    s = math.sqrt(max(0.0, 1.0 - wz * wz))
    w = np.array([s * math.cos(wphi), s * math.sin(wphi), wz])
    w /= np.linalg.norm(w)
    state = QubitOnticState(x, n)
    total = conditional_probability(w, state) + conditional_probability(-w, state)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_exact_event_probability_examples(rng):
    z = np.array([0.0, 0.0, 1.0])
    assert exact_event_probability(z, z) == pytest.approx(1.0, abs=1e-15)
    v = from_spherical(SphericalAngles(math.pi / 4, math.radians(10.0)))
    for _ in range(200):
        w = random_bloch(rng)
        assert exact_event_probability(v, w) == pytest.approx(
            born_probability_qubit(v, w), abs=1e-12
        )


def test_exact_event_probability_rejects_boundary():
    with pytest.raises(OutOfConeError):
        exact_event_probability(np.array([0.8, 0.0, 0.6]), np.array([0.0, 0.0, 1.0]))


@settings(max_examples=300, deadline=None)
@given(
    vtheta=st.floats(min_value=0.0, max_value=THETA0, exclude_max=True),
    vphi=st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True),
    wtheta=st.floats(min_value=0.0, max_value=math.pi),
    wphi=st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True),
)
def test_born_identity_property(vtheta, vphi, wtheta, wphi):
    v = from_spherical(SphericalAngles(vtheta, vphi))
    w = from_spherical(SphericalAngles(wtheta, wphi))
    assert exact_event_probability(v, w) == pytest.approx(
        born_probability_qubit(v, w), abs=1e-12
    )


def test_positivity_minimum_values():
    assert positivity_minimum_n0(0.0) == 0.0
    assert positivity_minimum_n0(1.0) == 1.0
    assert positivity_minimum_n0(0.6) == pytest.approx(0.2, abs=1e-15)
    with pytest.raises(ValueError):
        positivity_minimum_n0(1.5)


def test_positivity_minimum_matches_grid(rng):
    # scan the azimuth branch at fixed w_z >= 0 and compare with the
    # closed form; southern events go through the complement rule, whose
    # folded minimum is 0 rather than this expression
    for _ in range(20):
        wz = rng.uniform(0.0, 1.0)
        s = math.sqrt(1.0 - wz * wz)
        w = np.array([s, 0.0, wz])
        values = [
            conditional_probability_unchecked(w, QubitOnticState(x, 0))
            for x in np.linspace(0.0, 2.0 * math.pi, 2001)[:-1]
        ]
        assert min(values) == pytest.approx(positivity_minimum_n0(wz), abs=1e-6)


def test_sweep_bounds_small_grid():
    rep = sweep_positivity(0.01, 500)
    assert rep.min_value >= -1e-12
    assert rep.max_value <= 1.0 + 1e-12
    assert rep.n_evaluations > 0


def test_sweep_detects_negative_beyond_cone():
    rep = sweep_positivity(
        1e-3,
        1,
        events=[(0.0, 0.0, 1.0)],
        x_range_n1=(THETA0 + 1e-6, THETA0 + 0.1),
    )
    assert rep.min_value < 0.0
    assert rep.min_n == 1


def test_sweep_azimuth_branch_attains_one():
    # alignment (cos x, sin x) with (w_x, w_y) at x = 0 gives exactly 1
    rep = sweep_positivity(0.01, 1, events=[(1.0, 0.0, 0.0)])
    assert abs(rep.max_value - 1.0) <= 1e-9
    assert rep.max_n == 0


@pytest.mark.parametrize("events", [
    [(2.0, 0.0, 0.0)],
    [(0.0, 0.0, 1.0 + 1e-9)],
    [(math.nan, 0.0, 1.0)],
    [(0.0, -math.inf, 0.0)],
    [(0.0, 0.0, 1.0), (0.0, 0.6, 0.6)],
    [(0.0, 0.0, 1.0, 0.0)],
    np.empty((0, 3)),
])
def test_sweep_rejects_bad_events(events):
    # a non-unit event would read as a positivity violation (min -0.5 for (2, 0, 0))
    with pytest.raises(ValueError):
        sweep_positivity(0.01, 1, events=events)


def _pinned_sweeps():
    """(x_step, n_event_points, keywords) of sweeps whose reports are pinned below."""
    ev = fibonacci_sphere(300)[np.random.default_rng(8).permutation(300)]
    south_first = np.concatenate([ev[ev[:, 2] < 0.0], ev[ev[:, 2] >= 0.0]])
    # +z (twice) reads 1 and -z reads 0 at every azimuth: both extremes tie across every block
    poles = [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (0.0, 0.0, 1.0)]
    duplicated = np.vstack([fibonacci_sphere(2497), poles])
    override = (math.pi / 2 - 0.02, 1.7)  # one zenith row lands on the n = 1 guard and is skipped
    return {
        "shuffled_south_first": (0.01, 1, dict(events=south_first)),
        "duplicated_event": (0.02, 1, dict(events=duplicated, x_range_n1=(0.0, 0.5))),
        "ragged_last_block": (0.013, 300, {}),
        "n1_range_override": (0.01, 1, dict(events=fibonacci_sphere(64), x_range_n1=override)),
    }


# Reports of the row-by-row scan that the blocked sweep replaced, recorded from it.
PINNED_SWEEPS = {
    "shuffled_south_first": PositivityReport(
        5.284661597215745e-11, 4.18, 0, (0.35401396026970405, 0.6008851843930332, -0.7166666666666666),
        1.0, 0.0, 0, (0.0815815883368026, 0.0, 0.9966666666666667), 217200,
    ),
    "duplicated_event": PositivityReport(
        0.0, 0.0, 0, (0.0, 0.0, -1.0), 1.0, 0.0, 0, (0.028298423431205894, 0.0, 0.9995995194233079), 855000,
    ),
    "ragged_last_block": PositivityReport(
        2.3886448374810243e-12, 2.028, 0, (0.44123925288070753, -0.8968879092268304, -0.030000000000000027),
        1.0, 0.0, 0, (0.0815815883368026, 0.0, 0.9966666666666667), 167400,
    ),
    "n1_range_override": PositivityReport(
        -8336.745308657482, 1.5807963267948966, 1, (0.17608480733726006, 0.0, 0.984375),
        8337.745308657482, 1.5807963267948966, 1, (0.16209996356578596, 0.06877107812860624, -0.984375), 41280,
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_SWEEPS))
def test_blocked_sweep_reproduces_row_scan(name):
    step, count, keywords = _pinned_sweeps()[name]
    assert sweep_positivity(step, count, **keywords) == PINNED_SWEEPS[name]


def test_pinned_sweeps_match_brute_force():
    # the pinned reports are the row-by-row reference's too: ties across many rows and events
    for name, (step, count, keywords) in _pinned_sweeps().items():
        events = keywords.get("events", fibonacci_sphere(count))
        assert _brute_force_sweep(step, events, keywords.get("x_range_n1")) == PINNED_SWEEPS[name]


def test_sweep_rejects_bad_step():
    with pytest.raises(ValueError):
        sweep_positivity(0.0, 10)


@pytest.mark.parametrize("step, x_range_n1", [
    (math.inf, None),  # read as x = 0 + inf * 0 = nan
    (math.nan, None),
    (-0.01, None),
    (0.01, (0.0, math.inf)),
    (0.01, (math.nan, 0.5)),
    (0.01, (1.0, 0.0)),  # read as x = 0 twice
])
def test_sweep_rejects_bad_grid(step, x_range_n1, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a bad grid reached the response kernel")

    monkeypatch.setattr(cone, "_numerator", fail)
    with pytest.raises(ValueError, match="x_grid_step|x_range_n1"):
        sweep_positivity(step, 5, x_range_n1=x_range_n1)


def _brute_force_sweep(step, events, x_range_n1=None):
    """The sweep's report from every branch, row and event through ``_response``, one row at a time.

    Events keep their given order, and a later row or branch takes over only when strictly
    beyond, so ties keep the first occurrence in (branch, x, event) order.
    """
    ev = np.asarray(events, dtype=float)
    flip = ev[:, 2] < 0.0
    wx, wy, wz = np.where(flip[:, None], -ev, ev).T
    event = (wx, wy, wz, np.sqrt(np.maximum(0.0, 1.0 - wz * wz)), flip)
    low = high = None
    total = 0
    for n, (lo, hi) in ((0, (0.0, 2 * math.pi)), (1, x_range_n1 or (0.0, THETA0))):
        count = max(1, math.ceil((hi - lo) / step))
        for x in map(float, np.minimum(lo + step * np.arange(count + 1), hi)):
            if n == 1 and math.sin(x) >= 1.0 - 1e-12:
                continue
            p = cone._response(event, math.cos(x), math.sin(x), n)
            i, j = int(np.argmin(p)), int(np.argmax(p))
            if low is None or p[i] < low[0]:
                low = (float(p[i]), x, n, tuple(ev[i].tolist()))
            if high is None or p[j] > high[0]:
                high = (float(p[j]), x, n, tuple(ev[j].tolist()))
            total += len(ev)
    return PositivityReport(*low, *high, total)


def _fields(report):
    """Each field of a report by its repr, so -0.0 and 0.0 differ as they do in a report file."""
    return {name: repr(value) for name, value in dataclasses.asdict(report).items()}


def _reference_cases():
    rng = np.random.default_rng(2027)
    cases = {}
    for k in range(6):
        m = int(rng.integers(1, 150))
        ev = rng.normal(size=(m, 3))
        ev /= np.linalg.norm(ev, axis=1, keepdims=True)
        cases[f"random_{k}"] = (float(rng.uniform(0.02, 0.2)), ev, None)
    poles_equator = [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (-1.0, 0.0, 0.0)]
    cases["poles_equator"] = (0.05, np.vstack([poles_equator, fibonacci_sphere(40)]), None)
    base = fibonacci_sphere(60)
    cases["duplicated"] = (0.03, np.vstack([base, base[::7], poles_equator, poles_equator]), None)
    cases["all_northern"] = (0.04, base[base[:, 2] >= 0.0], None)
    cases["all_southern"] = (0.04, base[base[:, 2] < 0.0], None)
    cases["past_theta0"] = (0.01, base, (THETA0 - 0.05, THETA0 + 0.3))
    cases["past_the_pole"] = (0.02, base, (0.3, math.pi / 2 + 0.4))
    cases["antipodes"] = (0.03, np.vstack([base[::3], -base[::3]]), None)
    # one event on each grid azimuth, whose opposite is a grid azimuth too: every event
    # reads 1 in its own row and 0 in the opposite one, so the sweep must scan them all
    step = 2 * math.pi / 360
    x = step * np.arange(361)
    cases["equator_on_grid"] = (step, np.column_stack([np.cos(x), np.sin(x), np.zeros_like(x)]), None)
    # events at one |w_z| on grid azimuths of an odd count, both halves: their opposite
    # azimuths lie half a step off the grid, so their least responses tie across rows
    step = 2 * math.pi / 385
    x = step * np.array([17, 40, 3, 71, 58, 29, 44, 8])
    s = math.sqrt(1.0 - 0.09)
    cases["latitude_on_grid"] = (step, np.column_stack([s * np.cos(x), s * np.sin(x), 0.3 * (-1.0) ** np.arange(8)]), None)
    # w_z = +-cos x at zenith rows x: each reads 1 in its own row of the zenith branch, to
    # rounding, so the rows' greatest responses tie or nearly tie
    rng = np.random.default_rng(102)
    wz = np.cos(0.01 * rng.choice(31, size=8, replace=False))
    s, phi = np.sqrt(1.0 - wz * wz), rng.uniform(0.0, 2 * math.pi, 8)
    cases["zenith_on_grid"] = (0.01, np.column_stack([s * np.cos(phi), s * np.sin(phi), wz * (-1.0) ** np.arange(8)]), (0.0, 0.3))
    # an azimuth a rounding below 2 pi: its largest response ties at x = 0 and x = 2 pi, across the turn
    cases["across_the_turn"] = (0.05, [(1.0, -1e-17, 0.0), (0.0, 0.6, 0.8)], None)
    return cases


# Event orders rolled by these counts: a tie keeps the first of its events in the given order.
@pytest.mark.parametrize("roll", [1, 7, 500, 40000])
@pytest.mark.parametrize("name", sorted(_reference_cases()))
def test_sweep_matches_brute_force(name, roll):
    step, events, x_range_n1 = _reference_cases()[name]
    events = np.roll(events, roll, axis=0)
    assert _fields(sweep_positivity(step, 1, events=events, x_range_n1=x_range_n1)) == _fields(
        _brute_force_sweep(step, events, x_range_n1)
    )


def _paired_events(monkeypatch) -> list:
    """The azimuth-branch events paired with some grid row, one array per sweep that follows."""
    paired, pairs = [], cone._azimuth_pairs

    def record(*args):
        rows, events = pairs(*args)
        paired.append(np.unique(events))
        return rows, events

    monkeypatch.setattr(cone, "_azimuth_pairs", record)
    return paired


def _evaluated(monkeypatch) -> list:
    """The number of responses each ``_response`` call of the sweeps that follow evaluates."""
    counts, response = [], cone._response

    def record(event, cos_x, sin_x, n):
        p = response(event, cos_x, sin_x, n)
        counts.append(np.size(p))
        return p

    monkeypatch.setattr(cone, "_response", record)
    return counts


def test_sweep_scans_every_event_that_can_reach_an_extreme(monkeypatch):
    step, events, _ = _reference_cases()["equator_on_grid"]
    paired = _paired_events(monkeypatch)
    assert _fields(sweep_positivity(step, 1, events=events)) == _fields(_brute_force_sweep(step, events))
    assert paired[0].tolist() == list(range(len(events)))


@pytest.mark.parametrize("step, count, most_kept", [(0.002, 10**4, 100), (0.05, 200, 10)], ids=["cli", "golden"])
def test_default_event_sweeps_match_brute_force(step, count, most_kept, monkeypatch):
    paired, evaluated = _paired_events(monkeypatch), _evaluated(monkeypatch)
    report = sweep_positivity(step, count)
    # a few responses per row, then two full rows to pick the events: no (rows x events) scan
    assert sum(evaluated) <= 40 * (report.n_evaluations // count) + 2 * count
    assert _fields(report) == _fields(_brute_force_sweep(step, fibonacci_sphere(count)))
    assert 0 < len(paired[0]) <= most_kept  # the azimuth branch pairs a few events, not all


@settings(max_examples=60, deadline=None)
@given(
    st.floats(1e-3, 7.0),
    st.integers(1, 3000),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["distinct", "duplicated", "antipodal"]),
    st.one_of(st.none(), st.floats(0.0, 1.0)),
)
def test_sweep_matches_brute_force_on_drawn_grids(step, count, seed, copies, past_theta0):
    rng = np.random.default_rng(seed)
    ev = rng.normal(size=(count, 3))
    ev /= np.linalg.norm(ev, axis=1, keepdims=True)
    if copies != "distinct":  # half the events again, or their opposites, in a shuffled order
        ev = rng.permutation(np.vstack([ev, ev[::2] if copies == "duplicated" else -ev[::2]]))
    x_range_n1 = None if past_theta0 is None else (0.0, THETA0 + past_theta0)
    assert _fields(sweep_positivity(step, 1, events=ev, x_range_n1=x_range_n1)) == _fields(
        _brute_force_sweep(step, ev, x_range_n1)
    )
