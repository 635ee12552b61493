"""One-dimensional hidden-variable model for qubit states near the z-axis.

A preparation with zenith theta < THETA0 is compressed to a single real
ontic coordinate plus one bit: with probability sin(theta) the branch
n = 0 carries the azimuth phi, otherwise the branch n = 1 carries the
zenith theta. Measurement outcomes are recovered from conditional
response functions that reproduce the quantum probability exactly:

    sin(theta) * P(w | phi, 0) + (1 - sin(theta)) * P(w | theta, 1)
        == (1 + v.w) / 2

for every event w, as long as the preparation lies strictly inside the
validity cone theta < THETA0 = arccos(3/5).

The response is written once, in ``_response``, over (cos x, sin x) of
the ontic coordinate, and runs on floats for one pair, on arrays for (m, 3)
stacks of pairs and on exact rationals; the positivity sweep runs it on the
(row, event) pairs that closed-form bounds cannot rule out.
The exact marginal and the hit-count sampler read sin(theta), cos(theta)
and the azimuth straight off the preparation's components, so a row of a
stack equals the single call bit for bit; so does a stack of ``sample_ontic`` rounds.

The one-pair float branches of ``_components``, ``_cone_trig`` and
``_event`` stay for numpy's per-call cost: run as 1-row stacks, the 1e4
single pairs of criterion 01 (bound 1 s) took 1.8-2.1 s, against
0.33-0.35 s with them (2-core host, Python 3.11.7, numpy 2.4.6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import POLE_SIN_EPS, TWO_PI, _bloch_rows, _require_count, _scalar, _unit_rows, to_spherical

__all__ = [
    "THETA0",
    "QubitOnticState",
    "OutOfConeError",
    "sample_ontic",
    "sample_hits",
    "conditional_probability",
    "conditional_probability_unchecked",
    "exact_event_probability",
    "positivity_minimum_n0",
    "sweep_positivity",
    "PositivityReport",
]

# Largest zenith for which both response functions stay within [0, 1]
# for every measurement event. cos(THETA0) = 3/5 exactly.
THETA0 = math.acos(0.6)
_COS_THETA0 = 0.6
# Lowest v_z of the cone region's cap: at v_z = _COS_THETA0 the cone gate refuses v.
_CONE_Z_MIN = math.nextafter(_COS_THETA0, 1.0)

_SIN_GUARD = 1.0 - 1e-12

# Rounding slack within which a response is clipped into [0, 1] before a
# binomial draw; matches the 1e-12 exactness tolerance of the harness.
_RESPONSE_SLACK = 1e-12

# Widening of each closed-form bound on a numerator over the sweep's grid; the float
# numerators are within about 1e-15 of the forms the bounds use, far inside this.
_SWEEP_BOUND_SLACK = 1e-11


class OutOfConeError(ValueError):
    """Preparation zenith at or beyond the validity cone boundary.

    ``rows`` names the refused rows of a stack; it is empty for one preparation.
    """

    def __init__(self, message: str, rows: tuple = ()):
        super().__init__(message)
        self.rows = rows


@dataclass(frozen=True)
class QubitOnticState:
    """Ontic coordinate x plus branch bit n.

    n = 0: x is an azimuth in [0, 2*pi).
    n = 1: x is a zenith in [0, pi].
    """

    x: float
    n: int

    def __post_init__(self) -> None:
        if self.n not in (0, 1):
            raise ValueError(f"branch bit must be 0 or 1, got {self.n}")
        if self.n == 0:
            if not 0.0 <= self.x < TWO_PI:
                raise ValueError(f"azimuth out of [0, 2*pi): {self.x!r}")
        else:
            if not 0.0 <= self.x <= math.pi:
                raise ValueError(f"zenith out of [0, pi]: {self.x!r}")


def sample_ontic(v, rng: np.random.Generator, size: int | None = None):
    """Draw the ontic state for preparation v, or (x, n) arrays of ``size`` rounds, n as uint8.

    One uniform variate per round takes the azimuth branch when below sin(theta),
    so round i of a stack equals the i-th single call. Refuses v_z <= 3/5, as
    ``_cone_trig`` does, and a zenith that rounds to THETA0 or beyond.
    """
    theta, phi = to_spherical(v)
    if theta >= THETA0 or not v[2] > _COS_THETA0:
        raise OutOfConeError(f"zenith {theta!r} outside validity cone {THETA0!r}")
    azimuth = rng.random(size) < math.sin(theta)
    if size is None:
        return QubitOnticState(phi, 0) if azimuth else QubitOnticState(theta, 1)
    return np.where(azimuth, phi, theta), (~azimuth).astype(np.uint8)


def _unit_probability(p):
    """Clip responses that rounding left just outside [0, 1]; floats or arrays.

    Clipping gives the same outcome distribution as the per-round rule
    ``u < p`` with ``u`` uniform on [0, 1). Values further out than
    ``_RESPONSE_SLACK`` are a fault, not rounding, and raise.
    """
    stack = isinstance(p, np.ndarray)
    low, high = (p.min(), p.max()) if stack else (p, p)
    if not (-_RESPONSE_SLACK <= low and high <= 1.0 + _RESPONSE_SLACK):
        raise ValueError(f"response in [{low!r}, {high!r}] lies outside [0, 1] beyond rounding")
    return np.clip(p, 0.0, 1.0) if stack else min(1.0, max(0.0, p))


def _sqrt(x):
    """math.sqrt of a float, np.sqrt of an array: both correctly rounded, so bit-equal."""
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def _components(u):
    """One unit vector as three floats, or an (m, 3) stack of them as three column arrays."""
    arr = _bloch_rows(u)
    return arr.tolist() if arr.ndim == 1 else tuple(arr.T)


def _cone_trig(v):
    """sin(theta), cos(theta), cos(phi), sin(phi) of preparation(s) v, read off the components.

    sin(theta) = sqrt(v_x^2 + v_y^2), cos(theta) = v_z and (cos(phi), sin(phi))
    = (v_x, v_y) / sin(theta), with phi = 0 below ``POLE_SIN_EPS`` as in
    ``to_spherical``. Only + - * / and sqrt, so a row of a stack equals the
    single call bit for bit. Preparations with v_z <= cos(THETA0) = 3/5 are refused.
    """
    vx, vy, vz = _components(v)
    rho = _sqrt(vx * vx + vy * vy)
    if not isinstance(vz, np.ndarray):
        if not vz > _COS_THETA0:
            raise OutOfConeError(f"cos(zenith) {vz!r} at or below cos(THETA0) = {_COS_THETA0}")
        return (rho, vz, 1.0, 0.0) if rho < POLE_SIN_EPS else (rho, vz, vx / rho, vy / rho)
    rows = tuple(np.flatnonzero(~(vz > _COS_THETA0)).tolist())
    if rows:
        raise OutOfConeError(f"rows {list(rows)} at or below cos(THETA0) = {_COS_THETA0}", rows)
    pole = rho < POLE_SIN_EPS
    safe = np.where(pole, 1.0, rho)
    return rho, vz, np.where(pole, 1.0, vx / safe), np.where(pole, 0.0, vy / safe)


def _event(w):
    """Event(s) w as (w_x, w_y, w_z, s, flip) for ``_response``, with s = sqrt(w_x^2 + w_y^2).

    Southern events (flip: w_z < 0) are negated. s is not sqrt(1 - w_z^2),
    which cancels near the poles.
    """
    wx, wy, wz = _components(w)
    flip = wz < 0.0
    sign = np.where(flip, -1.0, 1.0) if isinstance(flip, np.ndarray) else (-1.0 if flip else 1.0)
    wx, wy, wz = wx * sign, wy * sign, wz * sign
    return wx, wy, wz, _sqrt(wx * wx + wy * wy), flip


def _numerator(event, cos_x, sin_x, n: int):
    """Numerator of the direct form of branch n."""
    wx, wy, wz, s, _ = event
    if n == 0:
        p = wx * cos_x
        p += wy * sin_x
        p -= s
    else:
        p = (s - 2) * sin_x
        p += 1
        p += wz * cos_x
    return p


def _finish(p, sin_x, n: int):
    """The last step of the direct form, non-decreasing in p as 2 - 2 sin x > 0; in place on arrays."""
    if n == 0:
        p /= 2
        p += 1
    else:
        p /= 2 - 2 * sin_x
    return p


def _fold(p, flip):
    """The complement rule P(-w | x, n) = 1 - P(w | x, n) where ``flip``; in place on arrays."""
    if isinstance(p, np.ndarray):
        return np.subtract(1, p, out=p, where=flip)
    return 1 - p if flip else p


def _response(event, cos_x, sin_x, n: int):
    """The cone response of branch n at ontic coordinate (cos x, sin x) to event(s) ``event``.

    The only place the response is written: ``_finish`` of ``_numerator``
    gives the direct form, valid for w_z >= 0, evaluated at the negated
    southern events, and ``_fold`` maps those back. Floats, arrays that
    broadcast, or exact numbers such as ``fractions.Fraction`` (every literal
    is an integer): the augmented assignments rebind scalars and work in
    place on the one new array, with the same bits either way.
    """
    return _fold(_finish(_numerator(event, cos_x, sin_x, n), sin_x, n), event[4])


def _branches(v, w):
    """sin(theta) of preparation(s) v and the responses p0, p1 of both branches to event(s) w."""
    sin_t, cos_t, cos_p, sin_p = _cone_trig(v)
    event = _event(w)
    return sin_t, _response(event, cos_p, sin_p, 0), _response(event, cos_t, sin_t, 1)


def sample_hits(v, w, samples: int, rng: np.random.Generator):
    """Count the outcomes w among ``samples`` independent rounds from v.

    Exact in distribution to drawing ``sample_ontic`` and then the
    outcome, round by round, but at a cost independent of ``samples``.
    Consumes exactly three binomial variates per pair: the azimuth-branch
    count n0 ~ Bin(samples, sin(theta)), then the hits Bin(n0, P(w | phi, 0))
    and Bin(samples - n0, P(w | theta, 1)). For (m, 3) stacks of v and w
    each of the three is one draw of m variates, and one count per pair
    is returned. ``samples`` must be an integer in [0, 2**63).
    """
    _require_count(samples)
    sin_t, p0, p1 = _branches(v, w)
    p0, p1 = _unit_probability(p0), _unit_probability(p1)
    n0 = rng.binomial(samples, sin_t)
    return _scalar(np.asarray(rng.binomial(n0, p0) + rng.binomial(samples - n0, p1)))


def conditional_probability_unchecked(w, state: QubitOnticState) -> float:
    """Outcome probability for event w given the ontic state, no cone gate.

    The value can leave [0, 1] when the zenith branch coordinate is at
    or beyond THETA0; positivity sweeps rely on seeing those excursions.
    """
    cos_x, sin_x = math.cos(state.x), math.sin(state.x)
    if state.n == 1 and sin_x >= _SIN_GUARD:
        raise ValueError(f"branch n = 1 response undefined at sin(x) = {sin_x!r}")
    return _response(_event(w), cos_x, sin_x, state.n)


def conditional_probability(w, state: QubitOnticState) -> float:
    """Outcome probability for event w given an in-cone ontic state."""
    if state.n == 1 and state.x >= THETA0:
        raise OutOfConeError(
            f"zenith branch coordinate {state.x!r} outside validity cone {THETA0!r}"
        )
    return conditional_probability_unchecked(w, state)


def exact_event_probability(v, w):
    """Model probability of event w for preparation v, marginalized exactly.

    Averages the two branch responses with weights sin(theta) and
    1 - sin(theta). Agrees with (1 + v.w) / 2 to rounding error. For
    (m, 3) stacks of v and w, one value per pair, each bit-equal to the
    single call; ``OutOfConeError.rows`` names the refused rows.
    """
    sin_t, p0, p1 = _branches(v, w)
    return sin_t * p0 + (1.0 - sin_t) * p1


def positivity_minimum_n0(wz: float) -> float:
    """Exact minimum over x of the direct azimuth-branch form at fixed w_z.

    Equals 1 - sqrt(1 - wz^2); nonnegative for every event, which is
    why the azimuth branch never constrains the cone.  Applies to the
    direct formula used for northern events (w_z >= 0); southern events
    are evaluated through the complement rule, whose folded minimum is 0.
    """
    if abs(wz) > 1.0:
        raise ValueError(f"w_z must lie in [-1, 1], got {wz!r}")
    return 1.0 - math.sqrt(max(0.0, 1.0 - wz * wz))


@dataclass(frozen=True)
class PositivityReport:
    """Extrema of the response functions over a sweep grid."""

    min_value: float
    min_x: float
    min_n: int
    min_event: tuple[float, float, float]
    max_value: float
    max_x: float
    max_n: int
    max_event: tuple[float, float, float]
    n_evaluations: int


def _arc_ranges(points: np.ndarray, centre: np.ndarray, half: np.ndarray) -> tuple:
    """[start, stop) of the sorted angles ``points`` within ``half`` of each ``centre`` on the circle.

    Three ranges per centre, one for each of the turns centre - 2 pi, centre and centre + 2 pi,
    which is every turn that can reach ``points`` when both lie within 2 pi of each other.
    """
    turns = centre[:, None] + np.array([-TWO_PI, 0.0, TWO_PI])
    return np.searchsorted(points, turns - half[:, None]), np.searchsorted(points, turns + half[:, None], "right")


def _expand(starts: np.ndarray, stops: np.ndarray) -> tuple:
    """The positions in the ranges [start, stop), concatenated, and the index of each one's range."""
    starts, lengths = starts.ravel(), np.maximum(stops.ravel() - starts.ravel(), 0)
    owner = np.repeat(np.arange(len(lengths)), lengths)
    return np.arange(len(owner)) + np.repeat(starts - (np.cumsum(lengths) - lengths), lengths), owner


def _azimuth_pairs(event, xs: np.ndarray, step: float) -> tuple:
    """(rows, events): the azimuth-branch pairs that can reach or tie an extreme response on the grid.

    The grid ``xs`` is ``step`` * k up to 2 pi. With r = sqrt(w_x^2 + w_y^2) and
    alpha = atan2(w_y, w_x), the numerator at row x is r cos(x - alpha) - s to rounding. So
    with d the distance from alpha + pi, or alpha, to the nearest grid azimuth, each event's
    smallest numerator is at least -r cos d - s and its largest at most r cos d - s, each
    widened by the slack ``_SWEEP_BOUND_SLACK``; that nearest row's numerator lies within the
    slack and rounding of the bound. ``_finish`` and ``_fold`` are monotone with slope 1/2,
    so these map to bounds on each event's least and greatest response, each within half the
    slack and rounding of a value the grid holds. An event is kept when its least response
    could reach or tie the least bound of all events plus the slack, which is above a value
    the grid holds, or likewise its greatest.

    A kept event is then paired with the rows whose numerator bound could reach or tie what
    its own nearest row attains: those within arccos(cos d - 2 slack / r) of the centre. At
    every other row its numerator is beyond that value by nearly the slack, and so is its
    response, which leaves a gap far above rounding; so no other pair holds the first
    occurrence of an extreme of the grid.
    """
    wx, wy, _, s, flip = event
    r, alpha = np.sqrt(wx * wx + wy * wy), np.arctan2(wy, wx)

    def centres(alpha):
        """alpha + pi and alpha, each in [0, 2 pi], with the cos of each one's distance to the grid."""
        for a in (alpha + math.pi, alpha + np.where(alpha < 0.0, TWO_PI, 0.0)):
            yield a, np.cos(np.minimum(np.abs(a - step * np.rint(a / step)), TWO_PI - a))

    slack, ends = _SWEEP_BOUND_SLACK, np.empty((2, len(wx)))  # least and greatest numerator bound
    for end, sign, (_, near) in zip(ends, (-1.0, 1.0), centres(alpha)):
        end[:] = sign * (r * near + slack) - s
    ends = _fold(_finish(np.where(flip, ends[::-1], ends), None, 0), flip)  # least, greatest response
    kept = np.flatnonzero((ends[0] <= ends[0].min() + slack) | (ends[1] >= ends[1].max() - slack))
    # rows near both centres of each kept event; r below the slack bounds nothing, so every row
    tight = 2 * slack / np.maximum(r[kept], slack)
    ranges = [_arc_ranges(xs, a, np.arccos(np.maximum(near - tight, -1.0))) for a, near in centres(alpha[kept])]
    rows, owner = _expand(*(np.concatenate(part, axis=1) for part in zip(*ranges)))
    return rows, kept[owner // 6]


def _zenith_pairs(wz: np.ndarray, s: np.ndarray, south: np.ndarray, cos_x: np.ndarray, sin_x: np.ndarray) -> tuple:
    """(rows, events): the zenith-branch pairs that hold the extremes of the rows that can hold the grid's.

    ``wz`` and ``s`` are the distinct events, folded north, ascending in w_z within each half:
    the northern ones, then those where ``south``; the rows are (cos x, sin x). The numerator
    1 - 2 sin x + (s sin x + w_z cos x) depends on an event only through (w_z, s) =
    (sin b, cos b) to rounding, with latitude b = atan2(w_z, s) in [0, pi/2]. So at a row it
    is 1 - 2 sin x + cos(b - c) to about 1e-14 (latitudes read within a rounding) with
    c = atan2(cos x, sin x), largest at the event of a half whose b is nearest c on the circle
    and smallest at the one nearest c + pi: one beside the centre or an end of the half.

    That gives each row's extreme numerators of each half within ``_SWEEP_BOUND_SLACK``.
    ``_finish`` and ``_fold`` are monotone, so they bound each row's least response from
    both sides, and a row is kept when its lower bound could reach or tie the least upper
    bound of any row, or likewise for its greatest response. A kept row is paired with the
    events whose cos of distance from the centre falls short of the nearest one's by at most
    the slack; any other event holds a numerator beyond it. Those lie on an arc around the
    centre, found by bisection of the sorted latitudes.
    """
    apart = 6 * math.pi  # southern latitudes move this far on, beyond the reach of any arc
    lat = np.maximum.accumulate(np.arctan2(wz, s) + apart * south)  # sorted where atan2 rounds out of order
    north, rows = len(wz) - int(np.count_nonzero(south)), len(sin_x)
    halves = [(h, lo, hi) for h, (lo, hi) in enumerate(((0, north - 1), (north, len(wz) - 1))) if lo <= hi]
    centre = np.arctan2(cos_x, sin_x)
    centre = np.concatenate((centre, centre + math.pi))  # the largest numerator, then the smallest
    turn = np.concatenate([centre + apart * h for h, _, _ in halves])
    first, last = (np.repeat([half[k] for half in halves], 2 * rows) for k in (1, 2))
    j = np.searchsorted(lat, turn)
    beside = np.column_stack((np.clip(j - 1, first, last), np.clip(j, first, last), first, last))
    reach = np.cos(lat[beside] - turn[:, None])
    best, near = beside[np.arange(len(j)), np.argmax(reach, axis=1)], reach.max(axis=1)

    # (least, greatest) response of each (half, side, row) extreme numerator, over the slack
    num = (1 - 2 * sin_x) + np.array([[1.0], [-1.0]]) * near.reshape(len(halves), 2, rows)
    flip = np.array([h for h, _, _ in halves], bool)[:, None, None]
    ends = np.stack((num - _SWEEP_BOUND_SLACK, num + _SWEEP_BOUND_SLACK))
    ends = _fold(_finish(np.where(flip, ends[::-1], ends), sin_x, 1), flip)
    low = flip ^ np.array([[False], [True]])  # the sides that hold a row's least response
    least = [np.where(low, end, math.inf).min(axis=(0, 1)) for end in ends]
    greatest = [np.where(low, -math.inf, end).max(axis=(0, 1)) for end in ends]
    kept = np.where(low, least[0] <= least[1].min(), greatest[1] >= greatest[0].max())
    kept = np.flatnonzero(np.broadcast_to(kept, num.shape))

    arc = np.arccos(np.maximum(near[kept] - _SWEEP_BOUND_SLACK, -1.0))
    starts, stops = _arc_ranges(lat, turn[kept], arc)
    events, owner = _expand(np.column_stack((starts, best[kept])), np.column_stack((stops, best[kept] + 1)))
    return kept[owner // 4] % rows, events


def sweep_positivity(
    x_grid_step: float,
    n_event_points: int,
    *,
    events=None,
    x_range_n1: tuple[float, float] | None = None,
) -> PositivityReport:
    """Grid-scan both response functions and record their extrema.

    The event set defaults to a Fibonacci-sphere grid of
    ``n_event_points`` directions; pass ``events``, unit vectors, to pin
    specific directions instead. Branch n = 0 scans azimuths over
    [0, 2*pi); branch n = 1 scans zeniths over [0, THETA0) unless
    ``x_range_n1`` gives another finite range, skipping zeniths where its
    denominator vanishes.

    The report is that of evaluating every (branch, x, event) through
    ``_response``, ties kept at their first occurrence in that order, and
    ``n_evaluations`` counts those evaluations. Only the pairs that closed-form
    bounds cannot rule out are evaluated, with (cos x, sin x) of each row from
    ``math``: ``_azimuth_pairs`` keeps a few events of branch n = 0 near the
    rows at alpha and alpha + pi, and ``_zenith_pairs`` keeps the few events
    of each half that can hold a row's extreme numerators of branch n = 1,
    whose last step and fold are monotone in the numerator. Each row's least
    and greatest response over its pairs then equal those over every event
    wherever an extreme of the sweep is first attained, and exceed them
    elsewhere. The full response is evaluated on the first row holding the
    least value and the first holding the greatest, to pick the event.
    """
    from .geometry import fibonacci_sphere

    range_n1 = x_range_n1 if x_range_n1 is not None else (0.0, THETA0)
    if not (0.0 < x_grid_step < math.inf and -math.inf < range_n1[0] <= range_n1[1] < math.inf):
        raise ValueError(f"x_grid_step must be finite and positive and x_range_n1 a finite (lo, hi) "
                         f"with lo <= hi, got {x_grid_step!r} and {range_n1!r}")
    if events is None:
        ev = fibonacci_sphere(n_event_points)
    else:
        ev = _unit_rows(events, "events")
        if not len(ev):
            raise ValueError("events must hold at least one direction")

    # The events in ``_event``'s form, negated where southern; s stays sqrt(1 - w_z^2) as it
    # always was here, so the zenith branch reads an event through w_z alone.
    flip = ev[:, 2] < 0.0
    wx, wy, wz = (ev * np.where(flip, -1.0, 1.0)[:, None]).T
    event = (wx, wy, wz, np.sqrt(np.maximum(0.0, 1.0 - wz * wz)), flip)

    def grid(lo: float, hi: float) -> np.ndarray:
        count = max(1, int(math.ceil((hi - lo) / x_grid_step)))
        return np.minimum(lo + x_grid_step * np.arange(count + 1), hi)

    xs = [grid(0.0, TWO_PI), grid(*range_n1)]
    trig = [np.array([f(x) for x in xs[1].tolist()]) for f in (math.cos, math.sin)]
    valid = trig[1] < _SIN_GUARD
    xs[1], trig = xs[1][valid], [column[valid] for column in trig]
    lows, highs = [np.full(len(x), math.inf) for x in xs], [np.full(len(x), -math.inf) for x in xs]

    def reduce(n: int, rows: np.ndarray, p: np.ndarray) -> None:
        np.minimum.at(lows[n], rows, p)
        np.maximum.at(highs[n], rows, p)

    rows, kept = _azimuth_pairs(event, xs[0], x_grid_step)
    cos_x, sin_x = (np.array([f(x) for x in xs[0][rows].tolist()]) for f in (math.cos, math.sin))
    reduce(0, rows, _response(tuple(column[kept] for column in event), cos_x, sin_x, 0))
    if len(xs[1]):
        # the zenith branch reads an event through w_z alone: its distinct values in each half
        # (not np.unique, whose first call adds 1.3 MB to a fresh process's peak RSS)
        distinct = [np.sort(wz[half]) for half in (~flip, flip)]
        distinct = [np.concatenate((d[:1], d[1:][d[1:] != d[:-1]])) for d in distinct]
        south = np.repeat([False, True], [len(d) for d in distinct])
        height = np.concatenate(distinct)
        s = np.sqrt(np.maximum(0.0, 1.0 - height * height))
        rows, kept = _zenith_pairs(height, s, south, *trig)
        reduce(1, rows, _response((None, None, height[kept], s[kept], south[kept]), trig[0][rows], trig[1][rows], 1))

    def first(pick, per_row):
        """Value, x, branch and event of the extreme response, first in (branch, x, event) order."""
        i = int(pick(np.concatenate(per_row)))
        n, row = (0, i) if i < len(xs[0]) else (1, i - len(xs[0]))
        x = float(xs[n][row])
        p = _response(event, math.cos(x), math.sin(x), n)
        j = int(pick(p))
        return float(p[j]), x, n, tuple(ev[j].tolist())

    return PositivityReport(*first(np.argmin, lows), *first(np.argmax, highs), sum(map(len, xs)) * len(ev))
