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
stacks of pairs and on exact rationals; the positivity sweep runs its numerator.
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

# Values per block of the positivity sweep: four zenith rows of 10000 events, or as many
# azimuth rows as fit for the events the azimuth branch keeps. One buffer for a block's two
# (rows, events) numerator products, 640 KB, is allocated once per sweep.
_SWEEP_BLOCK_VALUES = 40000

# Widening of each event's bound on its azimuth-branch numerator over the grid; the float
# numerator is within about 1e-15 of r cos(x - alpha) - s, far inside this.
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


def _product(a, b, out):
    """a * b, into ``out`` when a reusable buffer is given."""
    return a * b if out is None else np.multiply(a, b, out=out)


def _numerator(event, cos_x, sin_x, n: int, out=(None, None)):
    """Numerator of the direct form of branch n; ``out`` takes two buffers for its products."""
    wx, wy, wz, s, _ = event
    if n == 0:
        p = _product(wx, cos_x, out[0])
        p += _product(wy, sin_x, out[1])
        p -= s
    else:
        p = _product(s - 2, sin_x, out[0])
        p += 1
        p += _product(wz, cos_x, out[1])
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


def _reach_extremes(event, xs, step: float, cos_x, sin_x) -> np.ndarray:
    """Mask of the events whose azimuth-branch response could reach or tie an extreme over ``xs``.

    The grid ``xs`` is ``step`` * k up to 2 pi, and (cos x, sin x) its (K, 1) columns. With
    r = hypot(w_x, w_y) and alpha = atan2(w_y, w_x), the numerator of each row x is
    r cos(x - alpha) - s to rounding, so its minimum over the grid is at least
    -r cos d(alpha + pi) - s and its maximum at most r cos d(alpha) - s, with d the distance
    to the nearest grid azimuth, each widened by ``_SWEEP_BOUND_SLACK``. The numerators of
    those nearest rows, values the grid holds, bound the extremes from the other side.
    ``_finish`` and ``_fold`` are monotone, so all four map to bounds on each event's
    smallest and largest response. An event is kept when its smallest could reach or tie
    the least value attained, or its largest the greatest.
    """
    wx, wy, _, s, flip = event
    r, alpha = np.hypot(wx, wy), np.arctan2(wy, wx)
    ends = np.empty((4, len(wx)))  # numerator: min bound, min row, max row, max bound
    for bound, near, sign, shift in ((0, 1, -1.0, math.pi), (3, 2, 1.0, 0.0)):
        a = np.mod(alpha + shift, TWO_PI)
        row = np.minimum(np.rint(a / step).astype(np.intp), len(xs) - 1)  # nearest, up to rounding
        d = np.abs(a - xs[row])
        top = np.abs(xs[-1] - a)  # the last azimuth, 2 pi where clipped, may be nearer
        row[top < d] = len(xs) - 1
        ends[bound] = sign * (r * np.cos(np.minimum(d, top, out=d)) + _SWEEP_BOUND_SLACK) - s
        _numerator(event, cos_x[row, 0], sin_x[row, 0], 0, (ends[near], d))
    _fold(_finish(ends, None, 0), flip)
    ends[:, flip] = ends[::-1, flip]  # the fold reverses the order
    return (ends[0] <= ends[1].min()) | (ends[3] >= ends[2].max())


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

    The grid runs in blocks of at most ``_SWEEP_BLOCK_VALUES`` values:
    (cos x, sin x) of each row from ``math``, as (K, 1) columns against the
    events. Only the numerators are computed in bulk, into two buffers
    reused for every block, and reduced to each row's extrema over the
    northern and over the southern events. The last step and the fold are
    monotone in the numerator, rounding included, so these map to the row's
    extreme responses bit for bit. The full response is evaluated only on
    the first row holding the minimum and the first holding the maximum, so
    ties keep the first occurrence in (branch, x, event) order.

    Branch n = 0 scans only the events ``_reach_extremes`` keeps. Its
    numerator is r cos(x - alpha) - s, so each event's extremes over the
    azimuth grid are bounded in closed form, and an event whose bounds show
    it can neither reach nor tie the least or greatest response that some
    event attains on the grid holds no extreme. A row's extremes over the
    kept events then differ from those over all events only in rows that
    hold no extreme of the sweep, so the report is unchanged. Branch n = 1
    scans every event: its last step divides by 2 - 2 sin x, which varies
    with the row, and ``x_range_n1`` may take the zenith past THETA0, where
    no bound over the events is known.
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

    # The events in ``_event``'s form, northern first, negated once up front where southern;
    # contiguous rows run faster, and s stays sqrt(1 - w_z^2) as it always was here.
    order = np.argsort(ev[:, 2] < 0.0)
    flip = ev[order, 2] < 0.0
    wx, wy, wz = np.where(flip[:, None], -ev[order], ev[order]).T.copy()
    event = (wx, wy, wz, np.sqrt(np.maximum(0.0, 1.0 - wz * wz)), flip)

    def grid(lo: float, hi: float) -> np.ndarray:
        count = max(1, int(math.ceil((hi - lo) / x_grid_step)))
        return lo + x_grid_step * np.arange(count + 1)

    m = len(ev)
    xs, trig, lows, highs = [], [], [], []
    for n, (lo, hi) in ((0, (0.0, TWO_PI)), (1, range_n1)):
        xs.append([x for x in map(float, np.minimum(grid(lo, hi), hi)) if n == 0 or math.sin(x) < _SIN_GUARD])
        trig.append(tuple(np.array([f(x) for x in xs[n]]).reshape(-1, 1) for f in (math.cos, math.sin)))
    kept = _reach_extremes(event, np.array(xs[0]), x_grid_step, *trig[0])
    scanned = (tuple(column[kept] for column in event), event)  # the events each branch scans
    rows = [max(1, min(_SWEEP_BLOCK_VALUES // len(e[4]), len(x))) for e, x in zip(scanned, xs)]
    buffer = np.empty(2 * max(k * len(e[4]) for k, e in zip(rows, scanned)))
    for n, (cos_x, sin_x) in enumerate(trig):
        north = int(np.count_nonzero(~scanned[n][4]))
        halves = [(half, reduce, initial) for half in (slice(None, north), slice(north, None))
                  for reduce, initial in ((np.minimum.reduce, math.inf), (np.maximum.reduce, -math.inf))]
        buffers = buffer[: 2 * rows[n] * len(scanned[n][4])].reshape(2, rows[n], -1)
        ends = np.empty((len(xs[n]), 4))  # per row: northern, then southern numerator min and max
        for start in range(0, len(xs[n]), rows[n]):
            block = slice(start, start + rows[n])
            p = _numerator(scanned[n], cos_x[block], sin_x[block], n, buffers[:, : len(cos_x[block])])
            for column, (half, reduce, initial) in enumerate(halves):
                reduce(p[:, half], axis=1, initial=initial, out=ends[block, column])
        _fold(_finish(ends, sin_x, n)[:, 2:], True)  # the fold swaps the southern min and max
        lows.append(np.minimum(ends[:, 0], ends[:, 3]))
        highs.append(np.maximum(ends[:, 1], ends[:, 2]))

    def first(pick, per_row):
        """Value, x, branch and event of the extreme response, first in (branch, x, event) order."""
        i = int(pick(np.concatenate(per_row)))
        n, row = (0, i) if i < len(xs[0]) else (1, i - len(xs[0]))
        p = np.empty(m)
        p[order] = _response(event, *(column[row : row + 1] for column in trig[n]), n)[0]  # event order
        j = int(pick(p))
        return float(p[j]), xs[n][row], n, tuple(ev[j].tolist())

    return PositivityReport(*first(np.argmin, lows), *first(np.argmax, highs), sum(map(len, xs)) * m)
