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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import TWO_PI, as_bloch, to_spherical

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

_SIN_GUARD = 1.0 - 1e-12

# Rounding slack within which a response is clipped into [0, 1] before a
# binomial draw; matches the 1e-12 exactness tolerance of the harness.
_RESPONSE_SLACK = 1e-12


class OutOfConeError(ValueError):
    """Preparation zenith at or beyond the validity cone boundary."""


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


def sample_ontic(v, rng: np.random.Generator) -> QubitOnticState:
    """Draw the ontic state for preparation v.

    Consumes exactly one uniform variate: the azimuth branch is taken
    when it falls below sin(theta).
    """
    theta, phi = to_spherical(v)
    if theta >= THETA0:
        raise OutOfConeError(f"zenith {theta!r} outside validity cone {THETA0!r}")
    if rng.random() < math.sin(theta):
        return QubitOnticState(phi, 0)
    return QubitOnticState(theta, 1)


def _unit_probability(p: float) -> float:
    """Clip a response that rounding left just outside [0, 1].

    Clipping gives the same outcome distribution as the per-round rule
    ``u < p`` with ``u`` uniform on [0, 1). Values further out than
    ``_RESPONSE_SLACK`` are a fault, not rounding, and raise.
    """
    if 0.0 <= p <= 1.0:
        return p
    if -_RESPONSE_SLACK <= p < 0.0:
        return 0.0
    if 1.0 < p <= 1.0 + _RESPONSE_SLACK:
        return 1.0
    raise ValueError(f"response {p!r} lies outside [0, 1] beyond rounding")


def sample_hits(v, w, samples: int, rng: np.random.Generator) -> int:
    """Count the outcomes w among ``samples`` independent rounds from v.

    Exact in distribution to drawing ``sample_ontic`` and then the
    outcome, round by round, but at a cost independent of ``samples``.
    Consumes exactly three binomial variates: the azimuth-branch count
    n0 ~ Bin(samples, sin(theta)), then the hits Bin(n0, P(w | phi, 0))
    and Bin(samples - n0, P(w | theta, 1)), in that order.
    """
    theta, phi = to_spherical(v)
    if theta >= THETA0:
        raise OutOfConeError(f"zenith {theta!r} outside validity cone {THETA0!r}")
    p0 = _unit_probability(conditional_probability_unchecked(w, QubitOnticState(phi, 0)))
    p1 = _unit_probability(conditional_probability_unchecked(w, QubitOnticState(theta, 1)))
    n0 = int(rng.binomial(samples, math.sin(theta)))
    return int(rng.binomial(n0, p0)) + int(rng.binomial(samples - n0, p1))


def _direct_probability(wx: float, wy: float, wz: float, x: float, n: int) -> float:
    """Response functions in the form valid for w_z >= 0."""
    s = math.sqrt(max(0.0, 1.0 - wz * wz))
    if n == 0:
        return 1.0 + 0.5 * (wx * math.cos(x) + wy * math.sin(x) - s)
    sin_x = math.sin(x)
    if sin_x >= _SIN_GUARD:
        raise ValueError(f"branch n = 1 response undefined at sin(x) = {sin_x!r}")
    return (1.0 + (s - 2.0) * sin_x + wz * math.cos(x)) / (2.0 - 2.0 * sin_x)


def conditional_probability_unchecked(w, state: QubitOnticState) -> float:
    """Outcome probability for event w given the ontic state, no cone gate.

    Events in the southern hemisphere are folded through the complement
    rule P(-w | x, n) = 1 - P(w | x, n). The value can leave [0, 1] when
    the zenith branch coordinate is at or beyond THETA0; positivity
    sweeps rely on seeing those excursions.
    """
    arr = as_bloch(w)
    wx, wy, wz = float(arr[0]), float(arr[1]), float(arr[2])
    if wz < 0.0:
        return 1.0 - _direct_probability(-wx, -wy, -wz, state.x, state.n)
    return _direct_probability(wx, wy, wz, state.x, state.n)


def conditional_probability(w, state: QubitOnticState) -> float:
    """Outcome probability for event w given an in-cone ontic state."""
    if state.n == 1 and state.x >= THETA0:
        raise OutOfConeError(
            f"zenith branch coordinate {state.x!r} outside validity cone {THETA0!r}"
        )
    return conditional_probability_unchecked(w, state)


def exact_event_probability(v, w) -> float:
    """Model probability of event w for preparation v, marginalized exactly.

    Averages the two branch responses with weights sin(theta) and
    1 - sin(theta). Agrees with (1 + v.w) / 2 to rounding error.
    """
    theta, phi = to_spherical(v)
    if theta >= THETA0:
        raise OutOfConeError(f"zenith {theta!r} outside validity cone {THETA0!r}")
    sin_theta = math.sin(theta)
    p0 = conditional_probability_unchecked(w, QubitOnticState(phi, 0))
    p1 = conditional_probability_unchecked(w, QubitOnticState(theta, 1))
    return sin_theta * p0 + (1.0 - sin_theta) * p1


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


def sweep_positivity(
    x_grid_step: float,
    n_event_points: int,
    *,
    events=None,
    x_range_n0: tuple[float, float] | None = None,
    x_range_n1: tuple[float, float] | None = None,
) -> PositivityReport:
    """Grid-scan both response functions and record their extrema.

    The event set defaults to a Fibonacci-sphere grid of
    ``n_event_points`` directions; pass ``events`` to pin specific
    directions instead. Branch n = 0 scans azimuths over [0, 2*pi) and
    branch n = 1 scans zeniths over [0, THETA0) unless overridden.
    """
    from .geometry import fibonacci_sphere

    if x_grid_step <= 0.0:
        raise ValueError("x_grid_step must be positive")
    if events is None:
        ev = fibonacci_sphere(n_event_points)
    else:
        ev = np.atleast_2d(np.asarray(events, dtype=float))
        if ev.shape[1] != 3:
            raise ValueError("events must be an (m, 3) array of unit vectors")

    # Fold southern-hemisphere events through the complement rule once,
    # up front: evaluate the direct form at -w and map p -> 1 - p.
    flip = ev[:, 2] < 0.0
    direct = np.where(flip[:, None], -ev, ev)
    wx, wy, wz = direct[:, 0], direct[:, 1], direct[:, 2]
    s = np.sqrt(np.maximum(0.0, 1.0 - wz * wz))

    lo0, hi0 = x_range_n0 if x_range_n0 is not None else (0.0, TWO_PI)
    lo1, hi1 = x_range_n1 if x_range_n1 is not None else (0.0, THETA0)

    min_value = math.inf
    max_value = -math.inf
    min_x = max_x = 0.0
    min_n = max_n = 0
    min_idx = max_idx = 0
    n_evaluations = 0

    def grid(lo: float, hi: float) -> np.ndarray:
        count = max(1, int(math.ceil((hi - lo) / x_grid_step)))
        return lo + x_grid_step * np.arange(count + 1)

    for n, (lo, hi) in ((0, (lo0, hi0)), (1, (lo1, hi1))):
        for x in grid(lo, hi):
            x = float(min(x, hi))
            if n == 0:
                p = 1.0 + 0.5 * (wx * math.cos(x) + wy * math.sin(x) - s)
            else:
                sin_x = math.sin(x)
                if sin_x >= _SIN_GUARD:
                    continue
                p = (1.0 + (s - 2.0) * sin_x + wz * math.cos(x)) / (2.0 - 2.0 * sin_x)
            p = np.where(flip, 1.0 - p, p)
            n_evaluations += p.size
            i_min = int(np.argmin(p))
            i_max = int(np.argmax(p))
            if p[i_min] < min_value:
                min_value, min_x, min_n, min_idx = float(p[i_min]), x, n, i_min
            if p[i_max] > max_value:
                max_value, max_x, max_n, max_idx = float(p[i_max]), x, n, i_max
    return PositivityReport(
        min_value=min_value,
        min_x=min_x,
        min_n=min_n,
        min_event=tuple(float(c) for c in ev[min_idx]),
        max_value=max_value,
        max_x=max_x,
        max_n=max_n,
        max_event=tuple(float(c) for c in ev[max_idx]),
        n_evaluations=n_evaluations,
    )
