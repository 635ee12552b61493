"""Hidden-variable model for N-level systems with N^2 ontic components.

The ontic state of a preparation psi is a cell (n, m) drawn from a fixed
weight table plus the single complex number X = conj(psi[n]) * psi[m].
The response function for an event phi is

    P(phi | X, n, m) = 1 - |conj(phi[n]) * phi[m] - X|^2 / (2 * w[n, m])

and the weighted sum over cells telescopes to the quantum probability
|<phi|psi>|^2 exactly, with no residual. The construction is only
consistent (all responses in [0, 1]) when the pair (psi, phi) satisfies
the strict positivity bound |X_psi - X_phi|^2 < 2 * w[n, m] in every
cell, which confines events to a neighborhood of the preparation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .geometry import as_amplitudes, random_amplitudes

__all__ = [
    "WeightScheme",
    "uniform_weights",
    "ground_weighted",
    "NdimOnticState",
    "PositivityCheck",
    "PositivityError",
    "sample_ndim",
    "sample_hits_ndim",
    "conditional_probability_ndim",
    "conditional_probability_grid",
    "positivity_check",
    "sufficient_condition",
    "weighted_probability_sum",
    "exact_event_probability_ndim",
    "InRegionPair",
    "make_in_region_pair",
]

_SUM_ATOL = 1e-12


@dataclass(frozen=True, eq=False)
class WeightScheme:
    """Strictly positive N x N cell weights summing to one."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.weights, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 2:
            raise ValueError("weights must be a square matrix with N >= 2")
        if not np.all(arr > 0.0):
            raise ValueError("all cell weights must be strictly positive")
        total = float(arr.sum())
        if abs(total - 1.0) > _SUM_ATOL:
            raise ValueError(f"cell weights must sum to 1, got {total!r}")
        arr.setflags(write=False)
        object.__setattr__(self, "weights", arr)

    @property
    def dim(self) -> int:
        return self.weights.shape[0]

    @cached_property
    def cumulative(self) -> np.ndarray:
        """Row-major cumulative weights, for inverse-CDF cell sampling."""
        c = np.cumsum(self.weights.ravel())
        c.setflags(write=False)
        return c


def uniform_weights(dim: int) -> WeightScheme:
    """All N^2 cells equally likely."""
    if dim < 2:
        raise ValueError(f"need dim >= 2, got {dim}")
    return WeightScheme(np.full((dim, dim), 1.0 / (dim * dim)))


def ground_weighted(dim: int, pole_mass: float) -> WeightScheme:
    """Concentrate ``pole_mass`` on cells touching component 0.

    The 2*dim - 1 cells in row 0 or column 0 share ``pole_mass``
    equally; the remaining (dim - 1)^2 cells share what is left. Useful
    for enlarging the positivity region around the ground component.
    """
    if dim < 2:
        raise ValueError(f"need dim >= 2, got {dim}")
    if not 0.0 < pole_mass < 1.0:
        raise ValueError(f"pole_mass must lie strictly in (0, 1), got {pole_mass!r}")
    w = np.full((dim, dim), (1.0 - pole_mass) / (dim - 1) ** 2)
    w[0, :] = pole_mass / (2 * dim - 1)
    w[:, 0] = pole_mass / (2 * dim - 1)
    return WeightScheme(w)


@dataclass(frozen=True)
class NdimOnticState:
    """Cell indices (0-based) and the carried pair product X."""

    n: int
    m: int
    X: complex

    def __post_init__(self) -> None:
        if self.n < 0 or self.m < 0:
            raise ValueError(f"cell indices must be nonnegative, got ({self.n}, {self.m})")
        if abs(self.X) > 1.0 + 1e-12:
            raise ValueError(f"|X| cannot exceed 1, got {abs(self.X)!r}")


def sample_ndim(psi, scheme: WeightScheme, rng: np.random.Generator) -> NdimOnticState:
    """Draw a cell from the weight table and attach X = conj(psi[n]) * psi[m].

    Consumes exactly one uniform variate (inverse-CDF over the row-major
    cumulative table).
    """
    arr = as_amplitudes(psi)
    if arr.shape[0] != scheme.dim:
        raise ValueError(f"state has {arr.shape[0]} components, scheme expects {scheme.dim}")
    flat = int(np.searchsorted(scheme.cumulative, rng.random(), side="right"))
    flat = min(flat, scheme.dim * scheme.dim - 1)
    n, m = divmod(flat, scheme.dim)
    return NdimOnticState(n=n, m=m, X=complex(np.conj(arr[n]) * arr[m]))


def conditional_probability_ndim(phi, state: NdimOnticState, scheme: WeightScheme) -> float:
    """Response of one ontic cell to the event phi."""
    arr = as_amplitudes(phi)
    if arr.shape[0] != scheme.dim:
        raise ValueError(f"event has {arr.shape[0]} components, scheme expects {scheme.dim}")
    if state.n >= scheme.dim or state.m >= scheme.dim:
        raise ValueError(f"cell ({state.n}, {state.m}) outside a {scheme.dim}-level table")
    d = complex(np.conj(arr[state.n]) * arr[state.m]) - state.X
    sq = d.real * d.real + d.imag * d.imag
    return 1.0 - sq / (2.0 * float(scheme.weights[state.n, state.m]))


def _pair_products(psi: np.ndarray) -> np.ndarray:
    """Matrix of all products conj(psi[n]) * psi[m]."""
    return np.outer(np.conj(psi), psi)


def conditional_probability_grid(psi, phi, scheme: WeightScheme) -> np.ndarray:
    """Responses of every cell at once, for the X values induced by psi."""
    psi_arr = as_amplitudes(psi)
    phi_arr = as_amplitudes(phi)
    if psi_arr.shape[0] != scheme.dim or phi_arr.shape[0] != scheme.dim:
        raise ValueError("state, event and scheme dimensions must all agree")
    d = _pair_products(phi_arr) - _pair_products(psi_arr)
    sq = d.real * d.real + d.imag * d.imag
    return 1.0 - sq / (2.0 * scheme.weights)


class PositivityCheck(NamedTuple):
    """Outcome of the strict per-cell positivity bound."""

    ok: bool
    margin: float
    worst: tuple[int, int]


class PositivityError(ValueError):
    """Event lies outside the positivity region of the preparation."""

    def __init__(self, margin: float, worst: tuple[int, int]):
        super().__init__(
            f"positivity bound violated at cell {worst}: margin {margin!r}"
        )
        self.margin = margin
        self.worst = worst


def positivity_check(psi, phi, scheme: WeightScheme) -> PositivityCheck:
    """Strict bound |X_psi - X_phi|^2 < 2 * w in every cell.

    ``margin`` is the smallest value of 2 * w - |difference|^2 over the
    table; the pair passes only when it is strictly positive.
    """
    psi_arr = as_amplitudes(psi)
    phi_arr = as_amplitudes(phi)
    if psi_arr.shape[0] != scheme.dim or phi_arr.shape[0] != scheme.dim:
        raise ValueError("state, event and scheme dimensions must all agree")
    d = _pair_products(psi_arr) - _pair_products(phi_arr)
    sq = d.real * d.real + d.imag * d.imag
    margins = 2.0 * scheme.weights - sq
    flat = int(np.argmin(margins))
    worst = (flat // scheme.dim, flat % scheme.dim)
    margin = float(margins[worst])
    return PositivityCheck(ok=margin > 0.0, margin=margin, worst=worst)


def sufficient_condition(psi, phi, scheme: WeightScheme) -> bool:
    """Componentwise closeness that guarantees the positivity bound.

    If |psi[n] - phi[n]|^2 < w_min / 2 for every component then the
    triangle inequality forces |X_psi - X_phi|^2 < 2 * w_min in every
    cell. Sufficient but not necessary.
    """
    psi_arr = as_amplitudes(psi)
    phi_arr = as_amplitudes(phi)
    if psi_arr.shape[0] != scheme.dim or phi_arr.shape[0] != scheme.dim:
        raise ValueError("state, event and scheme dimensions must all agree")
    diff = psi_arr - phi_arr
    sq = diff.real * diff.real + diff.imag * diff.imag
    return bool(np.all(sq < 0.5 * float(scheme.weights.min())))


def weighted_probability_sum(psi, phi, scheme: WeightScheme) -> float:
    """Sum of w[n, m] * P(phi | X, n, m) over all cells, in closed form.

    Telescopes to |<phi|psi>|^2 identically, whether or not the pair
    satisfies the positivity bound; no gate is applied here.
    """
    psi_arr = as_amplitudes(psi)
    phi_arr = as_amplitudes(phi)
    if psi_arr.shape[0] != scheme.dim or phi_arr.shape[0] != scheme.dim:
        raise ValueError("state, event and scheme dimensions must all agree")
    d = _pair_products(phi_arr) - _pair_products(psi_arr)
    sq = d.real * d.real + d.imag * d.imag
    return float(np.sum(scheme.weights - 0.5 * sq))


def _require_in_region(psi, phi, scheme: WeightScheme) -> None:
    check = positivity_check(psi, phi, scheme)
    if not check.ok:
        raise PositivityError(check.margin, check.worst)


def exact_event_probability_ndim(psi, phi, scheme: WeightScheme) -> float:
    """Model probability of event phi for preparation psi.

    Raises ``PositivityError`` when the pair fails the strict bound, so
    a returned value always came from a well-formed distribution.
    """
    _require_in_region(psi, phi, scheme)
    return weighted_probability_sum(psi, phi, scheme)


def sample_hits_ndim(psi, phi, scheme: WeightScheme, samples: int, rng: np.random.Generator) -> int:
    """Count the outcomes phi among ``samples`` independent rounds from psi.

    Exact in distribution to drawing ``sample_ndim`` and then the
    outcome, round by round, at a cost of O(N^2) instead of O(samples).
    Consumes one multinomial vector of the N^2 row-major cell counts,
    then one binomial vector of the hits per cell. Raises
    ``PositivityError`` for pairs outside the positivity region, the
    same gate as ``exact_event_probability_ndim``; inside it every cell
    response lies in [0, 1].
    """
    _require_in_region(psi, phi, scheme)
    cells = rng.multinomial(samples, scheme.weights.ravel())
    responses = conditional_probability_grid(psi, phi, scheme).ravel()
    return int(rng.binomial(cells, responses).sum())


class InRegionPair(NamedTuple):
    """Preparation/event pair inside the positivity region."""

    psi: np.ndarray
    phi: np.ndarray
    rejections: int


def make_in_region_pair(
    dim: int,
    scheme: WeightScheme,
    rng: np.random.Generator,
    *,
    radius: float | None = None,
    max_rejections: int = 1000,
) -> InRegionPair:
    """Draw a random pair guaranteed to pass the positivity check.

    Each attempt draws a Haar state, perturbs every component inside a
    complex disc of the given radius (default 0.2 / dim), renormalizes
    and keeps the pair if the strict bound holds. Per attempt the stream
    consumes the Haar draw, then ``dim`` disc radii, then ``dim`` disc
    angles.
    """
    if dim != scheme.dim:
        raise ValueError(f"dim {dim} does not match scheme dimension {scheme.dim}")
    if radius is None:
        radius = 0.2 / dim
    if radius <= 0.0:
        raise ValueError(f"radius must be positive, got {radius!r}")
    rejections = 0
    while rejections <= max_rejections:
        psi = random_amplitudes(dim, rng)
        mag = radius * np.sqrt(rng.random(dim))
        ang = 2.0 * math.pi * rng.random(dim)
        phi = psi + mag * np.exp(1j * ang)
        phi = phi / np.linalg.norm(phi)
        if positivity_check(psi, phi, scheme).ok:
            return InRegionPair(psi=psi, phi=phi, rejections=rejections)
        rejections += 1
    raise RuntimeError(
        f"no in-region pair after {max_rejections} rejections; reduce the radius"
    )
