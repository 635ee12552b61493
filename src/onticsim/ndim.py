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

The pair functions take one pair, with Python scalar results, or stacks
of shape (..., N) in the same code, with arrays over the leading axes.
``sample_ndim`` draws one round or a stack of rounds with the same variates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .geometry import _require_count, _scalar, as_amplitudes, random_amplitudes

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
_MAX_REJECTIONS = 1000  # failed attempts after which ``make_in_region_pair`` gives up on a row


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


def sample_ndim(psi, scheme: WeightScheme, rng: np.random.Generator, size: int | None = None):
    """Draw a cell from the weight table and attach X = conj(psi[n]) * psi[m].

    One uniform variate per round (inverse-CDF over the row-major cumulative
    table); with ``size``, (n, m, X) arrays whose round i equals the i-th single call
    bit for bit, as X is formed from real and imaginary parts (a stacked complex product is not).
    """
    arr = as_amplitudes(psi)
    if arr.shape != (scheme.dim,):
        raise ValueError(f"state has shape {arr.shape}, scheme expects ({scheme.dim},)")
    flat = np.searchsorted(scheme.cumulative, rng.random(size), side="right")
    n, m = np.divmod(np.minimum(flat, scheme.dim * scheme.dim - 1), scheme.dim)
    a, b = arr[n], arr[m]
    X = (a.real * b.real + a.imag * b.imag) + 1j * (a.real * b.imag - a.imag * b.real)
    return NdimOnticState(n=int(n), m=int(m), X=complex(X)) if size is None else (n, m, X)


def conditional_probability_ndim(phi, state: NdimOnticState, scheme: WeightScheme) -> float:
    """Response of one ontic cell to the event phi."""
    arr = as_amplitudes(phi)
    if arr.shape != (scheme.dim,):
        raise ValueError(f"event has shape {arr.shape}, scheme expects ({scheme.dim},)")
    if state.n >= scheme.dim or state.m >= scheme.dim:
        raise ValueError(f"cell ({state.n}, {state.m}) outside a {scheme.dim}-level table")
    d = complex(np.conj(arr[state.n]) * arr[state.m]) - state.X
    sq = d.real * d.real + d.imag * d.imag
    return 1.0 - sq / (2.0 * float(scheme.weights[state.n, state.m]))


def _checked_pair(psi, phi, scheme: WeightScheme) -> tuple[np.ndarray, np.ndarray]:
    """Amplitude arrays of a state/event pair, checked against the scheme."""
    psi_arr = as_amplitudes(psi)
    phi_arr = as_amplitudes(phi)
    if psi_arr.shape[-1] != scheme.dim or phi_arr.shape[-1] != scheme.dim:
        raise ValueError("state, event and scheme dimensions must all agree")
    return psi_arr, phi_arr


def _distance_grid(psi, phi, scheme: WeightScheme) -> np.ndarray:
    """|X_phi - X_psi|^2 in every cell, with X = conj(a[n]) * a[m]."""
    a, b = _checked_pair(psi, phi, scheme)
    d = np.conj(b)[..., :, None] * b[..., None, :] - np.conj(a)[..., :, None] * a[..., None, :]
    return d.real * d.real + d.imag * d.imag


def _cell_responses(sq: np.ndarray, scheme: WeightScheme) -> np.ndarray:
    return 1.0 - sq / (2.0 * scheme.weights)


def _weighted_sum(sq: np.ndarray, scheme: WeightScheme):
    return _scalar((scheme.weights - 0.5 * sq).sum(axis=(-2, -1)))


def conditional_probability_grid(psi, phi, scheme: WeightScheme) -> np.ndarray:
    """Responses of every cell at once, for the X values induced by psi."""
    return _cell_responses(_distance_grid(psi, phi, scheme), scheme)


class PositivityCheck(NamedTuple):
    """Outcome of the strict per-cell positivity bound; arrays of each field for stacks."""

    ok: bool
    margin: float
    worst: tuple[int, int]


class PositivityError(ValueError):
    """Event outside the preparation's positivity region; a stack's ``worst`` leads with the row."""

    def __init__(self, margin: float, worst: tuple[int, int]):
        super().__init__(
            f"positivity bound violated at cell {worst}: margin {margin!r}"
        )
        self.margin = margin
        self.worst = worst


def _margins(psi, phi, scheme: WeightScheme) -> tuple[np.ndarray, np.ndarray]:
    """2 * w - |X_phi - X_psi|^2 in every cell, and the distance grid."""
    sq = _distance_grid(psi, phi, scheme)
    return 2.0 * scheme.weights - sq, sq


def positivity_check(psi, phi, scheme: WeightScheme) -> PositivityCheck:
    """Strict bound |X_psi - X_phi|^2 < 2 * w in every cell.

    ``margin`` is the smallest value of 2 * w - |difference|^2 over the
    table; the pair passes only when it is strictly positive.
    """
    margins = _margins(psi, phi, scheme)[0]
    flat = margins.reshape(*margins.shape[:-2], -1)
    margin = flat.min(axis=-1)
    n, m = divmod(flat.argmin(axis=-1), scheme.dim)
    return PositivityCheck(_scalar(margin > 0.0), _scalar(margin), (_scalar(n), _scalar(m)))


def sufficient_condition(psi, phi, scheme: WeightScheme) -> bool:
    """Componentwise closeness that guarantees the positivity bound.

    If |psi[n] - phi[n]|^2 < w_min / 2 for every component then the
    triangle inequality forces |X_psi - X_phi|^2 < 2 * w_min in every
    cell. Sufficient but not necessary. One result per pair of a stack.
    """
    psi_arr, phi_arr = _checked_pair(psi, phi, scheme)
    diff = psi_arr - phi_arr
    sq = diff.real * diff.real + diff.imag * diff.imag
    return _scalar(np.all(sq < 0.5 * float(scheme.weights.min()), axis=-1))


def weighted_probability_sum(psi, phi, scheme: WeightScheme) -> float:
    """Sum of w[n, m] * P(phi | X, n, m) over all cells, in closed form.

    Telescopes to |<phi|psi>|^2 identically, whether or not the pair
    satisfies the positivity bound; no gate is applied here.
    """
    return _weighted_sum(_distance_grid(psi, phi, scheme), scheme)


def _require_in_region(psi, phi, scheme: WeightScheme) -> np.ndarray:
    """Distance grid of in-region pairs; ``PositivityError`` otherwise."""
    margins, sq = _margins(psi, phi, scheme)
    if not margins.min() > 0.0:
        worst = np.unravel_index(np.argmin(margins), margins.shape)
        raise PositivityError(float(margins[worst]), tuple(int(i) for i in worst))
    return sq


def exact_event_probability_ndim(psi, phi, scheme: WeightScheme) -> float:
    """Model probability of event phi for preparation psi.

    Raises ``PositivityError`` when the pair fails the strict bound, so
    a returned value always came from a well-formed distribution.
    """
    return _weighted_sum(_require_in_region(psi, phi, scheme), scheme)


def sample_hits_ndim(psi, phi, scheme: WeightScheme, samples: int, rng: np.random.Generator):
    """Count the outcomes phi among ``samples`` independent rounds from psi.

    Exact in distribution to drawing ``sample_ndim`` and then the
    outcome, round by round, at a cost of O(N^2) instead of O(samples).
    Consumes one multinomial vector of the N^2 row-major cell counts,
    then one binomial vector of the hits per cell (a stack: every pair's
    multinomial first). Raises ``PositivityError`` for pairs outside the
    positivity region, the same gate as ``exact_event_probability_ndim``;
    inside it every cell response lies in [0, 1]. ``samples`` must be an integer in [0, 2**63).
    """
    _require_count(samples)
    sq = _require_in_region(psi, phi, scheme)
    cells = rng.multinomial(samples, scheme.weights.ravel(), size=sq.shape[:-2])
    hits = rng.binomial(cells, _cell_responses(sq, scheme).reshape(cells.shape))
    return _scalar(hits.sum(axis=-1))


class InRegionPair(NamedTuple):
    """Preparation/event pair inside the positivity region, or stacks of them."""

    psi: np.ndarray
    phi: np.ndarray
    rejections: int


def make_in_region_pair(
    dim: int,
    scheme: WeightScheme,
    rng: np.random.Generator,
    *,
    radius: float | None = None,
    size: int | None = None,
) -> InRegionPair:
    """Draw a random pair guaranteed to pass the positivity check.

    Each attempt draws a Haar state, perturbs every component inside a
    complex disc of the given radius (default 0.2 / dim), renormalizes
    and keeps the pair if the strict bound holds. Per attempt the stream
    consumes the Haar draw, then ``dim`` disc radii, then ``dim`` disc
    angles; with ``size``, each attempt draws them for every row still
    without a pair, and ``rejections`` counts per row. A row that fails
    ``_MAX_REJECTIONS`` attempts raises ``RuntimeError``.
    """
    if dim != scheme.dim:
        raise ValueError(f"dim {dim} does not match scheme dimension {scheme.dim}")
    radius = 0.2 / dim if radius is None else radius
    if not 0.0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius!r}")

    def attempt(rows: int):
        psi = random_amplitudes(dim, rng, size=rows)
        mag = radius * np.sqrt(rng.random((rows, dim)))
        ang = 2.0 * math.pi * rng.random((rows, dim))
        phi = psi + mag * np.exp(1j * ang)
        phi /= np.hypot.reduce(np.abs(phi), axis=-1, keepdims=True)
        return psi, phi, _margins(psi, phi, scheme)[0].min(axis=(-2, -1)) > 0.0

    psi, phi, ok = attempt(1 if size is None else size)
    rejections = np.zeros(len(ok), dtype=int)
    todo = (~ok).nonzero()[0]
    while todo.size:
        # every row still to do has failed the same number of attempts
        if rejections[todo[0]] == _MAX_REJECTIONS:
            raise RuntimeError(f"no in-region pair after {_MAX_REJECTIONS} rejections; reduce the radius")
        rejections[todo] += 1
        psi[todo], phi[todo], ok = attempt(todo.size)
        todo = todo[~ok]
    if size is None:
        return InRegionPair(psi=psi[0], phi=phi[0], rejections=int(rejections[0]))
    return InRegionPair(psi=psi, phi=phi, rejections=rejections)
