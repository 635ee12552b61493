"""Bloch-sphere and amplitude-vector primitives.

Unit 3-vectors double as qubit pure states and projective measurement
events; N-level pure states are unit-norm complex amplitude vectors.
These functions are the quantum-mechanical reference layer: the Born
probabilities computed here serve as the independent oracle that the
hidden-variable models elsewhere in the package are checked against.

All randomness flows through an explicit ``numpy.random.Generator`` so
seeded runs reproduce bit for bit.

Every norm and row product is one column sum, ``_row_sums``, so a row has
the same bits alone or in any stack. ``as_bloch`` and ``random_bloch``
without ``size`` keep ``math`` paths for one vector: numpy's per-call cost
would take criterion 01's single-pair loop past its 1 s bound (see ``cone``).
"""

from __future__ import annotations

import math
import numbers
from typing import NamedTuple

import numpy as np

__all__ = [
    "SphericalAngles",
    "as_bloch",
    "as_amplitudes",
    "to_spherical",
    "from_spherical",
    "born_probability_qubit",
    "born_probability_ndim",
    "random_bloch",
    "random_amplitudes",
    "fibonacci_sphere",
]

UNIT_NORM_ATOL = 1e-12

# Below this value of sin(theta) the azimuth is ill-defined; phi is pinned
# to 0 so conversions stay total.
POLE_SIN_EPS = 1e-14

TWO_PI = 2.0 * math.pi


class SphericalAngles(NamedTuple):
    """Zenith/azimuth pair: theta in [0, pi], phi in [0, 2*pi)."""

    theta: float
    phi: float


def as_bloch(v) -> np.ndarray:
    """Validate and return a unit 3-vector as a float64 array."""
    arr = np.asarray(v, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"Bloch vector must have shape (3,), got {arr.shape}")
    # math.hypot on three floats costs a fraction of ``_norms`` on this
    # per-call path; "not <=" also rejects NaN components.
    norm = math.hypot(*arr.tolist())
    if not abs(norm - 1.0) <= UNIT_NORM_ATOL:
        raise ValueError(f"Bloch vector must be unit norm, got |v| = {norm!r}")
    return arr


def _scalar(a):
    """A 0-d result as a Python scalar; results over a stack stay arrays."""
    return a.item() if a.ndim == 0 else a


def _require_count(samples) -> None:
    """Refuse, before any draw, a round count that is a bool, not an integer or not in int64."""
    integral = isinstance(samples, numbers.Integral) and not isinstance(samples, bool)
    if not (integral and 0 <= samples < 2**63):
        raise ValueError(f"samples must be an integer in [0, 2**63), got {samples!r}")


def _row_sums(x):
    """Sums over the last axis, columns added left to right: a row has the same bits alone or in any
    stack. One row, a list or a 1-D array, adds as Python numbers, cheaper than numpy's."""
    stack = getattr(x, "ndim", 1) > 1
    columns = x.T if stack else x.tolist() if isinstance(x, np.ndarray) else x
    total = columns[0] + columns[1]
    for j in range(2, len(columns)):
        total += columns[j]
    return total.T if stack else total


def _norms(x: np.ndarray):
    """Euclidean norms of the rows of a real or complex array: roots of the row sums of squared parts."""
    if x.ndim == 1:  # Python floats: cheaper for one row, and a huge square reads inf with no warning
        return np.sqrt(_row_sums([a.real * a.real + a.imag * a.imag for a in x.tolist()]))
    return np.sqrt(_row_sums(x.real * x.real + x.imag * x.imag if x.dtype.kind == "c" else x * x))


@np.errstate(over="ignore")  # a huge component's square reads inf, and so does its row's norm
def _require_unit_norms(x: np.ndarray, what: str) -> np.ndarray:
    error = abs(_norms(x) - 1.0)
    worst = error.max(initial=0.0) if error.ndim else error
    if not worst <= UNIT_NORM_ATOL:  # "not <=" also rejects NaN
        raise ValueError(f"{what} must be unit norm, off by {float(worst)!r}")
    return x


def as_amplitudes(psi) -> np.ndarray:
    """Validate and return unit-norm complex amplitude vectors, shape (..., N >= 2)."""
    arr = np.asarray(psi, dtype=complex)
    if arr.ndim < 1 or arr.shape[-1] < 2:
        raise ValueError("amplitude vectors must have N >= 2 components on the last axis")
    return _require_unit_norms(arr, "amplitude vectors")


def _unit_rows(vectors, what: str) -> np.ndarray:
    """Validate and return unit 3-vectors as an (m, 3) float64 array, row by row."""
    arr = np.asarray(vectors, dtype=float)
    if not 1 <= arr.ndim <= 2 or arr.shape[-1] != 3:
        raise ValueError(f"{what} must be an (m, 3) array of unit vectors, got shape {arr.shape}")
    return np.atleast_2d(_require_unit_norms(arr, what))


def _bloch_rows(u) -> np.ndarray:
    """One validated unit vector, shape (3,), or an (m, 3) stack validated row by row."""
    arr = np.asarray(u, dtype=float)
    return as_bloch(arr) if arr.ndim == 1 else _unit_rows(arr, "Bloch vectors")


def _sphere_rows(z: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """The unit vectors at heights z and azimuths phi, as an (m, 3) stack."""
    s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack((s * np.cos(phi), s * np.sin(phi), z))


def to_spherical(v) -> SphericalAngles:
    """Zenith and azimuth of a unit vector.

    At the poles (sin(theta) below ``POLE_SIN_EPS``) the azimuth is set
    to 0 by convention.
    """
    arr = as_bloch(v)
    # atan2(hypot, vz) keeps full precision near the poles, where
    # acos(vz) would lose the zenith to rounding of vz toward +-1.
    rho = math.hypot(float(arr[0]), float(arr[1]))
    theta = math.atan2(rho, float(arr[2]))
    if rho < POLE_SIN_EPS:
        return SphericalAngles(theta, 0.0)
    phi = math.atan2(float(arr[1]), float(arr[0]))
    if phi < 0.0:
        phi += TWO_PI
    if phi >= TWO_PI:  # tiny negative azimuths round up to 2*pi
        phi = 0.0
    return SphericalAngles(theta, phi)


def from_spherical(angles: SphericalAngles) -> np.ndarray:
    """Unit vector with the given zenith and azimuth."""
    theta, phi = angles
    sin_theta = math.sin(theta)
    return np.array(
        [sin_theta * math.cos(phi), sin_theta * math.sin(phi), math.cos(theta)]
    )


def born_probability_qubit(v, w):
    """Quantum probability (1 + v.w) / 2 of the event w given the state v, per pair of a stack."""
    p = 0.5 * (1.0 + _row_sums(_bloch_rows(v) * _bloch_rows(w)))
    return min(1.0, max(0.0, p)) if isinstance(p, float) else np.clip(p, 0.0, 1.0)


def born_probability_ndim(psi, phi):
    """Quantum probability |<phi|psi>|^2 of N-level states, per pair of a stack.

    Clipped into [0, 1], as ``born_probability_qubit`` is: rounding reads about a quarter of
    identical pairs up to a few ulp above 1.
    """
    psi_arr = as_amplitudes(psi)
    phi_arr = as_amplitudes(phi)
    if psi_arr.shape[-1] != phi_arr.shape[-1]:
        raise ValueError(
            f"dimension mismatch: {psi_arr.shape[-1]} vs {phi_arr.shape[-1]}"
        )
    overlap = _row_sums(np.conj(phi_arr) * psi_arr)
    p = overlap.real**2 + overlap.imag**2
    return np.clip(p, 0.0, 1.0) if isinstance(p, np.ndarray) else min(1.0, max(0.0, p))


def random_bloch(rng: np.random.Generator, *, z_min: float = -1.0, size: int | None = None):
    """Haar-uniform unit vector on the cap v_z >= z_min, the whole sphere by default.

    Uniform v_z on [z_min, 1) and a uniform azimuth are uniform on the cap
    (Archimedes' hat-box theorem). Consumes two uniform draws, v_z's first.
    With ``size``, draws ``rng.random((size, 2))`` and returns a (size, 3)
    stack whose rows match ``size`` single draws to rounding (numpy's sin
    and cos in place of ``math``'s).
    """
    if not -1.0 <= z_min < 1.0:
        raise ValueError(f"z_min must lie in [-1, 1), got {z_min!r}")
    u, t = rng.random(2).tolist() if size is None else rng.random((size, 2)).T
    vz = z_min + (1.0 - z_min) * u
    phi = TWO_PI * t
    if size is not None:
        return _sphere_rows(vz, phi)
    s = math.sqrt(1.0 - vz * vz)  # |vz| <= 1 after rounding, so never the root of a negative
    return np.array((s * math.cos(phi), s * math.sin(phi), vz))


def random_amplitudes(dim: int, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Haar-uniform N-level pure state, or ``size`` of them, via normalized complex Gaussians.

    Draws the real block then the imaginary block, which fixes the
    stream layout for reproducibility.
    """
    if dim < 2:
        raise ValueError(f"need at least two amplitudes, got dim = {dim}")
    shape = (dim,) if size is None else (size, dim)
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return z / _norms(z)[..., None]


def fibonacci_sphere(count: int) -> np.ndarray:
    """Deterministic, roughly equidistributed unit vectors (golden-angle spiral).

    Used as the seed-free event grid for positivity sweeps.
    """
    if count < 1:
        raise ValueError("need at least one point")
    i = np.arange(count, dtype=float)
    return _sphere_rows(1.0 - (2.0 * i + 1.0) / count, math.pi * (3.0 - math.sqrt(5.0)) * i)
