"""Icosahedral patching: extend the cone model to the whole sphere.

Twelve icosahedron vertices tile the sphere into Voronoi patches whose
covering radius arcsin(L / sqrt(3)) is strictly smaller than the cone
half-angle THETA0, so every preparation can be rotated into the cone of
its nearest vertex. The communicated ontic record is then one real
number plus a branch bit plus the patch index: 10 bytes on the wire.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .cone import (
    QubitOnticState,
    conditional_probability,
    exact_event_probability,
    sample_hits,
    sample_ontic,
)
from .geometry import as_bloch

__all__ = [
    "EDGE_LENGTH",
    "COVERING_RADIUS",
    "IcosaFrame",
    "build_frame",
    "PatchedOnticState",
    "assign_patch",
    "prepare",
    "measure_probability",
    "extended_exact_probability",
    "sample_hits_patched",
    "simulate_outcome",
    "MESSAGE_STRUCT",
    "MESSAGE_SIZE",
    "MESSAGE_DTYPE",
    "serialize_message",
    "deserialize_message",
]

# Chord length between adjacent unit-icosahedron vertices.
EDGE_LENGTH = 4.0 / math.sqrt(10.0 + 2.0 * math.sqrt(5.0))

# Angular radius of the circumscribed cap of a face: the farthest any
# point on the sphere can be from its nearest vertex.
COVERING_RADIUS = math.asin(EDGE_LENGTH / math.sqrt(3.0))


@dataclass(frozen=True, eq=False)
class IcosaFrame:
    """Vertex directions and the rotations aligning each with +z.

    ``vertices`` has shape (12, 3); ``rotations[k]`` maps vertex k to
    the north pole through the minimal-angle rotation. Both arrays are
    write-protected.
    """

    vertices: np.ndarray
    rotations: np.ndarray

    def __post_init__(self) -> None:
        if self.vertices.shape != (12, 3) or self.rotations.shape != (12, 3, 3):
            raise ValueError("frame arrays must have shapes (12, 3) and (12, 3, 3)")
        self.vertices.setflags(write=False)
        self.rotations.setflags(write=False)


def _rotation_to_pole(n: np.ndarray) -> np.ndarray:
    """Minimal rotation carrying unit vector n to +z (Rodrigues form)."""
    c = float(n[2])
    if c > 1.0 - 1e-12:
        return np.eye(3)
    if c < -1.0 + 1e-12:
        # Antipodal: rotate by pi about the x-axis.
        return np.diag([1.0, -1.0, -1.0])
    axis = np.array([n[1], -n[0], 0.0])
    axis /= np.linalg.norm(axis)
    angle = math.acos(c)
    k = np.array(
        [
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ]
    )
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def build_frame() -> IcosaFrame:
    """Icosahedron in polar orientation: vertex 1 at +z, vertex 12 at -z.

    Vertices 2..6 ring the north pole at zenith arccos(1/sqrt(5)) with
    azimuths 2*pi*j/5; vertices 7..11 mirror them in the south with a
    pi/5 azimuth offset.
    """
    zen = math.acos(1.0 / math.sqrt(5.0))
    sin_zen = math.sin(zen)
    cos_zen = math.cos(zen)
    rows = [np.array([0.0, 0.0, 1.0])]
    for j in range(5):
        a = 2.0 * math.pi * j / 5.0
        rows.append(np.array([sin_zen * math.cos(a), sin_zen * math.sin(a), cos_zen]))
    for j in range(5):
        a = 2.0 * math.pi * j / 5.0 + math.pi / 5.0
        rows.append(np.array([sin_zen * math.cos(a), sin_zen * math.sin(a), -cos_zen]))
    rows.append(np.array([0.0, 0.0, -1.0]))
    vertices = np.vstack(rows)
    rotations = np.stack([_rotation_to_pole(v) for v in vertices])
    return IcosaFrame(vertices=vertices, rotations=rotations)


@dataclass(frozen=True)
class PatchedOnticState:
    """Cone-model ontic state tagged with its 1-based patch index."""

    x: float
    n: int
    k: int

    def __post_init__(self) -> None:
        QubitOnticState(self.x, self.n)  # reuse the coordinate checks
        if not 1 <= self.k <= 12:
            raise ValueError(f"patch index must lie in 1..12, got {self.k}")


def assign_patch(frame: IcosaFrame, v) -> int:
    """1-based index of the vertex nearest to v (ties go to the lowest)."""
    arr = as_bloch(v)
    return int(np.argmax(frame.vertices @ arr)) + 1


def _rotate_into_patch(frame: IcosaFrame, k: int, u) -> np.ndarray:
    """Unit vector u expressed in the frame where vertex k is the pole."""
    rotated = frame.rotations[k - 1] @ as_bloch(u)
    rotated /= np.linalg.norm(rotated)
    return rotated


def prepare(frame: IcosaFrame, v, rng: np.random.Generator) -> PatchedOnticState:
    """Rotate v into its patch frame and sample the cone-model ontic state."""
    k = assign_patch(frame, v)
    s = sample_ontic(_rotate_into_patch(frame, k, v), rng)
    return PatchedOnticState(x=s.x, n=s.n, k=k)


def measure_probability(frame: IcosaFrame, w, state: PatchedOnticState) -> float:
    """Outcome probability for event w given a patched ontic state.

    The event is rotated into the same patch frame the preparation was
    sampled in; the cone-model response function does the rest.
    """
    rotated = _rotate_into_patch(frame, state.k, w)
    return conditional_probability(rotated, QubitOnticState(state.x, state.n))


def extended_exact_probability(frame: IcosaFrame, v, w) -> float:
    """Exact model probability of w for any preparation on the sphere."""
    k = assign_patch(frame, v)
    return exact_event_probability(_rotate_into_patch(frame, k, v), _rotate_into_patch(frame, k, w))


def sample_hits_patched(frame: IcosaFrame, v, w, samples: int, rng: np.random.Generator) -> int:
    """Count the outcomes w among ``samples`` rounds from any preparation v.

    Rotates v and w into the patch of v and draws the count there with
    ``cone.sample_hits``: exactly three binomial variates, as for
    ``prepare`` followed by ``simulate_outcome`` round by round.
    """
    k = assign_patch(frame, v)
    return sample_hits(_rotate_into_patch(frame, k, v), _rotate_into_patch(frame, k, w), samples, rng)


def simulate_outcome(
    frame: IcosaFrame, w, state: PatchedOnticState, rng: np.random.Generator
) -> int:
    """Draw the binary outcome: 1 with the conditional probability, else 0."""
    return int(rng.random() < measure_probability(frame, w, state))


# Wire format: little-endian float64 coordinate, branch byte, patch byte.
MESSAGE_STRUCT = struct.Struct("<dBB")
MESSAGE_SIZE = MESSAGE_STRUCT.size
MESSAGE_DTYPE = np.dtype([("x", "<f8"), ("n", "u1"), ("k", "u1")])


def serialize_message(state: PatchedOnticState) -> bytes:
    """Pack the patched ontic state into its 10-byte wire form."""
    return MESSAGE_STRUCT.pack(state.x, state.n, state.k)


def deserialize_message(data: bytes) -> PatchedOnticState:
    """Unpack a 10-byte wire message; validates coordinate and indices."""
    if len(data) != MESSAGE_SIZE:
        raise ValueError(f"message must be {MESSAGE_SIZE} bytes, got {len(data)}")
    x, n, k = MESSAGE_STRUCT.unpack(data)
    return PatchedOnticState(x=x, n=n, k=k)
