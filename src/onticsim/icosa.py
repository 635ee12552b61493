"""Icosahedral patching: extend the cone model to the whole sphere.

Twelve icosahedron vertices tile the sphere into Voronoi patches whose
covering radius arcsin(L / sqrt(3)) is strictly smaller than the cone
half-angle THETA0, so every preparation can be rotated into the cone of
its nearest vertex. The communicated ontic record is then one real
number plus a branch bit plus the patch index: 10 bytes on the wire.
``assign_patch`` and ``covering_check`` read one kernel, ``_vertex_dots``:
the nearest vertex is its argmax, and the angle to it the arccos of its max.
"""

from __future__ import annotations

import functools
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
from .geometry import _bloch_rows, _norms, _row_sums, _scalar, _unit_rows

__all__ = [
    "EDGE_LENGTH",
    "COVERING_RADIUS",
    "IcosaFrame",
    "build_frame",
    "PatchedOnticState",
    "assign_patch",
    "covering_check",
    "into_patch",
    "prepare",
    "prepare_messages",
    "measure_probability",
    "measure_messages",
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
    axis /= _norms(axis)
    angle = math.acos(c)
    k = np.array(
        [
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ]
    )
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


@functools.lru_cache(maxsize=1)  # the frame is frozen and its arrays write-protected
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


def _vertex_dots(frame: IcosaFrame, rows: np.ndarray) -> np.ndarray:
    """Dot products of v, or of each row of a stack, with the 12 vertices, shape (..., 12): one
    matrix-vector product per row, so a row has the same bits in any stack, as (m, 3) @ (3, 12) has not."""
    return np.matmul(frame.vertices, rows[..., None])[..., 0]


def assign_patch(frame: IcosaFrame, v):
    """1-based index of the vertex nearest to v (ties go to the lowest); one per row of a stack."""
    return _scalar(_vertex_dots(frame, _bloch_rows(v)).argmax(axis=-1) + 1)


def _nearest_vertex_bound(height: float) -> float:
    """The least largest dot product with a vertex of ``build_frame`` of a unit vector at |z| = height.

    The nearer pole gives |z|. Each ring has a vertex every 72 degrees of azimuth at zenith
    arccos(1/sqrt(5)) from its pole, and the rings are 36 degrees apart; so a direction's
    nearest vertex of the ring on its side is some delta <= 36 degrees away in azimuth,
    giving s sin(zenith) cos(delta) + |z| cos(zenith), and the other ring's 36 - delta away,
    giving s sin(zenith) cos(36 - delta) - |z| cos(zenith), with s = sqrt(1 - z^2). The first
    falls and the second rises with delta, so the larger of the two is least where they meet,
    at sin(delta - 18) = |z| cos(zenith) / (s sin(zenith) sin 18), or at delta = 36 when they
    do not. Equal to the least over azimuth, as the 20 face centres at |z| 0.1876 and 0.7947
    attain it: cos(COVERING_RADIUS).
    """
    ring, tilt = math.sqrt(1.0 - height * height) * 2.0 / math.sqrt(5.0), height / math.sqrt(5.0)
    sin18 = math.sin(math.pi / 10)
    delta = math.pi / 10 + math.asin(tilt / (ring * sin18)) if tilt <= ring * sin18 * sin18 else math.pi / 5
    return max(height, ring * math.cos(delta) + tilt)


# Direction rows per block of the covering reduction. Part of the report format (since format
# 8): block b draws its rows from case_rng(seed, b), about 19 us per generator. At 1e5
# directions 16384 ran fastest of 4096 to 65536; a run's traced peak is then 528 KB.
_COVERING_BLOCK_ROWS = 16384

# The bands of |z| around the face centres' heights 0.1876 and 0.7947, 7% of uniform heights,
# where a direction's nearest vertex can lie within about 0.8 degrees of COVERING_RADIUS.
# Between them and beyond, ``_nearest_vertex_bound`` has no local minimum, as its only ones
# are at the face centres, so no direction outside the bands has a largest dot product below
# its least value at their edges. 1e-9 widens that past the rounding of rows within 1e-12 of
# unit norm. 0.17% of uniform directions reach below it, so a block of uniform directions
# almost always has some, and a block without any evaluates all its rows.
_COVERING_BANDS = ((0.173, 0.216), (0.776, 0.804))
_COVERING_BEYOND = min(_nearest_vertex_bound(h) for band in _COVERING_BANDS for h in band) - 1e-9


def _in_bands(z: np.ndarray) -> np.ndarray:
    """Indices of the heights z with |z| in ``_COVERING_BANDS``."""
    height, ((a, b), (c, d)) = np.abs(z), _COVERING_BANDS
    return np.flatnonzero(((a <= height) & (height <= b)) | ((c <= height) & (height <= d)))


def _covering_blocks(n: int) -> list:
    """Consecutive slices of range(n) in blocks of ``_COVERING_BLOCK_ROWS`` rows, the last one shorter."""
    return [slice(i, min(i + _COVERING_BLOCK_ROWS, n)) for i in range(0, n, _COVERING_BLOCK_ROWS)]


def _farthest_from_vertices(frame: IcosaFrame, blocks) -> tuple:
    """The largest angle from a unit vector to its nearest frame vertex, its first index and row.

    ``blocks`` yields consecutive blocks of the vectors as (z, rows): the heights of a block's
    k vectors and a function giving those at an index array or slice as rows. For the frame of
    ``build_frame``, only the vectors with |z| in ``_COVERING_BANDS`` are evaluated, unless the
    least of their largest dot products is not below ``_COVERING_BEYOND``, which every other
    vector's exceeds; then, and for any other frame, the whole block is. Each row's largest
    ``_vertex_dots`` (taken along the long axis of a transposed copy, several times faster than
    along the short rows) goes by clip and arccos in place to the block's largest angle and its
    first index; a later block takes over only with a strictly larger angle. So no (n, 12)
    matrix is built, nor the n angles held, nor two blocks at once.
    """
    bands = np.array_equal(frame.vertices, build_frame().vertices)
    angle, index, row, start = -math.inf, 0, None, 0
    for z, rows in blocks:
        pick = _in_bands(z) if bands else slice(None)
        vectors = rows(pick)
        best = np.ascontiguousarray(_vertex_dots(frame, vectors).T).max(axis=0)
        if bands and not (len(best) and best.min() < _COVERING_BEYOND):
            pick, vectors = slice(None), rows(slice(None))
            best = np.ascontiguousarray(_vertex_dots(frame, vectors).T).max(axis=0)
        np.arccos(np.clip(best, -1.0, 1.0, out=best), out=best)
        i = int(np.argmax(best))
        if best[i] > angle:
            angle, row = float(best[i]), tuple(vectors[i].tolist())
            index = start + (i if isinstance(pick, slice) else int(pick[i]))
        start += len(z)
        del z, rows  # so the next block is drawn with this one freed
    return angle, index, row


def covering_check(frame: IcosaFrame, vectors) -> float:
    """Largest angle from any of the unit vectors to its nearest vertex."""
    vectors = _unit_rows(vectors, "vectors")
    if not len(vectors):
        raise ValueError("vectors must hold at least one direction")
    blocks = _covering_blocks(len(vectors))
    return _farthest_from_vertices(frame, ((vectors[block, 2], vectors[block].__getitem__) for block in blocks))[0]


def _rotate_into_patch(frame: IcosaFrame, k, u: np.ndarray) -> np.ndarray:
    """Validated unit vector(s) u in the frame where vertex k (one per row) is the pole, renormalised."""
    u = _row_sums((frame.rotations[k - 1] * u[..., None, :]).reshape(-1, 3)).reshape(u.shape)
    return u / _norms(u)[..., None]


def into_patch(frame: IcosaFrame, v, w) -> tuple:
    """The patch k of v, then v and w in the frame where vertex k is the pole; one per pair of a stack."""
    k = assign_patch(frame, v)  # which refuses what is not unit vectors; v and w rotate as one stack
    rotated = _rotate_into_patch(frame, k, np.array((v, _bloch_rows(w)), dtype=float))
    return k, rotated[0], rotated[1]


def prepare(frame: IcosaFrame, v, rng: np.random.Generator) -> PatchedOnticState:
    """One round of ``prepare_messages``, read back from its 10 wire bytes."""
    return deserialize_message(prepare_messages(frame, v, 1, rng).tobytes())


def measure_probability(frame: IcosaFrame, w, state: PatchedOnticState) -> float:
    """Outcome probability for event w given a patched ontic state.

    The event is rotated into the same patch frame the preparation was
    sampled in; the cone-model response function does the rest.
    """
    rotated = _rotate_into_patch(frame, state.k, _bloch_rows(w))
    return conditional_probability(rotated, QubitOnticState(state.x, state.n))


def extended_exact_probability(frame: IcosaFrame, v, w):
    """Exact model probability of w for any preparation on the sphere; one per pair of a stack."""
    return exact_event_probability(*into_patch(frame, v, w)[1:])


def sample_hits_patched(frame: IcosaFrame, v, w, samples: int, rng: np.random.Generator):
    """Count the outcomes w among ``samples`` rounds from any preparation v; one per pair of a stack.

    ``cone.sample_hits`` in the patch frame of v: three binomial variates per
    pair, as for ``prepare`` followed by ``simulate_outcome`` round by round.
    """
    return sample_hits(*into_patch(frame, v, w)[1:], samples, rng)


def simulate_outcome(
    frame: IcosaFrame, w, state: PatchedOnticState, rng: np.random.Generator, size: int | None = None
):
    """Draw the binary outcome: 1 with the conditional probability, else 0; ``size`` ints if given."""
    return _scalar(np.asarray(rng.random(size) < measure_probability(frame, w, state), dtype=int))


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


def prepare_messages(frame: IcosaFrame, v, rounds: int, rng: np.random.Generator) -> np.ndarray:
    """Wire messages (a ``MESSAGE_DTYPE`` array) of ``rounds`` independent draws from v.

    The rounds are one ``cone.sample_ontic`` stack in v's patch frame, so
    n one-round calls equal one n-round call.
    """
    k = assign_patch(frame, v)
    x, n = sample_ontic(_rotate_into_patch(frame, k, np.asarray(v, dtype=float)), rng, rounds)
    messages = np.empty(rounds, dtype=MESSAGE_DTYPE)  # after the draw: its transients are freed
    messages["x"], messages["n"], messages["k"] = x, n, k
    return messages


def measure_messages(frame: IcosaFrame, w, data: bytes) -> np.ndarray:
    """Outcome probability of event w for each 10-byte message in data, any bytes-like buffer.

    Each distinct message, found by its integer keys (the bits of x, then the branch and patch
    bytes) with no sort, is decoded by ``deserialize_message`` and priced by one ``measure_probability``
    call: a ``prepare_messages`` batch holds at most two; d distinct messages take d passes.
    """
    keys = np.frombuffer(data, dtype=[("x", "<u8"), ("nk", "<u2")])
    prices = np.full(len(keys), np.nan)  # NaN until priced: a price is never NaN, as ``_response`` refuses it
    while (todo := np.isnan(prices)).any():
        first = keys[todo.argmax()]  # the first message not yet priced, then every copy of it
        prices[keys == first] = measure_probability(frame, w, deserialize_message(first.tobytes()))
    return prices
