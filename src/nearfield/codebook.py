"""Spherical-domain transform codebooks and coherence diagnostics.

The spherical codebook samples (distance, elevation, azimuth) jointly so
that neighbouring steering vectors land near the first zero of J0, keeping
column correlations at or below a target threshold. Polar (single-elevation)
and angular (DFT) variants back the baseline estimators.
"""

import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .channel import ConfigurationError, SystemConfig, UcaGeometry
from .numerics import first_j0_zero, solve_beta_delta
from .phase_modes import Complex64Screen, DenseBasis, DftBasis, PhaseModes, ring_matrix

#: Distance value marking the plane-wave (z = 0) ring of the distance grid.
FAR_FIELD = math.inf

_BINARY_MAGIC = b"SPHW"
_BINARY_VERSION = 1

#: Bytes of matrix columns per read or write of the binary export.
_IO_CHUNK_BYTES = 1 << 20

#: Codebooks of arrays this large hold a matrix-free basis, not a dense
#: matrix: phase modes for the spherical and polar books, `DftBasis` for the
#: angular one. Median time of one correlation with 16 (and 1) vectors,
#: dense against phase modes, on a 2-core VM with OpenBLAS: N = 128,
#: 0.8 ms against 2.8 ms (0.2 against 1.1); N = 256, 9.3 against 17 ms
#: (1.8 against 3.0); N = 512, 110 against 88 ms (43 against 8.1), where the
#: dense spherical matrix also takes 822 MB.
_PHASE_MODE_MIN_ANTENNAS = 512

#: Ring-built codebooks of smaller arrays with this many columns or more hold
#: a `Complex64Screen` rather than the dense float64 matrix: half the bytes,
#: and S-SOMP screens in complex64 and rescores the few columns near the best
#: exactly. Below it the dense Gram path of S-SOMP is faster, since the
#: screen pays a fixed cost at every step for the exact columns it fills.
#: Median time of one S-SOMP call (N = 128, M = 16, 3 iterations, 10 dB),
#: dense against screened, on the desk spherical book cut to its widest
#: elevations, on a 2-vCPU VM with OpenBLAS: G = 492, 0.89 against 2.00 ms;
#: G = 1 836, 1.93 against 2.50; G = 2 592, 2.46 against 2.69; G = 3 123,
#: 2.84 against 2.88; the whole book, G = 3 789, 3.50 against 3.21.
_SCREEN_MIN_COLUMNS = 3072

#: Azimuths per slice of the coherence walk: an elevation's columns are
#: taken this many azimuths at a time, so the walk holds three (N, S, Z)
#: blocks of at most this S + 1 whatever the elevation's azimuth count
#: (84 MB each at N = 2048, where an elevation holds up to 10 rings).
_COHERENCE_AZIMUTHS = 256

#: Grid points per chunk of the grid text export.
_GRID_CHUNK = 4096


@dataclass(frozen=True, eq=False)
class CodebookGrid:
    """Per-column grid metadata as two read-only (G, 3) arrays.

    `indices` holds the (t, s, z) grid indices (int64) and `coords` the
    (r, theta, phi) sample (float64) of every column, in column order;
    r = FAR_FIELD marks the plane-wave ring.
    """

    indices: np.ndarray = field(repr=False)
    coords: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.indices.shape != self.coords.shape or self.indices.shape[1:] != (3,):
            raise ValueError(
                f"indices {self.indices.shape} and coords {self.coords.shape} must both be (G, 3)"
            )
        self.indices.flags.writeable = False
        self.coords.flags.writeable = False

    def __len__(self) -> int:
        return self.indices.shape[0]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CodebookGrid)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.coords, other.coords)
        )


class _RingLayout:
    """Where every column of a codebook lies, held as arrays.

    Elevation t (angle `thetas[t]`) holds columns `column_starts[t]` up to
    `column_starts[t + 1]`, s-major and z-minor over its azimuths
    `azimuths[azimuth_starts[t]:azimuth_starts[t + 1]]` and its distance
    rings `rings[ring_starts[t]:ring_starts[t + 1]]`, the order
    `fill_rings` fills. Its size grows with the rings and azimuths, not
    with the column count G.
    """

    def __init__(self, elevations):
        """From (theta, azimuths, rings) per elevation, in column order."""
        thetas, azimuths, rings = zip(*elevations)
        azimuth_counts = np.array([len(phis) for phis in azimuths])
        ring_counts = np.array([len(distances) for distances in rings])
        self.thetas = np.array(thetas, dtype=np.float64)
        self.column_starts = np.concatenate([[0], np.cumsum(azimuth_counts * ring_counts)])
        self.azimuth_starts = np.concatenate([[0], np.cumsum(azimuth_counts)])
        self.ring_starts = np.concatenate([[0], np.cumsum(ring_counts)])
        self.azimuths = np.concatenate(azimuths, dtype=np.float64)
        self.rings = np.concatenate(rings, dtype=np.float64)

    @property
    def num_columns(self) -> int:
        return int(self.column_starts[-1])

    def elevations(self):
        """(theta, azimuths, rings, first column) per elevation, as
        `fill_rings` and `PhaseModes` take them."""
        for t, theta in enumerate(self.thetas.tolist()):
            rings = self.rings[self.ring_starts[t] : self.ring_starts[t + 1]]
            azimuths = self.azimuths[self.azimuth_starts[t] : self.azimuth_starts[t + 1]]
            yield theta, azimuths, rings.tolist(), int(self.column_starts[t])

    def locate(self, idx):
        """The grid (t, s, z) and (r, theta, phi) of columns idx: six arrays."""
        t = np.searchsorted(self.column_starts, idx, side="right") - 1
        first_ring = self.ring_starts[t]
        s, z = np.divmod(idx - self.column_starts[t], self.ring_starts[t + 1] - first_ring)
        return t, s, z, self.rings[first_ring + z], self.thetas[t], self.azimuths[self.azimuth_starts[t] + s]

    def grid(self) -> CodebookGrid:
        t, s, z, r, theta, phi = self.locate(np.arange(self.num_columns))
        return CodebookGrid(np.column_stack([t, s, z]), np.column_stack([r, theta, phi]))


class SphericalCodebook:
    """Transform W (N x G): the ring layout of its columns plus one basis.

    `layout` (a `_RingLayout`) says where every column lies and `basis`
    holds W: a `DenseBasis`, `Complex64Screen`, `PhaseModes` or `DftBasis`,
    which the builds choose from N and G. `correlate` and `columns` are the
    basis', exact to float64 rounding but for phase modes, which correlate
    to ~1e-12.
    """

    def __init__(self, layout: _RingLayout, basis):
        if basis.num_columns != layout.num_columns:
            raise ValueError(f"{basis.num_columns} columns but {layout.num_columns} grid points")
        self.layout = layout
        self.basis = basis

    @property
    def matrix(self) -> np.ndarray:
        """`basis.dense()`, filled on each read unless the basis is dense. Only
        the benchmark's traced runs read it; ROADMAP item 1 retires them."""
        return self.basis.dense()

    @property
    def grid(self) -> CodebookGrid:
        """`layout.grid()`, built on each read; read only where `matrix` is."""
        return self.layout.grid()

    @property
    def num_antennas(self) -> int:
        return self.basis.num_antennas

    @property
    def num_columns(self) -> int:
        return self.layout.num_columns

    def correlate(self, v) -> np.ndarray:
        """V^H W for V of shape (N,) or (N, k): (G,) or (k, G)."""
        return self.basis.correlate(v)

    def columns(self, idx) -> np.ndarray:
        """W[:, idx] as an (N, len(idx)) array, bit for bit as the dense matrix."""
        return self.basis.columns(idx)


def elevation_grid(radius_m: float, wavelength_m: float, alpha: float) -> list:
    """theta_t = asin(t lambda alpha / (2 pi R)) for t = 0..floor(2 pi R/(lambda alpha))."""
    if radius_m <= 0.0 or wavelength_m <= 0.0:
        raise ValueError("radius and wavelength must be positive")
    ratio = wavelength_m * alpha / (2.0 * math.pi * radius_m)
    count = math.floor(1.0 / ratio)
    return [math.asin(min(1.0, t * ratio)) for t in range(count + 1)]


def azimuth_grid(radius_m: float, wavelength_m: float, alpha: float, theta: float) -> np.ndarray:
    """phi_s = s * 2 asin(lambda alpha / (4 pi R sin theta)) for s = 0..S, float64.

    S = floor(pi / asin(.)), so the last sample lands just short of 2 pi.
    When the asin argument exceeds 1 (tiny array or grazing elevation) the
    grid degenerates to the single point phi = 0.
    """
    if theta <= 0.0:
        raise ValueError("azimuth sampling needs theta > 0")
    arg = wavelength_m * alpha / (4.0 * math.pi * radius_m * math.sin(theta))
    if arg > 1.0:
        return np.zeros(1)
    half_step = math.asin(arg)
    count = math.floor(math.pi / half_step)
    return np.arange(count + 1) * 2.0 * half_step


def distance_grid(theta: float, z_cap_m: float, r_min_m: float) -> list:
    """Far-field ring followed by r_z = Z sin^2(theta) / z down to r_min.

    The returned list is indexed by z: element 0 is the FAR_FIELD sentinel,
    finite rings follow for z = 1, 2, ... while r_z >= r_min.
    """
    if z_cap_m <= 0.0 or r_min_m <= 0.0:
        raise ValueError("z_cap and r_min must be positive")
    scaled = z_cap_m * math.sin(theta) ** 2
    rings = [FAR_FIELD]
    z = 1
    while scaled / z >= r_min_m:
        rings.append(scaled / z)
        z += 1
    return rings


def min_codebook_distance(config: SystemConfig) -> float:
    """Smallest admissible r_min for the geometry: 0.5 sqrt(D^3 / lambda)."""
    return 0.5 * math.sqrt(config.aperture_m**3 / config.wavelength_m)


def _build_from_elevations(config, delta, r_min_m, thetas):
    if not 0.0 < delta < 1.0:
        raise ConfigurationError(f"delta must lie in (0, 1), got {delta}")
    floor_m = min_codebook_distance(config)
    if r_min_m <= floor_m:
        raise ConfigurationError(
            f"r_min={r_min_m} m is inside the reactive region; it must exceed "
            f"0.5*sqrt(D^3/lambda) = {floor_m:.6g} m for this geometry"
        )
    geom = UcaGeometry.from_config(config)
    lam = config.wavelength_m
    alpha = first_j0_zero()
    beta = solve_beta_delta(delta)
    z_cap = math.pi * geom.radius_m**2 / (2.0 * lam * beta)

    elevations = []  # (theta, azimuths, rings) per elevation
    for theta in thetas:
        if theta == 0.0:
            # Near-field effects vanish at grazing elevation; the t = 0 point
            # collapses to the single constant plane-wave column.
            elevations.append((theta, [0.0], [FAR_FIELD]))
        else:
            elevations.append((theta, azimuth_grid(geom.radius_m, lam, alpha, theta), distance_grid(theta, z_cap, r_min_m)))
    layout = _RingLayout(elevations)

    if config.num_antennas >= _PHASE_MODE_MIN_ANTENNAS:
        return SphericalCodebook(layout, PhaseModes(layout, geom, lam))
    if layout.num_columns >= _SCREEN_MIN_COLUMNS:
        return SphericalCodebook(layout, Complex64Screen(layout, geom, lam))
    return SphericalCodebook(layout, DenseBasis(ring_matrix(layout, geom, lam)))


def build_spherical_codebook(config: SystemConfig, delta: float, r_min_m: float) -> SphericalCodebook:
    """Joint (elevation x azimuth x distance) codebook.

    Enumerates the elevation grid, and per elevation the azimuth and distance
    grids, appending one steering vector per sampled point (plane-wave column
    for the far-field ring). Deterministic: identical inputs give bit-identical
    matrices.
    """
    thetas = elevation_grid(config.radius_m, config.wavelength_m, first_j0_zero())
    return _build_from_elevations(config, delta, r_min_m, thetas)


def build_polar_codebook(config: SystemConfig, delta: float, r_min_m: float) -> SphericalCodebook:
    """Coplanar baseline: the spherical pipeline restricted to theta = pi/2."""
    return _build_from_elevations(config, delta, r_min_m, [0.5 * math.pi])


def build_angular_codebook(config: SystemConfig) -> SphericalCodebook:
    """Unitary DFT-over-antenna-index codebook (far-field, azimuth-only).

    Arrays of `_PHASE_MODE_MIN_ANTENNAS` or more antennas hold it as a
    `DftBasis`; smaller ones hold the matrix that basis fills.
    """
    n = config.num_antennas
    layout = _RingLayout([(0.5 * math.pi, 2.0 * math.pi * np.arange(n) / n, [FAR_FIELD])])
    basis = DftBasis(n)
    return SphericalCodebook(layout, basis if n >= _PHASE_MODE_MIN_ANTENNAS else DenseBasis(basis.dense()))


def column_correlation(b1: np.ndarray, b2: np.ndarray) -> float:
    """|b1^H b2| for two unit-norm columns."""
    b1 = np.asarray(b1)
    b2 = np.asarray(b2)
    if b1.shape != b2.shape:
        raise ValueError(f"length mismatch: {b1.shape} vs {b2.shape}")
    return float(abs(np.vdot(b1, b2)))


@dataclass(frozen=True)
class PairStats:
    """Summary of |correlation| over a set of column pairs."""

    count: int
    max: float
    mean: float
    median: float
    q90: float

    @classmethod
    def from_values(cls, values: np.ndarray) -> "PairStats":
        if values.size == 0:
            return cls(0, math.nan, math.nan, math.nan, math.nan)
        return cls(
            int(values.size),
            float(values.max()),
            float(values.mean()),
            float(np.quantile(values, 0.5)),
            float(np.quantile(values, 0.9)),
        )


@dataclass(frozen=True)
class CoherenceStats:
    adjacent_elevation: PairStats
    adjacent_azimuth: PairStats
    adjacent_distance: PairStats
    random_pairs: PairStats


def _correlations(left_conj, right) -> np.ndarray:
    """|b1^H b2| of the column pairs of two (N, ...) blocks, the left one
    conjugated already, flat in C order."""
    return np.abs(np.einsum("i...,i...->...", left_conj, right)).ravel()


def _adjacent_correlations(codebook: SphericalCodebook):
    """|correlation| of the column pairs adjacent in t, in s and in z: three
    arrays, each in ascending order of the pairs' first column.

    The layout is walked in azimuth slices of `_COHERENCE_AZIMUTHS`, each
    slice through every elevation in turn. One `columns` call gives an
    elevation's slice as an (N, S, Z) block, with one azimuth more than the
    slice, so that its s neighbours are in it: s and z neighbours are views
    offset by one, and t neighbours share (s, z) with the same slice of the
    previous elevation, the block before. Each pair's value is written at
    its place in the output, which the layout gives. So every column is
    filled once (the overlap azimuth twice), and the walk holds three
    blocks of one slice, whatever the size of an elevation, where whole
    elevations took 875 MB a block at N = 2048.
    """
    n = codebook.num_antennas
    layout = codebook.layout
    counts, rings = np.diff(layout.azimuth_starts), np.diff(layout.ring_starts)
    shared = np.minimum(counts, np.roll(counts, 1))  # azimuths with a t neighbour
    depth = np.minimum(rings, np.roll(rings, 1))  # rings with a t neighbour
    shared[0] = depth[0] = 0
    sizes = (shared * depth, (counts - 1) * rings, counts * (rings - 1))
    offsets = [np.concatenate([[0], np.cumsum(size)]).tolist() for size in sizes]
    pairs = [np.empty(offset[-1]) for offset in offsets]

    def put(axis, start, values):
        pairs[axis][start : start + values.size] = values

    for s0 in range(0, int(counts.max()), _COHERENCE_AZIMUTHS):
        below = None  # the previous elevation's block of this slice, conjugated
        for t, (count, z) in enumerate(zip(counts.tolist(), rings.tolist())):
            if count <= s0:
                below = None
                continue
            s1 = min(s0 + _COHERENCE_AZIMUTHS, count)
            first = int(layout.column_starts[t]) + s0 * z
            this = codebook.columns(np.arange(first, first + (min(s1 + 1, count) - s0) * z))
            this = this.reshape(n, -1, z)
            conj = this.conj()
            if s0 < shared[t]:
                width, common = min(s1, int(shared[t])) - s0, int(depth[t])
                put(0, offsets[0][t] + s0 * common, _correlations(below[:, :width, :common], this[:, :width, :common]))
            put(1, offsets[1][t] + s0 * z, _correlations(conj[:, :-1], this[:, 1:]))
            put(2, offsets[2][t] + s0 * (z - 1), _correlations(conj[:, : s1 - s0, :-1], this[:, : s1 - s0, 1:]))
            below = conj
    return pairs


def coherence_stats(codebook: SphericalCodebook, sample_budget: int, seed: int = 0) -> CoherenceStats:
    """Column-correlation diagnostics.

    Covers every pair of columns adjacent in one grid index (t, s, or z with
    the other two fixed) plus a seeded random sample of up to `sample_budget`
    arbitrary pairs. Columns come from `codebook.columns`, so a matrix-free
    basis fills no dense matrix and no grid is built.
    """
    if sample_budget < 1:
        raise ValueError("sample_budget must be >= 1")
    adjacent = [PairStats.from_values(values) for values in _adjacent_correlations(codebook)]

    g = codebook.num_columns
    if g < 2:
        random_stats = PairStats.from_values(np.empty(0))
    else:
        rng = np.random.default_rng(seed)
        left = rng.integers(0, g, size=sample_budget)
        right = rng.integers(0, g - 1, size=sample_budget)
        right = np.where(right >= left, right + 1, right)  # exclude i == j
        step = 4096  # pairs per `columns` call, so a large budget holds few columns
        values = [
            _correlations(codebook.columns(left[i : i + step]).conj(), codebook.columns(right[i : i + step]))
            for i in range(0, sample_budget, step)
        ]
        random_stats = PairStats.from_values(np.concatenate(values))
    return CoherenceStats(*adjacent, random_stats)


def export_grid_text(codebook: SphericalCodebook, path) -> None:
    """One grid point per line: t,s,z,r,theta,phi (r = inf marks far field).

    Written `_GRID_CHUNK` points at a time from `codebook.layout.locate`, so
    the grid is never held whole.
    """
    layout = codebook.layout
    g = layout.num_columns
    with open(path, "w", encoding="utf-8") as handle:
        for start in range(0, g, _GRID_CHUNK):
            columns = [part.tolist() for part in layout.locate(np.arange(start, min(start + _GRID_CHUNK, g)))]
            handle.writelines(f"{t},{s},{z},{r!r},{theta!r},{phi!r}\n" for t, s, z, r, theta, phi in zip(*columns))


def load_grid_text(path) -> CodebookGrid:
    """Parse a file written by `export_grid_text`."""
    with open(path, "r", encoding="utf-8") as handle:
        rows = [line.split(",") for line in handle if line.strip()]
    indices = np.array([row[:3] for row in rows], dtype=np.int64).reshape(len(rows), 3)
    coords = np.array([row[3:] for row in rows], dtype=np.float64).reshape(len(rows), 3)
    return CodebookGrid(indices, coords)


def export_matrix_binary(codebook: SphericalCodebook, path) -> None:
    """Raw dump: 16-byte header (magic 'SPHW', version, N, G as little-endian
    u32) followed by the matrix as column-major interleaved re/im float64.

    Written a chunk of `codebook.columns` at a time, so no matrix-sized copy
    is made, and a matrix-free basis never fills its dense matrix. A chunk
    and its transposed copy share the 1 MiB of `_IO_CHUNK_BYTES`.
    """
    n, g = codebook.num_antennas, codebook.num_columns
    step = max(1, _IO_CHUNK_BYTES // (32 * max(n, 1)))
    with open(path, "wb") as handle:
        handle.write(_BINARY_MAGIC + struct.pack("<III", _BINARY_VERSION, n, g))
        for start in range(0, g, step):
            block = codebook.columns(np.arange(start, min(start + step, g)))
            handle.write(np.ascontiguousarray(block.T, dtype="<c16"))


def load_matrix_binary(path) -> np.ndarray:
    """Read a matrix written by `export_matrix_binary`, a chunk of columns at
    a time straight into the (N, G) result."""
    with open(path, "rb") as handle:
        header = handle.read(16)
        if len(header) != 16 or header[:4] != _BINARY_MAGIC:
            raise ValueError(f"{path}: not a codebook matrix file")
        version, n, g = struct.unpack("<III", header[4:])
        if version != _BINARY_VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        payload = os.fstat(handle.fileno()).st_size - 16
        if payload != 16 * n * g:
            raise ValueError(f"{path}: expected {16 * n * g} payload bytes, got {payload}")
        matrix = np.empty((n, g), dtype=np.complex128)
        chunk = np.empty((max(1, _IO_CHUNK_BYTES // (16 * max(n, 1))), n), dtype="<c16")
        for start in range(0, g, chunk.shape[0]):
            block = chunk[: g - start]
            if handle.readinto(block) != block.nbytes:
                raise ValueError(f"{path}: file shrank while it was read")
            matrix[:, start : start + block.shape[0]] = block.T
    return matrix
