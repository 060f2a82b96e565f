"""Spherical-domain transform codebooks and coherence diagnostics.

The spherical codebook samples (distance, elevation, azimuth) jointly so
that neighbouring steering vectors land near the first zero of J0, keeping
column correlations at or below a target threshold. Polar (single-elevation)
and angular (DFT) variants back the baseline estimators.

Each build returns the `phase_modes.SphericalCodebook` subclass that holds
W, on its `_RingLayout`, in the form it chooses from N and G.
"""

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import phase_modes
from .channel import ConfigurationError, SystemConfig
from .numerics import first_j0_zero, solve_beta_delta
from .phase_modes import Complex64Screen, DenseBasis, DftBasis, PhaseModes, SphericalCodebook, column_blocks, ring_matrix

#: Distance value marking the plane-wave (z = 0) ring of the distance grid.
FAR_FIELD = math.inf

_BINARY_MAGIC = b"SPHW"
_BINARY_VERSION = 1

#: Codebooks of arrays this large are matrix-free, not a dense matrix:
#: `PhaseModes` for the spherical and polar books, `DftBasis` for the
#: angular one. Median time of one correlation with 16 (and 1) vectors,
#: dense against phase modes, on a 2-core VM with OpenBLAS: N = 128,
#: 0.8 ms against 2.8 ms (0.2 against 1.1); N = 256, 9.3 against 17 ms
#: (1.8 against 3.0); N = 512, 110 against 88 ms (43 against 8.1), where the
#: dense spherical matrix also takes 822 MB. Smaller angular books keep their
#: matrix: a `DftBasis` loads numpy's FFT kernels into desk runs, +0.3 to
#: +0.6 MB of peak RSS on the desk SNR sweep.
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

class _RingLayout:
    """Where every column of a codebook lies, held as arrays.

    Elevation t (angle `thetas[t]`) holds columns `column_starts[t]` up to
    `column_starts[t + 1]`, s-major and z-minor over its azimuths
    `azimuths[azimuth_starts[t]:azimuth_starts[t + 1]]` and its distance
    rings `rings[ring_starts[t]:ring_starts[t + 1]]`; `locate` gives any
    column's ring and azimuth, from which `phase_modes.ring_columns` fills
    it. Its size grows with the rings and azimuths, not with the column
    count G.
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
        `PhaseModes` takes them."""
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

    def __eq__(self, other) -> bool:
        fields = ("thetas", "column_starts", "azimuth_starts", "ring_starts", "azimuths", "rings")
        return isinstance(other, _RingLayout) and all(np.array_equal(getattr(self, f), getattr(other, f)) for f in fields)


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
    radius, lam = config.radius_m, config.wavelength_m
    alpha = first_j0_zero()
    beta = solve_beta_delta(delta)
    z_cap = math.pi * radius**2 / (2.0 * lam * beta)

    elevations = []  # (theta, azimuths, rings) per elevation
    for theta in thetas:
        if theta == 0.0:
            # Near-field effects vanish at grazing elevation; the t = 0 point
            # collapses to the single constant plane-wave column.
            elevations.append((theta, [0.0], [FAR_FIELD]))
        else:
            elevations.append((theta, azimuth_grid(radius, lam, alpha, theta), distance_grid(theta, z_cap, r_min_m)))
    layout = _RingLayout(elevations)

    if config.num_antennas >= _PHASE_MODE_MIN_ANTENNAS:
        return PhaseModes(layout, config)
    if layout.num_columns >= _SCREEN_MIN_COLUMNS:
        return Complex64Screen(layout, config)
    return DenseBasis(layout, ring_matrix(layout, config))


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

    Column k is the phase-mode vector e^{-2 pi j n k / N} / sqrt(N), not a
    steering vector. Its layout point (r = inf, theta = pi/2,
    phi = 2 pi k / N) only indexes the column and is no direction of it.

    Arrays of `_PHASE_MODE_MIN_ANTENNAS` or more antennas get a `DftBasis`;
    smaller ones a `DenseBasis` of the matrix it fills: the same
    S-SOMP outputs, without loading numpy's FFT kernels into desk runs.
    """
    n = config.num_antennas
    layout = _RingLayout([(0.5 * math.pi, 2.0 * math.pi * np.arange(n) / n, [FAR_FIELD])])
    dft = DftBasis(layout)
    return dft if n >= _PHASE_MODE_MIN_ANTENNAS else DenseBasis(layout, dft.dense())


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


def adjacent_pair_sizes(layout: _RingLayout):
    """Per elevation: its azimuth and ring counts, those it shares with the
    elevation before (none for the first), and its numbers of the column
    pairs adjacent in t, in s and in z that `coherence_stats` correlates."""
    counts, rings = np.diff(layout.azimuth_starts), np.diff(layout.ring_starts)
    shared = np.minimum(counts, np.roll(counts, 1))
    depth = np.minimum(rings, np.roll(rings, 1))
    shared[0] = depth[0] = 0
    return counts, rings, shared, depth, (shared * depth, (counts - 1) * rings, counts * (rings - 1))


def _adjacent_correlations(codebook: SphericalCodebook):
    """|correlation| of the column pairs adjacent in t, in s and in z: three
    arrays, each in ascending order of the pairs' first column.

    The layout is walked in azimuth slices of `phase_modes._FILL_COLUMNS`,
    the width of every walk over a book's columns, each slice through every
    elevation in turn. One `columns` call gives an elevation's slice as an
    (N, S, Z) block, with one azimuth more than the slice, so that its s
    neighbours are in it: s and z neighbours are views offset by one, and
    t neighbours share (s, z) with the same slice of the previous
    elevation, the block before. Each pair's value is written at its place
    in the output, which the layout gives. So every column is filled once
    (the overlap azimuth twice), and the walk holds three blocks of one
    slice, whatever the size of an elevation: 42 MB a block at N = 2048,
    where an elevation holds up to 10 rings, and whole elevations took
    875 MB.
    """
    azimuths = phase_modes._FILL_COLUMNS
    n = codebook.num_antennas
    layout = codebook.layout
    counts, rings, shared, depth, sizes = adjacent_pair_sizes(layout)
    offsets = [np.concatenate([[0], np.cumsum(size)]).tolist() for size in sizes]
    pairs = [np.empty(offset[-1]) for offset in offsets]

    def put(axis, start, values):
        pairs[axis][start : start + values.size] = values

    for s0 in range(0, int(counts.max()), azimuths):
        below = None  # the previous elevation's block of this slice, conjugated
        for t, (count, z) in enumerate(zip(counts.tolist(), rings.tolist())):
            if count <= s0:
                below = None
                continue
            s1 = min(s0 + azimuths, count)
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
    codebook fills no dense matrix and no grid is built; the random pairs are
    walked in `column_blocks`, two blocks of columns at a time.
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
        blocks = zip(column_blocks(codebook.columns, left), column_blocks(codebook.columns, right))
        values = [_correlations(first.conj(), second) for (_, first), (_, second) in blocks]
        random_stats = PairStats.from_values(np.concatenate(values))
    return CoherenceStats(*adjacent, random_stats)


def export_grid_text(codebook: SphericalCodebook, path) -> None:
    """One grid point per line: t,s,z,r,theta,phi (r = inf marks far field).

    Written a `column_blocks` block at a time from `codebook.layout.locate`,
    so the grid is never held whole.
    """
    layout = codebook.layout
    with open(path, "w", encoding="utf-8") as handle:
        for _, located in column_blocks(layout.locate, range(layout.num_columns)):
            columns = [part.tolist() for part in located]
            handle.writelines(f"{t},{s},{z},{r!r},{theta!r},{phi!r}\n" for t, s, z, r, theta, phi in zip(*columns))


def parse_text_row(path, number: int, line: str, parsers, row=list):
    """`row` of the comma-separated fields of `line`, line `number` of the
    text file at `path`, each through its parser in `parsers`. A row with
    the wrong field count, or a field its parser or a row `row` rejects,
    raises ValueError naming path:number."""
    fields = line.rstrip("\n").split(",")
    if len(fields) != len(parsers):
        raise ValueError(f"{path}:{number}: expected {len(parsers)} comma-separated fields, got {len(fields)}")
    try:
        return row([parse(value) for parse, value in zip(parsers, fields)])
    except ValueError as exc:
        raise ValueError(f"{path}:{number}: {exc}") from None


def load_grid_text(path) -> _RingLayout:
    """The ring layout of a file written by `export_grid_text`; blank lines
    are skipped.

    Elevation t takes its theta from its first row, its azimuths from its
    z = 0 rows and its rings from its s = 0 rows. Each row must then equal,
    bit for bit, the column that layout's `locate` puts in its place. A
    malformed, non-finite (r = inf excepted), misplaced, duplicated or
    missing row raises ValueError naming path:line, as does a file of no
    rows.
    """
    parsers = (int,) * 3 + (float,) * 3
    with open(path, "r", encoding="utf-8") as handle:
        numbered = [(number, parse_text_row(path, number, line, parsers)) for number, line in enumerate(handle, 1) if line.strip()]
    if not numbered:
        raise ValueError(f"{path}:1: no grid rows")
    numbers, rows = zip(*numbered)
    try:
        columns = [np.array(part, dtype) for part, dtype in zip(zip(*rows), (np.int64,) * 3 + (np.float64,) * 3)]
    except OverflowError:
        row = next(i for i, values in enumerate(rows) if not all(-(2**63) <= v < 2**63 for v in values[:3]))
        raise ValueError(f"{path}:{numbers[row]}: a grid index outside int64") from None
    t, s, z, r, theta, phi = columns
    bounds = [0, *(np.flatnonzero(t[1:] != t[:-1]) + 1).tolist(), len(t)]
    layout = _RingLayout((theta[a], phi[a:b][z[a:b] == 0], r[a:b][s[a:b] == 0]) for a, b in zip(bounds, bounds[1:]))

    finite = np.isfinite(theta) & np.isfinite(phi) & (np.isfinite(r) | (r == math.inf))
    g = min(len(t), layout.num_columns)
    want = layout.locate(np.arange(g))
    placed = np.zeros(len(t), dtype=bool)
    placed[:g] = np.logical_and.reduce([got[:g].view(np.int64) == part.view(np.int64) for got, part in zip(columns, want)])
    bad = np.flatnonzero(~(finite & placed))
    if bad.size:
        row = bad[0]
        if not finite[row]:
            problem = "coordinates must be finite, but for r = inf"
        elif row >= g:
            problem = f"a row beyond the {g} columns of the grid the rows describe"
        else:
            expected = ",".join(repr(part[row].item()) for part in want)
            problem = f"out of place: column {row} of the grid the rows describe is {expected}"
        raise ValueError(f"{path}:{numbers[row]}: {problem}")
    if g < layout.num_columns:
        raise ValueError(f"{path}:{numbers[-1] + 1}: missing rows: the grid the rows describe has {layout.num_columns} columns")
    return layout


def export_matrix_binary(codebook: SphericalCodebook, path) -> None:
    """Raw dump: 16-byte header (magic 'SPHW', version, N, G as little-endian
    u32) followed by the matrix as column-major interleaved re/im float64.

    Written a `column_blocks` block of `codebook.columns` at a time, so no
    matrix-sized copy is made, and a matrix-free codebook never fills its
    dense matrix: a walk holds one block and its transposed copy. Only the
    benchmark's traced round trip calls it and `load_matrix_binary`; ROADMAP
    item 14 deletes both once item 1 lands.
    """
    n, g = codebook.num_antennas, codebook.num_columns
    with open(path, "wb") as handle:
        handle.write(_BINARY_MAGIC + struct.pack("<III", _BINARY_VERSION, n, g))
        for _, block in column_blocks(codebook.columns, range(g)):
            handle.write(np.ascontiguousarray(block.T, dtype="<c16"))


def load_matrix_binary(path) -> np.ndarray:
    """Read a matrix written by `export_matrix_binary`, a `column_blocks`
    block of columns at a time, into the (N, G) result; only the benchmark's
    traced round trip calls it (ROADMAP item 14)."""
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
        for part, data in column_blocks(lambda idx: handle.read(16 * n * len(idx)), range(g)):
            block = matrix[:, part]
            if len(data) != block.nbytes:
                raise ValueError(f"{path}: file shrank while it was read")
            block[...] = np.frombuffer(data, dtype="<c16").reshape(block.shape[::-1]).T
    return matrix
