"""Matrix-free correlation against a ring-built codebook through UCA phase modes.

For one (r, theta) ring, the steering entry of antenna n at azimuth phi is
f(phi - psi_n), with psi_n = 2 pi n / N. f is 2 pi-periodic, so it is the
phase-mode series f(x) = sum_m c_m e^{j m x} (Davies 1983; Mathews &
Zoltowski, IEEE TSP 1994), and the correlation of any antenna vector v with
the ring's column at phi is

    sum_n conj(v_n) f(phi - psi_n) = sum_m c_m U[m mod N] e^{j m phi},
    U = FFT(conj(v)).

On one elevation's uniform azimuth grid phi_s = s * step this sum is a
chirp-z transform, evaluated as Bluestein's FFT convolution (Rabiner,
Schafer & Rader 1969). No column of the codebook is ever formed.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import UcaGeometry, ring_steering

#: Phase-mode coefficients below this share of their ring's coefficient
#: norm (1/sqrt(N), by Parseval) are dropped. Each dropped mode moves a
#: correlation by at most this share of ||v||. The coefficients' rounding
#: noise, from the steering phases, grows with r: it peaks at 3e-14 of the
#: norm at N = 512 (r = 18 m) and 1.1e-13 at N = 1024 (r = 73 m).
MODE_RTOL = 1e-12
#: Doublings of the sample count allowed beyond the first estimate.
_MAX_DOUBLINGS = 4


@dataclass(frozen=True, eq=False)
class _ElevationPlan:
    """Chirp-z evaluation of every ring of one elevation.

    Position p = 0..2M of `coef` holds c_{p-M} e^{j step p^2 / 2} of each
    ring, `modes` the antenna-mode index (p - M) mod N it multiplies,
    `spectrum` the FFT of the length-F chirp e^{-j step q^2 / 2}, and `post`
    the output chirp e^{j step (s^2 / 2 - M s)}.
    """

    first_column: int
    modes: np.ndarray = field(repr=False)  # (2M + 1,) int
    coef: np.ndarray = field(repr=False)  # (Z, 2M + 1) complex128
    spectrum: np.ndarray = field(repr=False)  # (F,) complex128
    post: np.ndarray = field(repr=False)  # (S,) complex128

    @property
    def nbytes(self) -> int:
        return self.modes.nbytes + self.coef.nbytes + self.spectrum.nbytes + self.post.nbytes


def fft_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, a length numpy's FFT handles fast."""
    best = 1 << max(n - 1, 0).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            size = odd
            while size < n:
                size *= 2
            best = min(best, size)
            odd *= 3
        odd5 *= 5
    return best


def ring_modes(theta, rings, geom: UcaGeometry, wavelength_m: float) -> np.ndarray:
    """Phase-mode coefficients of the rings of one elevation, (Z, 2M + 1).

    Row z holds c_m, m = -M..M, of ring (rings[z], theta): the FFT of
    `ring_steering` sampled at K uniform azimuths for the antenna at psi = 0.
    M is the largest |m| whose coefficient exceeds MODE_RTOL of the norm.
    K starts above four times the largest local frequency of the steering
    phase, k R sin(theta) r / (r - R), and doubles until M < K / 4, which
    leaves the aliased modes, |m| > 3K / 4, far below MODE_RTOL.
    """
    radius = geom.radius_m
    stretch = max(r / (r - radius) if math.isfinite(r) else 1.0 for r in rings)
    reach = 2.0 * math.pi / wavelength_m * radius * math.sin(theta) * stretch
    size = 64
    while size < 4.0 * reach + 128.0:
        size *= 2
    for _ in range(_MAX_DOUBLINGS + 1):
        cosines = np.cos(2.0 * math.pi * np.arange(size) / size)[:, None]
        samples = np.empty((len(rings), size), dtype=np.complex128)
        for z, r in enumerate(rings):
            ring_steering(r, theta, cosines, geom, wavelength_m, samples[z : z + 1])
        coeffs = np.fft.fft(samples, axis=1) / size
        order = np.minimum(np.arange(size), size - np.arange(size))  # |m| of each bin
        kept = np.any(np.abs(coeffs) > MODE_RTOL / math.sqrt(geom.num_antennas), axis=0)
        cutoff = int(order[kept].max())
        if cutoff < size // 4:
            return coeffs[:, np.arange(-cutoff, cutoff + 1) % size]
        size *= 2
    raise ValueError(
        f"phase modes of the rings at theta={theta} did not converge within {size // 2} samples"
    )


class PhaseModes:
    """V^H W of a ring-built codebook W, from its rings' phase modes.

    `elevations` lists (theta, azimuths, rings, first column) per elevation,
    the layout `codebook._fill_rings` fills: columns run s-major, z-minor
    within an elevation, and azimuths are uniform from 0. Only the
    coefficients and per-elevation chirps are stored, a few MB where the
    dense W of an N = 512 array takes 822 MB.
    """

    def __init__(self, elevations, geom: UcaGeometry, wavelength_m: float):
        self.elevations = elevations
        self.geom = geom
        self.wavelength_m = wavelength_m
        n = geom.num_antennas
        self.num_columns = sum(len(phis) * len(rings) for _, phis, rings, _ in elevations)
        shapes = []  # (first column, coef, azimuth step, S, F) per elevation
        for theta, phis, rings, col in elevations:
            modes = ring_modes(theta, rings, geom, wavelength_m)
            step = phis[1] if len(phis) > 1 else 0.0
            width = modes.shape[1]
            p = np.arange(width, dtype=np.float64)
            coef = modes * np.exp(0.5j * step * p * p)
            shapes.append((col, coef, step, len(phis), fft_length(width + len(phis) - 1)))
        spectra = [None] * len(shapes)
        # One batched FFT per chirp length.
        for size in {shape[-1] for shape in shapes}:
            members = [i for i, shape in enumerate(shapes) if shape[-1] == size]
            chirps = np.zeros((len(members), size), dtype=np.complex128)
            for row, i in zip(chirps, members):
                _, coef, step, count, _ = shapes[i]
                q = np.arange(1 - coef.shape[1], count)
                row[q % size] = np.exp(-0.5j * step * (q * q).astype(np.float64))
            for i, spectrum in zip(members, np.fft.fft(chirps, axis=1)):
                spectra[i] = spectrum
        self._plans = []
        for (col, coef, step, count, _), spectrum in zip(shapes, spectra):
            half = coef.shape[1] // 2
            s = np.arange(count, dtype=np.float64)
            self._plans.append(
                _ElevationPlan(
                    col,
                    np.arange(-half, half + 1) % n,
                    coef,
                    spectrum,
                    np.exp(1j * step * s * (0.5 * s - half)),
                )
            )

    @property
    def num_antennas(self) -> int:
        return self.geom.num_antennas

    @property
    def num_rings(self) -> int:
        return sum(plan.coef.shape[0] for plan in self._plans)

    @property
    def num_modes(self) -> int:
        """Stored coefficients, summed over rings."""
        return sum(plan.coef.size for plan in self._plans)

    @property
    def nbytes(self) -> int:
        return sum(plan.nbytes for plan in self._plans)

    def correlate(self, v) -> np.ndarray:
        """V^H W for V of shape (N,) or (N, k): (G,) or (k, G), to ~1e-12 of ||v||."""
        v = np.asarray(v)
        vectors = v.reshape(self.num_antennas, -1)
        k = vectors.shape[1]
        out = np.empty((k, self.num_columns), dtype=np.complex128)
        for plan, chirped in self._plan_blocks(vectors):
            # The output chirp is applied on contiguous rows, then the block is
            # transposed into `out`: its rows are contiguous there, so the
            # reshape is a view.
            _, rings, count = chirped.shape
            chirped *= plan.post
            block = out[:, plan.first_column : plan.first_column + count * rings]
            block.reshape(k, count, rings)[...] = chirped.transpose(0, 2, 1)
        return out[0] if v.ndim == 1 else out

    def scores(self, v) -> np.ndarray:
        """sum_k |V^H w_j|^2 of every column j, for V of shape (N,) or (N, k):
        (G,) float64, to ~1e-12 of ||V||_F^2.

        Each plan's block is reduced in place right after its inverse FFT,
        so no (k, G) array is formed. The output chirp has unit modulus and
        drops out of the squared magnitudes.
        """
        out = np.empty(self.num_columns)
        for plan, unchirped in self._plan_blocks(np.asarray(v).reshape(self.num_antennas, -1)):
            _, rings, count = unchirped.shape
            power = unchirped.view(np.float64)  # (k, Z, 2S): re, im interleaved
            np.square(power, out=power)
            summed = np.add.reduce(power, axis=0).reshape(rings, count, 2)
            block = out[plan.first_column : plan.first_column + count * rings]
            np.add(summed[..., 0], summed[..., 1], out=block.reshape(count, rings).T)
        return out

    def _plan_blocks(self, vectors):
        """Yield (plan, block) per elevation plan for V of shape (N, k), with
        block[:, z, s] the correlation of V with the column of ring z at
        azimuth s before the output chirp `plan.post`, as a (k, Z, S) view of
        one scratch buffer that the next plan overwrites."""
        u = np.fft.fft(vectors.conj(), axis=0).T  # (k, N)
        k = u.shape[0]
        # One scratch buffer for every plan; each plan zeroes only its pad.
        widest = max(plan.coef.shape[0] * plan.spectrum.size for plan in self._plans)
        scratch = np.empty(k * widest, dtype=np.complex128)
        for plan in self._plans:
            rings, width = plan.coef.shape
            buf = scratch[: k * rings * plan.spectrum.size].reshape(k, rings, -1)
            np.multiply(u[:, None, plan.modes], plan.coef, out=buf[:, :, :width])
            buf[:, :, width:] = 0.0
            np.fft.fft(buf, axis=-1, out=buf)
            buf *= plan.spectrum
            np.fft.ifft(buf, axis=-1, out=buf)
            yield plan, buf[:, :, : plan.post.size]
