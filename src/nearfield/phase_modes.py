"""Codebooks: a `SphericalCodebook` holds the ring layout of its columns,
and each subclass holds W in one form, which `codebook`'s builds choose
from N and G. `PhaseModes` correlates matrix-free through UCA phase modes.

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

Summed over k vectors, |sum_m c_m U_k[m] e^{j m phi}|^2 is itself a
trigonometric polynomial in phi, so `scores` maps one ring power spectrum
per ring through the same chirp-z, instead of every vector's correlations.
`move_scores` forms S-SOMP's rank-1 score moves from the chirp-z buffer of
each plan in turn, so neither forms an array of correlations per column.

The angular codebook's DFT columns e^{-j k psi_n} / sqrt(N) are the UCA's
phase-mode excitations themselves, so `DftBasis` correlates with all of
them by one FFT of conj(v) and holds nothing but its layout.

A ring-built book too small for phase modes to pay but wide enough for
its dense float64 matrix to dominate memory holds a `Complex64Screen`: the
matrix in complex64, half the bytes, which scores every column by one
complex64 product. Its scores carry a proven bound on their error, so
S-SOMP rescores every column near the best on its exact float64 column
and every pick is the one the float64 matrix gives.

Every codebook fills the columns asked of it, bit for bit as the dense
matrix of the same book, and fills that whole matrix on request (`dense`).
A `DenseBasis` holds that matrix; it and `DftBasis` have `streamed` False,
so S-SOMP takes its exact Gram path there, not `scores` and `move_scores`.
"""

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .channel import UcaGeometry, azimuth_cosines, ring_steering

#: Phase-mode coefficients below this share of their ring's coefficient
#: norm (1/sqrt(N), by Parseval) are dropped. Each dropped mode moves a
#: correlation by at most this share of ||v||. The coefficients' rounding
#: noise, from the steering phases, is flat in r from 4 m to inf: at most
#: 3.4e-15 of the norm at N = 512 and 6.4e-15 at N = 1024.
MODE_RTOL = 1e-12
#: Doublings of the sample count allowed beyond the first estimate.
_MAX_DOUBLINGS = 4
#: Columns per block of `column_blocks`, the one width of every walk over a
#: book's columns: the matrix fill, exact correlation, S-SOMP's rescoring,
#: the random pairs of the coherence stats and the grid and matrix exports.
#: It bounds what a walk holds at once, 16 N B per complex128 column
#: (2 MiB a block at N = 1024). The walks' outputs do not depend on it, but
#: for the last bits of the BLAS products (`_RingBasis.correlate`, S-SOMP's
#: rescoring), which follow the GEMM kernel's column unroll: with OpenBLAS
#: they keep their bits at multiples of 8, and can move at 1, 2, 3, 5, 7, 9.
#: Minimum CPU time of the desk bank build (N = 128, 4 293 ring-built
#: columns) over 80 interleaved builds on a 2-vCPU VM: 128 columns, 28.5 ms;
#: 256, 28.5; 64, 30.4; 512, 29.9. At 128, a 16-vector `correlate` on the
#: desk screen traces 1.6 MiB, against 2.1 MiB at 256.
_FILL_COLUMNS = 128
#: Columns whose phase-mode score lies within this share of ||A^H Y||_F^2
#: of the best one are rescored on their exact columns by `estimator.s_somp`;
#: later iterations widen that slack by a bound on each score update's
#: error. Phase-mode scores lie within ~1e-12 of ||A^H Y||_F^2 of the exact
#: ones. Each streamed codebook states its share as `rescore_rtol`: this one
#: for `PhaseModes`, and `screen_rtol(N)` for a `Complex64Screen`, whose
#: complex64 scores are further off (4.5e-5 at N = 128).
RESCORE_RTOL = 1e-8
#: Rows of the complex64 correlations whose squares `Complex64Screen.scores`
#: sums in float32 before adding the block's sums in float64, so that the
#: float32 sum's error bound does not grow with the number of vectors.
_SCREEN_SUM_ROWS = 16


@dataclass(frozen=True, eq=False)
class _ElevationPlan:
    """Chirp-z evaluation of every ring of one elevation.

    Position p = 0..2M of `coef` holds c_{p-M} e^{j step p^2 / 2} of each
    ring, which multiplies antenna mode (p - M) mod N
    (`PhaseModes._plan_modes`), `spectrum` the FFT of the length-F chirp
    e^{-j step q^2 / 2}, and `chirp` the unit chirp e^{j step n^2 / 2}
    for n below both 2M + 1 and S, which `scores` uses. The plan holds
    these, O(Z M + F) entries; the output chirp e^{j step (s^2 / 2 - M s)}
    of its S azimuths, which only `correlate` applies, is formed there from
    `step` and `count`.
    """

    first_column: int
    coef: np.ndarray = field(repr=False)  # (Z, 2M + 1) complex128
    spectrum: np.ndarray = field(repr=False)  # (F,) complex128
    chirp: np.ndarray = field(repr=False)  # (max(2M + 1, S),) complex128
    step: float  # the azimuth step
    count: int  # S, the azimuths of the elevation
    power_length: int  # L = fft_length(4M + 1), the ring power spectra's length

    @property
    def nbytes(self) -> int:
        """Bytes the plan holds."""
        return sum(a.nbytes for a in (self.coef, self.spectrum, self.chirp))


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
    stretch = 1.0 / (1.0 - radius / min(rings))
    reach = 2.0 * math.pi / wavelength_m * radius * math.sin(theta) * stretch
    size = 64
    while size < 4.0 * reach + 128.0:
        size *= 2
    for _ in range(_MAX_DOUBLINGS + 1):
        # One call samples every ring: column z holds ring z's entries at the
        # K azimuths, as if they were K antennas.
        cosines = np.broadcast_to(np.cos(2.0 * math.pi * np.arange(size) / size), (len(rings), size))
        samples = np.empty((size, len(rings)), dtype=np.complex128, order="F")
        coeffs = np.fft.fft(ring_steering(rings, theta, cosines, geom, wavelength_m, samples).T, axis=1) / size
        order = np.minimum(np.arange(size), size - np.arange(size))  # |m| of each bin
        kept = np.any(np.abs(coeffs) > MODE_RTOL / math.sqrt(geom.num_antennas), axis=0)
        cutoff = int(order[kept].max())
        if cutoff < size // 4:
            return coeffs[:, np.arange(-cutoff, cutoff + 1) % size]
        size *= 2
    raise ValueError(
        f"phase modes of the rings at theta={theta} did not converge within {size // 2} samples"
    )


def column_blocks(fill, idx):
    """Yield (part, fill(idx[part])) for consecutive `_FILL_COLUMNS`-long
    slices `part` of `idx`: a walk over a book's columns that holds one
    block of them at a time. A walk over every column passes `range(G)`,
    so that not even its indices are held whole."""
    for start in range(0, len(idx), _FILL_COLUMNS):
        part = slice(start, start + _FILL_COLUMNS)
        yield part, fill(idx[part])


def ring_matrix(layout, geom, wavelength_m, dtype=np.complex128) -> np.ndarray:
    """The C-ordered N x G matrix of a ring layout in `dtype`, copied from
    `ring_columns` a `column_blocks` block at a time.

    The C order is kept because BLAS may sum a product in an order that
    follows the operands' layout, and S-SOMP's outputs were checked bit for
    bit on C-ordered matrices. A complex64 matrix holds every float64 entry
    rounded once, by the copy's cast, and no float64 matrix is formed on
    the way.
    """
    matrix = np.empty((geom.num_antennas, layout.num_columns), dtype=dtype)
    for part, block in column_blocks(partial(ring_columns, layout, geom, wavelength_m), range(layout.num_columns)):
        matrix[:, part] = block
    return matrix


def ring_columns(layout, geom, wavelength_m, idx) -> np.ndarray:
    """W[:, idx] of the ring layout's book as a new (N, len(idx)) complex128
    array, the one filler of every column and matrix of a ring-built book.
    The array is in the Fortran order in which `matrix[:, idx]` gives the
    columns: numpy's product of a matrix with one vector sums in an order
    that follows the layout.

    Indices select as on the matrix: negative ones count from the end, and
    out-of-range ones raise IndexError. Only the columns asked for are
    filled, by one `ring_steering` call with each column's (r, theta) from
    `layout.locate`; the cosines are computed once per distinct azimuth
    asked for and gathered per column.
    """
    g = layout.num_columns
    idx = np.asarray(idx, dtype=np.intp)
    if idx.size and (idx.min() < -g or idx.max() >= g):
        raise IndexError(f"column index out of range for {g} columns")
    _, _, _, r, theta, phi = layout.locate(idx % g)  # negative indices count from the end
    phis, azimuth_of = np.unique(phi, return_inverse=True)
    out = np.empty((geom.num_antennas, idx.size), dtype=np.complex128, order="F")
    return ring_steering(r, theta, azimuth_cosines(phis, geom)[azimuth_of], geom, wavelength_m, out)


class SphericalCodebook:
    """A codebook: its `layout` (a `codebook._RingLayout`) and, held by each
    subclass, its transform W (N x G). A subclass gives `num_antennas`,
    `dense()`, `columns`, `correlate`, `streamed`, `nbytes` and `describe()`,
    and a streamed one `scores`, `move_scores` and `rescore_rtol`. `columns`
    and `correlate` are exact to float64 rounding but for phase modes' ~1e-12.
    """

    def __init__(self, layout):
        self.layout = layout

    @property
    def num_columns(self) -> int:
        return self.layout.num_columns

    @property
    def matrix(self) -> np.ndarray:
        """`dense()`, filled on each read unless W is held dense. Only the
        benchmark's traced runs read it; ROADMAP item 1 retires them."""
        return self.dense()

    @property
    def grid(self):
        """The `layout`, which `load_grid_text` loads back from the grid text;
        read only where `matrix` is."""
        return self.layout


class DenseBasis(SphericalCodebook):
    """W held as its dense N x G matrix, `entries`; products are exact float64."""

    streamed = False

    def __init__(self, layout, matrix: np.ndarray):
        super().__init__(layout)
        if matrix.shape[1] != self.num_columns:
            raise ValueError(f"{matrix.shape[1]} columns but {self.num_columns} grid points")
        self.entries = matrix
        self.num_antennas = matrix.shape[0]
        self.nbytes = matrix.nbytes

    def describe(self) -> str:
        return f"the dense matrix: {self.nbytes} bytes"

    def dense(self) -> np.ndarray:
        """The matrix held, not a copy."""
        return self.entries

    def columns(self, idx) -> np.ndarray:
        """W[:, idx], as numpy indexes the matrix."""
        return self.entries[:, idx]

    def correlate(self, v) -> np.ndarray:
        """V^H W for V of shape (N,) or (N, k): (G,) or (k, G)."""
        return v.conj().T @ self.entries


class _RingBasis(SphericalCodebook):
    """What the ring-built codebooks share: the layout, the array and the
    wavelength, and from them the exact float64 matrix, columns and
    correlations, all filled by `ring_columns` (`PhaseModes` correlates
    through its phase modes instead) from where the layout places each column.
    """

    streamed = True

    def __init__(self, layout, geom: UcaGeometry, wavelength_m: float):
        super().__init__(layout)
        self.geom = geom
        self.wavelength_m = wavelength_m
        self.num_antennas = geom.num_antennas

    def dense(self) -> np.ndarray:
        """The dense float64 N x G matrix (`ring_matrix`)."""
        return ring_matrix(self.layout, self.geom, self.wavelength_m)

    def columns(self, idx) -> np.ndarray:
        """W[:, idx] as a new (N, len(idx)) array, bit for bit as `dense`
        (`ring_columns`)."""
        return ring_columns(self.layout, self.geom, self.wavelength_m, idx)

    def correlate(self, v) -> np.ndarray:
        """Exact V^H W for V of shape (N,) or (N, k): (G,) or (k, G), from
        `column_blocks` of `columns`, so no dense matrix is filled."""
        adjoint = np.asarray(v).conj().T
        out = np.empty(adjoint.shape[:-1] + (self.num_columns,), dtype=np.complex128)
        for part, block in column_blocks(self.columns, range(self.num_columns)):
            out[..., part] = adjoint @ block
        return out


class PhaseModes(_RingBasis):
    """V^H W of a ring-built codebook W, from its rings' phase modes.

    Besides the layout, only the coefficients and per-elevation chirps are
    stored, a few MB where the dense W of an N = 512 array takes 822 MB.
    Its correlations lie within ~1e-12 of ||v||, so S-SOMP rescores the
    columns within `rescore_rtol` of the best.
    """

    rescore_rtol = RESCORE_RTOL

    def __init__(self, layout, geom: UcaGeometry, wavelength_m: float):
        super().__init__(layout, geom, wavelength_m)
        elevations = [(ring_modes(theta, rings, geom, wavelength_m), phis, col) for theta, phis, rings, col in layout.elevations()]
        # The antenna modes -H..H of the widest plan, mod N: each call gathers
        # U there once, and each plan reads the slice around mode 0 it needs.
        reach = max(modes.shape[1] for modes, _, _ in elevations) // 2
        self._wrap = np.arange(-reach, reach + 1) % geom.num_antennas
        self._plans = []
        for modes, phis, col in elevations:
            step = float(phis[1]) if len(phis) > 1 else 0.0
            width, count = modes.shape[1], len(phis)
            p = np.arange(max(width, count), dtype=np.float64)
            chirp = np.exp(0.5j * step * p * p)
            modes *= chirp[:width]  # the plan's `coef`
            size = fft_length(width + count - 1)
            q = np.arange(1 - width, count)
            spectrum = np.zeros(size, dtype=np.complex128)
            spectrum[q % size] = np.exp(-0.5j * step * (q * q).astype(np.float64))
            plan = _ElevationPlan(col, modes, np.fft.fft(spectrum), chirp, step, count, fft_length(2 * width - 1))
            self._plans.append(plan)

    @property
    def num_rings(self) -> int:
        return sum(plan.coef.shape[0] for plan in self._plans)

    @property
    def num_modes(self) -> int:
        """Stored coefficients, summed over rings."""
        return sum(plan.coef.size for plan in self._plans)

    @property
    def nbytes(self) -> int:
        return self._wrap.nbytes + sum(plan.nbytes for plan in self._plans)

    def describe(self) -> str:
        return f"phase modes of {self.num_rings} rings, {self.num_modes} modes: {self.nbytes} bytes"

    def _wrapped_spectra(self, v) -> np.ndarray:
        """U = FFT(conj(V)) at the antenna modes -H..H, (k, 2H + 1): plan
        positions p = 0..2M read the slice `_plan_modes(U, plan)`."""
        u = np.fft.fft(np.asarray(v).reshape(self.num_antennas, -1).conj(), axis=0).T  # (k, N)
        return u[:, self._wrap]

    def _plan_modes(self, wrapped, plan) -> np.ndarray:
        """U at the plan's antenna modes (p - M) mod N, p = 0..2M, of a
        `_wrapped_spectra` array, as a (k, 2M + 1) view."""
        start = self._wrap.size // 2 - plan.coef.shape[1] // 2
        return wrapped[:, start : start + plan.coef.shape[1]]

    def _unchirped(self, v):
        """Yield (plan, X) per plan: X (k, Z, S) holds V^H W at the plan's
        columns, ring by ring, but for the factor of the output chirp
        e^{j step (s^2 / 2 - M s)}. X is a view of scratch that the next
        plan overwrites."""
        wrapped = self._wrapped_spectra(v)
        k = wrapped.shape[0]
        # One scratch buffer for every plan; each plan zeroes only its pad.
        scratch = np.empty(k * max(p.coef.shape[0] * p.spectrum.size for p in self._plans), dtype=np.complex128)
        for plan in self._plans:
            rings, width = plan.coef.shape
            buf = scratch[: k * rings * plan.spectrum.size].reshape(k, rings, -1)
            np.multiply(self._plan_modes(wrapped, plan)[:, None], plan.coef, out=buf[:, :, :width])
            buf[:, :, width:] = 0.0
            np.fft.fft(buf, axis=-1, out=buf)
            buf *= plan.spectrum
            np.fft.ifft(buf, axis=-1, out=buf)
            yield plan, buf[:, :, : plan.count]

    def correlate(self, v) -> np.ndarray:
        """V^H W for V of shape (N,) or (N, k): (G,) or (k, G), to ~1e-12 of ||v||.

        Besides the (k, G) output, a call holds the chirp-z scratch of the
        widest plan, k Z F entries, and one plan's output chirp
        e^{j step (s^2 / 2 - M s)}, formed here per plan.
        """
        v = np.asarray(v)
        out = np.empty((v.reshape(self.num_antennas, -1).shape[1], self.num_columns), dtype=np.complex128)
        for plan, chirped in self._unchirped(v):
            # The output chirp is applied on contiguous rows, then the block is
            # transposed into `out`: its rows are contiguous there, so the
            # reshape is a view.
            k, rings, count = chirped.shape
            s = np.arange(count, dtype=np.float64)
            chirped *= np.exp(1j * plan.step * s * (0.5 * s - plan.coef.shape[1] // 2))
            block = out[:, plan.first_column : plan.first_column + count * rings]
            block.reshape(k, count, rings)[...] = chirped.transpose(0, 2, 1)
        return out[0] if v.ndim == 1 else out

    def move_scores(self, v, weight, scores) -> None:
        """scores[j] += weight |e_j|^2 - 2 Re(conj(e_j) phi_j) in place, where
        e and phi are the correlations V^H w_j of V's two columns (N, 2),
        to ~1e-12 of their norms, and weight > 0: an S-SOMP score's move
        under a rank-1 change of the residual.

        The columns of V are scaled by sqrt(weight) and -2 / sqrt(weight)
        first, which turns e and phi into e' and phi' with a move of
        Re(conj(e') (e' + phi')): the dot product of the (re, im) pairs of
        e' and e' + phi'. The moves are formed plan by plan from the
        chirp-z buffer of `correlate`, so no (2, G) array is formed. The
        output chirp has unit modulus and cancels from the product, so it
        is not applied.
        """
        scale = math.sqrt(weight)
        for plan, unchirped in self._unchirped(np.asarray(v) * [scale, -2.0 / scale]):
            _, rings, count = unchirped.shape
            e, phi = unchirped.view(np.float64).reshape(2, rings, count, 2)
            phi += e
            block = scores[plan.first_column : plan.first_column + count * rings].reshape(count, rings)
            block += np.einsum("zsi,zsi->sz", e, phi)

    def scores(self, v) -> np.ndarray:
        """sum_k |V^H w_j|^2 of every column j, for V of shape (N,) or (N, k):
        (G,) float64, to ~1e-12 of ||V||_F^2.

        With a_{k,p} = c_{p-M} U_k[p - M], the k correlations with a ring's
        column at azimuth phi are e^{-j M phi} sum_p a_{k,p} e^{j p phi}, so
        their summed squared magnitudes are the real trigonometric polynomial
        h[0] + 2 Re sum_{d=1}^{2M} h[d] e^{j d phi}, whose coefficients h are
        the summed autocorrelations of the a_k (Wiener-Khinchin). Per plan:

        1. FFT each a_k at L >= 4M + 1 points and sum the squared magnitudes
           over k: each ring's scores at L uniform azimuths;
        2. one real FFT of that sum per ring gives h[0..2M], unaliased since
           L >= 4M + 1;
        3. a chirp-z transform of the lags, through the plan's `spectrum`,
           evaluates the polynomial at the plan's azimuths.

        That is k + ~2.5 transforms per ring where correlating takes 2k, a
        saving from k = 3 on; S-SOMP passes its M subcarriers (16 in the
        paper). A score that cancels to rounding may come out a little
        below 0 and is clamped there. No (k, G) array is formed.

        Step 1 runs one ring at a time, in scratch for one ring of the
        widest plan, k max L entries (0.32 MB at N = 512, k = 16, where
        all rings of a plan took up to 5 times that). pocketfft transforms
        each row on its own, so the scores are the bits that all rings at
        once give. Besides the (G,) output and that scratch, a call holds
        the k spectra FFT(conj(v_k)) and one plan's lags and power,
        Z (F + 2 L) entries.
        """
        wrapped = self._wrapped_spectra(v)
        k = wrapped.shape[0]
        out = np.empty(self.num_columns)
        # Two scratch buffers for every plan: the a_k's spectra and the lags.
        longest = max(p.power_length for p in self._plans)
        spectra_buf = np.empty(k * longest, dtype=np.complex128)
        lags_buf = np.empty(max(p.coef.shape[0] * p.spectrum.size for p in self._plans), dtype=np.complex128)
        for plan in self._plans:
            rings, width = plan.coef.shape
            length, size, count = plan.power_length, plan.spectrum.size, plan.count
            chirp = plan.chirp
            # 1. `coef` carries the chirp e^{j step p^2 / 2}, divided out here.
            unchirped = plan.coef * chirp[:width].conj()
            modes = self._plan_modes(wrapped, plan)
            spectra = spectra_buf[: k * length].reshape(k, length)
            parts = spectra.view(np.float64)  # (k, 2L): re, im interleaved
            summed = np.empty((rings, 2 * length))
            for ring, power in zip(unchirped, summed):
                np.multiply(modes, ring, out=spectra[:, :width])
                spectra[:, width:] = 0.0
                np.fft.fft(spectra, axis=-1, out=spectra)
                np.einsum("kl,kl->l", parts, parts, out=power)
            summed = summed.reshape(rings, length, 2)
            # 2. h = IFFT(power)[:2M + 1], and the power is real: ihfft.
            lags = np.fft.ihfft(np.add(summed[..., 0], summed[..., 1]), axis=-1)
            # 3. 2 Re sum_d h'[d] e^{j d phi_s}, h'[0] = h[0] / 2, by chirp-z.
            evaluated = lags_buf[: rings * size].reshape(rings, size)
            np.multiply(lags[:, :width], chirp[:width], out=evaluated[:, :width])
            evaluated[:, 0] *= 0.5
            evaluated[:, width:] = 0.0
            np.fft.fft(evaluated, axis=-1, out=evaluated)
            evaluated *= plan.spectrum
            np.fft.ifft(evaluated, axis=-1, out=evaluated)
            values = evaluated[:, :count]
            values *= chirp[:count]
            block = out[plan.first_column : plan.first_column + count * rings].reshape(count, rings).T
            np.multiply(values.real, 2.0, out=block)
            np.maximum(block, 0.0, out=block)
        return out


class DftBasis(SphericalCodebook):
    """V^H W of the unitary N-point DFT codebook W by FFT, N = G of its layout.

    Column k is e^{-2j pi n k / N} / sqrt(N), the UCA's phase mode of order
    k (psi_n = 2 pi n / N), so V^H W is FFT(conj(V))^T / sqrt(N), exact to
    the FFT's rounding, ~1e-15 of ||v||, the order of a dense product's own.
    The book has G = N columns, so S-SOMP's M x G arrays are small: it is
    not streamed, and S-SOMP takes its exact Gram path here, as on a
    `DenseBasis`, through `correlate`.
    """

    nbytes = 0
    streamed = False

    @property
    def num_antennas(self) -> int:
        return self.num_columns

    def describe(self) -> str:
        return f"the unitary DFT by FFT: {self.nbytes} bytes"

    def dense(self) -> np.ndarray:
        """The dense N x N matrix, as `columns` fills it."""
        return self.columns(slice(None))

    def columns(self, idx) -> np.ndarray:
        """W[:, idx] as a new array, bit for bit the same expression on every
        column, whichever are asked for. Indices select as on the matrix:
        negative ones count from the end, and out-of-range ones raise
        IndexError."""
        n = self.num_antennas
        out = -2j * math.pi * np.multiply.outer(np.arange(n), np.arange(n)[idx])
        out /= n
        np.exp(out, out=out)
        out /= math.sqrt(n)
        return out

    def correlate(self, v) -> np.ndarray:
        """V^H W for V of shape (N,) or (N, k): (G,) or (k, G), one FFT of
        conj(v) per vector."""
        v = np.asarray(v)
        out = np.fft.fft(v.reshape(self.num_antennas, -1).T.conj(), axis=-1)
        out /= math.sqrt(self.num_antennas)
        return out[0] if v.ndim == 1 else out


def screen_rtol(num_antennas: int) -> float:
    """eps (2 + eps) for the eps that bounds `Complex64Screen`'s correlation
    errors at N antennas; see the class docstring for the derivation."""
    u = 2.0**-24  # unit roundoff of float32

    def gamma(n):
        return n * u / (1.0 - n * u)

    inner = math.sqrt(2.0) * gamma(2 * num_antennas) * (1.0 + u) ** 2 + u * (2.0 + u)
    eps = inner + gamma(_SCREEN_SUM_ROWS) + u
    return eps * (2.0 + eps)


class Complex64Screen(_RingBasis):
    """V^H W of a ring-built codebook W, screened through W held in complex64.

    It holds the N x G matrix rounded once to complex64 (`ring_matrix`),
    half the bytes of the float64 one: 3.9 MB for the desk spherical book
    (N = 128, G = 3 789). `scores` is one complex64
    GEMM plus a reduction and `move_scores` two complex64 GEMVs, each
    within a proven bound of the float64 values; `columns`, `dense` and
    `correlate` are exact float64, from the layout through `ring_steering`,
    so S-SOMP rescores the columns near the best on exact columns and every
    pick is the float64 argmax.

    The bound. Each vector v is scaled by 1 / ||v|| in float64 and then
    rounded to complex64, v', and w_j is stored as w'_j; with u = 2^-24
    each entry moves by at most u of its modulus, so ||v' - v|| <= u ||v||
    and ||w' - w_j|| <= u. The real and imaginary parts of v'^H w'_j are
    each a float32 dot product of 2N real products, which in any summation
    order, with or without fused multiply-adds, is off by at most
    gamma_{2N} = 2N u / (1 - 2N u) of the sum of the products' moduli
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, sec.
    3.1); by Cauchy-Schwarz over the 2N (re, im) pairs, that puts the
    complex result within sqrt(2) gamma_{2N} ||v'|| ||w'_j||. So every
    correlation is within

        eps_c ||v||,  eps_c = sqrt(2) gamma_{2N} (1 + u)^2 + u (2 + u),

    of v^H w_j, and its squared modulus within eps_c (2 + eps_c) ||v||^2.
    `scores` sums the squares of real and imaginary parts in float32
    `_SCREEN_SUM_ROWS` vectors at a time, off by at most gamma_16 of the
    (nonnegative) sum, and adds the blocks in float64; with the float64
    scaling, that is at most eta = gamma_16 + u of the score for fewer than
    2^28 vectors. With eps = eps_c + eta, every score is within

        rescore_rtol ||V||_F^2,  rescore_rtol = eps (2 + eps),

    of sum_k |v_k^H w_j|^2, since eps_c (2 + eps_c) + eta (1 + eps_c)^2
    <= eps (2 + eps). The moves of `move_scores` come from correlations
    within eps_c of their vectors' norms, the premise under which
    `estimator._rank_one_update` widens S-SOMP's slack by rescore_rtol.
    Underflow of tiny entries after the scaling adds ~1e-36 absolutely,
    and the 1 / ||v|| scaling keeps float32 from overflowing. At N = 128,
    rescore_rtol = 4.5e-5; on 120 desk first passes the error reached 3.4e-8.
    """

    def __init__(self, layout, geom: UcaGeometry, wavelength_m: float):
        super().__init__(layout, geom, wavelength_m)
        self.entries = ring_matrix(layout, geom, wavelength_m, np.complex64)
        self.rescore_rtol = screen_rtol(geom.num_antennas)

    @property
    def nbytes(self) -> int:
        return self.entries.nbytes

    def describe(self) -> str:
        return f"a complex64 screen of the matrix, exact columns on request: {self.nbytes} bytes"

    def _screened(self, v, norm) -> np.ndarray:
        """v^H W of one vector with ||v|| = norm: v / norm in complex64
        through one GEMV, scaled back by norm in float64, (G,) complex128."""
        if norm == 0.0:
            return np.zeros(self.num_columns, dtype=np.complex128)
        unit = (v / norm).astype(np.complex64)
        out = (unit.conj() @ self.entries).astype(np.complex128)
        out *= norm
        return out

    def move_scores(self, v, weight, scores) -> None:
        """scores[j] += weight |e_j|^2 - 2 Re(conj(e_j) phi_j) in place, as
        `PhaseModes.move_scores`, with e and phi the screened correlations
        of V's two columns, each within eps_c of its column's norm. The
        columns are scaled by sqrt(weight) and -2 / sqrt(weight) first, and
        the move Re(conj(e') (e' + phi')) is formed in float64."""
        scale = math.sqrt(weight)
        v = np.asarray(v) * [scale, -2.0 / scale]
        norms = np.linalg.norm(v, axis=0)
        e, phi = (self._screened(column, float(norm)) for column, norm in zip(v.T, norms))
        phi += e
        scores += np.einsum("gi,gi->g", e.view(np.float64).reshape(-1, 2), phi.view(np.float64).reshape(-1, 2))

    def scores(self, v) -> np.ndarray:
        """sum_k |V^H w_j|^2 of every column j, for V of shape (N,) or
        (N, k): (G,) float64, within rescore_rtol ||V||_F^2.

        One complex64 GEMM of V / ||V||_F against the screen, then the
        squares of its real and imaginary parts summed over the vectors,
        `_SCREEN_SUM_ROWS` at a time in float32 and across blocks in
        float64, and scaled by ||V||_F^2. Besides the (G,) output, a call
        holds the (k, G) complex64 product and one block's (2G,) float32
        sums: 0.5 MB at k = 16 on the desk book.
        """
        vectors = np.asarray(v).reshape(self.num_antennas, -1)
        g = self.num_columns
        out = np.zeros(g)
        norm = float(np.linalg.norm(vectors))
        if norm == 0.0:
            return out
        unit = (vectors / norm).astype(np.complex64)
        parts = (unit.conj().T @ self.entries).view(np.float32)  # (k, 2G): re, im interleaved
        power = np.empty(2 * g, dtype=np.float32)
        for start in range(0, parts.shape[0], _SCREEN_SUM_ROWS):
            block = parts[start : start + _SCREEN_SUM_ROWS]
            np.einsum("kl,kl->l", block, block, out=power)
            out += power[0::2]
            out += power[1::2]
        out *= norm * norm
        return out
