"""Codebook bases against the dense matrix they stand in for.

Spherical and polar codebooks hold phase modes, and the angular one a
`DftBasis`, only for arrays of `codebook._PHASE_MODE_MIN_ANTENNAS` (512)
antennas or more. These tests lower that threshold to build phase modes for
the small and desk geometries, where the dense matrix of the same geometry
is the oracle; the DFT basis is checked against the dense DFT matrix. The
desk spherical book holds a `Complex64Screen`, checked against the bound it
derives and against its dense float64 twin.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearfield import codebook, generate_combining, phase_modes, s_somp
from nearfield.codebook import (
    build_angular_codebook,
    build_polar_codebook,
    build_spherical_codebook,
    export_matrix_binary,
)
from nearfield.estimator import MeasurementSet
from nearfield.harness import METHOD_P_SOMP, METHOD_S_SOMP, build_codebooks, paper_profile, run_trial
from nearfield.phase_modes import Complex64Screen, DenseBasis, DftBasis, PhaseModes, fft_length


def _phase_mode_build(build, *args):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(codebook, "_PHASE_MODE_MIN_ANTENNAS", 1)
        return build(*args)


def _dense_build(build, *args):
    """The codebook `build` gives, holding its dense float64 matrix."""
    book = build(*args)
    return DenseBasis(book.layout, book.dense())


@pytest.fixture(scope="module")
def book_pairs(small_config, desk_spec):
    """{name: (phase-mode codebook, dense codebook of the same geometry)}."""
    builds = {
        "small": (build_spherical_codebook, small_config, 0.55, 0.25),
        "desk": (build_spherical_codebook, desk_spec.system, desk_spec.delta, desk_spec.r_min_m),
        "desk-polar": (build_polar_codebook, desk_spec.system, desk_spec.delta, desk_spec.r_min_m),
    }
    return {
        name: (_phase_mode_build(build, *args), _dense_build(build, *args))
        for name, (build, *args) in builds.items()
    }


BOOKS = ("small", "desk", "desk-polar")


def test_array_size_selects_the_representation(desk_spec, desk_codebook, record_fills):
    """Desk (N = 128): the spherical book (G = 3 789) is screened in
    complex64 and the polar (G = 504) and angular books hold their dense
    matrices. Paper (N = 512): phase modes, whose build fills no matrix, and
    a `DftBasis`."""
    assert codebook._PHASE_MODE_MIN_ANTENNAS == 512
    assert codebook._SCREEN_MIN_COLUMNS == 3072
    assert isinstance(desk_codebook, Complex64Screen)
    assert isinstance(build_polar_codebook(desk_spec.system, desk_spec.delta, desk_spec.r_min_m), DenseBasis)
    paper = paper_profile()
    built = record_fills()
    for build in (build_spherical_codebook, build_polar_codebook):
        book = build(paper.system, paper.delta, paper.r_min_m)
        assert isinstance(book, PhaseModes)
        assert book.nbytes < 0.01 * 16 * book.num_antennas * book.num_columns
    assert built == []
    assert isinstance(build_angular_codebook(desk_spec.system), DenseBasis)
    assert isinstance(build_angular_codebook(paper.system), DftBasis)


def test_matrix_is_built_on_each_read_from_the_basis(small_config, book_pairs, record_fills):
    """`correlate` and `columns` fill no matrix; each read of `matrix` fills
    one from the phase modes' layout, the dense matrix bit for bit, and
    keeps none."""
    book = _phase_mode_build(build_spherical_codebook, small_config, 0.55, 0.25)
    dense = book_pairs["small"][1]
    assert book.num_antennas == dense.num_antennas
    assert book.num_columns == dense.num_columns
    built = record_fills()
    book.correlate(np.ones(book.num_antennas))
    book.columns([0, 1])
    assert built == []
    assert (book.grid == dense.grid) is True
    assert np.array_equal(book.matrix, dense.dense())
    assert np.array_equal(book.matrix, dense.dense())
    assert built == ["matrix", "matrix"]


def test_dense_basis_rejects_a_matrix_short_of_its_layout(small_config, small_codebook):
    """A `DenseBasis` whose matrix is one column short of its layout raises,
    naming both counts; a `DftBasis` takes N = G from its layout."""
    g = small_codebook.num_columns
    with pytest.raises(ValueError, match=f"^{g - 1} columns but {g} grid points$"):
        DenseBasis(small_codebook.layout, small_codebook.dense()[:, 1:])
    angular = build_angular_codebook(small_config)
    held = DftBasis(angular.layout)
    n = small_config.num_antennas
    assert held.num_antennas == held.num_columns == n
    assert np.array_equal(held.columns(np.arange(n)), angular.dense())


BASES = {"dense": DenseBasis, "screen": Complex64Screen, "phase modes": PhaseModes, "dft": DftBasis}


@pytest.fixture(scope="module")
def desk_bases(desk_spec):
    """{kind: (desk book holding W in that form, its dense())}:
    the polar book (dense), the spherical book (screened, and with phase
    modes forced) and the angular book with its `DftBasis` forced."""
    args = (desk_spec.system, desk_spec.delta, desk_spec.r_min_m)
    books = {
        "dense": build_polar_codebook(*args),
        "screen": build_spherical_codebook(*args),
        "phase modes": _phase_mode_build(build_spherical_codebook, *args),
        "dft": _phase_mode_build(build_angular_codebook, desk_spec.system),
    }
    return {kind: (book, book.dense()) for kind, book in books.items()}


def _held_bytes(basis):
    """Bytes of the arrays a basis holds, its own and its plans', counting
    once an array that is a view of another of them."""
    arrays = []
    for value in vars(basis).values():
        if isinstance(value, np.ndarray):
            arrays.append(value)
        elif isinstance(value, list):
            arrays += [a for plan in value for a in vars(plan).values() if isinstance(a, np.ndarray)]
    owners = {id(a) for a in arrays}
    return sum(a.nbytes for a in arrays if id(a.base) not in owners)


@pytest.mark.parametrize("kind", BASES)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_every_basis_has_the_shared_interface(desk_bases, kind, data):
    """Each form a book can hold W in is a `SphericalCodebook` with G from
    its layout: `dense()` is N x G, `columns(idx)` is `dense()[:, idx]` bit
    for bit for any index list (negative indices included), `nbytes` counts
    the arrays it holds, only the screen and the phase modes are streamed,
    and `matrix` and `grid` are `dense()` and `layout`. `dense()` and
    the `entries` a dense or screen book holds are C-ordered: BLAS may sum a
    product in an order that follows the operands' layout, and S-SOMP's Gram
    and screen GEMMs were checked bit for bit on that order."""
    book, dense = desk_bases[kind]
    assert type(book) is BASES[kind] and isinstance(book, codebook.SphericalCodebook)
    g = book.num_columns
    assert g == book.layout.num_columns
    assert dense.shape == (book.num_antennas, g)
    assert dense.flags.c_contiguous and (kind not in ("dense", "screen") or book.entries.flags.c_contiguous)
    idx = data.draw(st.lists(st.integers(-g, g - 1), max_size=40), label="idx")
    assert np.array_equal(book.columns(idx), dense[:, idx])
    assert book.nbytes == _held_bytes(book)
    assert (book.nbytes == 0) == (kind == "dft")
    assert book.streamed == (kind in ("screen", "phase modes"))
    assert np.array_equal(book.matrix, dense)
    assert book.grid is book.layout


@pytest.mark.parametrize("kind", BASES)
def test_describe_names_the_kind_and_its_bytes(desk_bases, kind):
    """`describe()`, which `nearfield codebook build` and `stats` print, names
    the form W is held in and `nbytes`; CI greps the screen's and the phase
    modes' phrases."""
    book = desk_bases[kind][0]
    phrase = {
        "dense": "the dense matrix",
        "screen": "a complex64 screen of the matrix",
        "phase modes": "phase modes of ",
        "dft": "the unitary DFT by FFT",
    }[kind]
    text = book.describe()
    assert text.startswith(phrase) and text.endswith(f": {book.nbytes} bytes"), text


@pytest.mark.parametrize("name", BOOKS)
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), width=st.sampled_from([0, 1, 3, 16]))
def test_correlate_matches_dense_product(book_pairs, name, seed, width):
    """V^H W to 1e-14 of ||v||, for one vector (width 0) or a block: the
    exact column walk every ring-built book correlates by."""
    held, dense = book_pairs[name]
    rng = np.random.default_rng(seed)
    shape = (held.num_antennas, width) if width else (held.num_antennas,)
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    got = held.correlate(v)
    want = v.conj().T @ dense.dense()
    assert got.shape == want.shape
    scale = np.linalg.norm(v, axis=0)
    error = np.abs(got - want) / (scale[:, None] if width else scale)
    assert error.max(initial=0.0) <= 1e-14


@pytest.mark.parametrize("name", BOOKS)
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), width=st.sampled_from([0, 1, 3, 16]))
def test_scores_equal_the_summed_squared_correlations(book_pairs, name, seed, width):
    """sum_k |V^H w_j|^2, reduced plan by plan, to 1e-12 of ||V||_F^2 of
    the same sum over the correlations it skips forming."""
    held = book_pairs[name][0]
    rng = np.random.default_rng(seed)
    shape = (held.num_antennas, width) if width else (held.num_antennas,)
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    magnitude = np.abs(held.correlate(v).reshape(-1, held.num_columns))
    got = held.scores(v)
    assert got.shape == (held.num_columns,) and got.dtype == np.float64
    assert np.max(np.abs(got - np.sum(magnitude**2, axis=0))) <= 1e-12 * np.linalg.norm(v) ** 2


@pytest.mark.parametrize("name", BOOKS)
def test_columns_equal_the_dense_matrix_bit_for_bit(book_pairs, name):
    held, dense = book_pairs[name]
    every = np.random.default_rng(1).permutation(held.num_columns)
    got = held.columns(every)
    assert got.flags.f_contiguous  # as dense.columns(every) is
    assert np.array_equal(got, dense.columns(every))
    assert np.array_equal(held.columns([5, 2, 5]), dense.columns([5, 2, 5]))
    assert held.columns([]).shape == (held.num_antennas, 0)


def _index_patterns(book):
    """Column index arrays that meet the ring layout's edge cases."""
    g = book.num_columns
    starts = book.layout.column_starts
    rng = np.random.default_rng(g)
    return {
        "random": rng.integers(0, g, 300),
        "contiguous": np.arange(g // 3, g // 3 + 257),
        "reversed": np.arange(g)[::-1],
        "repeated": np.repeat(rng.integers(0, g, 20), 3),
        "empty": np.array([], dtype=np.intp),
        # The first and last column of every elevation, and the last column.
        "elevation boundaries": np.concatenate([starts[:-1], starts[1:] - 1]),
    }


@pytest.mark.parametrize("name", ("desk", "desk-polar"))
def test_columns_located_through_the_ring_layout_equal_the_dense_matrix(book_pairs, name, record_fills):
    """`columns` finds each column's ring and azimuth from the layout
    arrays alone; it fills no matrix."""
    held, dense = book_pairs[name]
    built = record_fills()
    for pattern, idx in _index_patterns(held).items():
        got = held.columns(idx)
        assert got.shape == (held.num_antennas, idx.size), pattern
        assert np.array_equal(got, dense.columns(idx)), pattern
    assert built == []
    negative = [-1, -held.num_columns, 3]
    assert np.array_equal(held.columns(negative), dense.columns(negative))
    for outside in ([held.num_columns], [-held.num_columns - 1]):
        with pytest.raises(IndexError):
            held.columns(outside)
        with pytest.raises(IndexError):
            dense.columns(outside)


def test_every_column_set_and_elevation_is_one_kernel_call(small_config, book_pairs, monkeypatch):
    """`ring_columns` fills any index set, contiguous, scattered or across
    elevations, by one `ring_steering` call, and `ring_modes` samples all
    rings of an elevation in one call: a phase-mode build makes one call
    per elevation."""
    calls = []
    kernel = phase_modes.ring_steering
    monkeypatch.setattr(phase_modes, "ring_steering", lambda *args: calls.append(args[2].shape[0]) or kernel(*args))
    held, dense = book_pairs["desk"]
    for pattern, idx in _index_patterns(held).items():
        calls.clear()
        assert np.array_equal(held.columns(idx), dense.columns(idx)), pattern
        assert calls == [idx.size], pattern
    layout = build_spherical_codebook(small_config, 0.55, 0.25).layout
    calls.clear()
    PhaseModes(layout, small_config)
    assert len(calls) == layout.thetas.size


def test_build_codebooks_and_trials_on_phase_modes_build_no_grid_or_matrix(desk_spec, monkeypatch, record_fills):
    """A sweep on phase-mode books fills no matrix: the ring layout gives
    `columns` and `num_columns` what they need."""
    monkeypatch.setattr(codebook, "_PHASE_MODE_MIN_ANTENNAS", 1)
    built = record_fills()
    spec = dataclasses.replace(desk_spec, methods=(METHOD_S_SOMP, METHOD_P_SOMP))
    bank = build_codebooks(spec)
    for book in (bank.spherical, bank.polar):
        assert isinstance(book, PhaseModes)
    for snr_db in spec.snr_list_db:
        run_trial(spec, snr_db, 0, bank, "snr")
    assert built == []


@pytest.mark.parametrize("name", BOOKS)
def test_coherence_stats_equal_the_dense_twin(book_pairs, name, record_fills):
    """Columns filled ring by ring give the dense book's pair statistics bit
    for bit, and the per-pair values in the same order."""
    held, dense = book_pairs[name]
    built = record_fills()
    assert codebook.coherence_stats(held, 700, seed=5) == codebook.coherence_stats(dense, 700, seed=5)
    for got, want in zip(codebook._adjacent_correlations(held), codebook._adjacent_correlations(dense)):
        assert np.array_equal(got, want)
    assert built == []


@pytest.mark.parametrize("polar", [False, True])
def test_coherence_stats_on_phase_modes_build_no_grid_or_matrix(desk_spec, monkeypatch, polar, record_fills):
    """Coherence walks the ring layout: it fills no matrix."""
    monkeypatch.setattr(codebook, "_PHASE_MODE_MIN_ANTENNAS", 1)
    build = build_polar_codebook if polar else build_spherical_codebook
    book = build(desk_spec.system, desk_spec.delta, desk_spec.r_min_m)
    assert isinstance(book, PhaseModes)
    built = record_fills()
    stats = codebook.coherence_stats(book, 500, seed=1)
    assert built == []
    assert stats.adjacent_azimuth.count > 0 and stats.random_pairs.count == 500


@pytest.mark.parametrize("name", BOOKS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_move_scores_equal_the_move_of_the_correlations(book_pairs, name, seed):
    """Re(conj(x) y) added in place, to 1e-12 of ||v_1|| ||v_2||, with x
    and y the dense correlations of V's two columns v_1 and v_2."""
    held, dense = book_pairs[name]
    rng = np.random.default_rng(seed)
    v = _random_block(rng, held.num_antennas, 2)
    start = rng.uniform(0.0, 1.0, held.num_columns)
    got = start.copy()
    held.move_scores(v, got)
    x, y = v.conj().T @ dense.dense()
    want = start + (x.conj() * y).real
    assert np.max(np.abs(got - want)) <= 1e-12 * np.prod(np.linalg.norm(v, axis=0))


def test_move_scores_form_no_array_of_the_column_count(book_pairs, traced_peak):
    """The moves are formed plan by plan: the traced peak of one call, 1.7
    complex vectors of G entries when measured (the chirp-z scratch and
    numpy's FFT copies of it), stays below the 2 of the (2, G) correlations
    that the move used to form on top of that scratch (3.65 in all)."""
    held = book_pairs["desk"][0]
    v = _random_block(np.random.default_rng(3), held.num_antennas, 2)
    scores = np.zeros(held.num_columns)
    held.move_scores(v, scores)
    assert traced_peak(held.move_scores, v, scores)[1] < 2 * 16 * held.num_columns


def _antenna_modes(modes, plan):
    """The antenna-mode indices (p - M) mod N of a plan's positions p = 0..2M,
    from the basis' shared mode range."""
    reach, half = modes._wrap.size // 2, plan.coef.shape[1] // 2
    return modes._wrap[reach - half : reach + half + 1]


def _reference_chirp_z(modes, v, output_chirp=True):
    """V^H W by the chirp-z transform that `PhaseModes.move_scores` runs, as
    `PhaseModes.correlate` computed it before that was the exact column
    walk: a zeroed buffer per plan, the input chirp applied to the antenna
    modes, and the output chirp e^{j step (s^2 / 2 - M s)}, formed from the
    elevation's azimuth step in the layout, applied after the block is
    transposed into `out`, or, with `output_chirp` False, skipped as
    `move_scores` skips it."""
    v = np.asarray(v)
    u = np.fft.fft(v.reshape(modes.num_antennas, -1).conj(), axis=0).T
    k = u.shape[0]
    out = np.empty((k, modes.num_columns), dtype=np.complex128)
    for plan, (_, phis, _, _) in zip(modes._plans, modes.layout.elevations(), strict=True):
        rings, width = plan.coef.shape
        count = plan.count
        buf = np.zeros((k, rings, plan.spectrum.size), dtype=np.complex128)
        chirped = u[:, _antenna_modes(modes, plan)] * plan.chirp[:width]
        np.multiply(chirped[:, None], plan.coef, out=buf[:, :, :width])
        np.fft.fft(buf, axis=-1, out=buf)
        buf *= plan.spectrum
        np.fft.ifft(buf, axis=-1, out=buf)
        block = out[:, plan.first_column : plan.first_column + count * rings].reshape(k, count, rings)
        block[...] = buf[:, :, :count].transpose(0, 2, 1)
        if output_chirp:
            step = float(phis[1]) if count > 1 else 0.0
            s = np.arange(count, dtype=np.float64)
            block *= np.exp(1j * step * s * (0.5 * s - width // 2))[:, None]
    return out[0] if v.ndim == 1 else out


@pytest.mark.parametrize("name", BOOKS)
@pytest.mark.parametrize("width", [0, 1, 16])
def test_correlate_equals_the_reference_loop_bit_for_bit(book_pairs, name, width):
    """The chirp-z correlation that `move_scores` runs equals the reference
    loop's bit for bit. The reference is V^H W to 1e-12 of ||v||, for one
    vector (width 0) or a block; and `move_scores` adds, bit for bit,
    Re(conj(x) y) of the reference's transforms x and y of its two
    vectors, output chirp skipped."""
    held, dense = book_pairs[name]
    rng = np.random.default_rng(width)
    v = _random_block(rng, held.num_antennas, width)
    scale = np.linalg.norm(v, axis=0)
    error = np.abs(_reference_chirp_z(held, v) - v.conj().T @ dense.dense())
    assert (error / (scale[:, None] if width else scale)).max() <= 1e-12
    pair = _random_block(rng, held.num_antennas, 2)
    start = rng.uniform(0.0, 1.0, held.num_columns)
    got = start.copy()
    held.move_scores(pair, got)
    parts = (z.view(np.float64).reshape(-1, 2) for z in _reference_chirp_z(held, pair, output_chirp=False))
    assert np.array_equal(got, start + np.einsum("gi,gi->g", *parts))


def _reference_scores(modes, v):
    """`PhaseModes.scores` as written before it summed ring power spectra:
    every vector's correlations by a Bluestein pass, two FFTs per (vector,
    ring), squared and summed over the vectors. The input chirp multiplies
    the antenna modes; the unit-modulus output chirp drops out of the
    squared magnitudes and is skipped."""
    u = np.fft.fft(np.asarray(v).reshape(modes.num_antennas, -1).conj(), axis=0).T
    k = u.shape[0]
    out = np.empty(modes.num_columns)
    for plan in modes._plans:
        rings, width = plan.coef.shape
        count = plan.count
        buf = np.zeros((k, rings, plan.spectrum.size), dtype=np.complex128)
        chirped = u[:, _antenna_modes(modes, plan)] * plan.chirp[:width]
        np.multiply(chirped[:, None], plan.coef, out=buf[:, :, :width])
        np.fft.fft(buf, axis=-1, out=buf)
        buf *= plan.spectrum
        np.fft.ifft(buf, axis=-1, out=buf)
        power = np.sum(np.abs(buf[:, :, :count]) ** 2, axis=0)  # (Z, S)
        out[plan.first_column : plan.first_column + count * rings] = power.T.ravel()
    return out


def _random_block(rng, num_antennas, width):
    shape = (num_antennas, width) if width else (num_antennas,)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("name", BOOKS)
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), width=st.sampled_from([0, 1, 3, 16]))
def test_scores_equal_the_bluestein_reference(book_pairs, name, seed, width):
    """The power-spectrum scores stay within 1e-13 of ||V||_F^2 of the
    per-vector Bluestein pass they replace."""
    held = book_pairs[name][0]
    v = _random_block(np.random.default_rng(seed), held.num_antennas, width)
    got = held.scores(v)
    assert np.max(np.abs(got - _reference_scores(held, v))) <= 1e-13 * np.linalg.norm(v) ** 2


@pytest.mark.parametrize("name", ("small", "desk"))
def test_zenith_plan_scores_its_single_column(book_pairs, name):
    """A spherical book's zenith elevation is one far-field ring with one
    azimuth and one phase mode, so its power polynomial has no lags beyond
    h[0]. (The polar book has one elevation, the horizon.)"""
    held, dense = book_pairs[name]
    plan = held._plans[0]
    assert plan.first_column == 0 and plan.coef.shape == (1, 1) and plan.count == 1
    v = _random_block(np.random.default_rng(5), held.num_antennas, 16)
    want = np.sum(np.abs(v.conj().T @ dense.columns([0])[:, 0]) ** 2)
    assert abs(held.scores(v)[0] - want) <= 1e-13 * np.linalg.norm(v) ** 2


@pytest.mark.parametrize("name", BOOKS)
@pytest.mark.parametrize("width", [1, 16])
def test_scores_that_cancel_stay_at_zero_or_above(book_pairs, name, width):
    """V = 0 scores exactly 0 everywhere. With V orthogonal to one column,
    that column's score cancels to rounding; every score stays finite and
    >= 0, since the triangle bound takes its square root."""
    held, dense = book_pairs[name]
    modes = held
    zero = modes.scores(np.zeros((held.num_antennas, width), dtype=np.complex128))
    assert np.array_equal(zero, np.zeros(held.num_columns))
    rng = np.random.default_rng(width)
    for j in (0, held.num_columns // 2, held.num_columns - 1):
        w = dense.columns([j])
        v = _random_block(rng, held.num_antennas, width)
        v -= w @ (w.conj().T @ v) / np.vdot(w, w).real
        got = modes.scores(v)
        assert np.all(np.isfinite(got)) and got.min() >= 0.0
        assert got[j] <= 1e-13 * np.linalg.norm(v) ** 2


@pytest.mark.slow
@pytest.mark.parametrize("width", [1, 16])
def test_paper_scores_equal_the_bluestein_reference(width):
    paper = paper_profile()
    modes = build_spherical_codebook(paper.system, paper.delta, paper.r_min_m)
    v = _random_block(np.random.default_rng(width), modes.num_antennas, width)
    got = modes.scores(v)
    assert got.min() >= 0.0
    assert np.max(np.abs(got - _reference_scores(modes, v))) <= 1e-13 * np.linalg.norm(v) ** 2


def test_phase_mode_export_equals_the_dense_export_and_builds_no_matrix(tmp_path, desk_spec, record_fills):
    args = (desk_spec.system, desk_spec.delta, desk_spec.r_min_m)
    held = _phase_mode_build(build_spherical_codebook, *args)
    dense = _dense_build(build_spherical_codebook, *args)
    built = record_fills()
    export_matrix_binary(held, tmp_path / "held.bin")
    assert built == []
    export_matrix_binary(dense, tmp_path / "dense.bin")
    assert (tmp_path / "held.bin").read_bytes() == (tmp_path / "dense.bin").read_bytes()


def test_fft_length_is_the_smallest_5_smooth_length():
    smooth = sorted(
        2**a * 3**b * 5**c
        for a, b, c in itertools.product(range(12), range(8), range(6))
        if 2**a * 3**b * 5**c <= 4096
    )
    for n in range(1, 2049):
        assert fft_length(n) == next(size for size in smooth if size >= n)


def _dft_basis(n):
    """The `DftBasis` of n antennas, on the layout `build_angular_codebook`
    gives it."""
    layout = codebook._RingLayout([(0.5 * math.pi, 2.0 * math.pi * np.arange(n) / n, [codebook.FAR_FIELD])])
    return DftBasis(layout)


def _dft_matrix(n):
    """The angular book's dense matrix, by the expression its build used
    before any array size held it as a `DftBasis`."""
    idx = np.arange(n)
    return np.exp(-2j * math.pi * np.outer(idx, idx) / n) / math.sqrt(n)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(8, 64),
    width=st.sampled_from([0, 1, 3, 16]),
)
def test_dft_basis_matches_the_dense_dft_product(seed, n, width):
    """`correlate` of the FFT basis equals the dense product to 1e-12 of the
    norms involved."""
    basis, dense = _dft_basis(n), _dft_matrix(n)
    rng = np.random.default_rng(seed)
    v = _random_block(rng, n, width)
    got, want = basis.correlate(v), v.conj().T @ dense
    assert got.shape == want.shape
    scale = np.linalg.norm(v, axis=0)
    assert np.max(np.abs(got - want) / (scale[:, None] if width else scale), initial=0.0) <= 1e-12


@pytest.mark.parametrize("n", [8, 61, 128, 512])
def test_dft_basis_columns_equal_the_dense_dft_matrix(n):
    """Every column pattern gives the dense matrix's columns bit for bit,
    and indices outside it raise IndexError as the matrix does."""
    basis, dense = _dft_basis(n), _dft_matrix(n)
    rng = np.random.default_rng(n)
    patterns = {
        "random": rng.integers(0, n, 300),
        "contiguous": np.arange(n // 3, n // 3 + n // 2),
        "reversed": np.arange(n)[::-1],
        "repeated": np.repeat(rng.integers(0, n, 20), 3),
        "empty": np.array([], dtype=np.intp),
        "negative": [-1, -n, 3],
        "list": [5, 2, 5],
    }
    for pattern, idx in patterns.items():
        got = basis.columns(idx)
        assert got.shape == dense[:, idx].shape, pattern
        assert np.array_equal(got, dense[:, idx]), pattern
    assert np.array_equal(basis.dense(), dense)
    for outside in ([n], [-n - 1]):
        with pytest.raises(IndexError):
            basis.columns(outside)
        with pytest.raises(IndexError):
            dense[:, outside]


def test_angular_book_of_a_large_array_is_matrix_free(record_fills, traced_peak):
    """At N = 2048 the angular book's build allocates under 1 MB, where its
    dense matrix takes 67 MB; `columns`, `correlate` and one S-SOMP call
    fill no dense matrix, and `matrix` is the dense DFT matrix bit for
    bit."""
    system = dataclasses.replace(paper_profile().system, num_antennas=2048)
    book, peak = traced_peak(build_angular_codebook, system)
    assert peak < 1 << 20
    assert isinstance(book, DftBasis) and book.nbytes == 0
    dense = _dft_matrix(2048)
    built = record_fills()
    assert np.array_equal(book.columns([0, 7, -1]), dense[:, [0, 7, -1]])
    v = _random_block(np.random.default_rng(0), 2048, 3)
    assert np.max(np.abs(book.correlate(v) - v.conj().T @ dense)) <= 1e-12 * np.linalg.norm(v)
    combining = generate_combining(7, system.num_pilot_slots, system.num_rf_chains, 2048)
    y = _random_block(np.random.default_rng(1), combining.entries.shape[0], system.num_subcarriers)
    got = s_somp(MeasurementSet(y, 0.0), combining, book, 3)
    first = np.sum(np.abs(book.correlate(combining.entries.conj().T @ y)) ** 2, axis=0)
    assert len(got.support) == 3 and got.support[0] == int(np.argmax(first))
    assert np.array_equal(got.channel_estimate, book.columns(got.support) @ got.sparse_coeffs)
    assert built == []
    assert np.array_equal(book.matrix, dense)


def test_dft_basis_coherence_stats_equal_the_dense_book(small_config, record_fills):
    book = build_angular_codebook(small_config)
    assert np.array_equal(book.dense(), _dft_matrix(small_config.num_antennas))
    held = _phase_mode_build(build_angular_codebook, small_config)
    assert isinstance(held, DftBasis)
    built = record_fills()
    assert codebook.coherence_stats(held, 300, seed=2) == codebook.coherence_stats(book, 300, seed=2)
    assert built == []


@pytest.fixture(scope="module")
def screens(small_config, desk_spec):
    """{name: (complex64 screen, dense float64 codebook of the same layout)}:
    the desk spherical book as built, and the small spherical book (G = 660,
    dense as built) with a screen built on its layout."""
    desk = build_spherical_codebook(desk_spec.system, desk_spec.delta, desk_spec.r_min_m)
    small = build_spherical_codebook(small_config, 0.55, 0.25)
    small_screen = Complex64Screen(small.layout, small_config)
    return {
        "desk": (desk, desk.dense()),
        "small": (small_screen, small.dense()),
    }


@pytest.mark.parametrize("name", ["desk", "small"])
def test_screen_holds_the_float64_matrix_rounded_once(screens, name):
    """The screen is the float64 matrix rounded to complex64 entry by entry,
    half its bytes; `dense` is that float64 matrix bit for bit."""
    screen, dense = screens[name]
    assert screen.entries.dtype == np.complex64
    assert np.array_equal(screen.entries, dense.astype(np.complex64))
    assert screen.nbytes == 8 * dense.size == dense.nbytes // 2
    assert np.array_equal(screen.dense(), dense)


def test_screen_rtol_follows_its_derivation():
    """rescore_rtol = eps (2 + eps), eps = sqrt(2) gamma_{2N} (1 + u)^2 +
    u (2 + u) + gamma_16 + u with u = 2^-24: 4.5e-5 at N = 128."""
    u = 2.0**-24
    eps = math.sqrt(2.0) * 256 * u / (1 - 256 * u) * (1 + u) ** 2 + u * (2 + u) + 16 * u / (1 - 16 * u) + u
    assert phase_modes.screen_rtol(128) == pytest.approx(eps * (2 + eps), rel=1e-12)
    assert 4.4e-5 < phase_modes.screen_rtol(128) < 4.6e-5
    assert phase_modes.screen_rtol(64) < phase_modes.screen_rtol(128)


@pytest.mark.parametrize("name", ["desk", "small"])
@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    width=st.sampled_from([1, 2, 16, 64]),
    scale=st.sampled_from([1e-30, 1.0, 1e30]),
    clustered=st.booleans(),
)
def test_screen_scores_lie_within_their_slack(screens, name, seed, width, scale, clustered):
    """`scores` and `move_scores` of the screen lie within the slack its
    `rescore_rtol` gives of the float64 scores from exact `correlate`: the
    scores within rtol ||V||_F^2, and a move within rtol ||v_1|| ||v_2||,
    the widening `_rank_one_update` adds,
    for k = 1, 2, 16 and 64 vectors, at scales float32 alone would
    underflow or overflow. `clustered` vectors lie near a few columns,
    where the scores are largest."""
    screen, dense = screens[name]
    rng = np.random.default_rng(seed)
    if clustered:
        picks = dense[:, rng.integers(0, dense.shape[1], 3)]
        v = picks @ _random_block(rng, 3, width) + 0.05 * _random_block(rng, screen.num_antennas, width)
    else:
        v = _random_block(rng, screen.num_antennas, width)
    v *= scale
    rtol = screen.rescore_rtol
    exact = np.sum(np.abs(screen.correlate(v)) ** 2, axis=0)
    assert np.max(np.abs(screen.scores(v) - exact)) <= rtol * np.linalg.norm(v) ** 2

    pair = v[:, :2] if width >= 2 else np.column_stack([v[:, 0], _random_block(rng, screen.num_antennas, 1)[:, 0] * scale])
    start = rng.uniform(0.0, 1.0, screen.num_columns) * scale**2
    got = start.copy()
    screen.move_scores(pair, got)
    x, y = screen.correlate(pair)
    want = start + (x.conj() * y).real
    bound = rtol * np.prod(np.linalg.norm(pair, axis=0)) + 1e-15 * np.abs(start).max()
    assert np.max(np.abs(got - want)) <= bound


@pytest.mark.parametrize("name", ["desk", "small"])
def test_screen_correlate_is_exact(screens, name):
    """`correlate` multiplies the exact float64 matrix: it is the dense
    product bit for bit, and zero input scores zero."""
    screen, dense = screens[name]
    v = _random_block(np.random.default_rng(4), screen.num_antennas, 3)
    got = screen.correlate(v)
    assert np.array_equal(got, v.conj().T @ dense)
    single = screen.correlate(v[:, 0])
    assert single.shape == (screen.num_columns,)
    assert np.max(np.abs(single - got[0])) <= 1e-14 * np.linalg.norm(v[:, 0])
    zero = np.zeros((screen.num_antennas, 2), dtype=complex)
    assert np.array_equal(screen.scores(zero), np.zeros(screen.num_columns))


def test_screen_correlate_fills_no_dense_matrix(screens, record_fills, traced_peak):
    """`correlate` multiplies blocks of `_FILL_COLUMNS` exact columns into
    its output: 16 vectors on the desk screen fill no matrix and trace at
    most 2 MiB (1.6 MiB measured), where filling the 7.76 MB float64
    matrix for the product traced 8.7 MiB."""
    screen = screens["desk"][0]
    v = _random_block(np.random.default_rng(5), screen.num_antennas, 16)
    built = record_fills()
    got, peak = traced_peak(screen.correlate, v)
    assert built == []
    assert got.shape == (16, screen.num_columns)
    assert peak <= 2 * 2**20


@pytest.mark.parametrize("name", ["desk", "small"])
def test_screen_columns_equal_the_dense_matrix_bit_for_bit(screens, name):
    """`columns` is exact float64: every index pattern, from the one or few
    scattered columns S-SOMP asks for to the whole book, equals
    `dense()[:, idx]` bit for bit, in the dense matrix's Fortran order, and
    so does each single column."""
    screen, dense = screens[name]
    g = screen.num_columns
    rng = np.random.default_rng(g)
    patterns = [[0], [g - 1], [-1], rng.integers(0, g, 3), rng.integers(0, g, 16), rng.integers(0, g, 17), np.arange(g)]
    for idx in patterns:
        got, want = screen.columns(idx), dense[:, idx]
        assert np.array_equal(got, want)
        assert got.flags.f_contiguous and want.flags.f_contiguous
    for j in rng.integers(0, g, 200):
        assert np.array_equal(screen.columns([j])[:, 0], dense[:, j])


def test_desk_bank_fills_no_complex128_spherical_matrix(desk_spec, monkeypatch, traced_peak):
    """A desk bank build fills the spherical book in complex64 and no
    complex128 matrix as wide as it (only the 504-column polar book is
    float64); the spherical book holds <= 8 N G bytes, and the build traces
    less than the 7.76 MB one float64 spherical matrix took."""
    fills = []
    real_fill = phase_modes.ring_matrix

    def recorded_fill(*args):
        matrix = real_fill(*args)
        fills.append((matrix.dtype, matrix.shape))
        return matrix

    # `codebook` imports `ring_matrix` by name, so both names are patched.
    for module in (phase_modes, codebook):
        monkeypatch.setattr(module, "ring_matrix", recorded_fill)
    bank, peak = traced_peak(build_codebooks, desk_spec)
    n, g = bank.spherical.num_antennas, bank.spherical.num_columns
    assert (np.complex64, (n, g)) in fills
    assert all(g < codebook._SCREEN_MIN_COLUMNS for dtype, (_, g) in fills if dtype == np.complex128)
    assert isinstance(bank.spherical, Complex64Screen) and bank.spherical.nbytes <= 8 * n * g
    assert peak < 16 * n * g
