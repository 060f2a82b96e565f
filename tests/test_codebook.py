import hashlib
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearfield import (
    ConfigurationError,
    FAR_FIELD,
    SystemConfig,
    azimuth_grid,
    build_angular_codebook,
    build_polar_codebook,
    build_spherical_codebook,
    coherence_stats,
    distance_grid,
    elevation_grid,
    first_j0_zero,
    solve_beta_delta,
    uca_radius,
)
from nearfield import codebook, phase_modes
from nearfield.codebook import (
    PairStats,
    SphericalCodebook,
    export_grid_text,
    export_matrix_binary,
    load_grid_text,
    load_matrix_binary,
    min_codebook_distance,
)
from nearfield.harness import desk_profile, paper_profile
from nearfield.phase_modes import Complex64Screen, DenseBasis, DftBasis, PhaseModes
from steering_oracle import column_correlation, far_field_steering, near_field_steering, oracle_column, oracle_matrix, uca

# sha256 of each codebook's grid text, frozen from the per-point GridPoint
# export that the grid arrays replaced.
GRID_TEXT_SHA256 = {
    "small": "48d78a5f9f45b44c1c855fb639295d3c0ab53c76705bdfcb2f3ef84ca1358a72",
    "desk": "3e88833678c316817177b7efceec0ec0f71404efa3d0e345b3623d910aa0c525",
    "polar": "3e953f2aa3a501b809baf615214c4359602db5513c5e1cfe108474b4c05dd75c",
    "angular": "29dbc65bf2f5535f66d734a7e5bb74b8047683da7ae40c027aafb54e2b508f76",
}
BOOK_NAMES = tuple(GRID_TEXT_SHA256)


@pytest.fixture(scope="module")
def books(small_codebook, desk_spec, desk_codebook):
    """The small spherical codebook and the desk spherical, polar and angular ones."""
    system = desk_spec.system
    return {
        "small": small_codebook,
        "desk": desk_codebook,
        "polar": build_polar_codebook(system, desk_spec.delta, desk_spec.r_min_m),
        "angular": build_angular_codebook(system),
    }


# Frozen paper-scale grid constants (lambda = 0.01 m, N = 512, delta = 0.55).
PAPER_T = 106
PAPER_S_AT_PLANE = 668
PAPER_AZIMUTH_STEP = 0.009393825
PAPER_Z_CAP = 18.223103
PAPER_RINGS = (18.223103, 9.111552, 6.074368, 4.555776)


def _located(layout):
    """The (t, s, z) indices (int64) and (r, theta, phi) samples (float64)
    of every column of a ring layout, in column order: two (G, 3) arrays."""
    t, s, z, r, theta, phi = layout.locate(np.arange(layout.num_columns))
    return np.column_stack([t, s, z]), np.column_stack([r, theta, phi])


def paper_geometry():
    radius = uca_radius(0.005, 512)
    return radius, 0.01, first_j0_zero()


def count_oracle(radius, wavelength, alpha, r_min, beta):
    """Independent re-enumeration of the three nested sampling loops."""
    z_cap = math.pi * radius * radius / (2.0 * wavelength * beta)
    elevation_ratio = wavelength * alpha / (2.0 * math.pi * radius)
    t_max = math.floor(1.0 / elevation_ratio)
    total = 0
    per_level = []
    for t in range(t_max + 1):
        theta = math.asin(min(1.0, t * elevation_ratio))
        if theta == 0.0:
            total += 1
            per_level.append((t, 1, 1))
            continue
        azimuth_arg = wavelength * alpha / (4.0 * math.pi * radius * math.sin(theta))
        if azimuth_arg > 1.0:
            azimuths = 1
        else:
            azimuths = math.floor(math.pi / math.asin(azimuth_arg)) + 1
        rings = 1
        z = 1
        while z_cap * math.sin(theta) ** 2 / z >= r_min:
            rings += 1
            z += 1
        total += azimuths * rings
        per_level.append((t, azimuths, rings))
    return total, per_level


def test_elevation_grid_starts_at_zero_and_increases():
    radius, wavelength, alpha = paper_geometry()
    thetas = elevation_grid(radius, wavelength, alpha)
    assert thetas[0] == 0.0
    assert all(a < b for a, b in zip(thetas, thetas[1:]))
    assert thetas[-1] <= 0.5 * math.pi + 1e-12


def test_elevation_grid_paper_count():
    radius, wavelength, alpha = paper_geometry()
    assert len(elevation_grid(radius, wavelength, alpha)) == PAPER_T + 1


def test_elevation_grid_small_array_count():
    radius = uca_radius(0.005, 64)
    assert radius == pytest.approx(0.050950, abs=1e-6)
    assert len(elevation_grid(radius, 0.01, first_j0_zero())) == 13 + 1


def test_azimuth_grid_paper_plane_count_and_step():
    radius, wavelength, alpha = paper_geometry()
    step, count = azimuth_grid(radius, wavelength, alpha, 0.5 * math.pi)
    assert count == PAPER_S_AT_PLANE + 1
    assert step == pytest.approx(PAPER_AZIMUTH_STEP, abs=1e-8)
    assert step > 0.0
    assert (count - 1) * step <= 2.0 * math.pi + 1e-12


def test_azimuth_grid_degenerate_small_array():
    assert azimuth_grid(1e-5, 0.01, first_j0_zero(), 0.5 * math.pi) == (0.0, 1)


def test_azimuth_grid_rejects_zero_elevation():
    with pytest.raises(ValueError):
        azimuth_grid(0.4, 0.01, first_j0_zero(), 0.0)


def test_distance_grid_paper_rings():
    rings = distance_grid(0.5 * math.pi, PAPER_Z_CAP, 4.0)
    assert rings[0] == FAR_FIELD
    assert len(rings) == 1 + len(PAPER_RINGS)
    for got, expected in zip(rings[1:], PAPER_RINGS):
        assert got == pytest.approx(expected, abs=1e-5)
    finite = rings[1:]
    assert all(a > b for a, b in zip(finite, finite[1:]))
    assert all(r >= 4.0 for r in finite)


def test_distance_grid_far_field_only_when_cap_below_r_min():
    assert distance_grid(0.1, 1.0, 4.0) == [FAR_FIELD]


def test_paper_z_cap_composition():
    radius, wavelength, _ = paper_geometry()
    beta = solve_beta_delta(0.55)
    z_cap = math.pi * radius**2 / (2.0 * wavelength * beta)
    assert z_cap == pytest.approx(PAPER_Z_CAP, abs=1e-5)


def test_spherical_codebook_columns_unit_norm(small_codebook):
    norms = np.linalg.norm(small_codebook.dense(), axis=0)
    assert np.allclose(norms, 1.0, atol=1e-12)


def test_spherical_codebook_matches_count_oracle(small_config, small_codebook):
    total, per_level = count_oracle(
        small_config.radius_m,
        small_config.wavelength_m,
        first_j0_zero(),
        0.25,
        solve_beta_delta(0.55),
    )
    assert small_codebook.num_columns == total
    by_level = {}
    for t, s, z in _located(small_codebook.layout)[0].tolist():
        azimuths, rings = by_level.get(t, (0, 0))
        by_level[t] = (max(azimuths, s + 1), max(rings, z + 1))
    assert by_level == {t: (azimuths, rings) for t, azimuths, rings in per_level}


def test_spherical_codebook_deterministic(small_config, small_codebook):
    again = build_spherical_codebook(small_config, 0.55, 0.25)
    assert np.array_equal(again.dense(), small_codebook.dense())
    assert (again.layout == small_codebook.layout) is True


def test_spherical_codebook_grid_consistency(small_codebook):
    layout = small_codebook.layout
    grid_indices, coords = _located(layout)
    assert len(grid_indices) == len(coords) == small_codebook.num_columns
    assert grid_indices.dtype == np.int64 and coords.dtype == np.float64
    indices = [tuple(row) for row in grid_indices.tolist()]
    assert len(indices) == len(set(indices))
    for (_, _, z), (r, _, _) in zip(indices, coords.tolist()):
        assert math.isinf(r) == (z == 0)
        if not math.isinf(r):
            assert r >= 0.25
    # `locate` returns new arrays: writing to them leaves the layout as it was.
    coords[0, 0] = 1.0
    assert math.isinf(_located(layout)[1][0, 0])


def test_spherical_codebook_zenith_contributes_one_column(small_codebook):
    indices, coords = _located(small_codebook.layout)
    zenith = coords[indices[:, 0] == 0]
    assert len(zenith) == 1
    assert math.isinf(zenith[0, 0])


def test_codebook_grid_equality_is_a_bool(small_codebook):
    """The grid is the codebook's ring layout, which compares by value with a
    plain bool: equal when rebuilt from its elevations, unequal when one
    elevation's azimuth step moves by 1e-12 or an azimuth goes."""
    layout = small_codebook.layout
    elevations = [(theta, step, count, rings) for theta, step, count, rings, _ in layout.elevations()]
    assert (codebook._RingLayout(elevations) == layout) is True
    theta, step, count, rings = elevations[-1]
    assert (codebook._RingLayout([*elevations[:-1], (theta, step + 1e-12, count, rings)]) == layout) is False
    assert (codebook._RingLayout([*elevations[:-1], (theta, step, count - 1, rings)]) == layout) is False
    assert layout != tuple(_located(layout)[0].tolist())


def _azimuth_array(radius_m, wavelength_m, alpha, theta):
    """`azimuth_grid` as it was while the layout held every azimuth: the
    float64 array np.arange(S + 1) * 2.0 * half_step, or the single 0.0."""
    arg = wavelength_m * alpha / (4.0 * math.pi * radius_m * math.sin(theta))
    if arg > 1.0:
        return np.zeros(1)
    half_step = math.asin(arg)
    return np.arange(math.floor(math.pi / half_step) + 1) * 2.0 * half_step


def _assert_azimuths_equal_the_array_oracle(layout, system):
    """Each column's phi from `locate` is, bit for bit, azimuth s of its
    elevation's `_azimuth_array`, the single 0.0 at theta = 0."""
    _, s, _, _, _, phi = layout.locate(np.arange(layout.num_columns))
    for t, theta in enumerate(layout.thetas.tolist()):
        phis = np.zeros(1) if theta == 0.0 else _azimuth_array(system.radius_m, system.wavelength_m, first_j0_zero(), theta)
        columns = slice(layout.column_starts[t], layout.column_starts[t + 1])
        assert layout.counts[t] == phis.size, t
        assert phi[columns].tobytes() == phis[s[columns]].tobytes(), t


@pytest.mark.parametrize("profile", ["desk", "paper"])
def test_located_azimuths_equal_the_array_oracle(profile):
    """The spherical and polar books place every column at the azimuth the
    layout held when it stored each one."""
    spec = desk_profile() if profile == "desk" else paper_profile()
    for build in (build_spherical_codebook, build_polar_codebook):
        _assert_azimuths_equal_the_array_oracle(build(spec.system, spec.delta, spec.r_min_m).layout, spec.system)


@settings(max_examples=25, deadline=None)
@given(system=st.builds(uca, st.integers(3, 128), antenna_spacing_m=st.floats(1e-3, 1e-2), carrier_freq_hz=st.floats(3e9, 6e10)))
def test_located_azimuths_of_any_array_equal_the_array_oracle(system):
    """On any array (N, spacing and carrier drawn), a layout of each
    elevation's `azimuth_grid`, as the spherical build makes it, locates
    every azimuth where the stored array put it."""
    radius, lam, alpha = system.radius_m, system.wavelength_m, first_j0_zero()
    thetas = elevation_grid(radius, lam, alpha)
    grids = [(0.0, 1) if theta == 0.0 else azimuth_grid(radius, lam, alpha, theta) for theta in thetas]
    layout = codebook._RingLayout((theta, step, count, [FAR_FIELD]) for theta, (step, count) in zip(thetas, grids))
    _assert_azimuths_equal_the_array_oracle(layout, system)


def _grid_of(spec, thetas):
    """The grid arrays of every column, built per elevation from its
    stored azimuths and ring list, as the codebook held them before it
    kept its ring layout. The Bessel root alpha, beta_delta and the
    distance cap pi R^2 / (2 lambda beta_delta) are derived here from the
    system, not read from the book."""
    system = spec.system
    radius, lam = system.radius_m, system.wavelength_m
    alpha = first_j0_zero()
    z_cap = math.pi * radius**2 / (2.0 * lam * solve_beta_delta(spec.delta))
    indices, coords = [], []
    for t, theta in enumerate(thetas):
        if theta == 0.0:
            phis, rings = [0.0], [FAR_FIELD]
        else:
            phis = _azimuth_array(radius, lam, alpha, theta)
            rings = distance_grid(theta, z_cap, spec.r_min_m)
        s, z = np.divmod(np.arange(len(phis) * len(rings), dtype=np.int64), len(rings))
        indices.append(np.column_stack([np.full_like(s, t), s, z]))
        coords.append(np.column_stack([np.asarray(rings)[z], np.full(s.size, theta), np.asarray(phis)[s]]))
    return np.concatenate(indices), np.concatenate(coords)


@pytest.mark.parametrize("phase_modes", [False, True])
@pytest.mark.parametrize("polar", [False, True])
def test_grid_built_on_first_read_equals_the_per_elevation_oracle(desk_spec, monkeypatch, phase_modes, polar, record_fills):
    """A ring-built codebook keeps its grid as its ring layout, whose arrays
    `grid` reads, and fills the matrix its representation holds and nothing
    more. Every column the layout locates equals the per-elevation
    construction bit for bit, and so do the float64 azimuth grids. The desk
    polar book (G = 504) holds its matrix and the spherical one
    (G = 3 789) a complex64 screen, unless phase modes are forced."""
    if phase_modes:
        monkeypatch.setattr(codebook, "_PHASE_MODE_MIN_ANTENNAS", 1)
    system = desk_spec.system
    build = build_polar_codebook if polar else build_spherical_codebook
    built = record_fills()
    book = build(system, desk_spec.delta, desk_spec.r_min_m)
    assert isinstance(book, SphericalCodebook)
    if phase_modes:
        assert isinstance(book, PhaseModes)
    elif polar:
        assert isinstance(book, DenseBasis)
    else:
        assert isinstance(book, Complex64Screen)
    assert built == ([] if phase_modes else ["matrix"])
    assert book.grid is book.layout
    thetas = [0.5 * math.pi] if polar else elevation_grid(system.radius_m, system.wavelength_m, first_j0_zero())
    want_indices, want_coords = _grid_of(desk_spec, thetas)
    indices, coords = _located(book.layout)
    assert built == ([] if phase_modes else ["matrix"])
    assert indices.dtype == np.int64 and coords.dtype == np.float64
    assert np.array_equal(indices, want_indices) and np.array_equal(coords, want_coords)
    assert book.num_columns == len(want_indices)
    for theta in thetas[1:]:
        step, count = azimuth_grid(system.radius_m, system.wavelength_m, first_j0_zero(), theta)
        assert type(step) is float and type(count) is int
        assert np.array_equal(np.arange(count) * step, _azimuth_array(system.radius_m, system.wavelength_m, first_j0_zero(), theta))


def test_spherical_codebook_columns_match_direct_steering(desk_spec, desk_codebook):
    # Every column of the desk spherical and polar codebooks equals the
    # per-column oracle bit for bit.
    system = desk_spec.system
    polar = build_polar_codebook(system, desk_spec.delta, desk_spec.r_min_m)
    for book in (desk_codebook, polar):
        assert np.array_equal(book.dense(), oracle_matrix(book.layout, system))


def test_codebook_fill_propagates_kernel_errors(small_config, monkeypatch):
    def failing_kernel(*args):
        raise RuntimeError("kernel failed")

    monkeypatch.setattr(phase_modes, "ring_steering", failing_kernel)
    with pytest.raises(RuntimeError, match="kernel failed"):
        build_spherical_codebook(small_config, 0.55, 0.25)


@pytest.mark.slow
def test_paper_spherical_codebook_matches_per_column_oracle(record_fills):
    # Column by column, so the test never holds a second 822 MB matrix. The
    # paper codebook holds phase modes: its exact columns, which fill no
    # matrix, and the matrix it fills must both equal the oracle.
    spec = paper_profile()
    book = build_spherical_codebook(spec.system, spec.delta, spec.r_min_m)
    assert book.num_columns == 100358
    assert isinstance(book, PhaseModes)
    coords = _located(book.layout)[1].tolist()
    built = record_fills()
    mismatched = []
    for start in range(0, book.num_columns, 4096):
        block = book.columns(np.arange(start, min(start + 4096, book.num_columns)))
        for offset, column in enumerate(block.T):
            if not np.array_equal(column, oracle_column(coords[start + offset], spec.system)):
                mismatched.append(start + offset)
    assert mismatched == []
    assert built == []
    matrix = book.dense()
    for col, point in enumerate(coords):
        if not np.array_equal(matrix[:, col], oracle_column(point, spec.system)):
            mismatched.append(col)
    assert mismatched == []
    # Correlations, the exact column walk, match the dense product to 1e-14 of ||v||.
    rng = np.random.default_rng(0)
    v = rng.standard_normal((book.num_antennas, 16)) + 1j * rng.standard_normal((book.num_antennas, 16))
    error = np.abs(book.correlate(v) - v.conj().T @ matrix)
    assert (error / np.linalg.norm(v, axis=0)[:, None]).max() <= 1e-14


def test_spherical_codebook_rejects_r_min_inside_reactive_region(small_config):
    floor_m = min_codebook_distance(small_config)
    with pytest.raises(ConfigurationError) as err:
        build_spherical_codebook(small_config, 0.55, 0.5 * floor_m)
    assert f"{floor_m:.6g}" in str(err.value)


def test_spherical_codebook_rejects_bad_delta(small_config):
    with pytest.raises(ConfigurationError):
        build_spherical_codebook(small_config, 0.0, 0.25)


def test_polar_codebook_is_coplanar_subset(small_config, small_codebook):
    polar = build_polar_codebook(small_config, 0.55, 0.25)
    assert np.all(_located(polar.layout)[1][:, 1] == 0.5 * math.pi)
    assert polar.num_columns <= small_codebook.num_columns


def test_polar_codebook_paper_count():
    config = SystemConfig(30e9, 100e6, 4, 512, 0.005, 4, 32)
    polar = build_polar_codebook(config, 0.55, 4.0)
    assert polar.num_columns == (PAPER_S_AT_PLANE + 1) * (len(PAPER_RINGS) + 1)


def test_angular_codebook_is_unitary(small_config):
    angular = build_angular_codebook(small_config)
    n = small_config.num_antennas
    assert angular.num_columns == n
    matrix = angular.dense()
    gram = matrix.conj().T @ matrix
    assert np.allclose(gram, np.eye(n), atol=1e-10)
    assert np.allclose(matrix[:, 0], 1.0 / math.sqrt(n), atol=1e-14)


def test_column_correlation_basic_cases(small_config):
    angular = build_angular_codebook(small_config)
    b0, b1 = angular.columns([0, 1]).T
    assert column_correlation(b0, b0) == pytest.approx(1.0, abs=1e-12)
    assert column_correlation(b0, b1) < 1e-10
    with pytest.raises(ValueError):
        column_correlation(b0, b1[:-1])


def test_adjacent_ring_correlation_tracks_threshold():
    # Eq.-13-style check at paper scale: adjacent rings should correlate
    # near delta = 0.55; the Bessel relation is approximate, so +/- 0.2.
    system = uca(512)
    rings = distance_grid(0.5 * math.pi, PAPER_Z_CAP, 4.0)
    columns = [far_field_steering(0.5 * math.pi, 0.0, system)]
    columns += [
        near_field_steering(r, 0.5 * math.pi, 0.0, system) for r in rings[1:]
    ]
    for a, b in zip(columns, columns[1:]):
        assert 0.35 <= column_correlation(a, b) <= 0.75


def test_adjacent_elevation_correlation_matches_bessel_prediction():
    # The sampling rule nulls |J0(2 pi R delta_sin_theta / lambda)| for
    # neighbouring elevations; the exact inner product should stay within
    # 0.15 of that prediction at the far-field ring.
    from nearfield import bessel_j0

    system = uca(512)
    radius, wavelength, alpha = paper_geometry()
    thetas = elevation_grid(radius, wavelength, alpha)
    vectors = [far_field_steering(theta, 0.0, system) for theta in thetas]
    for (theta_a, a), (theta_b, b) in zip(zip(thetas, vectors), zip(thetas[1:], vectors[1:])):
        predicted = abs(
            bessel_j0(2.0 * math.pi * radius * (math.sin(theta_b) - math.sin(theta_a)) / wavelength)
        )
        assert abs(column_correlation(a, b) - predicted) < 0.15


def test_adjacent_ring_correlation_matches_bessel_prediction():
    # Rings are spaced so beta = pi R^2 sin^2(theta)/(2 lambda) |1/r_p - 1/r_q|
    # equals beta_delta between neighbours; exact correlations may drift from
    # |J0(beta)| by up to 0.2.
    from nearfield import bessel_j0

    system = uca(512)
    radius, wavelength, _ = paper_geometry()
    beta_delta = solve_beta_delta(0.55)
    z_cap = math.pi * radius**2 / (2.0 * wavelength * beta_delta)
    rings = distance_grid(0.5 * math.pi, z_cap, 4.0)[1:]
    columns = [near_field_steering(r, 0.5 * math.pi, 0.0, system) for r in rings]
    for (r_a, a), (r_b, b) in zip(zip(rings, columns), zip(rings[1:], columns[1:])):
        beta = math.pi * radius**2 / (2.0 * wavelength) * abs(1.0 / r_a - 1.0 / r_b)
        assert beta == pytest.approx(beta_delta, rel=1e-9)
        assert abs(column_correlation(a, b) - abs(bessel_j0(beta))) < 0.2


def test_coherence_stats_single_column(small_config):
    book = build_angular_codebook(small_config)
    single = DenseBasis(codebook._RingLayout([(0.5 * math.pi, 0.0, 1, [FAR_FIELD])]), book.columns([0]))
    for got, want in zip(_located(single.layout), _located(book.layout)):
        assert np.array_equal(got, want[:1])
    stats = coherence_stats(single, 10)
    assert stats.random_pairs.count == 0
    assert stats.adjacent_azimuth.count == 0


def test_coherence_stats_dft_codebook(small_config):
    stats = coherence_stats(build_angular_codebook(small_config), 500, seed=3)
    assert stats.adjacent_azimuth.max < 1e-10
    assert stats.random_pairs.max < 1e-10


def test_coherence_stats_desk_codebook(desk_codebook):
    stats = coherence_stats(desk_codebook, 1000, seed=0)
    assert stats.adjacent_elevation.mean < 0.3
    assert 0.35 <= stats.adjacent_distance.mean <= 0.75
    again = coherence_stats(desk_codebook, 1000, seed=0)
    assert again == stats


def _gathered_correlations(matrix, left, right, chunk=16384):
    """|b1^H b2| of column pairs gathered from the dense matrix, a chunk of
    pairs at a time, as `coherence_stats` computed them before it walked
    the ring layout."""
    out = np.empty(left.size)
    for start in range(0, left.size, chunk):
        stop = start + chunk
        a = matrix[:, left[start:stop]]
        np.conjugate(a, out=a)
        b = matrix[:, right[start:stop]]
        out[start:stop] = np.abs(np.einsum("ij,ij->j", a, b))
    return out


def _adjacent_correlations_by_dict(book, matrix):
    """The correlations of the column pairs adjacent in t, s and z, found
    through a dict of (t, s, z) tuples, in ascending order of the first
    column of each pair, and gathered from the book's dense `matrix`."""
    by_index = {tuple(ids): col for col, ids in enumerate(_located(book.layout)[0].tolist())}
    axes = {0: ([], []), 1: ([], []), 2: ([], [])}
    for (t, s, z), col in by_index.items():
        for axis, neighbour in enumerate(((t + 1, s, z), (t, s + 1, z), (t, s, z + 1))):
            other = by_index.get(neighbour)
            if other is not None:
                axes[axis][0].append(col)
                axes[axis][1].append(other)
    return [_gathered_correlations(matrix, *map(np.array, axes[axis])) for axis in range(3)]


def _coherence_stats_by_dict(book, sample_budget, seed=0):
    """The dict-of-tuples `coherence_stats` with gathered pairs that the
    ring-layout walk replaced, kept as its oracle."""
    matrix = book.dense()
    adjacent = [PairStats.from_values(values) for values in _adjacent_correlations_by_dict(book, matrix)]
    g = book.num_columns
    if g < 2:
        random_stats = PairStats.from_values(np.empty(0))
    else:
        rng = np.random.default_rng(seed)
        left = rng.integers(0, g, size=sample_budget)
        right = rng.integers(0, g - 1, size=sample_budget)
        right = np.where(right >= left, right + 1, right)
        random_stats = PairStats.from_values(_gathered_correlations(matrix, left, right))
    return codebook.CoherenceStats(*adjacent, random_stats)


@pytest.mark.parametrize("name", BOOK_NAMES)
def test_coherence_stats_matches_dict_oracle(books, name):
    # Both versions must also correlate the same column pairs in the same
    # order: the per-pair values are equal bit for bit, element by element.
    book = books[name]
    got = codebook._adjacent_correlations(book)
    want = _adjacent_correlations_by_dict(book, book.dense())
    for axis in range(3):
        assert got[axis].dtype == np.float64
        assert np.array_equal(got[axis], want[axis]), axis
    # The counts `codebook stats` prints before the walk are the walk's.
    assert [size.sum() for size in codebook.adjacent_pair_sizes(book.layout)[-1]] == [len(values) for values in want]
    assert coherence_stats(book, 700, seed=5) == _coherence_stats_by_dict(book, 700, seed=5)


@pytest.mark.slow
def test_paper_coherence_stats_are_matrix_free_and_match_the_gather_oracle(record_fills, traced_peak):
    """On the phase-mode paper book, coherence takes two elevations' columns
    at a time: a traced peak under 300 MB, where the dense matrix alone is
    822 MB. Its statistics equal the gather oracle's bit for bit, and its
    adjacent rows' maxima and medians are pinned at the 4 decimals
    `codebook stats` prints."""
    spec = paper_profile()
    book = build_spherical_codebook(spec.system, spec.delta, spec.r_min_m)
    built = record_fills()
    got, peak = traced_peak(coherence_stats, book, 2000, 0)
    assert built == []
    assert peak < 300e6
    assert got == _coherence_stats_by_dict(book, 2000, seed=0)
    rows = (got.adjacent_elevation, got.adjacent_azimuth, got.adjacent_distance)
    assert [f"{row.max:.4f} {row.median:.4f}" for row in rows] == ["0.4028 0.1854", "0.0050 0.0001", "0.5500 0.5492"]


@pytest.mark.slow
def test_paper_grid_text_equals_the_export_of_the_whole_grid(tmp_path, record_fills):
    """The paper grid, written in chunks of `layout.locate`, is byte for byte
    the text of its whole grid, which the export is not left to build."""
    spec = paper_profile()
    book = build_spherical_codebook(spec.system, spec.delta, spec.r_min_m)
    path = tmp_path / "grid.txt"
    built = record_fills()
    export_grid_text(book, path)
    assert built == []
    indices, coords = _located(book.layout)
    columns = (*indices.T.tolist(), *coords.T.tolist())
    want = "".join(f"{t},{s},{z},{r!r},{theta!r},{phi!r}\n" for t, s, z, r, theta, phi in zip(*columns))
    assert path.read_text(encoding="utf-8") == want


def _representations(desk_spec):
    """The desk spherical book held each way: {name: codebook}."""
    system = desk_spec.system
    screened = build_spherical_codebook(system, desk_spec.delta, desk_spec.r_min_m)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(codebook, "_PHASE_MODE_MIN_ANTENNAS", 1)
        held = build_spherical_codebook(system, desk_spec.delta, desk_spec.r_min_m)
    return {
        "dense": DenseBasis(screened.layout, screened.dense()),
        "screen": screened,
        "phase modes": held,
    }


@pytest.mark.parametrize("azimuths", [1, 7, 256])
def test_sliced_coherence_walk_equals_the_dict_oracle(desk_spec, monkeypatch, azimuths, record_fills):
    """Walked in slices of 1, 7 and 256 azimuths (the desk book's
    elevations have up to 82, so 7 cuts every elevation but the zenith,
    and 256 cuts none, as the default `_FILL_COLUMNS` of 128 does), the
    per-pair values equal the dict oracle's bit for bit and in the same
    order, and the statistics are identical, on the desk spherical book
    dense, screened and with phase modes forced. No book fills a dense
    matrix."""
    books = _representations(desk_spec)
    monkeypatch.setattr(phase_modes, "_FILL_COLUMNS", azimuths)
    want = _adjacent_correlations_by_dict(books["dense"], books["dense"].dense())
    stats = _coherence_stats_by_dict(books["dense"], 700, seed=5)
    assert books["dense"].layout.counts.max() > 7
    built = record_fills()
    for name, book in books.items():
        got = codebook._adjacent_correlations(book)
        for axis in range(3):
            assert np.array_equal(got[axis], want[axis]), (name, axis)
        assert coherence_stats(book, 700, seed=5) == stats, name
    assert built == []


def test_coherence_walk_holds_a_few_slices(desk_spec, monkeypatch, traced_peak):
    """With 8-azimuth slices, the walk over the desk book's dense columns
    traces under half of one block of its largest elevation (82 azimuths x
    3 rings, 1.0 MB): measured, 0.31 MB. Walking whole elevations, it held
    three such blocks at once and traced 3.1 MB."""
    book = _representations(desk_spec)["dense"]
    layout = book.layout
    largest = 16 * book.num_antennas * int((layout.counts * np.diff(layout.ring_starts)).max())
    monkeypatch.setattr(phase_modes, "_FILL_COLUMNS", 8)
    codebook._adjacent_correlations(book)
    assert traced_peak(codebook._adjacent_correlations, book)[1] < 0.5 * largest


def test_grid_text_is_written_in_chunks_from_the_layout(tmp_path, desk_spec, monkeypatch, record_fills):
    """The grid export, in chunks of 1 000 points (3 789 is not a multiple),
    writes the frozen desk text byte for byte from each representation of
    the desk spherical book, and fills no matrix."""
    monkeypatch.setattr(phase_modes, "_FILL_COLUMNS", 1000)
    books = _representations(desk_spec)
    built = record_fills()
    for name, book in books.items():
        path = tmp_path / f"{name}.txt"
        export_grid_text(book, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == GRID_TEXT_SHA256["desk"], name
    assert built == []


def test_grid_text_export_holds_no_grid(tmp_path, desk_codebook, monkeypatch, traced_peak):
    """In chunks of 256 points, the export traces less than the desk grid's
    own arrays, 48 B per column (182 kB; measured, 0.1 MB): it never holds
    the grid. Exporting from the whole grid traced 0.67 MB, mostly the
    Python numbers of its rows."""
    monkeypatch.setattr(phase_modes, "_FILL_COLUMNS", 256)
    path = tmp_path / "grid.txt"
    export_grid_text(desk_codebook, path)
    assert traced_peak(export_grid_text, desk_codebook, path)[1] < 48 * desk_codebook.num_columns


def test_coherence_stats_rejects_zero_budget(small_codebook):
    with pytest.raises(ValueError):
        coherence_stats(small_codebook, 0)


def test_grid_text_round_trip(tmp_path, books):
    # The text is byte-identical to the frozen export, and loads back to a
    # grid that compares equal with a plain bool.
    for name, book in books.items():
        path = tmp_path / f"{name}.txt"
        export_grid_text(book, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == GRID_TEXT_SHA256[name], name
        assert (load_grid_text(path) == book.layout) is True, name


def _rebuilt(name, book, layout, system):
    """A book of `book`'s class on `layout`, built as its build builds it."""
    if name == "angular":
        dft = DftBasis(layout)
        return dft if isinstance(book, DftBasis) else DenseBasis(layout, dft.dense())
    if isinstance(book, DenseBasis):
        return DenseBasis(layout, phase_modes.ring_matrix(layout, system))
    return type(book)(layout, book.system)


def _check_loaded_grid_rebuilds(tmp_path, books, system):
    """Each book's grid text loads as its layout, and the same class built
    on the loaded layout fills every 97th column bit for bit."""
    for name, book in books.items():
        path = tmp_path / f"{name}.txt"
        export_grid_text(book, path)
        layout = load_grid_text(path)
        assert (layout == book.layout) is True, name
        rebuilt = _rebuilt(name, book, layout, system)
        assert type(rebuilt) is type(book), name
        idx = np.arange(0, book.num_columns, 97)
        assert np.array_equal(rebuilt.columns(idx), book.columns(idx)), name


def test_loaded_desk_grids_rebuild_their_books(tmp_path, books, desk_spec):
    _check_loaded_grid_rebuilds(tmp_path, {name: books[name] for name in ("desk", "polar", "angular")}, desk_spec.system)


@pytest.mark.slow
def test_loaded_paper_grids_rebuild_their_books(tmp_path):
    spec = paper_profile()
    system = spec.system
    books = {
        "desk": build_spherical_codebook(system, spec.delta, spec.r_min_m),
        "polar": build_polar_codebook(system, spec.delta, spec.r_min_m),
        "angular": build_angular_codebook(system),
    }
    assert [type(book) for book in books.values()] == [PhaseModes, PhaseModes, DftBasis]
    _check_loaded_grid_rebuilds(tmp_path, books, system)


# Finite floats with -0.0 and subnormals always among the draws.
_EDGE_FLOATS = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, -2.5e-310]), st.floats(allow_nan=False, allow_infinity=False))


def _azimuth_grids():
    """(step, count) of 1 to 4 azimuths with every s * step finite: -0.0,
    subnormal and extreme steps, and any finite step for one azimuth, which
    the layout holds as 0.0 since the grid text cannot show it."""
    def grid(count):
        return st.tuples(_EDGE_FLOATS.filter(lambda step: math.isfinite((count - 1) * step)), st.just(count))

    return st.integers(1, 4).flatmap(grid)


@settings(max_examples=60, deadline=None)
@given(
    elevations=st.lists(
        st.tuples(
            _EDGE_FLOATS,
            _azimuth_grids(),
            st.lists(st.one_of(st.just(math.inf), _EDGE_FLOATS), min_size=1, max_size=3),
        ),
        min_size=1,
        max_size=4,
    )
)
def test_grid_text_round_trip_property(tmp_path_factory, elevations):
    """Any ring layout, with -0.0, subnormal and extreme azimuth steps and
    r = inf rings, loads back bit for bit, also when it is written in
    chunks of 5 points."""
    layout = codebook._RingLayout((theta, step, count, rings) for theta, (step, count), rings in elevations)
    book = types.SimpleNamespace(layout=layout)  # the export reads only the layout
    path = tmp_path_factory.mktemp("grid") / "grid.txt"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(phase_modes, "_FILL_COLUMNS", 5)
        export_grid_text(book, path)
    loaded = load_grid_text(path)
    assert (loaded == layout) is True
    for name in ("thetas", "steps", "counts", "column_starts", "ring_starts", "rings"):
        assert getattr(loaded, name).tobytes() == getattr(layout, name).tobytes(), name


# Three elevations: the zenith column, 2 azimuths x 2 rings, and one column.
_GRID_ROWS = [
    "0,0,0,inf,0.0,0.0",
    "1,0,0,inf,0.5,0.0",
    "1,0,1,2.0,0.5,0.0",
    "1,1,0,inf,0.5,1.5",
    "1,1,1,2.0,0.5,1.5",
    "2,0,0,inf,1.0,0.0",
]


# `_GRID_ROWS` with a third azimuth in elevation 1, at s = 2: 2 x 1.5.
_EVEN_ROWS = _GRID_ROWS[:5] + ["1,2,0,inf,0.5,3.0", "1,2,1,2.0,0.5,3.0"] + _GRID_ROWS[5:]
_OFF_STEP = "3.000000000001"  # 3.0 moved by 1e-12


def _grid_text(rows):
    return "".join(f"{row}\n" for row in rows)


def _with_row(number, row):
    """`_GRID_ROWS` with line `number` replaced by `row`."""
    return _grid_text(_GRID_ROWS[: number - 1] + [row] + _GRID_ROWS[number:])


_MALFORMED_GRIDS = [
    *(pytest.param(f"0,0,0,inf,0.0,0.0\n\n{line}\n", 3, id=line) for line in ["1.5,0,0,inf,0.1,0.2", "1,0,0,inf,0.1", "1,0,0,inf,0.1,0.2,0.3", "1,0,0,inf,north,0.2"]),
    pytest.param(f"0,0,0,inf,0.0,0.0\n\n{2**63},0,0,inf,0.1,0.2\n", 3, id="index-outside-int64"),
    pytest.param(_grid_text(_GRID_ROWS[:2] + [_GRID_ROWS[3], _GRID_ROWS[2]] + _GRID_ROWS[4:]), 3, id="swapped-rows"),
    pytest.param(_grid_text(_GRID_ROWS[:3] + _GRID_ROWS[2:]), 4, id="duplicated-row"),
    pytest.param(_grid_text(_GRID_ROWS[:4] + _GRID_ROWS[5:]), 5, id="truncated-elevation"),
    pytest.param(_grid_text(_GRID_ROWS[:5]) + "\n" + "2,1,0,inf,1.0,3.0\n", 7, id="row-beyond-the-grid"),
    pytest.param(_grid_text(_GRID_ROWS[:4]), 5, id="truncated-file"),
    pytest.param(_with_row(3, "1,0,1,nan,0.5,0.0"), 3, id="nan-r"),
    pytest.param(_with_row(3, "1,0,1,-inf,0.5,0.0"), 3, id="-inf-r"),
    pytest.param(_with_row(2, "1,0,0,inf,nan,0.0"), 2, id="nan-theta"),
    pytest.param(_with_row(4, "1,1,0,inf,0.5,nan"), 4, id="nan-phi"),
    pytest.param(_with_row(4, "1,1,0,inf,inf,1.5"), 4, id="inf-theta"),
    pytest.param(_with_row(5, "1,1,1,2.0,-inf,1.5"), 5, id="-inf-theta"),
    pytest.param(_with_row(4, "1,1,0,inf,0.5,inf"), 4, id="inf-phi"),
    pytest.param(_with_row(2, "1,0,0,inf,0.5,-inf"), 2, id="-inf-phi"),
    pytest.param(_grid_text(_EVEN_ROWS[:5] + [f"1,2,0,inf,0.5,{_OFF_STEP}"] + _EVEN_ROWS[6:]), 6, id="one-row-off-the-step"),
    pytest.param(_grid_text(_EVEN_ROWS[:5] + [f"1,2,0,inf,0.5,{_OFF_STEP}", f"1,2,1,2.0,0.5,{_OFF_STEP}"] + _EVEN_ROWS[7:]), 6, id="one-azimuth-off-the-step"),
    pytest.param("", 1, id="empty"),
    pytest.param("\n\n", 1, id="blank-lines-only"),
]


@pytest.mark.parametrize("text, line", _MALFORMED_GRIDS)
def test_load_grid_text_rejects_malformed_lines(tmp_path, text, line):
    """The error names the file and the first line out of place, counting
    blank lines; the grid the cases are cut from loads."""
    path = tmp_path / "grid.txt"
    path.write_text(_grid_text(_GRID_ROWS))
    assert load_grid_text(path).num_columns == len(_GRID_ROWS)
    path.write_text(text)
    with pytest.raises(ValueError, match=f"grid.txt:{line}: "):
        load_grid_text(path)


def test_load_grid_text_reads_each_elevation_step_and_count(tmp_path):
    """Each elevation's step is its s = 1 azimuth (0.0 for one azimuth) and
    its count that of its z = 0 rows."""
    path = tmp_path / "grid.txt"
    path.write_text(_grid_text(_EVEN_ROWS))
    layout = load_grid_text(path)
    assert layout.steps.tolist() == [0.0, 1.5, 0.0]
    assert layout.counts.tolist() == [1, 3, 1]
    assert layout.num_columns == len(_EVEN_ROWS)


def test_matrix_binary_round_trip(tmp_path, small_codebook):
    path = tmp_path / "matrix.bin"
    export_matrix_binary(small_codebook, path)
    loaded = load_matrix_binary(path)
    assert np.array_equal(loaded, small_codebook.dense())
    with open(path, "rb") as handle:
        header = handle.read(16)
    assert header[:4] == b"SPHW"
    n = int.from_bytes(header[8:12], "little")
    g = int.from_bytes(header[12:16], "little")
    assert (n, g) == small_codebook.dense().shape


def test_matrix_binary_rejects_corrupt_header(tmp_path):
    path = tmp_path / "broken.bin"
    path.write_bytes(b"NOPE" + bytes(12))
    with pytest.raises(ValueError):
        load_matrix_binary(path)


def test_matrix_binary_layout_is_header_then_column_major(tmp_path, desk_codebook):
    path = tmp_path / "matrix.bin"
    export_matrix_binary(desk_codebook, path)
    matrix = desk_codebook.dense()
    n, g = matrix.shape
    header = b"SPHW" + (1).to_bytes(4, "little") + n.to_bytes(4, "little") + g.to_bytes(4, "little")
    assert path.read_bytes() == header + matrix.astype("<c16").tobytes(order="F")


def test_matrix_binary_holds_no_matrix_sized_temporary(tmp_path, desk_codebook, traced_peak):
    path = tmp_path / "matrix.bin"
    nbytes = 16 * desk_codebook.num_antennas * desk_codebook.num_columns  # the dense matrix's bytes
    assert traced_peak(export_matrix_binary, desk_codebook, path)[1] < 0.25 * nbytes
    # The load allocates its result, which shows the allocations are traced.
    _, peak = traced_peak(load_matrix_binary, path)
    assert nbytes <= peak < 1.25 * nbytes


@pytest.mark.parametrize("change", [-16, -1, 1])
def test_matrix_binary_rejects_wrong_payload_size(tmp_path, small_codebook, change):
    path = tmp_path / "matrix.bin"
    export_matrix_binary(small_codebook, path)
    data = path.read_bytes()
    path.write_bytes(data[:change] if change < 0 else data + bytes(change))
    with pytest.raises(ValueError, match="payload bytes"):
        load_matrix_binary(path)
