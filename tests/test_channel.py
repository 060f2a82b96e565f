import math
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearfield import (
    C_LIGHT,
    ConfigurationError,
    PathParams,
    SystemConfig,
    azimuth_cosines,
    channel,
    generate_channel,
    generate_combining,
    oracle_estimate,
    ring_steering,
    sample_paths,
    subcarrier_frequencies,
    synthesize_measurements,
    uca_radius,
)
from nearfield.channel import path_steering
from steering_oracle import (
    antenna_azimuths,
    approx_distance,
    exact_distance,
    far_field_column,
    far_field_steering,
    law_of_cosines_column,
    near_field_column,
    near_field_steering,
    uca,
)

# Frozen from direct evaluation (Cartesian oracle below for distances).
RADIUS_512 = 0.4074392109611285
EXACT_DIST_EXAMPLE = 9.755814464735570


def paper_system(**overrides):
    params = dict(
        carrier_freq_hz=30e9,
        bandwidth_hz=100e6,
        num_subcarriers=16,
        num_antennas=512,
        antenna_spacing_m=0.005,
        num_rf_chains=4,
        num_pilot_slots=32,
    )
    params.update(overrides)
    return SystemConfig(**params)


def cartesian_distance(r, theta, phi, psi, radius):
    """Oracle: explicit 3-D coordinates instead of the law of cosines."""
    source = np.array(
        [r * math.sin(theta) * math.cos(phi), r * math.sin(theta) * math.sin(phi), r * math.cos(theta)]
    )
    antenna = np.array([radius * math.cos(psi), radius * math.sin(psi), 0.0])
    return float(np.linalg.norm(source - antenna))


def test_uca_radius_hexagon_equals_spacing():
    assert uca_radius(0.005, 6) == pytest.approx(0.005, abs=1e-15)


def test_uca_radius_paper_geometry_and_rayleigh_distance():
    radius = uca_radius(0.005, 512)
    assert radius == pytest.approx(RADIUS_512, abs=1e-12)
    wavelength = C_LIGHT / 30e9
    rayleigh = 2.0 * (2.0 * radius) ** 2 / wavelength
    assert rayleigh == pytest.approx(132.9, rel=5e-3)


def test_uca_radius_square_array():
    assert uca_radius(0.005, 4) == pytest.approx(0.005 / math.sqrt(2.0), abs=1e-15)


def test_uca_radius_rejects_degenerate_count():
    with pytest.raises(ConfigurationError):
        uca_radius(0.005, 2)


def test_system_config_validation():
    with pytest.raises(ConfigurationError):
        paper_system(num_subcarriers=0)
    with pytest.raises(ConfigurationError):
        paper_system(carrier_freq_hz=-1.0)
    # Each count is an integer: these four once built both codebooks and
    # swept NaN rows, or ran with M = 1.
    for name, value in (("num_pilot_slots", 16.0), ("num_rf_chains", 4.0), ("num_antennas", 128.5), ("num_subcarriers", True)):
        with pytest.raises(ConfigurationError, match=f"{name} must be an integer, got {value!r}"):
            paper_system(**{name: value})
    assert paper_system(num_antennas=np.int64(128)).num_antennas == 128


def test_subcarrier_center_and_endpoint():
    config = paper_system(num_subcarriers=16)
    freqs = subcarrier_frequencies(config)
    assert freqs[16 // 2 - 1] == pytest.approx(30e9, abs=1e-3)  # m = M/2
    assert freqs[-1] == pytest.approx(30e9 + 100e6 / 2.0, abs=1e-3)  # m = M
    assert freqs[0] == pytest.approx(29.95625e9, abs=1e-3)  # m = 1


def cartesian_positions(system):
    """Cartesian (N, 3) coordinates; the ring lies in the z = 0 plane."""
    psi = antenna_azimuths(system)
    return np.stack(
        [system.radius_m * np.cos(psi), system.radius_m * np.sin(psi), np.zeros_like(psi)],
        axis=1,
    )


def point_array(num_antennas):
    """`num_antennas` antennas all at the origin (R = 0), which no
    `SystemConfig` describes: a stand-in with the three fields the
    steering kernel and its oracles read."""
    return SimpleNamespace(num_antennas=num_antennas, radius_m=0.0, wavelength_m=0.01)


def test_chord_between_adjacent_antennas_equals_spacing():
    system = uca(128)
    points = cartesian_positions(system)
    gaps = np.linalg.norm(np.diff(points, axis=0), axis=1)
    assert np.allclose(gaps, 0.005, atol=1e-12)


def test_exact_distance_point_array_degenerates_to_range():
    assert exact_distance(7.3, 0.4, 1.1, 2, point_array(4)) == pytest.approx(7.3, abs=1e-14)


def test_exact_distance_collinear_case():
    system = uca(16)
    psi3 = antenna_azimuths(system)[3]
    d = exact_distance(5.0, 0.5 * math.pi, psi3, 3, system)
    assert d == pytest.approx(5.0 - system.radius_m, abs=1e-12)


def test_exact_distance_frozen_example():
    system = uca(512)
    d = exact_distance(10.0, math.pi / 3.0, math.pi / 4.0, 0, system)
    assert d == pytest.approx(EXACT_DIST_EXAMPLE, abs=1e-9)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_exact_distance_matches_cartesian_oracle(seed):
    rng = np.random.default_rng(seed)
    system = uca(32)
    for _ in range(50):
        r = rng.uniform(0.5, 30.0)
        theta = rng.uniform(0.01, 0.5 * math.pi)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        n = int(rng.integers(32))
        expected = cartesian_distance(r, theta, phi, antenna_azimuths(system)[n], system.radius_m)
        assert exact_distance(r, theta, phi, n, system) == pytest.approx(expected, abs=1e-12)
        assert abs(r - system.radius_m) - 1e-12 <= expected <= r + system.radius_m + 1e-12


def test_approx_distance_zenith_limit():
    system = uca(64)
    r = 3.0
    expected = r + system.radius_m**2 / (2.0 * r)
    assert approx_distance(r, 1e-12, 0.7, 5, system) == pytest.approx(expected, abs=1e-10)


def test_approx_distance_far_limit_agrees_with_exact():
    system = uca(64)
    r = 1e6 * system.radius_m
    a = approx_distance(r, 1.0, 0.3, 7, system)
    e = exact_distance(r, 1.0, 0.3, 7, system)
    assert abs(a - e) / e < 1e-9


def test_approx_distance_example_point():
    # Taylor truncation leaves a 1.3130e-4 m gap at this point (frozen from
    # the Cartesian oracle comparison).
    system = uca(512)
    a = approx_distance(10.0, math.pi / 3.0, math.pi / 4.0, 0, system)
    assert abs(a - EXACT_DIST_EXAMPLE) == pytest.approx(1.312970e-4, abs=1e-9)


def test_approx_distance_error_shrinks_with_range():
    system = uca(64)
    errors = []
    for factor in (2.0, 4.0, 8.0, 16.0, 32.0):
        r = factor * system.radius_m
        errors.append(abs(approx_distance(r, 1.1, 0.4, 3, system) - exact_distance(r, 1.1, 0.4, 3, system)))
    assert all(e1 > e2 for e1, e2 in zip(errors, errors[1:]))


def test_near_field_steering_unit_norm_and_self_correlation():
    system = uca(128)
    rng = np.random.default_rng(3)
    for _ in range(10):
        b = near_field_steering(rng.uniform(1.0, 20.0), rng.uniform(0.1, 1.5), rng.uniform(0.0, 6.0), system)
        assert np.linalg.norm(b) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.vdot(b, b)) == pytest.approx(1.0, abs=1e-12)


def test_near_field_steering_point_array_is_constant():
    b = near_field_steering(5.0, 0.8, 0.2, point_array(16))
    assert np.allclose(b, 1.0 / 4.0, atol=1e-14)


def test_near_field_steering_rejects_source_inside_array():
    system = uca(64)
    with pytest.raises(ValueError):
        near_field_steering(system.radius_m / 2.0, 1.0, 0.0, system)


def test_far_field_steering_zenith_is_constant():
    system = uca(64)
    b = far_field_steering(0.0, 1.3, system)
    assert np.allclose(b, 1.0 / 8.0, atol=1e-14)
    assert np.linalg.norm(b) == pytest.approx(1.0, abs=1e-12)


def test_far_field_steering_is_large_range_limit():
    system = uca(64)
    near = near_field_steering(1e7, 0.9, 2.2, system)
    far = far_field_steering(0.9, 2.2, system)
    assert np.allclose(near, far, atol=1e-5)


def ring_block(r, theta, phis, system):
    out = np.empty((system.num_antennas, len(phis)), dtype=np.complex128)
    return ring_steering(r, theta, azimuth_cosines(phis, system), system, out)


def arrays(counts):
    """A `SystemConfig` of N antennas drawn from `counts`, spaced 1-10 mm
    apart, on a 3-60 GHz carrier (lambda 5-100 mm)."""
    return st.builds(
        uca,
        counts,
        antenna_spacing_m=st.floats(1e-3, 1e-2),
        carrier_freq_hz=st.floats(3e9, 6e10),
    )


def beyond(system, least, most):
    """Source distances from `least` R (excluded) to `most` R."""
    return st.floats(least, most, exclude_min=True).map(lambda factor: factor * system.radius_m)


@st.composite
def rings(draw):
    """A drawn UCA, one (r, theta) ring beyond 1.01 R (r = inf included) and its azimuths."""
    system = draw(arrays(st.integers(3, 256)))
    far = draw(st.booleans())
    r = math.inf if far else draw(beyond(system, 1.01, 1e4))
    theta = draw(st.floats(0.0, 0.5 * math.pi))
    phis = draw(st.lists(st.floats(0.0, 2.0 * math.pi, exclude_max=True), min_size=1, max_size=6))
    return system, r, theta, phis


@settings(max_examples=80, deadline=None)
@given(rings())
def test_ring_steering_columns_have_unit_norm(ring):
    system, r, theta, phis = ring
    norms = np.linalg.norm(ring_block(r, theta, phis, system), axis=0)
    assert np.allclose(norms, 1.0, rtol=0.0, atol=1e-12)


@settings(max_examples=80, deadline=None)
@given(rings())
def test_ring_steering_matches_per_column_oracle(ring):
    # Bit for bit: r = inf against the plane-wave columns, finite r against
    # the spherical-wave columns.
    system, r, theta, phis = ring
    block = ring_block(r, theta, phis, system)
    for s, phi in enumerate(phis):
        if math.isinf(r):
            expected = far_field_column(theta, phi, system)
        else:
            expected = near_field_column(r, theta, phi, system)
        assert np.array_equal(block[:, s], expected)


@settings(max_examples=80, deadline=None)
@given(rings())
def test_ring_steering_azimuth_step_is_cyclic_antenna_shift(ring):
    # psi_n = 2 pi n / N, so phi -> phi + 2 pi / N maps antenna n - 1 to n.
    system, r, theta, phis = ring
    step = 2.0 * math.pi / system.num_antennas
    block = ring_block(r, theta, phis, system)
    rotated = ring_block(r, theta, [phi + step for phi in phis], system)
    assert np.max(np.abs(rotated - np.roll(block, 1, axis=0))) <= 1e-12


@st.composite
def rotations(draw):
    """A UCA of 16, 128 or 512 antennas, a source on or outside 1.01 R out to
    80 m (r = inf included), any elevation and azimuth, and a shift k."""
    system = uca(draw(st.sampled_from((16, 128, 512))))
    r = draw(st.one_of(st.just(math.inf), st.floats(1.01 * system.radius_m, 80.0)))
    theta = draw(st.floats(0.0, math.pi))
    phi = draw(st.floats(-2.0 * math.pi, 2.0 * math.pi))
    return system, r, theta, phi, draw(st.integers(0, system.num_antennas - 1))


@settings(max_examples=150, deadline=None)
@given(rotations())
def test_steering_rotation_by_k_antennas_is_a_cyclic_shift(case):
    # The UCA rotation symmetry that phase modes rest on: turning the source
    # by 2 pi k / N shifts the steering vector k antennas round the ring.
    system, r, theta, phi, k = case
    steering = near_field_steering(r, theta, phi, system)
    rotated = near_field_steering(r, theta, phi + 2.0 * math.pi * k / system.num_antennas, system)
    assert np.max(np.abs(rotated - np.roll(steering, k))) <= 1e-10


@st.composite
def column_sets(draw):
    """A drawn UCA and 1-12 columns, each with its own (r, theta, phi):
    plane-wave and spherical-wave columns mixed in any order."""
    system = draw(arrays(st.integers(3, 256)))
    r = st.one_of(st.just(math.inf), beyond(system, 1.01, 1e4))
    column = st.tuples(r, st.floats(0.0, 0.5 * math.pi), st.floats(0.0, 2.0 * math.pi, exclude_max=True))
    return system, draw(st.lists(column, min_size=1, max_size=12))


@settings(max_examples=80, deadline=None)
@given(column_sets())
def test_ring_steering_takes_r_and_theta_per_column(case):
    """One call with per-column (r, theta) fills every column bit for bit as
    the per-column oracle, and as a call of that column alone, whichever
    columns share the call; the plane-wave columns are picked by r = inf."""
    system, columns = case
    r, theta, phi = (list(values) for values in zip(*columns))
    out = np.empty((system.num_antennas, len(columns)), dtype=np.complex128)
    block = ring_steering(r, theta, azimuth_cosines(phi, system), system, out)
    assert block is out
    for s, (r_s, theta_s, phi_s) in enumerate(columns):
        if math.isinf(r_s):
            expected = far_field_column(theta_s, phi_s, system)
        else:
            expected = near_field_column(r_s, theta_s, phi_s, system)
        assert np.array_equal(block[:, s], expected)
        assert np.array_equal(block[:, s], ring_block(r_s, theta_s, [phi_s], system)[:, 0])


def exact_column(r, theta, phi, system):
    """The steering column of float inputs (r, theta, phi) at 40 digits, and
    per entry the condition number 1 + r / r^(n) (2 at r = inf) by which the
    distance magnifies the rounding of sin(theta) cos(phi - psi_n)."""
    entries, condition = [], []
    with mpmath.workdps(40):
        k = 2 * mpmath.pi / mpmath.mpf(system.wavelength_m)
        radius = mpmath.mpf(system.radius_m)
        for psi in antenna_azimuths(system).tolist():
            x = mpmath.sin(theta) * mpmath.cos(mpmath.mpf(phi) - psi)
            if math.isinf(r):
                phase, cond = k * radius * x, 2.0
            else:
                dist = mpmath.sqrt(mpmath.mpf(r) ** 2 + radius**2 - 2 * radius * r * x)
                phase, cond = k * (r - dist), float(1 + r / dist)
            entries.append(complex(mpmath.exp(1j * phase) / mpmath.sqrt(system.num_antennas)))
            condition.append(cond)
    return np.array(entries), np.array(condition)


@st.composite
def accuracy_cases(draw):
    """A drawn UCA of 16, 128, 512 or 1024 antennas, r in (1.001 R, 1e6 R]
    or inf, any theta and phi."""
    system = draw(arrays(st.sampled_from((16, 128, 512, 1024))))
    r = beyond(system, 1.001, 1e6)
    return system, draw(st.one_of(st.just(math.inf), r)), draw(st.floats(0.0, math.pi)), draw(st.floats(0.0, 2.0 * math.pi))


@settings(max_examples=60, deadline=None)
@given(accuracy_cases())
def test_steering_is_accurate_to_a_few_rounding_errors_of_k_r(case):
    """Each entry lies within 4 eps k R (1 + r / r^(n)) / sqrt(N) of its
    40-digit value: a few roundings of the phase k R x, magnified where the
    source nearly touches an antenna. A run of 1 000 random cases, grazing
    ones included, peaked at 1.5 eps k R (1 + r / r^(n)). The law of cosines
    loses k r eps to cancellation, 6e-10 at r = 1e4 m. Plane-wave columns
    are the per-column plane wave bit for bit."""
    system, r, theta, phi = case
    column = near_field_steering(r, theta, phi, system)
    exact, condition = exact_column(r, theta, phi, system)
    bound = 4.0 * np.finfo(float).eps * (2.0 * math.pi / system.wavelength_m * system.radius_m) * condition
    assert np.all(np.abs(column - exact) * math.sqrt(system.num_antennas) <= bound)
    if math.isinf(r):
        assert np.array_equal(column, far_field_column(theta, phi, system))


@settings(max_examples=80, deadline=None)
@given(column_sets())
def test_ring_steering_agrees_with_the_law_of_cosines_within_its_cancellation(case):
    """The earlier phase -k (r^(n) - r), with r^(n) from the law of cosines,
    loses about k r eps to cancellation; the kernel's columns agree with it
    within that loss plus each form's magnified rounding of the phase k R x."""
    system, columns = case
    r, theta, phi = (list(values) for values in zip(*columns))
    out = np.empty((system.num_antennas, len(columns)), dtype=np.complex128)
    ring_steering(r, theta, azimuth_cosines(phi, system), system, out)
    k, radius, eps = 2.0 * math.pi / system.wavelength_m, system.radius_m, np.finfo(float).eps
    for s, (r_s, theta_s, phi_s) in enumerate(columns):
        if math.isinf(r_s):
            continue
        bound = eps * k * (2.0 * r_s + 8.0 * radius * (1.0 + r_s / (r_s - radius)))
        old = law_of_cosines_column(r_s, theta_s, phi_s, system)
        assert np.max(np.abs(out[:, s] - old)) * math.sqrt(system.num_antennas) <= bound


def test_channel_synthesis_and_oracle_fill_every_path_in_one_kernel_call(monkeypatch):
    """`generate_channel` and `oracle_estimate` each fill their L steering
    columns by one `ring_steering` call, in the C order `column_stack` gave."""
    config = paper_system(num_antennas=64, num_subcarriers=4, num_pilot_slots=8)
    paths = sample_paths(3, 5, (1.0, 20.0), (0.0, 0.5 * math.pi), (0.0, 2.0 * math.pi))
    calls = []
    kernel = channel.ring_steering
    monkeypatch.setattr(channel, "ring_steering", lambda *args: calls.append(args[2].shape) or kernel(*args))
    truth = generate_channel(paths, config)
    assert calls == [(5, 64)]
    combining = generate_combining(1, 8, config.num_rf_chains, 64)
    oracle_estimate(synthesize_measurements(truth, combining, math.inf), combining, paths, config)
    assert calls == [(5, 64)] * 2
    steering = path_steering(paths, config)
    stacked = np.column_stack([near_field_steering(p.distance_m, p.elevation_rad, p.azimuth_rad, config) for p in paths])
    assert steering.flags.c_contiguous and np.array_equal(steering, stacked)


def test_ring_steering_rejects_source_inside_array():
    system = uca(64)
    with pytest.raises(ValueError):
        ring_block(system.radius_m, 1.0, [0.0, 1.0], system)


def channel_oracle(paths, config):
    """Naive triple loop with Cartesian distances, independent of the library."""
    n_ant = config.num_antennas
    n_sub = config.num_subcarriers
    radius = config.antenna_spacing_m / (2.0 * math.sin(math.pi / n_ant))
    wavelength = C_LIGHT / config.carrier_freq_hz
    freqs = [
        config.carrier_freq_hz + (2 * m - n_sub) * config.bandwidth_hz / (2 * n_sub)
        for m in range(1, n_sub + 1)
    ]
    h = np.zeros((n_ant, n_sub), dtype=complex)
    for m in range(n_sub):
        k_m = 2.0 * math.pi * freqs[m] / C_LIGHT
        for n in range(n_ant):
            psi = 2.0 * math.pi * n / n_ant
            for p in paths:
                dist = cartesian_distance(p.distance_m, p.elevation_rad, p.azimuth_rad, psi, radius)
                steer = np.exp(-2j * math.pi / wavelength * (dist - p.distance_m)) / math.sqrt(n_ant)
                h[n, m] += (
                    math.sqrt(n_ant / len(paths))
                    * p.gain
                    * np.exp(-1j * k_m * p.distance_m)
                    * steer
                )
    return h


def small_system():
    return SystemConfig(30e9, 100e6, 4, 16, 0.005, 2, 4)


def test_generate_channel_single_path_column_norms():
    config = small_system()
    path = PathParams(5.0, 1.0, 0.3, 1.0 + 0j)
    h = generate_channel([path], config)
    norms = np.linalg.norm(h, axis=0)
    assert np.allclose(norms, math.sqrt(config.num_antennas), atol=1e-10)


def test_generate_channel_zero_gains_gives_zero_matrix():
    config = small_system()
    paths = [PathParams(5.0, 1.0, 0.3, 0.0), PathParams(7.0, 0.8, 2.0, 0.0)]
    assert np.all(generate_channel(paths, config) == 0.0)


def test_generate_channel_matches_naive_oracle():
    config = small_system()
    paths = [
        PathParams(5.0, 1.2, 0.4, 0.8 - 0.1j),
        PathParams(11.0, 0.6, 2.8, -0.3 + 0.9j),
    ]
    h = generate_channel(paths, config)
    assert h.shape == (16, 4) and h.dtype == np.complex128 and h.flags.c_contiguous
    assert np.allclose(h, channel_oracle(paths, config), atol=1e-12)


def test_generate_channel_linear_in_gains():
    config = small_system()
    paths = [PathParams(5.0, 1.2, 0.4, 0.8 - 0.1j), PathParams(9.0, 0.7, 1.4, 0.2 + 0.5j)]
    doubled = [PathParams(p.distance_m, p.elevation_rad, p.azimuth_rad, 2.0 * p.gain) for p in paths]
    assert np.allclose(
        generate_channel(doubled, config),
        2.0 * generate_channel(paths, config),
        atol=0.0,
    )


def test_generate_channel_rejects_empty_and_oversized_path_lists():
    config = small_system()
    with pytest.raises(ValueError):
        generate_channel([], config)
    too_many = [PathParams(5.0 + i, 1.0, 0.1 * i, 1.0) for i in range(17)]
    with pytest.raises(ValueError):
        generate_channel(too_many, config)


def test_path_params_validation_and_azimuth_wrap():
    with pytest.raises(ValueError):
        PathParams(-1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        PathParams(5.0, -0.1, 0.0, 1.0)
    with pytest.raises(ValueError):
        PathParams(5.0, 0.5 * math.pi + 1e-9, 0.0, 1.0)
    # A non-finite field is named where the path is made: a nan distance
    # would reach LAPACK in `oracle_estimate`, and inf % 2pi is nan.
    for args, name in (
        ((math.nan, 1.0, 0.0, 1.0), "distance_m"),
        ((math.inf, 1.0, 0.0, 1.0), "distance_m"),
        ((5.0, math.nan, 0.0, 1.0), "elevation_rad"),
        ((5.0, 1.0, math.inf, 1.0), "azimuth_rad"),
        ((5.0, 1.0, -math.inf, 1.0), "azimuth_rad"),
        ((5.0, 1.0, math.nan, 1.0), "azimuth_rad"),
        ((5.0, 1.0, 0.0, complex(math.nan, 1.0)), "gain"),
        ((5.0, 1.0, 0.0, complex(1.0, math.inf)), "gain"),
        ((5.0, 1.0, 0.0, math.inf), "gain"),
    ):
        with pytest.raises(ValueError, match=name):
            PathParams(*args)
    wrapped = PathParams(5.0, 1.0, -0.5 * math.pi, 1.0)
    assert 0.0 <= wrapped.azimuth_rad < 2.0 * math.pi
    assert wrapped.azimuth_rad == pytest.approx(1.5 * math.pi)
    # A negative azimuth too small to move 2 pi wraps to 0, not to 2 pi.
    for tiny in (-1e-20, -(2.0**-60)):
        assert PathParams(5.0, 0.5, tiny, 1.0).azimuth_rad == 0.0


def test_zenith_path_channel_is_unit_norm_and_azimuth_free():
    """At theta = 0 every antenna is equidistant from the source: the
    steering is constant and unit-norm, and the azimuth changes no bit of
    the channel."""
    config = paper_system(num_antennas=64)
    steering = near_field_steering(3.0, 0.0, 0.7, config)
    assert np.linalg.norm(steering) == pytest.approx(1.0, abs=1e-12)
    assert np.all(steering == steering[0])
    channels = [
        generate_channel([PathParams(3.0, 0.0, phi, 0.6 - 0.8j)], config)
        for phi in (0.0, 0.7, -2.5, 4.0)
    ]
    assert all(np.array_equal(h, channels[0]) for h in channels[1:])
    column_norms = np.linalg.norm(channels[0], axis=0)
    assert np.allclose(column_norms, math.sqrt(config.num_antennas), rtol=1e-12)


def test_sample_paths_deterministic_and_in_range():
    kwargs = dict(
        num_paths=32,
        distance_range=(4.0, 25.0),
        theta_range=(0.0, 0.5 * math.pi),
        phi_range=(-0.5 * math.pi, 0.5 * math.pi),
    )
    first = sample_paths(123, **kwargs)
    second = sample_paths(123, **kwargs)
    assert all(
        (a.distance_m, a.elevation_rad, a.azimuth_rad, a.gain)
        == (b.distance_m, b.elevation_rad, b.azimuth_rad, b.gain)
        for a, b in zip(first, second)
    )
    for p in first:
        assert 4.0 <= p.distance_m < 25.0
        assert 0.0 < p.elevation_rad <= 0.5 * math.pi


def test_sample_paths_gain_power_is_calibrated():
    paths = sample_paths(7, 10_000, (4.0, 25.0), (0.1, 1.5), (0.0, 6.0))
    power = np.mean([abs(p.gain) ** 2 for p in paths])
    assert power == pytest.approx(1.0, rel=0.05)


def test_sample_paths_rejects_bad_ranges():
    with pytest.raises(ValueError):
        sample_paths(0, 3, (25.0, 4.0), (0.1, 1.5), (0.0, 6.0))
    with pytest.raises(ValueError):
        sample_paths(0, 3, (4.0, 25.0), (0.1, 2.0), (0.0, 6.0))
    with pytest.raises(ValueError):
        sample_paths(0, 0, (4.0, 25.0), (0.1, 1.5), (0.0, 6.0))
