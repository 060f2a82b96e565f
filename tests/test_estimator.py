import math

import numpy as np
import pytest

from nearfield import (
    PathParams,
    SystemConfig,
    generate_channel,
    generate_combining,
    ls_estimate,
    nmse,
    nmse_db,
    oracle_estimate,
    s_somp,
    sample_paths,
    synthesize_measurements,
)
from nearfield.codebook import FAR_FIELD, CodebookGrid, SphericalCodebook, _RingLayout
from nearfield.estimator import MeasurementSet
from nearfield.phase_modes import DenseBasis


def small_system(**overrides):
    params = dict(
        carrier_freq_hz=30e9,
        bandwidth_hz=100e6,
        num_subcarriers=4,
        num_antennas=64,
        antenna_spacing_m=0.005,
        num_rf_chains=2,
        num_pilot_slots=16,
    )
    params.update(overrides)
    return SystemConfig(**params)


def plantable_columns(codebook):
    """Columns of finite-distance grid points that are uniquely represented,
    in ascending order.

    The printed azimuth grid double-covers phi = 0 and phi ~ 2 pi, so the
    s = 0 / s = S endpoint columns of each elevation have a near-duplicate
    twin and cannot be told apart through a compressed measurement.
    """
    t, s, _ = codebook.grid.indices.T
    s_max = np.zeros(t.max() + 1, dtype=np.int64)
    np.maximum.at(s_max, t, s)
    finite = np.isfinite(codebook.grid.coords[:, 0])
    return np.flatnonzero(finite & (0 < s) & (s < s_max[t])).tolist()


def path_at(codebook, col, gain):
    """A path at the (r, theta, phi) of one codebook column."""
    return PathParams(*codebook.grid.coords[col].tolist(), gain)


def test_combining_entries_have_constant_modulus():
    combining = generate_combining(0, 4, 3, 32)
    assert combining.entries.shape == (12, 32)
    assert np.allclose(np.abs(combining.entries), 1.0 / math.sqrt(32), atol=1e-14)


def test_combining_deterministic():
    a = generate_combining(42, 4, 3, 16)
    b = generate_combining(42, 4, 3, 16)
    assert np.array_equal(a.entries, b.entries)


@pytest.mark.parametrize("seed, slots, chains, antennas", [(0, 4, 3, 32), (7, 32, 4, 128), (11, 1, 1, 1), (2025, 16, 4, 512)])
def test_combining_entries_equal_the_out_of_place_expression_bit_for_bit(seed, slots, chains, antennas):
    """exp and the 1/sqrt(N) scaling are applied in place in one complex
    array; every entry equals exp(1j * omega) / sqrt(N) formed out of place."""
    omega = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, size=(slots * chains, antennas))
    want = np.exp(1j * omega) / math.sqrt(antennas)
    got = generate_combining(seed, slots, chains, antennas).entries
    assert got.dtype == np.complex128 and np.array_equal(got, want)


def test_combining_column_norms_concentrate():
    # Constant modulus makes every column norm exactly sqrt(P*N_RF / N).
    combining = generate_combining(7, 32, 4, 256)
    norms = np.linalg.norm(combining.entries, axis=0)
    assert np.allclose(norms, math.sqrt(128.0 / 256.0), rtol=0.05)


def test_combining_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        generate_combining(0, 0, 2, 8)


def _planted_channel(config, codebook, col, gain=1.0 + 0.0j):
    return generate_channel([path_at(codebook, col, gain)], config)


def test_measurements_noiseless_and_zero_channel():
    config = small_system()
    paths = sample_paths(0, 2, (1.0, 5.0), (0.3, 1.5), (0.0, 6.0))
    h = generate_channel(paths, config)
    combining = generate_combining(1, config.num_pilot_slots, config.num_rf_chains, config.num_antennas)
    clean = synthesize_measurements(h, combining, math.inf)
    assert clean.noise_variance == 0.0
    assert np.array_equal(clean.observations, combining.entries @ h.entries)

    zero = synthesize_measurements(np.zeros_like(h.entries), combining, 10.0, seed=3)
    assert zero.noise_variance == 0.0
    assert np.all(zero.observations == 0.0)


@pytest.mark.parametrize("snr_db", [math.nan, -math.inf])
def test_measurements_reject_nan_and_minus_inf_snr(snr_db):
    """Only +inf is the noiseless sentinel; NaN and -inf name no SNR."""
    config = small_system()
    h = generate_channel(sample_paths(0, 2, (1.0, 5.0), (0.3, 1.5), (0.0, 6.0)), config)
    combining = generate_combining(1, config.num_pilot_slots, config.num_rf_chains, config.num_antennas)
    with pytest.raises(ValueError, match="snr_db must be finite or \\+inf"):
        synthesize_measurements(h, combining, snr_db, seed=3)


@pytest.mark.parametrize("snr_db", [1000.5, -1001.0, 4000.0, -4000.0])
def test_measurements_reject_snrs_beyond_the_limit(snr_db):
    config = small_system()
    h = generate_channel(sample_paths(0, 2, (1.0, 5.0), (0.3, 1.5), (0.0, 6.0)), config)
    combining = generate_combining(1, config.num_pilot_slots, config.num_rf_chains, config.num_antennas)
    with pytest.raises(ValueError, match="snr_db must lie within \\+-1000 dB or be \\+inf"):
        synthesize_measurements(h, combining, snr_db, seed=3)
    for edge in (-1000.0, 1000.0):
        noisy = synthesize_measurements(h, combining, edge, seed=3)
        assert np.all(np.isfinite(noisy.observations)) and 0.0 < noisy.noise_variance < math.inf


def test_measurements_linear_in_channel_when_noiseless():
    config = small_system()
    h = generate_channel(sample_paths(5, 2, (1.0, 5.0), (0.3, 1.5), (0.0, 6.0)), config)
    combining = generate_combining(2, config.num_pilot_slots, config.num_rf_chains, config.num_antennas)
    once = synthesize_measurements(h.entries, combining, math.inf)
    twice = synthesize_measurements(2.0 * h.entries, combining, math.inf)
    assert np.allclose(twice.observations, 2.0 * once.observations, atol=0.0)


def test_measurement_noise_calibration_monte_carlo():
    config = small_system(num_antennas=32, num_pilot_slots=4)
    h = generate_channel(sample_paths(9, 2, (1.0, 5.0), (0.3, 1.5), (0.0, 6.0)), config)
    combining = generate_combining(4, config.num_pilot_slots, config.num_rf_chains, config.num_antennas)
    h_energy = np.linalg.norm(h.entries) ** 2
    ratios = []
    for redraw in range(1000):
        m = synthesize_measurements(h, combining, 10.0, seed=redraw)
        noise = m.observations - combining.entries @ h.entries
        ratios.append(np.linalg.norm(noise) ** 2 / h_energy)
    assert np.mean(ratios) == pytest.approx(10.0 ** (-1.0), rel=0.05)


def test_s_somp_zero_input_degenerates_to_tie_break(small_config, small_codebook):
    combining = generate_combining(0, small_config.num_pilot_slots, small_config.num_rf_chains, small_config.num_antennas)
    rows = combining.entries.shape[0]
    zero = MeasurementSet(np.zeros((rows, small_config.num_subcarriers)), 0.0, math.inf)
    result = s_somp(zero, combining, small_codebook, 3)
    assert result.support == [0, 1, 2]
    assert np.all(result.sparse_coeffs == 0.0)
    assert np.all(result.channel_estimate == 0.0)


def test_s_somp_recovers_single_planted_column(small_config, small_codebook):
    col = plantable_columns(small_codebook)[0]
    h = _planted_channel(small_config, small_codebook, col, gain=0.7 - 0.4j)
    combining = generate_combining(11, small_config.num_pilot_slots, small_config.num_rf_chains, small_config.num_antennas)
    measurements = synthesize_measurements(h, combining, math.inf)
    result = s_somp(measurements, combining, small_codebook, 1)
    assert result.support == [col]
    assert nmse(h, result.channel_estimate) < 1e-10


def test_s_somp_recovers_two_separated_columns(small_config, small_codebook):
    candidates = plantable_columns(small_codebook)
    azimuth_index = small_codebook.grid.indices[:, 1]
    col_a = candidates[0]
    col_b = next(
        c for c in candidates if abs(azimuth_index[c] - azimuth_index[col_a]) >= 3  # >= 3 azimuth cells apart
    )
    paths = [path_at(small_codebook, col_a, 1.0), path_at(small_codebook, col_b, 0.8j)]
    h = generate_channel(paths, small_config)
    combining = generate_combining(13, small_config.num_pilot_slots, small_config.num_rf_chains, small_config.num_antennas)
    measurements = synthesize_measurements(h, combining, math.inf)
    result = s_somp(measurements, combining, small_codebook, 2)
    assert set(result.support) == {col_a, col_b}
    assert nmse(h, result.channel_estimate) < 1e-8


def test_s_somp_residuals_monotone_and_support_unique(small_config, small_codebook):
    paths = sample_paths(21, 3, (1.0, 5.0), (0.3, 1.5), (0.0, 6.0))
    h = generate_channel(paths, small_config)
    combining = generate_combining(17, small_config.num_pilot_slots, small_config.num_rf_chains, small_config.num_antennas)
    measurements = synthesize_measurements(h, combining, 5.0, seed=1)
    result = s_somp(measurements, combining, small_codebook, 6)
    assert len(result.support) == 6
    assert len(set(result.support)) == 6
    norms = result.residual_norms
    assert all(b <= a + 1e-9 for a, b in zip(norms, norms[1:]))


def test_s_somp_projection_idempotent_and_reconstruction_identity(small_config, small_codebook):
    paths = sample_paths(31, 2, (1.0, 5.0), (0.3, 1.5), (0.0, 6.0))
    h = generate_channel(paths, small_config)
    combining = generate_combining(19, small_config.num_pilot_slots, small_config.num_rf_chains, small_config.num_antennas)
    measurements = synthesize_measurements(h, combining, 10.0, seed=2)
    result = s_somp(measurements, combining, small_codebook, 2)

    dictionary = combining.entries @ small_codebook.basis.dense()
    rerun, _, _, _ = np.linalg.lstsq(
        dictionary[:, result.support], measurements.observations, rcond=None
    )
    assert np.abs(rerun - result.sparse_coeffs).max() < 1e-12

    rebuilt = small_codebook.basis.dense()[:, result.support] @ result.sparse_coeffs
    assert np.array_equal(rebuilt, result.channel_estimate)


def test_s_somp_skips_degenerate_duplicate_atom(small_config):
    geom_column = np.full(small_config.num_antennas, 1.0 / math.sqrt(small_config.num_antennas), dtype=complex)
    other = np.exp(2j * math.pi * np.arange(small_config.num_antennas) / small_config.num_antennas)
    other /= np.linalg.norm(other)
    matrix = np.column_stack([geom_column, geom_column, other])
    layout = _RingLayout([(0.5 * math.pi, [0.0] * 3, [FAR_FIELD])])
    duplicated = SphericalCodebook(layout, DenseBasis(matrix))
    assert duplicated.grid == CodebookGrid(
        np.array([[0, s, 0] for s in range(3)]), np.tile([math.inf, 0.5 * math.pi, 0.0], (3, 1))
    )
    combining = generate_combining(23, small_config.num_pilot_slots, small_config.num_rf_chains, small_config.num_antennas)
    rows = combining.entries.shape[0]
    zero = MeasurementSet(np.zeros((rows, 2)), 0.0, math.inf)
    with pytest.warns(UserWarning, match="rank-deficient"):
        result = s_somp(zero, combining, duplicated, 2)
    assert result.support == [0, 2]


def test_s_somp_validates_iteration_budget(small_config, small_codebook):
    combining = generate_combining(29, small_config.num_pilot_slots, small_config.num_rf_chains, small_config.num_antennas)
    rows = combining.entries.shape[0]
    measurements = MeasurementSet(np.zeros((rows, 2)), 0.0, math.inf)
    with pytest.raises(ValueError):
        s_somp(measurements, combining, small_codebook, 0)
    with pytest.raises(ValueError):
        s_somp(measurements, combining, small_codebook, rows + 1)


def test_ls_estimate_square_invertible_noiseless():
    config = small_system(num_antennas=32, num_pilot_slots=16)  # P * N_RF = N
    h = generate_channel(sample_paths(41, 2, (1.0, 5.0), (0.3, 1.5), (0.0, 6.0)), config)
    combining = generate_combining(31, config.num_pilot_slots, config.num_rf_chains, config.num_antennas)
    estimate = ls_estimate(synthesize_measurements(h, combining, math.inf), combining)
    assert nmse(h, estimate) < 1e-10


def test_ls_estimate_zero_measurements():
    combining = generate_combining(0, 4, 2, 16)
    zero = MeasurementSet(np.zeros((8, 3)), 0.0, math.inf)
    assert np.all(ls_estimate(zero, combining) == 0.0)


def test_ls_estimate_underdetermined_is_consistent_but_wrong():
    config = small_system(num_antennas=64, num_pilot_slots=16)  # P * N_RF = N/2
    h = generate_channel(sample_paths(43, 3, (1.0, 5.0), (0.3, 1.5), (0.0, 6.0)), config)
    combining = generate_combining(37, config.num_pilot_slots, config.num_rf_chains, config.num_antennas)
    measurements = synthesize_measurements(h, combining, math.inf)
    estimate = ls_estimate(measurements, combining)
    residual = np.linalg.norm(combining.entries @ estimate - measurements.observations)
    assert residual < 1e-8 * np.linalg.norm(measurements.observations)
    assert nmse(h, estimate) > 0.1


def test_oracle_estimate_exact_for_noiseless_off_grid_paths():
    config = small_system()
    paths = sample_paths(47, 3, (1.0, 5.0), (0.3, 1.5), (0.0, 6.0))
    h = generate_channel(paths, config)
    combining = generate_combining(41, config.num_pilot_slots, config.num_rf_chains, config.num_antennas)
    estimate = oracle_estimate(synthesize_measurements(h, combining, math.inf), combining, paths, config)
    assert nmse(h, estimate) < 1e-10


def test_oracle_estimate_zero_measurements():
    config = small_system()
    paths = sample_paths(53, 2, (1.0, 5.0), (0.3, 1.5), (0.0, 6.0))
    combining = generate_combining(43, config.num_pilot_slots, config.num_rf_chains, config.num_antennas)
    rows = combining.entries.shape[0]
    zero = MeasurementSet(np.zeros((rows, config.num_subcarriers)), 0.0, math.inf)
    assert np.all(oracle_estimate(zero, combining, paths, config) == 0.0)


def test_oracle_rejects_empty_paths():
    config = small_system()
    combining = generate_combining(0, config.num_pilot_slots, config.num_rf_chains, config.num_antennas)
    zero = MeasurementSet(np.zeros((combining.entries.shape[0], 2)), 0.0, math.inf)
    with pytest.raises(ValueError):
        oracle_estimate(zero, combining, [], config)


def test_oracle_lower_bounds_s_somp_at_moderate_snr(desk_spec, desk_codebook):
    config = desk_spec.system
    oracle_values = []
    somp_values = []
    for trial in range(50):
        paths = sample_paths(
            1000 + trial, desk_spec.num_paths, desk_spec.distance_range,
            desk_spec.elevation_range, desk_spec.azimuth_range,
        )
        h = generate_channel(paths, config)
        combining = generate_combining(2000 + trial, config.num_pilot_slots, config.num_rf_chains, config.num_antennas)
        measurements = synthesize_measurements(h, combining, 10.0, seed=3000 + trial)
        oracle_values.append(nmse(h, oracle_estimate(measurements, combining, paths, config)))
        somp = s_somp(measurements, combining, desk_codebook, desk_spec.num_paths)
        somp_values.append(nmse(h, somp.channel_estimate))
    assert np.mean(oracle_values) <= np.mean(somp_values)


def test_nmse_reference_points():
    config = small_system()
    h = generate_channel(sample_paths(59, 2, (1.0, 5.0), (0.3, 1.5), (0.0, 6.0)), config)
    assert nmse(h, h.entries) == 0.0
    assert nmse(h, np.zeros_like(h.entries)) == pytest.approx(1.0, abs=1e-12)
    assert nmse(h, 2.0 * h.entries) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        nmse(np.zeros((4, 4)), np.zeros((4, 4)))
    with pytest.raises(ValueError):
        nmse(h, np.zeros((2, 2)))


def test_nmse_db_conversion():
    assert nmse_db(1.0) == 0.0
    assert nmse_db(0.1) == pytest.approx(-10.0, abs=1e-12)
    assert nmse_db(0.0) == -math.inf
    with pytest.raises(ValueError):
        nmse_db(-0.5)
