"""Acceptance gate: one test per release criterion, each printing a PASS line
(run with -s or read captured output). Tolerances are fixed here and nowhere
else."""

import dataclasses
import math

import numpy as np
import pytest

from nearfield import (
    PathParams,
    SystemConfig,
    UcaGeometry,
    azimuth_grid,
    column_correlation,
    desk_profile,
    distance_grid,
    elevation_grid,
    far_field_steering,
    first_j0_zero,
    generate_channel,
    generate_combining,
    near_field_steering,
    nmse,
    s_somp,
    sample_paths,
    solve_beta_delta,
    synthesize_measurements,
    uca_radius,
)
from nearfield.harness import build_codebooks, emit_csv, run_trial, sweep_pilot, sweep_snr


def paper_system():
    return SystemConfig(
        carrier_freq_hz=30e9,
        bandwidth_hz=100e6,
        num_subcarriers=16,
        num_antennas=512,
        antenna_spacing_m=0.005,
        num_rf_chains=4,
        num_pilot_slots=32,
    )


@pytest.fixture(scope="module")
def desk():
    spec = desk_profile()
    return spec, build_codebooks(spec)


def _report(number, text):
    print(f"[acceptance] criterion {number}: PASS - {text}")


def test_criterion_1_rayleigh_distance():
    config = paper_system()
    radius = uca_radius(0.005, 512)
    rayleigh = 2.0 * (2.0 * radius) ** 2 / config.wavelength_m
    assert abs(rayleigh - 132.9) / 132.9 < 5e-3
    assert config.rayleigh_distance_m == rayleigh
    _report(1, f"2(2R)^2/lambda = {rayleigh:.4f} m vs 132.9 m (0.5% tolerance)")


def test_criterion_2_codebook_structure():
    config = paper_system()
    radius = config.radius_m
    lam = config.wavelength_m
    alpha = first_j0_zero()

    # Independent loop-count oracle: re-derive every count with plain
    # while-loops from the printed sampling rules.
    ratio = lam * alpha / (2.0 * math.pi * radius)
    oracle_t = 0
    while (oracle_t + 1) * ratio <= 1.0:
        oracle_t += 1
    oracle_u = math.asin(lam * alpha / (4.0 * math.pi * radius * math.sin(0.5 * math.pi)))
    oracle_s = 0
    while (oracle_s + 1) * oracle_u <= math.pi:
        oracle_s += 1
    beta = solve_beta_delta(0.55)
    z_cap = math.pi * radius * radius / (2.0 * lam * beta)
    oracle_rings = []
    z = 1
    while True:
        ring = z_cap * math.sin(0.5 * math.pi) ** 2 / z
        if ring < 4.0:
            break
        oracle_rings.append(ring)
        z += 1

    thetas = elevation_grid(radius, lam, alpha)
    assert len(thetas) - 1 == oracle_t == 106
    phis = azimuth_grid(radius, lam, alpha, 0.5 * math.pi)
    assert len(phis) - 1 == oracle_s == 668
    rings = distance_grid(0.5 * math.pi, z_cap, 4.0)
    assert math.isinf(rings[0])
    assert len(rings) - 1 == len(oracle_rings) == 4
    assert rings[1:] == pytest.approx(oracle_rings, abs=0.0)
    _report(2, f"T = {oracle_t}, S(pi/2) = {oracle_s}, finite rings = {len(oracle_rings)} (+ far field)")


def test_criterion_3_noiseless_on_grid_exact_recovery(desk):
    spec, bank = desk
    config = spec.system
    assert config.num_measurement_rows >= 32
    book = bank.spherical

    # Plantable set: finite-distance grid points that are uniquely
    # represented. The printed azimuth rule double-covers phi = 0 vs
    # phi ~ 2 pi, so the s = 0 / s = S endpoint columns have a
    # near-duplicate twin and are excluded from planting.
    t, s, _ = book.grid.indices.T
    s_max = np.zeros(t.max() + 1, dtype=np.int64)
    np.maximum.at(s_max, t, s)
    finite = np.isfinite(book.grid.coords[:, 0])
    plantable = np.flatnonzero(finite & (0 < s) & (s < s_max[t])).tolist()
    assert len(plantable) > 1000

    successes = 0
    for trial in range(100):
        rng = np.random.default_rng(trial)
        col = plantable[rng.integers(len(plantable))]
        gain = complex(rng.standard_normal(), rng.standard_normal()) / math.sqrt(2.0)
        path = PathParams(*book.grid.coords[col].tolist(), gain)
        truth = generate_channel([path], config)
        combining = generate_combining(
            10_000 + trial, config.num_pilot_slots, config.num_rf_chains, config.num_antennas
        )
        measurements = synthesize_measurements(truth, combining, math.inf)
        result = s_somp(measurements, combining, book, 1)
        error = nmse(truth, result.channel_estimate)
        assert result.support == [col], f"trial {trial}: picked {result.support}, planted {col}"
        assert error < 1e-10, f"trial {trial}: NMSE {error:.3e}"
        successes += 1
    assert successes == 100
    _report(3, "single planted on-grid path recovered with NMSE < 1e-10 in 100/100 trials")


@pytest.fixture(scope="module")
def ordering_records(desk):
    spec, bank = desk
    return [run_trial(spec, 10.0, i, bank) for i in range(100)]


def test_criterion_4_method_ordering(ordering_records, desk):
    spec, _ = desk
    mean_db = {
        method: 10.0 * math.log10(float(np.mean([r[method][0] for r in ordering_records])))
        for method in spec.methods
    }
    gaps = (
        mean_db["s-somp"] - mean_db["oracle"],
        mean_db["p-somp"] - mean_db["s-somp"],
        mean_db["angular-somp"] - mean_db["p-somp"],
    )
    assert mean_db["oracle"] <= mean_db["s-somp"] < mean_db["p-somp"] < mean_db["angular-somp"]
    assert all(gap >= 1.0 for gap in gaps), f"gaps {gaps}"
    _report(
        4,
        "mean NMSE at 10 dB: "
        + ", ".join(f"{m} {mean_db[m]:.2f} dB" for m in ("oracle", "s-somp", "p-somp", "angular-somp"))
        + f"; gaps {tuple(round(g, 2) for g in gaps)} dB (>= 1 dB each)",
    )


def test_criterion_5_snr_monotonicity(desk):
    spec, _ = desk
    result = sweep_snr(dataclasses.replace(spec, methods=("s-somp",)))
    curve = [(row.sweep_value, row.nmse_db) for row in result.rows]
    assert [v for v, _ in curve] == [0.0, 5.0, 10.0, 15.0, 20.0]
    values = [db for _, db in curve]
    assert all(b <= a + 0.5 for a, b in zip(values, values[1:])), values
    _report(5, "S-SOMP NMSE vs SNR " + ", ".join(f"{v:.2f}" for v in values) + " dB (non-increasing, 0.5 dB slack)")


def test_criterion_6_pilot_monotonicity(desk):
    spec, _ = desk
    result = sweep_pilot(dataclasses.replace(spec, methods=("s-somp",)))
    curve = [(row.sweep_value, row.nmse_db) for row in result.rows]
    assert [v for v, _ in curve] == [8, 16, 32, 64]
    values = [db for _, db in curve]
    assert all(b <= a + 0.5 for a, b in zip(values, values[1:])), values
    _report(6, "S-SOMP NMSE vs P " + ", ".join(f"{v:.2f}" for v in values) + " dB at 5 dB SNR (non-increasing, 0.5 dB slack)")


def test_criterion_7_bessel_approximation_validation():
    config = paper_system()
    geom = UcaGeometry.from_config(config)
    lam = config.wavelength_m
    alpha = first_j0_zero()
    beta = solve_beta_delta(0.55)
    z_cap = math.pi * geom.radius_m**2 / (2.0 * lam * beta)

    # Adjacent distance rings at theta = pi/2: exact correlations near 0.55.
    rings = distance_grid(0.5 * math.pi, z_cap, 4.0)
    columns = [far_field_steering(0.5 * math.pi, 0.0, geom, lam)]
    columns += [near_field_steering(r, 0.5 * math.pi, 0.0, geom, lam) for r in rings[1:]]
    ring_correlations = [
        column_correlation(a, b) for a, b in zip(columns, columns[1:])
    ]
    assert all(0.35 <= c <= 0.75 for c in ring_correlations), ring_correlations

    # Adjacent elevation samples at the far-field ring, phi = 0.
    thetas = elevation_grid(geom.radius_m, lam, alpha)
    vectors = [far_field_steering(theta, 0.0, geom, lam) for theta in thetas]
    elevation_correlations = [
        column_correlation(a, b) for a, b in zip(vectors, vectors[1:])
    ]
    mean_corr = float(np.mean(elevation_correlations))
    assert mean_corr < 0.3
    _report(
        7,
        f"ring correlations {[round(c, 3) for c in ring_correlations]} in [0.35, 0.75]; "
        f"mean adjacent-elevation correlation {mean_corr:.4f} < 0.3",
    )


def test_criterion_8_invariant_suite(desk, tmp_path):
    spec, bank = desk
    config = spec.system
    geom = UcaGeometry.from_config(config)
    lam = config.wavelength_m
    checks = []

    # steering norms to 1e-12
    rng = np.random.default_rng(0)
    for _ in range(25):
        near = near_field_steering(
            rng.uniform(0.5, 25.0), rng.uniform(0.05, 0.5 * math.pi), rng.uniform(0.0, 2.0 * math.pi), geom, lam
        )
        far = far_field_steering(rng.uniform(0.0, 0.5 * math.pi), rng.uniform(0.0, 2.0 * math.pi), geom, lam)
        assert abs(np.linalg.norm(near) - 1.0) < 1e-12
        assert abs(np.linalg.norm(far) - 1.0) < 1e-12
    checks.append("steering norms (1e-12)")

    # SOMP residual monotonicity + reconstruction identity on a noisy trial
    paths = sample_paths(99, spec.num_paths, spec.distance_range, spec.elevation_range, spec.azimuth_range)
    truth = generate_channel(paths, config)
    combining = generate_combining(99, config.num_pilot_slots, config.num_rf_chains, config.num_antennas)
    measurements = synthesize_measurements(truth, combining, 5.0, seed=99)
    result = s_somp(measurements, combining, bank.spherical, 5)
    assert all(b <= a + 1e-9 for a, b in zip(result.residual_norms, result.residual_norms[1:]))
    checks.append("SOMP residual monotonicity")
    rebuilt = bank.spherical.basis.dense()[:, result.support] @ result.sparse_coeffs
    assert np.array_equal(rebuilt, result.channel_estimate)
    checks.append("reconstruction identity")

    # combining-matrix modulus to 1e-14
    assert np.abs(np.abs(combining.entries) - 1.0 / math.sqrt(config.num_antennas)).max() < 1e-14
    checks.append("combining modulus (1e-14)")

    # SNR calibration within 5% over 1e3 redraws
    h_energy = np.linalg.norm(truth.entries) ** 2
    ratios = [
        np.linalg.norm(
            synthesize_measurements(truth, combining, 10.0, seed=s).observations
            - combining.entries @ truth.entries
        )
        ** 2
        / h_energy
        for s in range(1000)
    ]
    assert np.mean(ratios) == pytest.approx(0.1, rel=0.05)
    checks.append("SNR calibration (5% over 1e3 redraws)")

    # CSV determinism: identical RunSpec -> byte-identical CSV. Wall-clock
    # timing is the one observational column, so it is zeroed on both sides
    # before emission.
    small = dataclasses.replace(spec, trials=3, methods=("s-somp", "ls"), snr_list_db=(5.0, 10.0))
    outputs = []
    for run in range(2):
        result = sweep_snr(small)
        result.rows = [dataclasses.replace(row, wall_time_s=0.0) for row in result.rows]
        path = tmp_path / f"determinism_{run}.csv"
        emit_csv(result, path)
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]
    checks.append("full-run CSV determinism")

    _report(8, "; ".join(checks))
