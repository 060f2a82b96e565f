"""`s_somp` (Gram update) against the dense A @ W S-SOMP it replaced.

`_dense_s_somp` is the earlier implementation, kept here verbatim as the
test oracle: it forms the full P N_RF x G dictionary and correlates the
residual against it from scratch at every iteration.
"""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearfield import estimator, generate_combining, s_somp, sample_paths
from nearfield.channel import generate_channel
from nearfield.codebook import GridPoint, SphericalCodebook
from nearfield.estimator import EstimationResult, MeasurementSet, synthesize_measurements
from nearfield.harness import (
    METHOD_ANGULAR,
    METHOD_P_SOMP,
    METHOD_S_SOMP,
    build_codebooks,
    paper_profile,
    run_trial,
)
from nearfield.numerics import lstsq_minimum_norm

SOMP_METHODS = (METHOD_S_SOMP, METHOD_P_SOMP, METHOD_ANGULAR)
KINDS = {METHOD_S_SOMP: "spherical", METHOD_P_SOMP: "polar", METHOD_ANGULAR: "angular"}


def _dense_s_somp(measurements, combining, codebook, num_iterations):
    y = measurements.observations
    a = combining.entries
    w = codebook.matrix
    if num_iterations < 1:
        raise ValueError("num_iterations must be >= 1")
    budget = min(a.shape[0], w.shape[1])
    if num_iterations > budget:
        raise ValueError(
            f"num_iterations={num_iterations} exceeds the rank budget {budget}"
        )
    dictionary = a @ w

    residual = y.astype(np.complex128, copy=True)
    support: list = []
    residual_norms: list = []
    coeffs = np.zeros((0, y.shape[1]), dtype=np.complex128)
    blocked = np.zeros(w.shape[1], dtype=bool)

    for _ in range(num_iterations):
        gamma = dictionary.conj().T @ residual
        scores = np.abs(gamma) ** 2
        scores = scores.sum(axis=1)
        scores[blocked] = -1.0
        while True:
            best = int(np.argmax(scores))
            if scores[best] < 0.0:
                raise RuntimeError("dictionary exhausted before num_iterations")
            candidate = support + [best]
            solution, well_conditioned = lstsq_minimum_norm(
                dictionary[:, candidate], y
            )
            if well_conditioned:
                break
            warnings.warn(
                f"skipping dictionary column {best}: selection would be "
                "numerically rank-deficient",
                stacklevel=2,
            )
            blocked[best] = True
            scores[best] = -1.0
        support.append(best)
        blocked[best] = True
        coeffs = solution
        residual = y - dictionary[:, support] @ coeffs
        residual_norms.append(float(np.linalg.norm(residual)))

    estimate = w[:, support] @ coeffs
    return EstimationResult(support, coeffs, estimate, residual_norms)


def assert_matches_dense(args):
    """Run both implementations on one input and compare every output."""
    with warnings.catch_warnings(record=True) as gram_warnings:
        warnings.simplefilter("always")
        got = s_somp(*args)
    with warnings.catch_warnings(record=True) as dense_warnings:
        warnings.simplefilter("always")
        want = _dense_s_somp(*args)
    assert got.support == want.support
    np.testing.assert_allclose(got.sparse_coeffs, want.sparse_coeffs, rtol=0, atol=1e-10)
    np.testing.assert_allclose(got.residual_norms, want.residual_norms, rtol=0, atol=1e-10)
    codebook = args[2]
    rebuilt = codebook.matrix[:, got.support] @ got.sparse_coeffs
    assert np.array_equal(rebuilt, got.channel_estimate)
    assert [str(w.message) for w in gram_warnings] == [str(w.message) for w in dense_warnings]


def _dummy_grid(num_columns):
    return tuple(GridPoint(math.inf, 0.5 * math.pi, 0.0, (0, s, 0)) for s in range(num_columns))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_antennas=st.integers(8, 24),
    num_columns=st.integers(2, 48),
    rows=st.integers(2, 16),
    num_subcarriers=st.integers(1, 4),
    planted=st.integers(1, 3),
    noise=st.sampled_from([1e-3, 0.1, 1.0]),
    data=st.data(),
)
def test_gram_matches_dense_on_random_configurations(
    seed, num_antennas, num_columns, rows, num_subcarriers, planted, noise, data
):
    budget = min(rows, num_columns, num_antennas)
    iterations = data.draw(st.integers(1, budget), label="iterations")
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((num_antennas, num_columns)) + 1j * rng.standard_normal(
        (num_antennas, num_columns)
    )
    w /= np.linalg.norm(w, axis=0)
    codebook = SphericalCodebook(w, _dummy_grid(num_columns))
    combining = generate_combining(rng, rows, 1, num_antennas)
    support = rng.choice(num_columns, size=min(planted, num_columns), replace=False)
    gains = rng.standard_normal((support.size, num_subcarriers)) + 1j * rng.standard_normal(
        (support.size, num_subcarriers)
    )
    y = combining.entries @ w[:, support] @ gains
    y += noise * (rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape))
    measurements = MeasurementSet(y, noise**2, math.nan)
    assert_matches_dense((measurements, combining, codebook, iterations))


def test_gram_matches_dense_on_duplicate_column_codebook(small_config):
    """Zero input ties every score, so the duplicate of column 0 is picked
    next and must be skipped as rank-deficient, with the same warning."""
    geom_column = np.full(small_config.num_antennas, 1.0 / math.sqrt(small_config.num_antennas), dtype=complex)
    other = np.exp(2j * math.pi * np.arange(small_config.num_antennas) / small_config.num_antennas)
    other /= np.linalg.norm(other)
    duplicated = SphericalCodebook(np.column_stack([geom_column, geom_column, other]), _dummy_grid(3))
    combining = generate_combining(23, small_config.num_pilot_slots, small_config.num_rf_chains, small_config.num_antennas)
    zero = MeasurementSet(np.zeros((combining.entries.shape[0], 2)), 0.0, math.inf)
    assert_matches_dense((zero, combining, duplicated, 2))


def test_gram_matches_dense_on_zero_input(small_config, small_codebook):
    """Every score is zero at every iteration: the lowest-index tie-break."""
    combining = generate_combining(0, small_config.num_pilot_slots, small_config.num_rf_chains, small_config.num_antennas)
    rows = combining.entries.shape[0]
    zero = MeasurementSet(np.zeros((rows, small_config.num_subcarriers)), 0.0, math.inf)
    assert_matches_dense((zero, combining, small_codebook, 3))


def record_somp_calls(spec, trials_by_kind):
    """{method: [s_somp arguments]} of harness trials.

    trials_by_kind maps a sweep kind to (sweep values, trials per value);
    every S-SOMP call the harness makes is recorded by codebook.
    """
    bank = build_codebooks(spec)
    books = {id(getattr(bank, KINDS[m])): m for m in spec.methods}
    calls = {m: [] for m in spec.methods}
    real = estimator.s_somp

    def recording(*args):
        calls[books[id(args[2])]].append(args)
        return real(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(estimator, "s_somp", recording)
        for kind, (values, trials) in trials_by_kind.items():
            for value in values:
                for i in range(trials):
                    run_trial(spec, value, i, bank, kind)
    return calls


@pytest.fixture(scope="module")
def desk_somp_calls(desk_spec):
    spec = replace(desk_spec, methods=SOMP_METHODS)
    return record_somp_calls(
        spec, {"snr": (spec.snr_list_db, 5), "pilot": (spec.pilot_lengths, 2)}
    )


@pytest.mark.parametrize("method", SOMP_METHODS)
def test_gram_matches_dense_on_desk_trials(desk_somp_calls, method):
    calls = desk_somp_calls[method]
    assert len(calls) >= 25
    for args in calls:
        assert_matches_dense(args)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_s_somp_allocates_less_than_half_a_dictionary(desk_spec, desk_codebook):
    system = replace(desk_spec.system, num_pilot_slots=64)
    paths = sample_paths(5, desk_spec.num_paths, desk_spec.distance_range, desk_spec.elevation_range, desk_spec.azimuth_range)
    combining = generate_combining(7, system.num_pilot_slots, system.num_rf_chains, system.num_antennas)
    measurements = synthesize_measurements(generate_channel(paths, system), combining, 10.0, seed=9)
    args = (measurements, combining, desk_codebook, desk_spec.num_paths)
    rows = combining.entries.shape[0]
    assert rows == 256
    dictionary_bytes = rows * desk_codebook.num_columns * 16

    # The oracle forms the dictionary, which shows the allocations are traced.
    assert _traced_peak(_dense_s_somp, *args) >= dictionary_bytes
    assert _traced_peak(s_somp, *args) < 0.5 * dictionary_bytes


@pytest.mark.slow
def test_paper_scale_supports_match_dense_oracle():
    spec = paper_profile(methods=SOMP_METHODS)
    calls = record_somp_calls(spec, {"snr": ((10.0,), 2)})
    for method in SOMP_METHODS:
        assert len(calls[method]) == 2
        for args in calls[method]:
            assert s_somp(*args).support == _dense_s_somp(*args).support
