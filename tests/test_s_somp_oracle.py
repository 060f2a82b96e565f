"""`s_somp` (Gram update) against the dense A @ W S-SOMP it replaced.

`_dense_s_somp` is the earlier implementation, kept here verbatim as the
test oracle: it forms the full P N_RF x G dictionary and correlates the
residual against it from scratch at every iteration.
"""

import math
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearfield import codebook, estimator, generate_combining, s_somp, sample_paths
from nearfield.channel import generate_channel
from nearfield.codebook import CodebookGrid, SphericalCodebook, build_spherical_codebook
from nearfield.estimator import EstimationResult, MeasurementSet, synthesize_measurements
from nearfield.harness import (
    METHOD_ANGULAR,
    METHOD_P_SOMP,
    METHOD_S_SOMP,
    SOMP_CODEBOOKS,
    build_codebooks,
    paper_profile,
    run_trial,
)
from nearfield.numerics import lstsq_minimum_norm
from nearfield.phase_modes import PhaseModes

SOMP_METHODS = (METHOD_S_SOMP, METHOD_P_SOMP, METHOD_ANGULAR)


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
    """Run both implementations on one input, compare every output, and
    return the Gram result."""
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
    return got


def _dummy_grid(num_columns):
    indices = np.zeros((num_columns, 3), dtype=np.int64)
    indices[:, 1] = np.arange(num_columns)
    return CodebookGrid(indices, np.tile([math.inf, 0.5 * math.pi, 0.0], (num_columns, 1)))


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
    norms = assert_matches_dense((measurements, combining, codebook, iterations)).residual_norms
    # Each least-squares step projects onto a superset of the last support.
    assert all(b <= a + 1e-9 for a, b in zip(norms, norms[1:]))


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


def test_phase_modes_match_dense_on_zero_input(small_config, small_codebook, monkeypatch):
    """All scores tie at zero, so every column is rescored, in several chunks,
    and the lowest index wins, as from the dense matrix."""
    monkeypatch.setattr(codebook, "_PHASE_MODE_MIN_ANTENNAS", 1)
    monkeypatch.setattr(estimator, "_RESCORE_CHUNK", 64)
    held = build_spherical_codebook(small_config, 0.55, 0.25)
    assert held.modes is not None and held.num_columns > 3 * 64
    combining = generate_combining(0, small_config.num_pilot_slots, small_config.num_rf_chains, small_config.num_antennas)
    rows = combining.entries.shape[0]
    zero = MeasurementSet(np.zeros((rows, small_config.num_subcarriers)), 0.0, math.inf)
    got = assert_matches_dense((zero, combining, held, 3))
    assert got.support == s_somp(zero, combining, small_codebook, 3).support == [0, 1, 2]


def record_somp_calls(spec, trials_by_kind):
    """{method: [s_somp arguments]} of harness trials.

    trials_by_kind maps a sweep kind to (sweep values, trials per value);
    every S-SOMP call the harness makes is recorded by codebook.
    """
    bank = build_codebooks(spec)
    books = {id(getattr(bank, SOMP_CODEBOOKS[m])): m for m in spec.methods}
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


@pytest.fixture(scope="module")
def desk_phase_mode_calls(desk_spec):
    """The calls of `desk_somp_calls`, with phase-mode spherical and polar codebooks."""
    spec = replace(desk_spec, methods=SOMP_METHODS)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(codebook, "_PHASE_MODE_MIN_ANTENNAS", 1)
        return record_somp_calls(
            spec, {"snr": (spec.snr_list_db, 5), "pilot": (spec.pilot_lengths, 2)}
        )


@pytest.mark.parametrize("method", (METHOD_S_SOMP, METHOD_P_SOMP))
def test_phase_modes_match_dense_on_desk_trials(desk_somp_calls, desk_phase_mode_calls, method):
    """Same supports as the dense oracle, and the same coefficients,
    estimates and residuals, bit for bit, as the Gram path on the dense
    codebook, on the 33 seeded desk trials."""
    calls = desk_phase_mode_calls[method]
    assert len(calls) == len(desk_somp_calls[method]) == 33
    for args, dense_args in zip(calls, desk_somp_calls[method]):
        assert args[2].modes is not None and dense_args[2].modes is None
        got = assert_matches_dense(args)
        want = s_somp(*dense_args)
        assert got.support == want.support
        assert np.array_equal(got.sparse_coeffs, want.sparse_coeffs)
        assert np.array_equal(got.channel_estimate, want.channel_estimate)
        assert got.residual_norms == want.residual_norms


@pytest.mark.parametrize("rtol", [estimator.RESCORE_RTOL, 0.5])
def test_near_best_phase_mode_scores_are_rescored(desk_somp_calls, desk_phase_mode_calls, monkeypatch, rtol):
    """At the first iteration, every column whose phase-mode score lies
    within RESCORE_RTOL of the best is among those rescored exactly; a wide
    window (0.5) takes in many columns and leaves the support unchanged."""
    monkeypatch.setattr(estimator, "RESCORE_RTOL", rtol)
    measurements, combining, held, iterations = desk_phase_mode_calls[METHOD_S_SOMP][0]
    projected = combining.entries.conj().T @ measurements.observations
    scores = np.sum(np.abs(held.correlate(projected)) ** 2, axis=0)
    near = set(np.flatnonzero(scores >= scores.max() * (1.0 - rtol)).tolist())
    rescored = []
    real = estimator._exact_scores

    def recording(book, projected, atoms, coeffs, idx):
        rescored.append(set(idx.tolist()))
        return real(book, projected, atoms, coeffs, idx)

    monkeypatch.setattr(estimator, "_exact_scores", recording)
    got = s_somp(measurements, combining, held, iterations)
    assert near and near <= rescored[0]
    assert rtol < 0.1 or len(near) > 1
    assert got.support == s_somp(*desk_somp_calls[METHOD_S_SOMP][0]).support


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


def _unchunked_scores(base, coeffs, gram_rows):
    """The S-SOMP scores as one M x G expression, as formed before scoring
    went chunk by chunk."""
    if coeffs is None:
        gamma = base
    else:
        gamma = coeffs.conj().T @ gram_rows
        np.subtract(base, gamma, out=gamma)
    magnitude = np.abs(gamma)
    return np.einsum("ij,ij->j", magnitude, magnitude)


@pytest.mark.parametrize("num_columns", [300, 512, 3 * 512 + 1, 3 * 512 + 217])
@pytest.mark.parametrize("num_subcarriers", [1, 4, 16])
def test_chunked_scores_equal_unchunked_bit_for_bit(monkeypatch, num_columns, num_subcarriers):
    """Fewer columns than one chunk, a whole number of chunks, one column
    past a whole number, and a ragged last chunk; the first step and later
    ones."""
    monkeypatch.setattr(estimator, "_RESCORE_CHUNK", 512)
    rng = np.random.default_rng(num_columns + num_subcarriers)

    def draw(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    base = draw(num_subcarriers, num_columns)
    scratch = estimator._score_scratch(base)
    for step in range(6):
        coeffs = draw(step, num_subcarriers) if step else None
        gram_rows = draw(step, num_columns)
        got = np.full(num_columns, np.nan)
        estimator._chunked_scores(base, coeffs, gram_rows, got, scratch)
        assert np.array_equal(got, _unchunked_scores(base, coeffs, gram_rows)), step


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_columns=st.integers(2, 300),
    num_subcarriers=st.integers(1, 4),
    step=st.integers(1, 3),
    blocked_share=st.sampled_from([0.0, 0.1, 0.9]),
    slack_share=st.sampled_from([0.0, 1e-3, 0.3]),
    aligned=st.booleans(),
    spread=st.booleans(),
)
def test_pruned_scores_keep_every_column_near_the_best(
    seed, num_columns, num_subcarriers, step, blocked_share, slack_share, aligned, spread
):
    """Every unblocked column whose full score lies within the slack of the
    best is scored, to 1e-12 of `_chunked_scores` plus 1e-12 of the score
    bound the slack is a share of (the pruned expression rounds at ~1e-16
    of that bound, not of the score); blocked columns and the rest stay at
    -1. Blocking the best, as a rejection does, and pruning again scores
    every column near the new best and changes no score.

    With `aligned`, column j of the first term is a real multiple of
    C^H g(j), so the bound is tight on one side for every column. With
    `spread`, the columns' Gram entries span three decades, so that some
    shifts dwarf their roots. Chunks of 8 columns make many chunks."""
    rng = np.random.default_rng(seed)

    def draw(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    coeffs = draw(step, num_subcarriers) * rng.choice([1e-3, 1.0, 10.0])
    gram_rows = draw(step, num_columns)
    if spread:
        gram_rows *= 10.0 ** rng.uniform(-2.0, 1.0, num_columns)
    if aligned:
        base = rng.uniform(-3.0, 3.0, num_columns) * (coeffs.conj().T @ gram_rows)
    else:
        base = draw(num_subcarriers, num_columns)
    blocked = rng.random(num_columns) < blocked_share
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(estimator, "_RESCORE_CHUNK", 8)
        scratch = estimator._score_scratch(base)
        full = np.empty(num_columns)
        estimator._chunked_scores(base, coeffs, gram_rows, full, scratch)
        root = np.empty(num_columns)
        estimator._chunked_scores(base, None, gram_rows[:0], root, scratch)
        root = np.sqrt(root)
        # As in s_somp: sum_k (max_j |b_kj| + sum_i |C_ik| max_j |g_ij|)^2
        # bounds every score, and slack is RESCORE_RTOL of that bound or more.
        bound = np.abs(base).max(axis=1) + np.abs(coeffs).T @ np.abs(gram_rows).max(axis=1)
        slack = max(estimator.RESCORE_RTOL, slack_share) * float(bound @ bound)
        got = np.full(num_columns, -1.0)
        for _ in range(2):
            estimator._pruned_scores(root, coeffs @ base, coeffs, gram_rows, blocked, slack, got)
            kept = got >= 0.0
            assert not np.any(kept & blocked)
            if not np.any(~blocked):
                assert not np.any(kept)
                break
            best = full[~blocked].max()
            assert np.all(kept[~blocked & (full >= best - slack)])
            np.testing.assert_allclose(got[kept], full[kept], rtol=1e-12, atol=1e-12 * float(bound @ bound))
            blocked[np.flatnonzero(~blocked)[np.argmax(full[~blocked])]] = True
            got[blocked] = -1.0


@pytest.mark.parametrize("step", [1, 2, 3])
def test_pruned_scores_of_cancelled_columns_are_kept_at_zero_or_above(step):
    """When every column of the first term equals its Gram update, every
    score is zero, and the pruned expression cancels to rounding on either
    side of it. Every column is then within the slack of the best, so every
    one is kept, at a score clamped to >= 0 and within rounding of zero."""
    rng = np.random.default_rng(step)
    coeffs = rng.standard_normal((step, 4)) + 1j * rng.standard_normal((step, 4))
    gram_rows = rng.standard_normal((step, 300)) + 1j * rng.standard_normal((step, 300))
    base = coeffs.conj().T @ gram_rows
    root = np.sqrt(np.einsum("ij,ij->j", np.abs(base), np.abs(base)))
    bound = np.abs(base).max(axis=1) + np.abs(coeffs).T @ np.abs(gram_rows).max(axis=1)
    slack = estimator.RESCORE_RTOL * float(bound @ bound)
    got = np.full(base.shape[1], -1.0)
    blocked = np.zeros(base.shape[1], dtype=bool)
    estimator._pruned_scores(root, coeffs @ base, coeffs, gram_rows, blocked, slack, got)
    assert np.all(got >= 0.0)
    assert got.max() <= 1e-12 * float(bound @ bound)


@pytest.mark.parametrize("rejected_step", [1, 2])
def test_phase_modes_match_dense_when_a_pruned_step_rejects_its_best(
    desk_phase_mode_calls, monkeypatch, rejected_step
):
    """A column rejected as rank-deficient may have set the pruning cut;
    the columns it pruned are scored before the next pick, so every output
    matches the dense oracle under the same rejection, on the first desk
    trials with phase-mode spherical and polar codebooks."""
    calls = desk_phase_mode_calls[METHOD_S_SOMP][:4] + desk_phase_mode_calls[METHOD_P_SOMP][:4]
    real = lstsq_minimum_norm
    for measurements, combining, held, iterations in calls:
        args = (measurements, combining, held, iterations)
        picked = s_somp(*args).support[rejected_step]
        atom = combining.entries @ held.columns([picked])[:, 0]

        def rejecting(sub, y, _atom=atom):
            solution, well_conditioned = real(sub, y)
            return solution, well_conditioned and not np.allclose(sub[:, -1], _atom, rtol=0, atol=1e-12)

        with monkeypatch.context() as patch:
            patch.setattr(estimator, "lstsq_minimum_norm", rejecting)
            patch.setattr(sys.modules[__name__], "lstsq_minimum_norm", rejecting)
            got = assert_matches_dense(args)
        assert picked not in got.support


@pytest.mark.parametrize("method", SOMP_METHODS)
def test_small_chunks_change_no_bit_of_s_somp(desk_somp_calls, desk_phase_mode_calls, monkeypatch, method):
    """The desk books are narrower than one default chunk; with 512-column
    chunks, every output on the 33 desk trials, dense and from phase modes,
    stays bit for bit the same."""
    calls = desk_somp_calls[method] + desk_phase_mode_calls[method]
    want = [s_somp(*args) for args in calls]
    monkeypatch.setattr(estimator, "_RESCORE_CHUNK", 512)
    for args, expected in zip(calls, want):
        got = s_somp(*args)
        assert got.support == expected.support
        assert np.array_equal(got.sparse_coeffs, expected.sparse_coeffs)
        assert np.array_equal(got.channel_estimate, expected.channel_estimate)
        assert got.residual_norms == expected.residual_norms


@pytest.mark.parametrize("phase_modes", [False, True])
def test_s_somp_peak_is_near_one_score_array(desk_spec, monkeypatch, phase_modes):
    """With 512-column chunks, S-SOMP's own peak on a dense book stays
    within 2.25 M x G complex arrays: the first correlation term, the Gram
    rows, one score vector and chunk scratch. It was 3.84 when the scores of
    all columns were formed at once. A phase-mode book holds no M x G array:
    its peak, 1.15 M x G when measured, is mostly the FFT scratch of the
    first scoring pass, which at desk scale is large next to M x G;
    1.25 leaves a margin of a twelfth. It was 1.94 while the first term was
    held, and 1.11 while `_pruned_scores` formed each shift twice instead
    of keeping a G-vector of them."""
    if phase_modes:
        monkeypatch.setattr(codebook, "_PHASE_MODE_MIN_ANTENNAS", 1)
    book = build_spherical_codebook(desk_spec.system, desk_spec.delta, desk_spec.r_min_m)
    assert (book.modes is not None) == phase_modes
    monkeypatch.setattr(estimator, "_RESCORE_CHUNK", 512)
    system = desk_spec.system
    paths = sample_paths(5, desk_spec.num_paths, desk_spec.distance_range, desk_spec.elevation_range, desk_spec.azimuth_range)
    combining = generate_combining(7, system.num_pilot_slots, system.num_rf_chains, system.num_antennas)
    measurements = synthesize_measurements(generate_channel(paths, system), combining, 10.0, seed=9)
    args = (measurements, combining, book, desk_spec.num_paths)
    s_somp(*args)  # warm any lazily built state
    one_array = 16 * system.num_subcarriers * book.num_columns
    assert _traced_peak(s_somp, *args) <= (1.25 if phase_modes else 2.25) * one_array


@pytest.mark.parametrize("method", (METHOD_S_SOMP, METHOD_P_SOMP))
def test_phase_mode_s_somp_correlates_few_vectors(desk_phase_mode_calls, monkeypatch, method):
    """On a phase-mode book, the M = 16 first-term vectors go only through
    `scores`. After each pick but the last, one `correlate` call of 1 + t
    vectors forms the Gram row and the t rows C b(j), so no call gets more
    than num_iterations vectors, and no M x G complex array is formed."""
    widths = []
    real = PhaseModes.correlate

    def spying(self, v):
        widths.append(1 if np.ndim(v) == 1 else np.shape(v)[1])
        return real(self, v)

    monkeypatch.setattr(PhaseModes, "correlate", spying)
    for measurements, combining, held, iterations in desk_phase_mode_calls[method]:
        widths.clear()
        s_somp(measurements, combining, held, iterations)
        assert measurements.observations.shape[1] == 16 > iterations
        assert widths == list(range(2, iterations + 1))


@pytest.mark.slow
def test_paper_scale_supports_match_dense_oracle():
    # The paper spherical and polar codebooks hold phase modes; the oracle
    # reads their lazily built dense matrices.
    spec = paper_profile(methods=SOMP_METHODS)
    calls = record_somp_calls(spec, {"snr": ((10.0,), 2)})
    for method in SOMP_METHODS:
        assert len(calls[method]) == 2
        for args in calls[method]:
            assert s_somp(*args).support == _dense_s_somp(*args).support
