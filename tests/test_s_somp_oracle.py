"""`s_somp` (Gram update) against the dense A @ W S-SOMP it replaced.

`_dense_s_somp` is the earlier implementation, kept here verbatim as the
test oracle: it forms the full P N_RF x G dictionary and correlates the
residual against it from scratch at every iteration. It reads a book's
float64 matrix through `dense_matrix`, which fills it from the book once
per book.
"""

import math
import sys
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearfield import codebook, estimator, generate_combining, s_somp, sample_paths
from nearfield.channel import generate_channel
from nearfield.codebook import (
    FAR_FIELD,
    SphericalCodebook,
    _RingLayout,
    build_angular_codebook,
    build_polar_codebook,
    build_spherical_codebook,
    export_grid_text,
    export_matrix_binary,
    load_matrix_binary,
)
from nearfield.estimator import EstimationResult, MeasurementSet, synthesize_measurements
from nearfield.harness import (
    METHOD_ANGULAR,
    METHOD_P_SOMP,
    METHOD_S_SOMP,
    METHOD_TABLE,
    build_codebooks,
    paper_profile,
    run_trial,
)
from nearfield.numerics import lstsq_minimum_norm
from nearfield.phase_modes import RESCORE_RTOL, Complex64Screen, DenseBasis, DftBasis, PhaseModes, _RingBasis, ring_matrix

SOMP_METHODS = (METHOD_S_SOMP, METHOD_P_SOMP, METHOD_ANGULAR)

_DENSE = weakref.WeakKeyDictionary()


def dense_matrix(book):
    """The float64 matrix of `book`, `book.dense()`, kept here per
    book: a matrix-free book fills it anew on every call."""
    if book not in _DENSE:
        _DENSE[book] = book.dense()
    return _DENSE[book]


def dense_twin(book):
    """`book` itself when it is a `DenseBasis`, else a
    `DenseBasis` of the matrix `book` fills."""
    return book if isinstance(book, DenseBasis) else DenseBasis(book.layout, dense_matrix(book))


def _dense_s_somp(measurements, combining, codebook, num_iterations):
    y = measurements.observations
    a = combining.entries
    w = dense_matrix(codebook)
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
    return the Gram result. Supports must be equal. Coefficients may differ
    by 1e-10 of their largest modulus (at least 1e-10): an ill-conditioned
    least-squares step amplifies rounding by the condition number of A W_S
    (`_LARGE_COEFFICIENTS`)."""
    with warnings.catch_warnings(record=True) as gram_warnings:
        warnings.simplefilter("always")
        got = s_somp(*args)
    with warnings.catch_warnings(record=True) as dense_warnings:
        warnings.simplefilter("always")
        want = _dense_s_somp(*args)
    assert got.support == want.support
    scale = max(1.0, float(np.max(np.abs(want.sparse_coeffs), initial=0.0)))
    np.testing.assert_allclose(got.sparse_coeffs, want.sparse_coeffs, rtol=0, atol=1e-10 * scale)
    np.testing.assert_allclose(got.residual_norms, want.residual_norms, rtol=0, atol=1e-10)
    codebook = args[2]
    rebuilt = dense_matrix(codebook)[:, got.support] @ got.sparse_coeffs
    assert np.array_equal(rebuilt, got.channel_estimate)
    assert [str(w.message) for w in gram_warnings] == [str(w.message) for w in dense_warnings]
    return got


def _dummy_layout(num_columns):
    """One plane-wave ring of `num_columns` columns, all at azimuth 0: grid
    indices (0, s, 0) and points (inf, pi/2, 0)."""
    return _RingLayout([(0.5 * math.pi, np.zeros(num_columns), [FAR_FIELD])])


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
    codebook = DenseBasis(_dummy_layout(num_columns), w)
    combining = generate_combining(rng, rows, 1, num_antennas)
    support = rng.choice(num_columns, size=min(planted, num_columns), replace=False)
    gains = rng.standard_normal((support.size, num_subcarriers)) + 1j * rng.standard_normal(
        (support.size, num_subcarriers)
    )
    y = combining.entries @ w[:, support] @ gains
    y += noise * (rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape))
    measurements = MeasurementSet(y, noise**2)
    norms = assert_matches_dense((measurements, combining, codebook, iterations)).residual_norms
    # Each least-squares step projects onto a superset of the last support.
    assert all(b <= a + 1e-9 for a, b in zip(norms, norms[1:]))


def test_gram_matches_dense_on_duplicate_column_codebook(small_config):
    """Zero input ties every score, so the duplicate of column 0 is picked
    next and must be skipped as rank-deficient, with the same warning."""
    geom_column = np.full(small_config.num_antennas, 1.0 / math.sqrt(small_config.num_antennas), dtype=complex)
    other = np.exp(2j * math.pi * np.arange(small_config.num_antennas) / small_config.num_antennas)
    other /= np.linalg.norm(other)
    duplicated = DenseBasis(_dummy_layout(3), np.column_stack([geom_column, geom_column, other]))
    combining = generate_combining(23, small_config.num_pilot_slots, small_config.num_rf_chains, small_config.num_antennas)
    zero = MeasurementSet(np.zeros((combining.entries.shape[0], 2)), 0.0)
    assert_matches_dense((zero, combining, duplicated, 2))


def test_gram_matches_dense_on_zero_input(small_config, small_codebook):
    """Every score is zero at every iteration: the lowest-index tie-break."""
    combining = generate_combining(0, small_config.num_pilot_slots, small_config.num_rf_chains, small_config.num_antennas)
    rows = combining.entries.shape[0]
    zero = MeasurementSet(np.zeros((rows, small_config.num_subcarriers)), 0.0)
    assert_matches_dense((zero, combining, small_codebook, 3))


def test_phase_modes_match_dense_on_zero_input(small_config, small_codebook, monkeypatch):
    """All scores tie at zero, so every column is rescored, in several chunks,
    and the lowest index wins, as from the dense matrix."""
    monkeypatch.setattr(codebook, "_PHASE_MODE_MIN_ANTENNAS", 1)
    monkeypatch.setattr("nearfield.phase_modes._FILL_COLUMNS", 64)
    held = build_spherical_codebook(small_config, 0.55, 0.25)
    assert isinstance(held, PhaseModes) and held.num_columns > 3 * 64
    combining = generate_combining(0, small_config.num_pilot_slots, small_config.num_rf_chains, small_config.num_antennas)
    rows = combining.entries.shape[0]
    zero = MeasurementSet(np.zeros((rows, small_config.num_subcarriers)), 0.0)
    got = assert_matches_dense((zero, combining, held, 3))
    assert got.support == s_somp(zero, combining, small_codebook, 3).support == [0, 1, 2]


def record_somp_calls(spec, trials_by_kind):
    """{method: [s_somp arguments]} of harness trials.

    trials_by_kind maps a sweep kind to (sweep values, trials per value);
    every S-SOMP call the harness makes is recorded by codebook.
    """
    bank = build_codebooks(spec)
    books = {id(getattr(bank, METHOD_TABLE[m][0])): m for m in spec.methods}
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


@pytest.fixture(scope="module")
def desk_dense_calls(desk_somp_calls):
    """The calls of `desk_somp_calls`, each on a codebook that holds its
    dense float64 matrix: the screened desk spherical book's twin, and the
    polar and angular books themselves."""
    twins = {}
    return {
        method: [(m, a, twins.setdefault(id(book), dense_twin(book)), n) for m, a, book, n in calls]
        for method, calls in desk_somp_calls.items()
    }


@pytest.mark.parametrize("method", SOMP_METHODS)
def test_gram_matches_dense_on_desk_trials(desk_dense_calls, method):
    calls = desk_dense_calls[method]
    assert len(calls) >= 25
    for args in calls:
        assert isinstance(args[2], DenseBasis)
        assert_matches_dense(args)


def assert_same_bits(got, want):
    assert got.support == want.support
    assert np.array_equal(got.sparse_coeffs, want.sparse_coeffs)
    assert np.array_equal(got.channel_estimate, want.channel_estimate)
    assert got.residual_norms == want.residual_norms


def test_desk_book_representations(desk_somp_calls):
    """The harness's desk spherical book is screened in complex64; its
    polar (G = 504) and angular (G = 128) books hold their matrices."""
    books = {method: calls[0][2] for method, calls in desk_somp_calls.items()}
    assert isinstance(books[METHOD_S_SOMP], Complex64Screen)
    assert isinstance(books[METHOD_P_SOMP], DenseBasis) and isinstance(books[METHOD_ANGULAR], DenseBasis)


@pytest.mark.parametrize("iterations", [None, 8])
def test_screen_matches_dense_on_desk_trials(desk_somp_calls, desk_dense_calls, iterations, record_fills):
    """S-SOMP on the complex64 screen of the desk spherical book gives the
    outputs of the same call on the book's dense float64 twin, bit for bit,
    on the 33 seeded desk trials, at their own iteration count and at 8,
    and every pick went through at least one exact rescoring. S-SOMP on the
    screen fills no dense matrix."""
    calls = desk_somp_calls[METHOD_S_SOMP]
    assert len(calls) == 33
    built = record_fills()
    for args, dense_args in zip(calls, desk_dense_calls[METHOD_S_SOMP]):
        count = iterations or args[3]
        got = s_somp(*args[:3], count)
        assert_same_bits(got, s_somp(*dense_args[:3], count))
        assert all(step.rescored >= 1 and step.slack > 0.0 for step in got.steps)
    assert built == []


@pytest.mark.parametrize("snr_db", [5.0, math.inf])
def test_screen_matches_dense_on_desk_pilot_trials(desk_spec, snr_db):
    """The pilot sweep's calls (P = 8 to 64, so 32 to 256 measurement rows)
    at 5 dB and noiseless, where the residual cancels to rounding once the
    paths are found: the screen's outputs are the dense twin's, bit for bit,
    at the desk iteration count and at 8."""
    spec = replace(desk_spec, methods=(METHOD_S_SOMP,), snr_db=snr_db)
    calls = record_somp_calls(spec, {"pilot": (spec.pilot_lengths, 2)})[METHOD_S_SOMP]
    assert len(calls) == 2 * len(spec.pilot_lengths)
    twin = dense_twin(calls[0][2])
    for measurements, combining, book, iterations in calls:
        assert isinstance(book, Complex64Screen)
        for count in (iterations, 8):
            got = s_somp(measurements, combining, book, count)
            assert_same_bits(got, s_somp(measurements, combining, twin, count))


@pytest.mark.parametrize("phase_modes", [False, True])
def test_streamed_s_somp_matches_dense_on_one_subcarrier(desk_spec, monkeypatch, phase_modes):
    """With one subcarrier the estimate W_S c is a matrix-vector product,
    whose sum order follows the layout of W_S: the screen's and the phase
    modes' columns come in the dense matrix's Fortran order, so their
    outputs are the dense twin's, bit for bit, on 24 desk calls."""
    system = replace(desk_spec.system, num_subcarriers=1)
    spec = replace(desk_spec, system=system, methods=(METHOD_S_SOMP,))
    if phase_modes:
        monkeypatch.setattr(codebook, "_PHASE_MODE_MIN_ANTENNAS", 1)
    calls = record_somp_calls(spec, {"snr": ((0.0, 10.0, 20.0, math.inf), 6)})[METHOD_S_SOMP]
    assert len(calls) == 24
    book = calls[0][2]
    assert isinstance(book, PhaseModes if phase_modes else Complex64Screen)
    twin = dense_twin(book)
    for measurements, combining, _, iterations in calls:
        assert measurements.observations.shape[1] == 1
        assert_same_bits(s_somp(measurements, combining, book, iterations), s_somp(measurements, combining, twin, iterations))


@pytest.fixture(scope="module")
def desk_phase_mode_calls(desk_spec):
    """The calls of `desk_somp_calls`, with phase-mode spherical and polar
    codebooks and a `DftBasis` angular one."""
    spec = replace(desk_spec, methods=SOMP_METHODS)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(codebook, "_PHASE_MODE_MIN_ANTENNAS", 1)
        return record_somp_calls(
            spec, {"snr": (spec.snr_list_db, 5), "pilot": (spec.pilot_lengths, 2)}
        )


@pytest.mark.parametrize("method", SOMP_METHODS)
def test_phase_modes_match_dense_on_desk_trials(desk_dense_calls, desk_phase_mode_calls, method):
    """Same supports as the dense oracle, and the same coefficients,
    estimates and residuals, bit for bit, as the Gram path on the dense
    codebook, on the 33 seeded desk trials."""
    calls = desk_phase_mode_calls[method]
    assert len(calls) == len(desk_dense_calls[method]) == 33
    for args, dense_args in zip(calls, desk_dense_calls[method]):
        assert isinstance(args[2], DftBasis if method == METHOD_ANGULAR else PhaseModes)
        assert isinstance(dense_args[2], DenseBasis) and isinstance(dense_twin(args[2]), DenseBasis)
        got = assert_matches_dense(args)
        want = s_somp(*dense_args)
        assert got.support == want.support
        assert np.array_equal(got.sparse_coeffs, want.sparse_coeffs)
        assert np.array_equal(got.channel_estimate, want.channel_estimate)
        assert got.residual_norms == want.residual_norms


@pytest.mark.parametrize("rtol", [RESCORE_RTOL, 0.5])
def test_near_best_phase_mode_scores_are_rescored(desk_somp_calls, desk_phase_mode_calls, monkeypatch, rtol):
    """At the first iteration, every column whose phase-mode score lies
    within the basis' `rescore_rtol` (RESCORE_RTOL) of the best is among
    those rescored exactly; a wide window (0.5) takes in many columns and
    leaves the support unchanged."""
    monkeypatch.setattr(PhaseModes, "rescore_rtol", rtol)
    measurements, combining, held, iterations = desk_phase_mode_calls[METHOD_S_SOMP][0]
    projected = combining.entries.conj().T @ measurements.observations
    scores = np.sum(np.abs(held.correlate(projected)) ** 2, axis=0)
    near = set(np.flatnonzero(scores >= scores.max() * (1.0 - rtol)).tolist())
    rescored = []
    real = estimator._exact_scores

    def recording(book, gradient, idx):
        rescored.append(set(idx.tolist()))
        return real(book, gradient, idx)

    monkeypatch.setattr(estimator, "_exact_scores", recording)
    got = s_somp(measurements, combining, held, iterations)
    assert near and near <= rescored[0]
    assert rtol < 0.1 or len(near) > 1
    assert got.support == s_somp(*desk_somp_calls[METHOD_S_SOMP][0]).support


def test_s_somp_allocates_less_than_half_a_dictionary(desk_spec, desk_codebook, traced_peak):
    system = replace(desk_spec.system, num_pilot_slots=64)
    paths = sample_paths(5, desk_spec.num_paths, desk_spec.distance_range, desk_spec.elevation_range, desk_spec.azimuth_range)
    combining = generate_combining(7, system.num_pilot_slots, system.num_rf_chains, system.num_antennas)
    measurements = synthesize_measurements(generate_channel(paths, system), combining, 10.0, seed=9)
    args = (measurements, combining, desk_codebook, desk_spec.num_paths)
    rows = combining.entries.shape[0]
    assert rows == 256
    dictionary_bytes = rows * desk_codebook.num_columns * 16

    # The oracle forms the dictionary, which shows the allocations are traced.
    assert traced_peak(_dense_s_somp, *args)[1] >= dictionary_bytes
    assert traced_peak(s_somp, *args)[1] < 0.5 * dictionary_bytes


class _PerturbedModes(SphericalCodebook):
    """A codebook of a dense matrix as stand-in phase modes, which S-SOMP
    streams on and whose `columns` and `correlate` read the matrix, but
    whose `scores` and `move_scores` are off by as much as phase modes may
    be for `s_somp`'s slack at their `rescore_rtol`: each score by
    error (2 + error) of ||V||_F^2, up or down at random, and each of the
    two correlations x and y behind a move by `error` of its vector's norm.
    Each is pushed along the phase of the other, which moves Re(conj(x) y)
    up by ~error (||v_1|| |y| + ||v_2|| |x|), near its worst case
    error (2 + error) ||v_1|| ||v_2||."""

    rescore_rtol = RESCORE_RTOL
    streamed = True

    def __init__(self, matrix, error, rng):
        super().__init__(_dummy_layout(matrix.shape[1]))
        self.entries = matrix
        self.error = error
        self.rng = rng

    @property
    def num_antennas(self):
        return self.entries.shape[0]

    def dense(self):
        return self.entries

    def columns(self, idx):
        return self.entries[:, idx]

    def correlate(self, v):
        return np.asarray(v).conj().T @ self.entries

    def move_scores(self, v, scores):
        x, y = self.correlate(v)
        push = self.error * np.linalg.norm(v, axis=0)
        pushed_x = x + push[0] * np.exp(1j * np.angle(y))
        pushed_y = y + push[1] * np.exp(1j * np.angle(x))
        scores += (pushed_x.conj() * pushed_y).real

    def scores(self, v):
        exact = np.sum(np.abs(np.asarray(v).conj().T @ self.entries) ** 2, axis=0)
        shift = self.error * (2.0 + self.error) * np.linalg.norm(v) ** 2 * self.rng.choice([-1.0, 1.0], exact.size)
        return np.maximum(exact + shift, 0.0)


def _check_running_scores(patch, args):
    """Wrap `_rank_one_update` so that, before and after every move, each
    unblocked running score is >= 0 and within the slack of its exact
    score ||(A^H R)^H w_j||^2, blocked ones are -1 after it, and the slack
    grows by at most 4 rtol ||A||_2^2 ||Y||_F^2 a step, rtol the basis'
    `rescore_rtol` (the bound in `_rank_one_update` is at most 3 of these,
    plus rounding). Returns the list of slacks after each move."""
    measurements, combining, book, _ = args
    w = dense_matrix(book)
    scale = (np.linalg.norm(combining.entries, 2) * np.linalg.norm(measurements.observations)) ** 2
    real = estimator._rank_one_update
    slacks = []

    def check(scores, gradient, blocked, slack):
        exact = np.sum(np.abs(gradient.conj().T @ w) ** 2, axis=0)
        free = ~blocked
        assert np.all(scores[free] >= 0.0)
        assert np.all(np.abs(scores[free] - exact[free]) <= slack)

    def checking(book, a, change, previous, updated, scores, blocked, slack, rtol):
        assert rtol == book.rescore_rtol
        check(scores, previous, blocked, slack)
        widened = real(book, a, change, previous, updated, scores, blocked, slack, rtol)
        assert slack <= widened <= slack + 4.0 * rtol * scale
        check(scores, updated, blocked, widened)
        assert np.all(scores[blocked] == -1.0)
        slacks.append(widened)
        return widened

    patch.setattr(estimator, "_rank_one_update", checking)
    return slacks


def _reject(patch, combining, book, column):
    """Make `lstsq_minimum_norm` call any subdictionary ending in `column`
    rank-deficient, in `s_somp` and in the dense oracle."""
    atom = combining.entries @ book.columns([column])[:, 0]
    real = lstsq_minimum_norm

    def rejecting(sub, y):
        solution, well_conditioned = real(sub, y)
        return solution, well_conditioned and not np.allclose(sub[:, -1], atom, rtol=0, atol=1e-12)

    patch.setattr(estimator, "lstsq_minimum_norm", rejecting)
    patch.setattr(sys.modules[__name__], "lstsq_minimum_norm", rejecting)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_antennas=st.integers(8, 24),
    num_columns=st.integers(2, 48),
    rows=st.integers(2, 16),
    num_subcarriers=st.integers(1, 4),
    planted=st.integers(1, 3),
    noise=st.sampled_from([0.0, 1e-3, 0.1, 1.0]),
    error=st.sampled_from([0.0, 1e-12, 4e-9]),
    clustered=st.booleans(),
    data=st.data(),
)
def test_running_scores_stay_within_the_slack_on_random_configurations(
    seed, num_antennas, num_columns, rows, num_subcarriers, planted, noise, error, clustered, data
):
    """On a phase-mode path whose correlations and first-pass scores are
    off by up to `error` (4e-9 is the largest error RESCORE_RTOL covers),
    every running score stays within the slack of its exact score and at
    or above 0 after every step, and a column rejected at a later step
    leaves every output as the dense oracle gives it. Noiseless inputs
    cancel every score to rounding once the planted columns are found;
    there the picks tie at rounding level, so only the slack is checked.
    `clustered` codebooks hold near-copies of a few columns, as a grid's
    neighbours are, so that many columns correlate strongly with the
    chosen atom, where a score move's error is largest."""
    budget = min(rows, num_columns, num_antennas)
    iterations = data.draw(st.integers(1, budget), label="iterations")
    rejected_step = None
    if 1 < iterations < num_columns:
        rejected_step = data.draw(st.none() | st.integers(1, iterations - 1), label="rejected_step")
    _check_random_configuration(
        seed, num_antennas, num_columns, rows, num_subcarriers, planted, noise, error, clustered, iterations, rejected_step
    )


#: Configurations, as (seed, N, G, rows, M, planted, noise, error,
#: clustered, iterations, rejected step), on which the check above fails
#: once the phase-mode term of the slack growth is dropped.
_SLACK_CRITICAL = [
    (0, 8, 3, 2, 1, 1, 0.0, 4e-9, False, 2, None),
    (256, 14, 32, 10, 1, 1, 1.0, 4e-9, False, 9, None),
    (948, 12, 16, 15, 2, 1, 0.1, 4e-9, True, 11, None),
]


#: A configuration, drawn by a fresh run of the property above, whose
#: coefficients reach 2 282: A W_S is 6 x 6 with condition number 4.1e3,
#: and `s_somp` and the dense oracle differ by 2.0e-10 (8.9e-14 relative),
#: inside the first-order bound eps kappa ||x|| ~ 2.1e-9. It failed while
#: `assert_matches_dense` held coefficients to a fixed 1e-10.
_LARGE_COEFFICIENTS = (16, 8, 6, 6, 1, 1, 1.0, 0.0, True, 6, None)


@pytest.mark.parametrize("configuration", _SLACK_CRITICAL + [_LARGE_COEFFICIENTS])
def test_running_scores_stay_within_the_slack_on_critical_configurations(configuration):
    """Pinned examples of the property above, so that a fresh run without
    hypothesis' example database still meets a configuration where the
    phase-mode term of the slack is needed, and one with large
    coefficients."""
    _check_random_configuration(*configuration)


def _check_random_configuration(
    seed, num_antennas, num_columns, rows, num_subcarriers, planted, noise, error, clustered, iterations, rejected_step
):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((num_antennas, num_columns)) + 1j * rng.standard_normal(
        (num_antennas, num_columns)
    )
    if clustered:
        w = w[:, rng.integers(0, min(3, num_columns), num_columns)] + 0.2 * w
    w /= np.linalg.norm(w, axis=0)
    book = _PerturbedModes(w, error, rng)
    combining = generate_combining(rng, rows, 1, num_antennas)
    support = rng.choice(num_columns, size=min(planted, num_columns), replace=False)
    gains = rng.standard_normal((support.size, num_subcarriers)) + 1j * rng.standard_normal(
        (support.size, num_subcarriers)
    )
    y = combining.entries @ w[:, support] @ gains
    y += noise * (rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape))
    args = (MeasurementSet(y, noise**2), combining, book, iterations)
    with pytest.MonkeyPatch.context() as patch:
        if rejected_step is not None:
            _reject(patch, combining, book, s_somp(*args).support[rejected_step])
        slacks = _check_running_scores(patch, args)
        if noise > 0.0:
            assert_matches_dense(args)
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # a rejection's warning
                s_somp(*args)
    assert len(slacks) == iterations - 1


@pytest.mark.parametrize("rejected_step", [None, 1, 2])
def test_running_scores_stay_within_the_slack_on_desk_trials(desk_phase_mode_calls, rejected_step):
    """The check above on the 33 seeded desk trials with phase-mode
    spherical and polar codebooks; with a rejection at step 1 or 2, on the
    first four of each, every output still matches the dense oracle."""
    calls = desk_phase_mode_calls[METHOD_S_SOMP] + desk_phase_mode_calls[METHOD_P_SOMP]
    if rejected_step is not None:
        calls = desk_phase_mode_calls[METHOD_S_SOMP][:4] + desk_phase_mode_calls[METHOD_P_SOMP][:4]
    for args in calls:
        picked = s_somp(*args).support[rejected_step] if rejected_step is not None else None
        with pytest.MonkeyPatch.context() as patch:
            if picked is not None:
                _reject(patch, args[1], args[2], picked)
            slacks = _check_running_scores(patch, args)
            got = assert_matches_dense(args)
        assert len(slacks) == args[3] - 1
        assert picked not in got.support


@pytest.mark.parametrize("phase_modes", [False, True])
@pytest.mark.parametrize("rejected_step", [None, 1])
def test_s_somp_records_each_step(desk_dense_calls, desk_phase_mode_calls, phase_modes, rejected_step):
    """`EstimationResult.steps` holds, per iteration, the count of columns
    passed to `_exact_scores`, the slack in force at the pick (RESCORE_RTOL
    ||A^H Y||_F^2 first, then what each `_rank_one_update` returned), and
    the columns rejected as rank-deficient. Dense books rescore nothing at
    slack 0."""
    calls = (desk_phase_mode_calls if phase_modes else desk_dense_calls)[METHOD_S_SOMP][:4]
    _check_recorded_steps(calls, phase_modes, rejected_step)


@pytest.mark.parametrize("rejected_step", [None, 1])
def test_screened_s_somp_records_each_step(desk_somp_calls, rejected_step):
    """As above on the complex64 screen of the desk spherical book, whose
    first slack is its own `rescore_rtol` ||A^H Y||_F^2."""
    calls = desk_somp_calls[METHOD_S_SOMP][:4]
    assert isinstance(calls[0][2], Complex64Screen)
    _check_recorded_steps(calls, True, rejected_step)


def _check_recorded_steps(calls, streamed, rejected_step):
    for args in calls:
        measurements, combining, book, iterations = args
        picked = s_somp(*args).support[rejected_step] if rejected_step is not None else None
        events = [[0, None]]  # (columns rescored, slack) per step
        real_exact, real_move = estimator._exact_scores, estimator._rank_one_update

        def exact(book, gradient, idx):
            events[-1][0] += idx.size
            return real_exact(book, gradient, idx)

        def move(*move_args):
            slack = real_move(*move_args)
            events.append([0, slack])
            return slack

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(estimator, "_exact_scores", exact)
            patch.setattr(estimator, "_rank_one_update", move)
            if picked is not None:
                _reject(patch, combining, book, picked)
            with warnings.catch_warnings(record=True):
                warnings.simplefilter("always")
                got = s_somp(*args)
        assert len(got.steps) == iterations
        assert len(events) == (iterations if streamed else 1)
        projected = combining.entries.conj().T @ measurements.observations
        rtol = book.rescore_rtol if streamed else RESCORE_RTOL
        events[0][1] = rtol * float(np.vdot(projected, projected).real)
        for step, record in enumerate(got.steps):
            assert isinstance(record, estimator.SompStep)
            if streamed:
                rescored, slack = events[step]
                assert record.rescored == rescored >= 1
                assert record.slack == slack > 0.0
            else:
                assert (record.rescored, record.slack) == (0, 0.0) and events == [[0, events[0][1]]]
            assert record.rejected == ((picked,) if step == rejected_step else ())


@pytest.mark.parametrize("num_subcarriers", [1, 2, 3])
def test_moved_scores_of_cancelled_columns_are_kept_at_zero_or_above(num_subcarriers):
    """When the new atom takes up all of a rank-1 residual, R_t = 0, so
    every exact score is zero, and each moved score cancels to rounding on
    either side of it. The moved scores are clamped at >= 0, stay within
    rounding of zero and within the widened slack, and the blocked column
    is set to -1."""
    rng = np.random.default_rng(num_subcarriers)

    def draw(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    w = draw(16, 300)
    w /= np.linalg.norm(w, axis=0)
    book = _PerturbedModes(w, 0.0, rng)
    a = draw(8, 16)
    residual = np.outer(a @ w[:, 0], draw(num_subcarriers))
    previous = a.conj().T @ residual
    scores = np.sum(np.abs(previous.conj().T @ w) ** 2, axis=0)
    scale = float(np.vdot(previous, previous).real)
    blocked = np.zeros(w.shape[1], dtype=bool)
    blocked[0] = True
    slack = estimator._rank_one_update(
        book, a, residual, previous, np.zeros_like(previous), scores, blocked, RESCORE_RTOL * scale, RESCORE_RTOL
    )
    assert scores[0] == -1.0
    assert np.all(scores[1:] >= 0.0)
    assert scores[1:].max() <= min(1e-12 * scale, slack)


@pytest.mark.parametrize("method", SOMP_METHODS)
def test_small_chunks_change_no_bit_of_s_somp(desk_somp_calls, desk_dense_calls, desk_phase_mode_calls, monkeypatch, method):
    """The desk books are narrower than one 4096-column block of
    `phase_modes.column_blocks`; with the default 128-column blocks every
    output on the 33 desk trials, dense, screened and from phase modes, is
    bit for bit the one a single block gives. The Gram path scores every
    column at once, whatever the width."""
    calls = desk_somp_calls[method] + desk_phase_mode_calls[method]
    if method == METHOD_S_SOMP:
        calls = calls + desk_dense_calls[method]
    with monkeypatch.context() as patch:
        patch.setattr("nearfield.phase_modes._FILL_COLUMNS", 4096)
        assert max(args[2].num_columns for args in calls) <= 4096
        want = [s_somp(*args) for args in calls]
    for args, expected in zip(calls, want):
        got = s_somp(*args)
        assert got.support == expected.support
        assert np.array_equal(got.sparse_coeffs, expected.sparse_coeffs)
        assert np.array_equal(got.channel_estimate, expected.channel_estimate)
        assert got.residual_norms == expected.residual_norms


def _width_outputs(books, calls, v, folder):
    """The screen's `correlate` of v, and a list of everything else a walk
    of `phase_modes.column_blocks` makes on the desk spherical (screened)
    and polar (dense) books, as arrays and bytes."""
    screen = books["spherical"]
    out = [ring_matrix(screen.layout, screen.system, dtype) for dtype in (np.complex128, np.complex64)]
    for args in calls:
        got = s_somp(*args)
        out += [np.array(got.support), got.sparse_coeffs, got.channel_estimate, np.array(got.residual_norms), repr(got.steps)]
    real, values = codebook.PairStats.from_values, []
    for name, book in books.items():
        text, binary = folder / f"{name}.txt", folder / f"{name}.bin"
        export_grid_text(book, text)
        export_matrix_binary(book, binary)
        out += [text.read_bytes(), binary.read_bytes(), load_matrix_binary(binary)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(codebook.PairStats, "from_values", lambda found: values.append(found) or real(found))
            codebook.coherence_stats(book, 700, seed=5)
        out.append(values[-1])  # the random pairs' values, the last ones summarised
    return screen.correlate(v), out


def test_column_width_changes_no_bit(desk_spec, desk_somp_calls, desk_phase_mode_calls, tmp_path, monkeypatch):
    """Walking a book's columns 1, 5 or 4 096 at a time gives what the
    default 128 give, bit for bit or byte for byte: the matrix filled in
    complex128 and complex64, every output of S-SOMP on the desk screen and
    on forced phase modes, the grid text, the binary export and its load,
    and the random pairs' correlations. The screen's `correlate` is one
    BLAS product per block, which sums in an order that follows the GEMM
    kernel's column unroll: it keeps its bits at 4 096, and at 1 and 5
    columns lies within rounding of them."""
    system = desk_spec.system
    books = {
        "spherical": build_spherical_codebook(system, desk_spec.delta, desk_spec.r_min_m),
        "polar": build_polar_codebook(system, desk_spec.delta, desk_spec.r_min_m),
    }
    assert isinstance(books["spherical"], Complex64Screen) and isinstance(books["polar"], DenseBasis)
    calls = desk_somp_calls[METHOD_S_SOMP] + desk_phase_mode_calls[METHOD_S_SOMP] + desk_phase_mode_calls[METHOD_P_SOMP]
    rng = np.random.default_rng(3)
    v = rng.standard_normal((system.num_antennas, 3)) + 1j * rng.standard_normal((system.num_antennas, 3))
    correlations, want = _width_outputs(books, calls, v, tmp_path)
    for width in (1, 5, 4096):
        monkeypatch.setattr("nearfield.phase_modes._FILL_COLUMNS", width)
        correlated, got = _width_outputs(books, calls, v, tmp_path)
        if width % 8:
            assert np.abs(correlated - correlations).max() <= 1e-14 * np.linalg.norm(v, axis=0).max()
        else:
            assert np.array_equal(correlated, correlations)
        assert len(got) == len(want)
        for position, (a, b) in enumerate(zip(got, want)):
            if isinstance(a, np.ndarray):
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), (width, position)
            else:
                assert a == b, (width, position)


def _all_rings_scores(modes, v):
    """`PhaseModes.scores` as written before step 1 ran one ring at a time:
    the power spectra of all rings of a plan in one (k, Z, L) array."""
    wrapped = modes._wrapped_spectra(v)
    k = wrapped.shape[0]
    out = np.empty(modes.num_columns)
    spectra_buf = np.empty(k * max(p.coef.shape[0] * p.power_length for p in modes._plans), dtype=np.complex128)
    lags_buf = np.empty(max(p.coef.shape[0] * p.spectrum.size for p in modes._plans), dtype=np.complex128)
    for plan in modes._plans:
        rings, width = plan.coef.shape
        length, size, count = plan.power_length, plan.spectrum.size, plan.count
        chirp = plan.chirp
        spectra = spectra_buf[: k * rings * length].reshape(k, rings, length)
        np.multiply(modes._plan_modes(wrapped, plan)[:, None], plan.coef, out=spectra[:, :, :width])
        spectra[:, :, width:] = 0.0
        np.fft.fft(spectra, axis=-1, out=spectra)
        parts = spectra.view(np.float64)
        summed = np.einsum("kzl,kzl->zl", parts, parts).reshape(rings, length, 2)
        lags = np.fft.ihfft(np.add(summed[..., 0], summed[..., 1]), axis=-1)
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


@pytest.mark.parametrize("method", (METHOD_S_SOMP, METHOD_P_SOMP))
def test_ring_by_ring_power_spectra_change_no_bit_of_s_somp(desk_phase_mode_calls, monkeypatch, method):
    """`PhaseModes.scores` transforms the power spectra one ring at a time.
    On the 33 desk trials, whose books hold plans of up to 3 rings, the
    scores of A^H Y are those of all rings at once, bit for bit, and with
    `scores` taking all rings at once every S-SOMP output keeps its bits."""
    calls = desk_phase_mode_calls[method]
    assert max(plan.coef.shape[0] for plan in calls[0][2]._plans) > 1
    want = [s_somp(*args) for args in calls]
    for measurements, combining, book, _ in calls:
        projected = combining.entries.conj().T @ measurements.observations
        assert np.array_equal(book.scores(projected), _all_rings_scores(book, projected))
    monkeypatch.setattr(PhaseModes, "scores", _all_rings_scores)
    for args, expected in zip(calls, want):
        got = s_somp(*args)
        assert got.support == expected.support
        assert np.array_equal(got.sparse_coeffs, expected.sparse_coeffs)
        assert np.array_equal(got.channel_estimate, expected.channel_estimate)
        assert got.residual_norms == expected.residual_norms
        assert got.steps == expected.steps


@pytest.mark.parametrize("method", (METHOD_S_SOMP, METHOD_P_SOMP))
def test_phase_mode_s_somp_peak_is_its_working_set(desk_phase_mode_calls, method, traced_peak):
    """One phase-mode S-SOMP call traces at most its working set: the
    float64 score vector and its two boolean arrays (exact, blocked) of G
    entries, the power spectra scratch of `PhaseModes.scores`, k max L
    complex entries, and ten N x M complex blocks for the rest (A^H Y, its
    spectra FFT(conj(v_k)) at the plan modes, one plan's lags and power,
    numpy's temporaries). Measured on the desk books: 0.43 and 0.39 MB
    against bounds of 0.47 and 0.44 MB. It was 0.99 and 0.93 MB while each
    call copied A^H, the spectra scratch held every ring of the widest
    plan, and the rescoring window formed four boolean arrays of G
    entries."""
    for args in desk_phase_mode_calls[method][:3]:
        measurements, combining, book, _ = args
        num_antennas, k = book.num_antennas, measurements.observations.shape[1]
        longest = max(plan.power_length for plan in book._plans)
        bound = 10 * book.num_columns + 16 * k * longest + 10 * 16 * num_antennas * k
        s_somp(*args)  # warm any lazily built state
        assert traced_peak(s_somp, *args)[1] <= bound


def _one_call(spec, book, iterations=None):
    """One S-SOMP call's arguments under a profile `spec`: its paths (seed
    5), combiner seed 7, 10 dB (noise seed 9)."""
    system = spec.system
    paths = sample_paths(5, spec.num_paths, spec.distance_range, spec.elevation_range, spec.azimuth_range)
    combining = generate_combining(7, system.num_pilot_slots, system.num_rf_chains, system.num_antennas)
    measurements = synthesize_measurements(generate_channel(paths, system), combining, 10.0, seed=9)
    return measurements, combining, book, iterations or spec.num_paths


def _gram_working_set(m, g, n, iterations):
    """Bytes a Gram-path S-SOMP call may trace: the M x G complex first
    term, (iterations - 1) Gram rows of G complex entries, the float64
    scores and boolean `blocked` array (9 B per column), the M x G complex
    and float scratch the scores are formed in (24 B per entry), and eight
    N x M complex blocks for the rest."""
    return 16 * m * g + 16 * (iterations - 1) * g + 9 * g + 24 * m * g + 8 * 16 * n * m


def test_dense_s_somp_peak_is_its_working_set(desk_spec, desk_codebook, traced_peak):
    """One S-SOMP call on each book the Gram path searches, at 3 and at 8
    iterations, traces at most its working set (`_gram_working_set`). The
    builds give that path desk polar (a `DenseBasis`, G = 504), desk
    angular and paper angular (a `DftBasis`, G = N = 128 and 512); the
    dense float64 twin of the screened desk spherical book (G = 3 789),
    which no build makes, is the widest case. Measured at 3 / 8
    iterations: 0.42 / 0.47, 0.17 / 0.20, 0.65 / 0.76 and 2.58 / 2.88 MiB.
    The twin traced 1.44 / 1.75 MiB, under a bound of 1.51 MiB at 3
    iterations, while the scores were formed 512 columns at a time in
    M x 512 scratch; the three built books, at most 512 wide, were scored
    in one such piece then too."""
    paper = paper_profile()
    books = [
        (desk_spec, build_polar_codebook(desk_spec.system, desk_spec.delta, desk_spec.r_min_m)),
        (desk_spec, build_angular_codebook(desk_spec.system)),
        (paper, build_angular_codebook(paper.system)),
        (desk_spec, dense_twin(desk_codebook)),
    ]
    for spec, book in books:
        assert not book.streamed
        m, g, n = spec.system.num_subcarriers, book.num_columns, spec.system.num_antennas
        for iterations in (3, 8):
            args = _one_call(spec, book, iterations)
            s_somp(*args)  # warm any lazily built state
            assert traced_peak(s_somp, *args)[1] <= _gram_working_set(m, g, n, iterations), (g, iterations)


@pytest.mark.parametrize("iterations", [3, 8])
def test_screened_s_somp_traces_at_most_0_8_mib(desk_spec, iterations, record_fills, traced_peak):
    """One desk spherical S-SOMP call on the complex64 screen traces at most
    0.8 MiB at 3 and at 8 iterations: the M x G complex64 product of the
    first pass (0.46 MiB), the score vector and its two boolean arrays, and
    N x M blocks; no array grows with the iteration count. Measured:
    0.60 MiB at both. On the dense float64 twin the Gram path traces 2.58
    and 2.88 MiB."""
    book = build_spherical_codebook(desk_spec.system, desk_spec.delta, desk_spec.r_min_m)
    assert isinstance(book, Complex64Screen)
    args = _one_call(desk_spec, book, iterations)
    built = record_fills()
    s_somp(*args)  # warm any lazily built state
    assert traced_peak(s_somp, *args)[1] <= 0.8 * 2**20
    assert built == []


def test_paper_angular_s_somp_traces_at_most_0_8_mib(record_fills, traced_peak):
    """One paper angular S-SOMP call (a `DftBasis`, G = N = 512, M = 16, 3
    iterations) on the exact Gram path traces at most 0.8 MiB: the M x G
    first term and two Gram rows, the scores and their M x G scratch, and N x M
    blocks. It fills no dense matrix. Measured: 0.65 MiB; the streamed
    path, with running scores, rank-1 moves and rescoring, traced
    1.02 MiB."""
    spec = paper_profile()
    book = build_angular_codebook(spec.system)
    assert isinstance(book, DftBasis)
    args = _one_call(spec, book, 3)
    built = record_fills()
    s_somp(*args)  # warm any lazily built state
    assert traced_peak(s_somp, *args)[1] <= 0.8 * 2**20
    assert built == []


@pytest.mark.parametrize("phase_modes", [False, True])
def test_s_somp_peak_is_near_one_score_array(desk_spec, monkeypatch, phase_modes, traced_peak):
    """On the dense twin of the desk spherical book, S-SOMP's own peak
    stays within its Gram-path working set, 2.93 M x G complex arrays: the
    first term, the Gram rows, one score vector and M x G scratch.
    Measured: 2.79. The bound was 2.25 while the scores were formed 512
    columns at a time, and the peak 3.84 when they were formed of
    temporaries over all columns at once. A phase-mode book holds no M x G array:
    its peak, 1.015 M x G when measured, is mostly the FFT scratch of the
    first scoring pass, which at desk scale is large next to M x G;
    1.10 leaves a margin of a twelfth. It was 1.94 while the first term was
    held, and 1.15 while the later steps kept Gram rows, the rows
    C (A^H Y)^H W and a triangle bound's roots and shifts. Forming the
    rank-1 moves plan by plan left it at 1.015: the first pass sets it.
    Sizing that pass's power spectra for one ring of the widest plan, with
    no copy of A^H, brought it to 0.44."""
    if phase_modes:
        monkeypatch.setattr(codebook, "_PHASE_MODE_MIN_ANTENNAS", 1)
    book = build_spherical_codebook(desk_spec.system, desk_spec.delta, desk_spec.r_min_m)
    if not phase_modes:
        book = dense_twin(book)
    assert book.streamed == phase_modes
    system = desk_spec.system
    paths = sample_paths(5, desk_spec.num_paths, desk_spec.distance_range, desk_spec.elevation_range, desk_spec.azimuth_range)
    combining = generate_combining(7, system.num_pilot_slots, system.num_rf_chains, system.num_antennas)
    measurements = synthesize_measurements(generate_channel(paths, system), combining, 10.0, seed=9)
    args = (measurements, combining, book, desk_spec.num_paths)
    s_somp(*args)  # warm any lazily built state
    m, g, n = system.num_subcarriers, book.num_columns, system.num_antennas
    bound = 1.10 * 16 * m * g if phase_modes else _gram_working_set(m, g, n, desk_spec.num_paths)
    assert traced_peak(s_somp, *args)[1] <= bound


def test_phase_mode_s_somp_peak_does_not_grow_with_iterations(desk_spec, monkeypatch, traced_peak):
    """On a phase-mode book S-SOMP keeps one score vector whatever the
    iteration count, so its traced peak at 12 iterations stays within 3 %
    of its peak at 3 (it was 2.6 times that while each step added a Gram
    row and a row C (A^H Y)^H W of G entries)."""
    monkeypatch.setattr(codebook, "_PHASE_MODE_MIN_ANTENNAS", 1)
    book = build_spherical_codebook(desk_spec.system, desk_spec.delta, desk_spec.r_min_m)
    assert isinstance(book, PhaseModes)
    system = desk_spec.system
    paths = sample_paths(5, desk_spec.num_paths, desk_spec.distance_range, desk_spec.elevation_range, desk_spec.azimuth_range)
    combining = generate_combining(7, system.num_pilot_slots, system.num_rf_chains, system.num_antennas)
    measurements = synthesize_measurements(generate_channel(paths, system), combining, 10.0, seed=9)
    s_somp(measurements, combining, book, 3)  # warm any lazily built state
    peaks = [traced_peak(s_somp, measurements, combining, book, n)[1] for n in (3, 12)]
    assert peaks[1] <= 1.03 * peaks[0]


@pytest.mark.parametrize("method", (METHOD_S_SOMP, METHOD_P_SOMP))
def test_phase_mode_s_somp_correlates_few_vectors(desk_phase_mode_calls, desk_somp_calls, monkeypatch, method):
    """On a streamed book, phase modes or the desk complex64 screen, the
    M = 16 first-term vectors go only through `scores`. After each pick but
    the last, one `move_scores` call of two vectors, A^H q and A^H R d,
    moves every score by the residual's rank-1 change, and `correlate`, the
    exact column walk both inherit from `_RingBasis`, is never called, so
    no M x G or 2 x G complex array is formed and no call grows with the
    iteration count."""
    widths = []

    def spying(real):
        def move_scores(self, v, scores):
            widths.append(np.shape(v)[1])
            return real(self, v, scores)

        return move_scores

    def failing(self, v):
        raise AssertionError("correlate called")

    for streamed in (PhaseModes, Complex64Screen):
        monkeypatch.setattr(streamed, "move_scores", spying(streamed.move_scores))
    monkeypatch.setattr(_RingBasis, "correlate", failing)
    calls = desk_phase_mode_calls[method]
    if method == METHOD_S_SOMP:
        assert all(isinstance(args[2], Complex64Screen) for args in desk_somp_calls[method])
        calls = calls + desk_somp_calls[method]
    for measurements, combining, held, iterations in calls:
        assert held.streamed
        widths.clear()
        s_somp(measurements, combining, held, iterations)
        assert measurements.observations.shape[1] == 16 > iterations
        assert widths == [2] * (iterations - 1)


@pytest.fixture(scope="module")
def paper_somp_calls():
    # The paper spherical and polar codebooks hold phase modes, and the
    # angular one a DftBasis; the oracle reads the matrices they fill.
    spec = paper_profile(methods=SOMP_METHODS)
    return record_somp_calls(spec, {"snr": ((10.0,), 2)})


@pytest.mark.slow
def test_paper_scale_supports_match_dense_oracle(paper_somp_calls):
    for method in SOMP_METHODS:
        assert len(paper_somp_calls[method]) == 2
        for args in paper_somp_calls[method]:
            assert s_somp(*args).support == _dense_s_somp(*args).support


@pytest.mark.slow
@pytest.mark.parametrize("iterations", [3, 12])
def test_paper_angular_s_somp_equals_its_dense_twin(paper_somp_calls, iterations, record_fills):
    """The paper angular book holds a `DftBasis`; S-SOMP on it fills no
    dense matrix and gives the outputs of the same call on a dense twin of
    that book, bit for bit."""
    twins = {}
    for _, _, book, _ in paper_somp_calls[METHOD_ANGULAR]:
        assert isinstance(book, DftBasis)
        assert isinstance(twins.setdefault(id(book), dense_twin(book)), DenseBasis)
    built = record_fills()
    for measurements, combining, book, _ in paper_somp_calls[METHOD_ANGULAR]:
        got = s_somp(measurements, combining, book, iterations)
        want = s_somp(measurements, combining, twins[id(book)], iterations)
        assert got.support == want.support
        assert np.array_equal(got.sparse_coeffs, want.sparse_coeffs)
        assert np.array_equal(got.channel_estimate, want.channel_estimate)
        assert got.residual_norms == want.residual_norms
    assert built == []


@pytest.mark.slow
def test_paper_spherical_s_somp_traces_at_most_2_5_mb(paper_somp_calls, traced_peak):
    """One paper spherical S-SOMP call (G = 100 358, M = 16) traces 2.11 MB:
    its score vector alone is 0.80 MB. It traced 4.35 MB while each call
    copied A^H, `scores` held the spectra of every ring of the widest plan
    and the rescoring window formed four boolean arrays of G entries."""
    for args in paper_somp_calls[METHOD_S_SOMP]:
        assert isinstance(args[2], PhaseModes)
        s_somp(*args)  # warm any lazily built state
        assert traced_peak(s_somp, *args)[1] <= 2.5e6


@pytest.mark.slow
def test_paper_scale_supports_match_dense_oracle_at_twelve_iterations(paper_somp_calls):
    """Eleven rank-1 score moves in a row on the paper spherical book."""
    for measurements, combining, book, _ in paper_somp_calls[METHOD_S_SOMP]:
        assert isinstance(book, PhaseModes)
        args = (measurements, combining, book, 12)
        assert s_somp(*args).support == _dense_s_somp(*args).support
