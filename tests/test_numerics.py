import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearfield import generate_combining, numerics
from nearfield.numerics import (
    bessel_j0,
    first_j0_zero,
    gram_lstsq,
    lstsq_minimum_norm,
    solve_beta_delta,
)

mpmath.mp.dps = 40

# Frozen oracle values, computed with the high-precision power series below.
J0_AT_ONE = 0.7651976865579666
FIRST_ZERO = 2.404825557695773
BETA_FOR_055 = 1.4309457931011534

# The exact bits of alpha = j01 and beta(0.55) every codebook is spaced by:
# a J0 that moves either moves every column of every book.
FIRST_ZERO_BITS = "0x1.33d152e971b38p+1"
BETA_FOR_055_BITS = "0x1.6e5276a7b7e76p+0"


def j0_series_oracle(x):
    """Independent oracle: sum (-1)^k (x/2)^(2k) / (k!)^2 in 40-digit arithmetic."""
    x = mpmath.mpf(x)
    term = mpmath.mpf(1)
    total = mpmath.mpf(1)
    k = 0
    while abs(term) > mpmath.mpf(10) ** -35:
        k += 1
        term *= -((x / 2) ** 2) / (k * k)
        total += term
    return float(total)


def test_j0_at_zero_is_exactly_one():
    assert bessel_j0(0.0) == 1.0


def test_j0_at_one_matches_frozen_series_value():
    assert bessel_j0(1.0) == pytest.approx(J0_AT_ONE, abs=1e-12)


def test_j0_vanishes_at_first_zero():
    assert abs(bessel_j0(2.4048255577)) < 1e-9


@pytest.mark.parametrize("x", [0.5 * k for k in range(41)])
def test_j0_matches_series_oracle_on_grid(x):
    assert bessel_j0(x) == pytest.approx(j0_series_oracle(x), abs=1e-14)


@pytest.mark.parametrize("x", [12.5, 15.0, 21.7, 30.0, 37.5, 44.1, 50.0])
def test_j0_matches_series_oracle_beyond_crossover(x):
    assert bessel_j0(x) == pytest.approx(j0_series_oracle(x), abs=1e-14)


def test_j0_matches_mpmath_to_rounding():
    """The ring average is exact up to rounding: within 1e-14 of mpmath's J0
    on 5 001 points of [0, 50], and within 1e-13 at 1e3 and 1e4."""
    worst = max(
        abs(bessel_j0(x) - float(mpmath.besselj(0, x))) for x in np.linspace(0.0, 50.0, 5001)
    )
    assert worst <= 1e-14
    for x in (1e3, 1e4, -1e4):
        assert abs(bessel_j0(x) - float(mpmath.besselj(0, x))) <= 1e-13


def test_j0_even_symmetry():
    for x in (0.3, 1.7, 9.9, 23.4):
        assert bessel_j0(-x) == bessel_j0(x)


def test_j0_bounded_by_one():
    for x in np.linspace(0.0, 50.0, 257):
        assert abs(bessel_j0(float(x))) <= 1.0 + 1e-15


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_j0_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        bessel_j0(bad)


@pytest.mark.parametrize("bad", [1e4 * (1 + 1e-15), -1.5e4, 1e300])
def test_j0_rejects_arguments_beyond_1e4(bad):
    with pytest.raises(ValueError, match=r"\|x\| <= 1e4"):
        bessel_j0(bad)


def test_first_zero_matches_frozen_value():
    assert first_j0_zero() == pytest.approx(FIRST_ZERO, abs=1e-12)
    assert first_j0_zero() == float.fromhex(FIRST_ZERO_BITS)


def test_first_zero_composes_with_j0():
    assert abs(bessel_j0(first_j0_zero())) < 1e-9


def test_first_zero_bracket():
    assert 2.0 < first_j0_zero() < 3.0


def test_beta_delta_endpoints():
    assert solve_beta_delta(1.0) == 0.0
    assert solve_beta_delta(0.0) == pytest.approx(FIRST_ZERO, abs=1e-12)


def test_beta_delta_for_paper_threshold():
    beta = solve_beta_delta(0.55)
    assert beta == pytest.approx(BETA_FOR_055, abs=1e-9)
    assert beta == float.fromhex(BETA_FOR_055_BITS)
    # bracketing sanity: J0(1.4) > 0.55 > J0(1.5)
    assert j0_series_oracle(1.4) > 0.55 > j0_series_oracle(1.5)
    assert abs(bessel_j0(beta) - 0.55) < 1e-10


def test_beta_delta_monotone_decreasing_in_delta():
    deltas = [0.05, 0.2, 0.4, 0.55, 0.7, 0.9, 0.99]
    betas = [solve_beta_delta(d) for d in deltas]
    assert all(b1 > b2 for b1, b2 in zip(betas, betas[1:]))


@pytest.mark.parametrize("bad", [-0.1, 1.1, 2.0])
def test_beta_delta_rejects_out_of_range(bad):
    for _ in range(2):  # a rejection is not cached: it raises on every call
        with pytest.raises(ValueError):
            solve_beta_delta(bad)


def test_beta_delta_bisects_once_per_process(monkeypatch):
    """A second call at the same delta returns the cached beta, bit for bit,
    without running the bisection again."""
    calls = []
    bisect = numerics._bisect_j0

    def counting(*args):
        calls.append(args)
        return bisect(*args)

    first_j0_zero()  # cached apart: only beta's own bisection is counted
    monkeypatch.setattr(numerics, "_bisect_j0", counting)
    solve_beta_delta.cache_clear()
    try:
        betas = [solve_beta_delta(0.55) for _ in range(2)]
    finally:
        solve_beta_delta.cache_clear()  # no cached beta from the counting run
    assert len(calls) == 1
    assert betas == [float.fromhex(BETA_FOR_055_BITS)] * 2


def _random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_lstsq_identity_projection():
    rng = np.random.default_rng(0)
    y = _random_complex(rng, 5, 3)
    x, ok = lstsq_minimum_norm(np.eye(5), y)
    assert ok
    assert np.allclose(x, y, atol=1e-14)


def test_lstsq_recovers_consistent_orthonormal_system():
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(_random_complex(rng, 8, 3))
    x0 = _random_complex(rng, 3, 4)
    x, ok = lstsq_minimum_norm(q, q @ x0)
    assert ok
    assert np.allclose(x, x0, atol=1e-10)


def test_lstsq_matches_normal_equations_oracle():
    rng = np.random.default_rng(2)
    a = _random_complex(rng, 8, 3)
    y = _random_complex(rng, 8, 5)
    oracle = np.linalg.solve(a.conj().T @ a, a.conj().T @ y)
    x, ok = lstsq_minimum_norm(a, y)
    assert ok
    assert np.allclose(x, oracle, atol=1e-8)


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_lstsq_residual_orthogonal_to_column_space(seed):
    rng = np.random.default_rng(seed)
    a = _random_complex(rng, 12, 4)
    y = _random_complex(rng, 12, 6)
    x, ok = lstsq_minimum_norm(a, y)
    assert ok
    residual = a @ x - y
    assert np.linalg.norm(a.conj().T @ residual) <= 1e-8 * np.linalg.norm(y)


def test_lstsq_rank_deficient_flags_and_returns_minimum_norm():
    rng = np.random.default_rng(6)
    col = _random_complex(rng, 6, 1)
    a = np.hstack([col, col])  # rank 1
    y = _random_complex(rng, 6, 2)
    x, ok = lstsq_minimum_norm(a, y)
    assert not ok
    assert np.allclose(x, np.linalg.pinv(a) @ y, atol=1e-10)


def test_lstsq_minimum_norm_reports_conditioning():
    rng = np.random.default_rng(7)
    a = _random_complex(rng, 6, 3)
    _, ok = lstsq_minimum_norm(a, _random_complex(rng, 6, 2))
    assert ok
    a[:, 2] = a[:, 1]
    _, ok = lstsq_minimum_norm(a, _random_complex(rng, 6, 2))
    assert not ok


def test_lstsq_rejects_mismatched_rows():
    with pytest.raises(ValueError):
        lstsq_minimum_norm(np.eye(3), np.zeros((4, 2)))


def test_lstsq_accepts_single_column_rhs():
    rng = np.random.default_rng(8)
    a = _random_complex(rng, 5, 2)
    y = _random_complex(rng, 5)
    x, ok = lstsq_minimum_norm(a, y)
    assert ok
    assert x.shape == (2,)


def test_no_warning_on_well_conditioned_solve():
    rng = np.random.default_rng(9)
    a = _random_complex(rng, 6, 3)
    y = _random_complex(rng, 6, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, ok = lstsq_minimum_norm(a, y)
    assert ok


def _assert_relative_close(got, want, rtol=1e-10):
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_antennas=st.integers(1, 64),
    orientation=st.sampled_from(["wide", "tall", "square", "square-4", "square+4"]),
    num_rhs=st.integers(1, 4),
    data=st.data(),
)
def test_gram_lstsq_matches_svd_solution(seed, num_antennas, orientation, num_rhs, data):
    """Random-phase combiners of every orientation, near-square ones
    (P N_RF = N +- 4) included, give the SVD's minimum-norm solution."""
    n = num_antennas
    if orientation == "wide":
        rows = data.draw(st.integers(1, max(1, n - 1)))
    elif orientation == "tall":
        rows = data.draw(st.integers(n + 1, 2 * n + 8))
    else:
        rows = max(1, n + {"square": 0, "square-4": -4, "square+4": 4}[orientation])
    a = generate_combining(seed, rows, 1, n).entries
    rng = np.random.default_rng(seed)
    y = _random_complex(rng, rows, num_rhs)
    _assert_relative_close(gram_lstsq(a, y), lstsq_minimum_norm(a, y)[0])
    _assert_relative_close(gram_lstsq(a, y[:, 0]), lstsq_minimum_norm(a, y[:, 0])[0])


@pytest.mark.parametrize("rows, cols", [(6, 10), (14, 8), (8, 8)])
def test_gram_lstsq_duplicated_row_gives_pinv_solution(rows, cols):
    a = generate_combining(11, rows, 1, cols).entries.copy()
    a[-1] = a[0]
    y = _random_complex(np.random.default_rng(12), rows, 3)
    _assert_relative_close(gram_lstsq(a, y), np.linalg.pinv(a) @ y)


@pytest.mark.parametrize("rows, cols", [(6, 10), (14, 8)])
def test_gram_lstsq_duplicated_column_gives_pinv_solution(rows, cols):
    a = generate_combining(13, rows, 1, cols).entries.copy()
    a[:, -1] = a[:, 0]
    y = _random_complex(np.random.default_rng(14), rows, 3)
    _assert_relative_close(gram_lstsq(a, y), np.linalg.pinv(a) @ y)


def test_gram_lstsq_takes_svd_path_beyond_condition_limit(monkeypatch):
    """A Gram whose Cholesky pivots spread past GRAM_CONDITION_LIMIT is
    solved by `lstsq_minimum_norm`; a well-conditioned one is not."""
    calls = []
    real = numerics.lstsq_minimum_norm

    def recording(a, y):
        calls.append(a.shape)
        return real(a, y)

    monkeypatch.setattr(numerics, "lstsq_minimum_norm", recording)
    rng = np.random.default_rng(15)
    q, _ = np.linalg.qr(_random_complex(rng, 12, 4))
    y = _random_complex(rng, 12, 2)
    gram_lstsq(q, y)
    assert calls == []
    scaled = q * np.array([1.0, 1.0, 1.0, 1e-3])  # condition 1e3, Gram 1e6
    _assert_relative_close(gram_lstsq(scaled, y), real(scaled, y)[0])
    assert calls == [(12, 4)]


def test_gram_lstsq_zero_matrix_gives_zero_solution():
    x = gram_lstsq(np.zeros((3, 5)), np.ones((3, 2)))
    assert x.shape == (5, 2)
    assert not np.any(x)


def test_gram_lstsq_rejects_mismatched_rows():
    with pytest.raises(ValueError):
        gram_lstsq(np.eye(3), np.zeros((4, 2)))


def _gram_lstsq_with_adjoint_copy(a, y):
    """`gram_lstsq`'s well-conditioned solves as written while it held a
    copy of A^H through the Cholesky factorisation and the solve."""
    rows, cols = a.shape
    a_h = a.conj().T
    gram = a @ a_h if rows < cols else a_h @ a
    if rows < cols:
        return a_h @ np.linalg.solve(gram, y)
    if rows > cols:
        return np.linalg.solve(gram, a_h @ y)
    return np.linalg.solve(a, y)


def _combiner_and_rhs(rows, cols, num_rhs):
    a = generate_combining(rows + cols, rows // 4, 4, cols).entries
    y = _random_complex(np.random.default_rng(rows * cols), rows, num_rhs)
    return a, (y[:, 0] if num_rhs == 1 else y)


@pytest.mark.parametrize("num_rhs", [1, 16])
@pytest.mark.parametrize("rows, cols", [(32, 128), (64, 128), (128, 128), (256, 128), (128, 512)])
def test_gram_lstsq_equals_the_adjoint_copy_formula_bit_for_bit(rows, cols, num_rhs):
    """The desk combiners at P = 8/16/32/64 (wide, wide, square, tall) and
    the paper one at P = 32: forming A^H X as (X^H A)^H changes no bit of
    the solution, for a vector and for 16 right-hand sides."""
    a, y = _combiner_and_rhs(rows, cols, num_rhs)
    got = gram_lstsq(a, y)
    assert got.flags.c_contiguous
    assert np.array_equal(got, _gram_lstsq_with_adjoint_copy(a, y))


def test_gram_lstsq_holds_no_copy_of_a_h():
    """At the paper combiner (128 x 512) with 16 right-hand sides,
    `gram_lstsq` traces 1.25 MiB: the conjugate of A the Gram is formed from
    (1 MiB), which dies with its product, and the 128 x 128 Gram. It traced
    1.66 MiB while a copy of A^H lived through the Cholesky factorisation and
    the solve."""
    a, y = _combiner_and_rhs(128, 512, 16)
    gram_lstsq(a, y)  # warm any lazily loaded state
    tracemalloc.start()
    try:
        gram_lstsq(a, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * 2**20
