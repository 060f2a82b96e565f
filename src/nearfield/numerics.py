"""Scalar special functions and complex least-squares kernels.

Everything here is a pure function; no shared mutable state.
"""

import functools
import math

import numpy as np

# Condition-number estimate beyond which a least-squares system is treated
# as numerically rank-deficient.
CONDITION_LIMIT = 1e12

# Crossover between the power series and the Hankel asymptotic expansion.
# The series loses ~5 digits to cancellation near x = 20; at 12 the
# asymptotic tail already truncates below 1e-11.
_SERIES_CROSSOVER = 12.0


def bessel_j0(x: float) -> float:
    """Bessel function of the first kind, order zero.

    Uses the ascending power series sum_k (-1)^k (x/2)^(2k) / (k!)^2 for
    |x| <= 12 and the Hankel asymptotic expansion beyond, giving absolute
    error below 1e-10 on [0, 50]. Negative arguments are accepted via the
    even symmetry of J0.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"bessel_j0 requires a finite argument, got {x!r}")
    x = abs(x)
    if x <= _SERIES_CROSSOVER:
        return _j0_series(x)
    return _j0_asymptotic(x)


def _j0_series(x: float) -> float:
    q = -0.25 * x * x
    term = 1.0
    total = 1.0
    k = 0
    while abs(term) > 1e-18:
        k += 1
        term *= q / (k * k)
        total += term
    return total


def _j0_asymptotic(x: float) -> float:
    # J0(x) = Re[ sqrt(2/(pi x)) e^{i(x - pi/4)} sum_m i^m a_m / x^m ] with
    # a_{m+1}/a_m = -(2m+1)^2 / (8(m+1)); truncated at the smallest term.
    ratio_base = 1j / x
    term = 1.0 + 0.0j
    total = 0.0 + 0.0j
    smallest = math.inf
    m = 0
    while 1e-19 < abs(term) < smallest:
        total += term
        smallest = abs(term)
        term *= ratio_base * (-((2 * m + 1) ** 2) / (8.0 * (m + 1)))
        m += 1
    w = x - 0.25 * math.pi
    phase = complex(math.cos(w), math.sin(w))
    return math.sqrt(2.0 / (math.pi * x)) * (phase * total).real


@functools.lru_cache(maxsize=1)
def first_j0_zero() -> float:
    """First positive zero of J0, located by bisection on (2, 3)."""
    lo, hi = 2.0, 3.0
    f_lo = bessel_j0(lo)
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        f_mid = bessel_j0(mid)
        if f_lo * f_mid <= 0.0:
            hi = mid
        else:
            lo = mid
            f_lo = f_mid
    return 0.5 * (lo + hi)


def solve_beta_delta(delta: float) -> float:
    """Invert J0 on [0, j01]: the unique beta with J0(beta) = delta.

    J0 decreases monotonically from 1 to 0 on that interval, so bisection
    converges unconditionally; the root is resolved to 1e-12.
    """
    delta = float(delta)
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must lie in [0, 1], got {delta!r}")
    if delta == 1.0:
        return 0.0
    zero = first_j0_zero()
    if delta == 0.0:
        return zero
    lo, hi = 0.0, zero
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if bessel_j0(mid) > delta:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def lstsq_minimum_norm(a_sub: np.ndarray, y: np.ndarray):
    """Minimum-norm least-squares solve, reporting conditioning.

    Returns (x, well_conditioned) where x minimises ||a_sub @ x - y||_F and
    well_conditioned is False when the singular-value ratio exceeds
    CONDITION_LIMIT or the numerical rank falls short of the column count.
    """
    a = np.asarray(a_sub, dtype=np.complex128)
    rhs = np.asarray(y, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError("a_sub must be a 2-D matrix")
    squeeze = rhs.ndim == 1
    if squeeze:
        rhs = rhs[:, None]
    if rhs.shape[0] != a.shape[0]:
        raise ValueError(
            f"row mismatch: a_sub has {a.shape[0]} rows, y has {rhs.shape[0]}"
        )
    x, _, rank, sv = np.linalg.lstsq(a, rhs, rcond=None)
    if rank < a.shape[1]:
        ok = False
    elif sv.size and sv[-1] > 0.0:
        ok = sv[0] / sv[-1] <= CONDITION_LIMIT
    else:
        ok = sv.size == 0
    return (x[:, 0] if squeeze else x), ok


def adjoint_product(x, a) -> np.ndarray:
    """A^H X, for X of shape (m,) or (m, k) and A of shape (m, n), formed as
    (X^H A)^H with no copy of A^H. It is conjugated into a C-ordered array,
    laid out as A^H X is, so every later product and norm sums in the same
    order."""
    return np.conjugate((x.conj().T @ a).T, order="C")


#: Largest condition number `gram_lstsq` solves with, as the Cholesky pivots
#: of the Gram bound it from below: that of the Gram when A is wide or tall,
#: that of A itself when it is square. Beyond it, it takes the SVD path.
GRAM_CONDITION_LIMIT = 1e4


def gram_lstsq(a, y) -> np.ndarray:
    """Minimum-norm least-squares solution x of a @ x = y, via the short side's Gram.

    A wide A (m < n) gives x = A^H (A A^H)^-1 y, and a tall one
    x = (A^H A)^-1 A^H y: one solve with an m x m or n x n Gram instead of an
    SVD of A. A square A is solved by LU on A itself, since its Gram would
    square the condition number. The ratio of the largest to the smallest
    Cholesky pivot of the Gram bounds the condition number of A from below.
    When the factorisation fails, or that bound for the matrix solved with
    exceeds GRAM_CONDITION_LIMIT, the system counts as numerically
    rank-deficient and is solved by `lstsq_minimum_norm`.

    Its working set is the Gram, its Cholesky factor and a few right-hand-side
    blocks, plus one m x n conjugate of A while the Gram is formed: that
    conjugate dies with its product, and A^H X is formed as (X^H A)^H
    (`adjoint_product`), so no copy of A^H outlives its GEMM. At m x n =
    128 x 512 with 16 right-hand sides it traces 1.25 MiB, 1 MiB of it that
    conjugate.
    """
    a = np.asarray(a, dtype=np.complex128)
    rhs = np.asarray(y, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError("a must be a 2-D matrix")
    if rhs.shape[0] != a.shape[0]:
        raise ValueError(f"row mismatch: a has {a.shape[0]} rows, y has {rhs.shape[0]}")
    rows, cols = a.shape
    gram = a @ a.conj().T if rows < cols else a.conj().T @ a
    try:
        pivots = np.linalg.cholesky(gram).diagonal().real
        bound = pivots.max() / pivots.min()
        if rows != cols:
            bound *= bound
        if bound <= GRAM_CONDITION_LIMIT:
            if rows < cols:
                return adjoint_product(np.linalg.solve(gram, rhs), a)
            if rows > cols:
                return np.linalg.solve(gram, adjoint_product(rhs, a))
            return np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        pass
    return lstsq_minimum_norm(a, rhs)[0]
