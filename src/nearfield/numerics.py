"""Scalar special functions and complex least-squares kernels.

Everything here is a pure function; no shared mutable state.
"""

import functools
import math

import numpy as np

# Condition-number estimate beyond which a least-squares system is treated
# as numerically rank-deficient.
CONDITION_LIMIT = 1e12


def bessel_j0(x: float) -> float:
    """Bessel function of the first kind, order zero.

    Bessel's integral J0(x) = (1/2 pi) int_0^{2 pi} cos(x sin t) dt, averaged
    over K = 64 + 2 ceil(|x|) uniform ring points, as a UCA's column
    correlation averages e^{jx cos(phi - psi_n)} over its antennas. The
    K-point average equals J0(x) + 2 sum_{m >= 1} J_{mK}(x) exactly, and
    J_K(x) is negligible once K exceeds |x| by that margin: the absolute
    error is rounding alone, below 1e-14 on [0, 50] and about 2e-14 out to
    1e4. Negative arguments are accepted via the even symmetry of J0;
    non-finite ones and |x| > 1e4 are rejected.
    """
    x = float(x)
    if not math.isfinite(x) or abs(x) > 1e4:
        raise ValueError(f"bessel_j0 requires a finite |x| <= 1e4, got {x!r}")
    x = abs(x)
    k = 64 + 2 * math.ceil(x)
    ring = np.sin((2.0 * math.pi / k) * np.arange(k))
    return float(np.mean(np.cos(x * ring)))


def _bisect_j0(level: float, lo: float, hi: float, tol: float) -> float:
    """The x in [lo, hi], where J0 decreases, at which it crosses `level`, to within tol."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if bessel_j0(mid) > level:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@functools.lru_cache(maxsize=1)
def first_j0_zero() -> float:
    """First positive zero of J0, located by bisection on (2, 3)."""
    return _bisect_j0(0.0, 2.0, 3.0, 1e-14)


@functools.lru_cache
def solve_beta_delta(delta: float) -> float:
    """Invert J0 on [0, j01]: the unique beta with J0(beta) = delta.

    J0 decreases monotonically from 1 to 0 on that interval, so bisection
    converges unconditionally; the root is resolved to 1e-12. Each delta is
    solved once per process, as every spherical and polar build asks again.
    """
    delta = float(delta)
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must lie in [0, 1], got {delta!r}")
    if delta == 1.0:
        return 0.0
    zero = first_j0_zero()
    if delta == 0.0:
        return zero
    return _bisect_j0(delta, 0.0, zero, 1e-12)


def adjoint_product(x, a) -> np.ndarray:
    """A^H X, for X of shape (m,) or (m, k) and A of shape (m, n), formed as
    (X^H A)^H with no copy of A^H. It is conjugated into a C-ordered array,
    laid out as A^H X is, so every later product and norm sums in the same
    order."""
    return np.conjugate((x.conj().T @ a).T, order="C")


#: Largest condition number solved by the Gram, as its Cholesky pivots bound
#: it from below: that of the Gram when A is wide or tall, of A when square.
GRAM_CONDITION_LIMIT = 1e4


def lstsq_minimum_norm(a, y):
    """Minimum-norm least-squares solution x of a @ x = y, and whether A has
    numerical rank min(m, n) with sigma_max / sigma_min <= CONDITION_LIMIT.

    A wide A (m < n) gives x = A^H (A A^H)^-1 y, and a tall one
    x = (A^H A)^-1 A^H y: one solve with the short side's Gram. A square A
    is solved by LU on A itself, since its Gram would square the condition
    number. The ratio of the largest to the smallest Cholesky pivot of the
    Gram bounds the condition number of A from below; within
    GRAM_CONDITION_LIMIT for the matrix solved with, the solve counts as
    well-conditioned. When the factorisation fails or the bound exceeds it,
    one SVD (`np.linalg.lstsq`) gives both the solution and the verdict. A
    1-D y gives a 1-D x.

    Its working set is the Gram, its Cholesky factor and a few
    right-hand-side blocks, plus an m x n conjugate of A that dies with the
    Gram's product: A^H X is formed as (X^H A)^H (`adjoint_product`). At
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
                return adjoint_product(np.linalg.solve(gram, rhs), a), True
            if rows > cols:
                return np.linalg.solve(gram, adjoint_product(rhs, a)), True
            return np.linalg.solve(a, rhs), True
    except np.linalg.LinAlgError:
        pass
    x, _, rank, sv = np.linalg.lstsq(a, rhs, rcond=None)
    return x, bool(rank == min(rows, cols) and sv[0] <= CONDITION_LIMIT * sv[-1])
