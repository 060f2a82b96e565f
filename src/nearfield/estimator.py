"""Measurement synthesis and channel estimators.

Implements the greedy spherical-domain SOMP recovery together with the
least-squares and genie-aided (true-position) baselines.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .channel import SystemConfig, path_steering
from .codebook import SphericalCodebook
from .numerics import adjoint_product, gram_lstsq, lstsq_minimum_norm
from .phase_modes import column_blocks


@dataclass(frozen=True, eq=False)
class CombiningMatrix:
    """Stacked constant-modulus analog combiners A (P N_RF x N), one N_RF-row
    block per slot."""

    entries: np.ndarray = field(repr=False)


@dataclass(frozen=True, eq=False)
class MeasurementSet:
    """Observations Y = A H + N across all subcarriers, and the variance
    sigma^2 of each complex noise entry (0 for noiseless Y)."""

    observations: np.ndarray = field(repr=False)
    noise_variance: float


@dataclass(frozen=True)
class SompStep:
    """One S-SOMP iteration: the count of columns rescored exactly, the slack
    of the best running score they lay within, and the columns skipped as
    rank-deficient. Unstreamed books score exactly: 0 columns, slack 0."""

    rescored: int
    slack: float
    rejected: tuple


@dataclass(eq=False)
class EstimationResult:
    """Output of a greedy sparse recovery run.

    `channel_estimate` always equals codebook_columns[:, support] @
    sparse_coeffs. `steps` holds one `SompStep` per iteration.
    """

    support: list
    sparse_coeffs: np.ndarray = field(repr=False)
    channel_estimate: np.ndarray = field(repr=False)
    residual_norms: list
    steps: list = field(default_factory=list)


def generate_combining(seed, num_slots: int, num_rf_chains: int, num_antennas: int) -> CombiningMatrix:
    """Random-phase combining matrix: entries exp(j w)/sqrt(N), w ~ U[0, 2pi)."""
    if min(num_slots, num_rf_chains, num_antennas) < 1:
        raise ValueError("all combining dimensions must be >= 1")
    rng = np.random.default_rng(seed)
    omega = rng.uniform(0.0, 2.0 * math.pi, size=(num_slots * num_rf_chains, num_antennas))
    entries = np.multiply(1j, omega)  # the one complex array; the rest is in place
    np.exp(entries, out=entries)
    entries /= math.sqrt(num_antennas)
    return CombiningMatrix(entries)


#: Largest |SNR| in dB that measurements are synthesised at. 10^(snr/10)
#: overflows beyond ~3080 dB and underflows to 0 below ~-3230 dB; at this
#: limit every method still gives a finite NMSE.
SNR_LIMIT_DB = 1000.0


def synthesize_measurements(channel, combining: CombiningMatrix, snr_db: float, seed=None) -> MeasurementSet:
    """Form Y = A H + N with noise calibrated to the target SNR, from the
    (N, M) channel array H (see `generate_channel`).

    The noise variance is ||H||_F^2 / (P N_RF M 10^(snr/10)), so the defined
    ratio E(||H||_F^2 / ||N||_F^2) hits the target exactly in expectation.
    snr_db = +inf yields the noiseless Y = A H; NaN, -inf and finite values
    beyond +-SNR_LIMIT_DB raise ValueError.
    """
    if math.isnan(snr_db) or snr_db == -math.inf:
        raise ValueError(f"snr_db must be finite or +inf, got {snr_db}")
    if math.isfinite(snr_db) and abs(snr_db) > SNR_LIMIT_DB:
        raise ValueError(f"snr_db must lie within +-{SNR_LIMIT_DB:g} dB or be +inf, got {snr_db}")
    h = np.asarray(channel)
    a = combining.entries
    if h.shape[0] != a.shape[1]:
        raise ValueError(
            f"channel has {h.shape[0]} antennas but combiner expects {a.shape[1]}"
        )
    clean = a @ h
    if snr_db == math.inf:
        return MeasurementSet(clean, 0.0)
    energy = float(np.linalg.norm(h) ** 2)
    sigma2 = energy / (clean.shape[0] * h.shape[1] * 10.0 ** (snr_db / 10.0))
    if sigma2 == 0.0:
        return MeasurementSet(clean, 0.0)
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(clean.shape) + 1j * rng.standard_normal(clean.shape)
    noise *= math.sqrt(sigma2 / 2.0)
    return MeasurementSet(clean + noise, sigma2)


def s_somp(measurements: MeasurementSet, combining: CombiningMatrix, codebook: SphericalCodebook, num_iterations: int) -> EstimationResult:
    """Simultaneous OMP over the dictionary A W, without ever forming it.

    Per iteration: correlate the residual against every dictionary column
    (energy summed across subcarriers), greedily add the best new column
    (ties break to the lowest index), re-project Y onto the selected columns,
    and update the residual. Columns whose selection would make the
    subdictionary numerically rank-deficient are skipped with a warning.

    Only the selected columns, from `codebook.columns`, pass through A, for
    the least-squares step and the residual, and the last step's columns
    give the estimate; W is never copied, and nothing P N_RF x G is
    allocated.

    On a `DenseBasis` or a `DftBasis` (`codebook.streamed` False) the
    correlations use the Gram update of Batch-OMP (Rubinstein, Zibulevsky &
    Elad 2008) applied to SOMP. With residual R = Y - A W_S C,

        R^H A W = (A^H Y)^H W - C^H (A^H A W_S)^H W,

    so the M x G first term is the same at every iteration, and each chosen
    atom w_i adds one Gram row (A^H A w_i)^H W, through `codebook.correlate`;
    the row after the last iteration is never read and is not formed. Each
    step forms the scores of all G columns in place, in one M x G complex
    and one M x G float buffer allocated once per call. The working set is
    those buffers, the M x G complex first term, the (iterations - 1) x G
    complex Gram rows, the float64 scores and boolean `blocked` array (9 B
    per column), and a few N x M blocks: at M = 16 and 3 iterations, a
    call traces 0.42 MiB on desk polar (G = 504), 0.17 on desk angular
    (128) and 0.65 on paper angular (512), the books the builds give this
    path, and 2.58 MiB on the dense float64 twin of the desk spherical
    book (G = 3 789).

    A streamed codebook (phase modes or a `Complex64Screen`) scores to within
    a known bound, not exactly, and S-SOMP keeps one float64 score vector
    on it, and no M x G array. Its working set is that vector, two boolean
    arrays of G entries (`exact` and `blocked`), the scratch of one
    `scores` or `move_scores` pass, and a few N x M blocks: A^H is never
    copied, every A^H X is formed as (X^H A)^H (`numerics.adjoint_product`),
    the rescoring window is one comparison of the scores, and the columns
    it rescores are filled one `phase_modes.column_blocks` block at a time
    (`_exact_scores`). A paper spherical call (phase modes,
    G = 100 358, M = 16) traces 2.1 MB, 0.8 MB of it the score vector; a
    desk spherical call (screen, G = 3 789, M = 16) 0.60 MiB at 3 and at 8
    iterations, most of it the M x G complex64 product of the first pass
    (the Gram path takes 2.58 and 2.88 MiB on the book's dense twin).

    - The first iteration's scores come from the codebook's `scores(A^H Y)`.
    - Adding an atom changes the residual by Delta = R_{t-1} - R_t, a
      rank-1 matrix q d^H (the projection onto the new atom's direction).
      q is Delta's largest column, normalised, and d = Delta^H q. With
      e = (A^H q)^H W and phi = (A^H R_{t-1} d)^H W, every score moves by

          ||d||^2 |e_j|^2 - 2 Re(conj(e_j) phi_j),

      added in place by the codebook's `move_scores` as one cross term of
      two vectors (`_rank_one_update`);
      the result is clamped at 0, and consumed and rejected columns stay at
      -1. The last iteration's change is never read and is not formed.
    - Before a column is taken, every column scoring within `slack` of the
      best is rescored in float64 on its exact column, from (A^H R_t)^H W,
      so the support is the one exact scores give, and the least-squares
      step and the estimate use exact columns. The slack starts at
      rtol ||A^H Y||_F^2, which covers the first pass's error, and each
      update adds a bound on its own error (see `_rank_one_update`), so
      every running score stays within the slack of its exact score and
      the pick is the exact argmax. rtol is the codebook's `rescore_rtol`:
      `phase_modes.RESCORE_RTOL` for phase modes, and a bound derived
      from its precision for a `Complex64Screen`.
    """
    y = measurements.observations
    a = combining.entries
    g = codebook.num_columns
    if num_iterations < 1:
        raise ValueError("num_iterations must be >= 1")
    budget = min(a.shape[0], g)
    if num_iterations > budget:
        raise ValueError(f"num_iterations={num_iterations} exceeds the rank budget {budget}")
    projected = adjoint_product(y, a)
    streamed = codebook.streamed
    if streamed:
        rtol = codebook.rescore_rtol
        scores = codebook.scores(projected)
        slack = rtol * float(np.vdot(projected, projected).real)
        residual, gradient = y, projected  # R_t and A^H R_t
    else:
        base = codebook.correlate(projected)
        scores = np.empty(g)
        update = np.empty_like(base)
        magnitude = np.empty(base.shape)
        gram_rows = np.empty((num_iterations - 1, g), dtype=np.complex128)

    support, residual_norms, steps = [], [], []
    # Scores of consumed / rejected columns are parked below any attainable
    # correlation energy so argmax never revisits them.
    blocked = np.zeros(g, dtype=bool)

    for step in range(num_iterations):
        if streamed:
            exact = np.zeros(g, dtype=bool)
        else:
            if step:
                np.matmul(coeffs.conj().T, gram_rows[:step], out=update)
                np.subtract(base, update, out=update)
            np.abs(update if step else base, out=magnitude)
            np.einsum("ij,ij->j", magnitude, magnitude, out=scores)
            scores[blocked] = -1.0
        rescored, rejected = 0, []
        while True:
            best = int(np.argmax(scores))
            if scores[best] < 0.0:
                raise RuntimeError("dictionary exhausted before num_iterations")
            if streamed:
                near = np.flatnonzero(scores >= scores[best] - slack)
                near = near[~(exact[near] | blocked[near])]
                if near.size:
                    scores[near] = _exact_scores(codebook, gradient, near)
                    exact[near] = True
                    rescored += near.size
                    continue
            # Formed as (W_S^T A^T)^T: BLAS then takes its general GEMM path,
            # whose columns equal those of a full A @ W product bit for bit
            # (A @ W_S with a few columns takes a small-matrix kernel).
            selected = codebook.columns(support + [best])
            sub = (selected.T @ a.T).T
            solution, well_conditioned = lstsq_minimum_norm(sub, y)
            if well_conditioned:
                break
            warnings.warn(
                f"skipping dictionary column {best}: selection would be "
                "numerically rank-deficient",
                stacklevel=2,
            )
            blocked[best] = True
            scores[best] = -1.0
            rejected.append(best)
        steps.append(SompStep(rescored, slack if streamed else 0.0, tuple(rejected)))
        support.append(best)
        blocked[best] = True
        coeffs = solution
        remainder = y - sub @ coeffs
        residual_norms.append(float(np.linalg.norm(remainder)))
        if step < num_iterations - 1:
            if streamed:
                updated = adjoint_product(remainder, a)
                slack = _rank_one_update(codebook, a, residual - remainder, gradient, updated, scores, blocked, slack, rtol)
                residual, gradient = remainder, updated
            else:
                gram_rows[step] = codebook.correlate(adjoint_product(sub[:, -1], a))  # A^H A w_i

    estimate = selected @ coeffs  # W_S of the final support
    return EstimationResult(support, coeffs, estimate, residual_norms, steps)


def _rank_one_update(codebook, a, change, previous, updated, scores, blocked, slack, rtol) -> float:
    """Move the running `scores` of a streamed codebook (phase modes or a
    `Complex64Screen`) from residual R_{t-1} to R_t = R_{t-1} - change,
    and return `slack` widened by a bound on the move's error.

    `previous` and `updated` are A^H R_{t-1} and A^H R_t. With q the
    largest column of `change`, normalised, d = change^H q, a = A^H q,
    b = previous d and E = (previous - updated) - a d^H, the exact score of
    column j after the change is ||x_j - E^H w_j||^2, where
    x_j = previous^H w_j - d (a^H w_j) and

        ||x_j||^2 = old score + ||d||^2 |e_j|^2 - 2 Re(conj(e_j) phi_j),

    e = a^H W and phi = b^H W. With v_1 = ||d|| a and
    v_2 = ||d|| a - (2 / ||d||) b, that move is the one cross term
    Re(conj(v_1^H w_j) v_2^H w_j), which the codebook's `move_scores` adds.
    Two errors move the running score off the exact one, and the slack
    grows by a bound on each:

    - the codebook's correlations v_i^H w_j are each within eps ||v_i||
      (eps ~1e-12 for phase modes) of values at most ||v_i|| in modulus,
      so the move is off by at most eps (2 + eps) ||v_1|| ||v_2||. `rtol`,
      the codebook's `rescore_rtol`, stands in for eps (2 + eps):
      RESCORE_RTOL bounds it up to eps = 5e-9, and a `Complex64Screen`
      derives its own from its eps;
    - E is zero but for rounding, because `change` is the rank-1
      projection of the residual onto the new atom's direction; it moves
      the score by at most ||E||_F (2 ||x_j|| + ||E||_F), with
      ||x_j|| <= ||previous||_F + ||v_1||.

    The rounding of the move itself is ~1e-16 of the same terms. Scores are
    clamped at 0, which only brings them nearer their exact values, and
    blocked columns are set to -1. When `change` is zero nothing moves.
    """
    norms = np.linalg.norm(change, axis=0)
    top = int(np.argmax(norms))
    if norms[top] > 0.0:
        q = change[:, top] / norms[top]
        d = change.conj().T @ q
        atom = adjoint_product(q, a)
        root = float(np.linalg.norm(d))
        v1 = root * atom
        v2 = v1 - (2.0 / root) * (previous @ d)
        codebook.move_scores(np.column_stack([v1, v2]), scores)
        np.maximum(scores, 0.0, out=scores)
        v1_norm = float(np.linalg.norm(v1))
        mismatch = float(np.linalg.norm(previous - updated - np.outer(atom, d.conj())))
        reach = float(np.linalg.norm(previous)) + v1_norm
        slack += rtol * v1_norm * float(np.linalg.norm(v2))
        slack += mismatch * (2.0 * reach + mismatch)
    scores[blocked] = -1.0
    return slack


def _exact_scores(codebook, gradient, idx) -> np.ndarray:
    """S-SOMP scores ||gradient^H w_j||^2 of columns idx, from their exact
    columns; `gradient` is A^H R of the current residual R. The columns come
    in `column_blocks`, so a wide tie forms M x `_FILL_COLUMNS` complex
    correlations at a time, never M x len(idx)."""
    scores = np.empty(idx.size)
    adjoint = gradient.conj().T
    for part, columns in column_blocks(codebook.columns, idx):
        magnitude = np.abs(adjoint @ columns)
        scores[part] = np.einsum("ij,ij->j", magnitude, magnitude)
    return scores


def ls_estimate(measurements: MeasurementSet, combining: CombiningMatrix) -> np.ndarray:
    """Minimum-norm least-squares channel estimate argmin ||Y - A H||_F."""
    return gram_lstsq(combining.entries, measurements.observations)


def oracle_estimate(measurements: MeasurementSet, combining: CombiningMatrix, true_paths, config: SystemConfig) -> np.ndarray:
    """Genie-aided bound: project onto the exact steering vectors.

    Builds the true-path dictionary (no grid), then performs one projection
    and reconstruction pass. Noiseless measurements are reproduced exactly.
    """
    paths = list(true_paths)
    if not paths:
        raise ValueError("oracle_estimate needs at least one true path")
    basis = path_steering(paths, config)
    solution, well_conditioned = lstsq_minimum_norm(
        combining.entries @ basis, measurements.observations
    )
    if not well_conditioned:
        warnings.warn(
            "oracle dictionary is numerically rank-deficient; using the "
            "minimum-norm projection",
            stacklevel=2,
        )
    return basis @ solution


def nmse(truth, estimate) -> float:
    """Single-realisation normalised error ||H - H_hat||_F^2 / ||H||_F^2 of
    two equal-shape arrays."""
    h = np.asarray(truth)
    h_hat = np.asarray(estimate)
    if h.shape != h_hat.shape:
        raise ValueError(f"shape mismatch: {h.shape} vs {h_hat.shape}")
    denom = float(np.linalg.norm(h) ** 2)
    if denom == 0.0:
        raise ValueError("NMSE is undefined for an all-zero ground truth")
    return float(np.linalg.norm(h - h_hat) ** 2) / denom


def nmse_db(value: float) -> float:
    """Linear NMSE to decibels; 0 maps to -inf and NaN (no finite trial) to NaN."""
    if value < 0.0:
        raise ValueError("NMSE cannot be negative")
    return -math.inf if value == 0.0 else 10.0 * math.log10(value)
