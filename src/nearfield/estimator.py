"""Measurement synthesis and channel estimators.

Implements the greedy spherical-domain SOMP recovery together with the
least-squares and genie-aided (true-position) baselines.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelMatrix, SystemConfig, UcaGeometry, near_field_steering
from .codebook import SphericalCodebook
from .numerics import gram_lstsq, lstsq_minimum_norm


@dataclass(frozen=True, eq=False)
class CombiningMatrix:
    """Stacked constant-modulus analog combiners, one N_RF-row block per slot."""

    entries: np.ndarray = field(repr=False)
    num_slots: int
    num_rf_chains: int

    def __post_init__(self):
        rows, _ = self.entries.shape
        if rows != self.num_slots * self.num_rf_chains:
            raise ValueError(
                f"{rows} rows inconsistent with {self.num_slots} slots x "
                f"{self.num_rf_chains} RF chains"
            )

    @property
    def num_antennas(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True, eq=False)
class MeasurementSet:
    """Observations Y = A H + N across all subcarriers, plus noise metadata."""

    observations: np.ndarray = field(repr=False)
    noise_variance: float
    snr_db: float
    seed: object = None


@dataclass(eq=False)
class EstimationResult:
    """Output of a greedy sparse recovery run.

    `channel_estimate` always equals codebook_columns[:, support] @
    sparse_coeffs.
    """

    support: list
    sparse_coeffs: np.ndarray = field(repr=False)
    channel_estimate: np.ndarray = field(repr=False)
    residual_norms: list


def generate_combining(seed, num_slots: int, num_rf_chains: int, num_antennas: int) -> CombiningMatrix:
    """Random-phase combining matrix: entries exp(j w)/sqrt(N), w ~ U[0, 2pi)."""
    if min(num_slots, num_rf_chains, num_antennas) < 1:
        raise ValueError("all combining dimensions must be >= 1")
    rng = np.random.default_rng(seed)
    omega = rng.uniform(0.0, 2.0 * math.pi, size=(num_slots * num_rf_chains, num_antennas))
    entries = np.exp(1j * omega) / math.sqrt(num_antennas)
    return CombiningMatrix(entries, num_slots, num_rf_chains)


def _entries_of(channel) -> np.ndarray:
    return channel.entries if isinstance(channel, ChannelMatrix) else np.asarray(channel)


def synthesize_measurements(channel, combining: CombiningMatrix, snr_db: float, seed=None) -> MeasurementSet:
    """Form Y = A H + N with noise calibrated to the target SNR.

    The noise variance is ||H||_F^2 / (P N_RF M 10^(snr/10)), so the defined
    ratio E(||H||_F^2 / ||N||_F^2) hits the target exactly in expectation.
    snr_db = +inf yields the noiseless Y = A H.
    """
    h = _entries_of(channel)
    a = combining.entries
    if h.shape[0] != a.shape[1]:
        raise ValueError(
            f"channel has {h.shape[0]} antennas but combiner expects {a.shape[1]}"
        )
    clean = a @ h
    if math.isinf(snr_db):
        return MeasurementSet(clean, 0.0, snr_db, seed)
    energy = float(np.linalg.norm(h) ** 2)
    sigma2 = energy / (clean.shape[0] * h.shape[1] * 10.0 ** (snr_db / 10.0))
    if sigma2 == 0.0:
        return MeasurementSet(clean, 0.0, snr_db, seed)
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(clean.shape) + 1j * rng.standard_normal(clean.shape)
    noise *= math.sqrt(sigma2 / 2.0)
    return MeasurementSet(clean + noise, sigma2, snr_db, seed)


#: Columns whose phase-mode score lies within this share of the score bound
#: of the best one are rescored on their exact columns. The bound,
#: sum_k (||A^H y_k|| + sum_i |C_ik| ||A^H A w_i||)^2, is at least every
#: score, and phase-mode scores lie within ~1e-12 of it of the exact ones.
RESCORE_RTOL = 1e-8


def s_somp(measurements: MeasurementSet, combining: CombiningMatrix, codebook: SphericalCodebook, num_iterations: int) -> EstimationResult:
    """Simultaneous OMP over the dictionary A W, without ever forming it.

    Per iteration: correlate the residual against every dictionary column
    (energy summed across subcarriers), greedily add the best new column
    (ties break to the lowest index), re-project Y onto the selected columns,
    and update the residual. Columns whose selection would make the
    subdictionary numerically rank-deficient are skipped with a warning.

    The correlations use the Gram update of Batch-OMP (Rubinstein,
    Zibulevsky & Elad 2008) applied to SOMP. With residual R = Y - A W_S C,

        R^H A W = (A^H Y)^H W - C^H (A^H A W_S)^H W,

    so the M x G first term is the same at every iteration, and each chosen
    atom w_i adds one Gram row (A^H A w_i)^H W; the row after the last
    iteration is never read and is not formed. Both go through
    `codebook.correlate` (or, on phase modes, `PhaseModes.scores`), so W is
    never copied, and nothing P N_RF x G is allocated. Only the selected
    columns, from `codebook.columns`, pass through A, for the least-squares
    step and the residual.

    On a dense codebook the scores
    sum_k |(A^H Y)^H W - C^H (A^H A W_S)^H W|_kj^2 are formed
    `_RESCORE_CHUNK` columns at a time in scratch reused across chunks and
    iterations (`_chunked_scores`), bit for bit as the whole M x G
    expression gives them. Besides the M x G first term and the Gram rows,
    S-SOMP then holds only one float64 score vector and chunk-sized buffers.

    A codebook held as phase modes correlates to ~1e-12, not exactly, and
    is streamed: S-SOMP holds no M x G array on it.

    - The first iteration's scores come from `PhaseModes.scores`, which
      reduces sum_k |(A^H y_k)^H w|^2 elevation plan by elevation plan, so
      the first term is never formed. Their roots ||b(w)|| are kept, one
      more float64 vector of G entries.
    - After each pick but the last, one `codebook.correlate` call of 1 + t
      vectors, [A^H A w_i, (A^H Y) C^H], gives the new Gram row and the t
      rows P(w) = C b(w) that the next iteration's scores read in place of
      the first term.
    - The later iterations score only the columns a triangle bound cannot
      rule out (`_pruned_scores`): the root of a column's score moves from
      ||b(w)|| by at most the norm of its Gram update ||C^H g(w)||. A
      column whose upper bound falls below the best lower bound, minus the
      rescoring slack, could never enter the rescoring window, so it is
      parked at -1 unscored, and the support is the one that scoring every
      column gives. A column in reach scores
      ||b(w)||^2 - 2 Re(g(w)^H P(w)) + ||C^H g(w)||^2, clamped at 0.
    - Before a column is taken, every column scoring within RESCORE_RTOL of
      the score bound of the best is rescored in float64 on its exact
      column, so the support is the one exact scores give, and the
      least-squares step and the estimate use exact columns. A rejected
      column may have set the cut, so after a rejection the bound is taken
      again before the next pick.
    """
    y = measurements.observations
    a = combining.entries
    g = codebook.num_columns
    if num_iterations < 1:
        raise ValueError("num_iterations must be >= 1")
    budget = min(a.shape[0], g)
    if num_iterations > budget:
        raise ValueError(
            f"num_iterations={num_iterations} exceeds the rank budget {budget}"
        )
    a_h = a.conj().T
    projected = a_h @ y
    atoms = np.empty((num_iterations - 1, a.shape[1]), dtype=np.complex128)  # A^H A w_i
    gram_rows = np.empty((num_iterations - 1, g), dtype=np.complex128)
    streamed = codebook.modes is not None
    if not streamed:
        base = codebook.correlate(projected)
        scores = np.empty(g)
        scratch = _score_scratch(base)

    support: list = []
    residual_norms: list = []
    # Scores of consumed / rejected columns are parked below any attainable
    # correlation energy so argmax never revisits them.
    blocked = np.zeros(g, dtype=bool)

    for step in range(num_iterations):
        if streamed:
            exact = np.zeros(g, dtype=bool)
            # |gamma_kj| <= bound_k for unit-norm columns.
            bound = np.linalg.norm(projected, axis=0)
            if step:
                bound += np.abs(coeffs).T @ np.linalg.norm(atoms[:step], axis=1)
            slack = RESCORE_RTOL * float(bound @ bound)
            if step:
                scores.fill(-1.0)
                _pruned_scores(root, projections, coeffs, gram_rows[:step], blocked, slack, scores)
            else:
                scores = codebook.modes.scores(projected)
                if num_iterations > 1:
                    root = np.sqrt(scores)  # ||b(w)||, the centre of the triangle bound
        else:
            _chunked_scores(base, coeffs if step else None, gram_rows[:step], scores, scratch)
            scores[blocked] = -1.0
        while True:
            best = int(np.argmax(scores))
            if scores[best] < 0.0:
                raise RuntimeError("dictionary exhausted before num_iterations")
            if streamed:
                near = np.flatnonzero(~exact & ~blocked & (scores >= scores[best] - slack))
                if near.size:
                    scores[near] = _exact_scores(codebook, projected, atoms[:step], coeffs if step else None, near)
                    exact[near] = True
                    continue
            # Formed as (W_S^T A^T)^T: BLAS then takes its general GEMM path,
            # whose columns equal those of a full A @ W product bit for bit
            # (A @ W_S with a few columns takes a small-matrix kernel).
            sub = (codebook.columns(support + [best]).T @ a.T).T
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
            if streamed and step:
                # `best` may have set the cut; columns it pruned may now be in reach.
                _pruned_scores(root, projections, coeffs, gram_rows[:step], blocked, slack, scores)
        support.append(best)
        blocked[best] = True
        coeffs = solution
        residual_norms.append(float(np.linalg.norm(y - sub @ coeffs)))
        if step < num_iterations - 1:
            atoms[step] = a_h @ sub[:, -1]
            if streamed:
                # One pass gives the new Gram row and P = C b(w), the rows the
                # next step's scores read in place of the first term. The old
                # rows are dropped before the pass.
                projections = None
                rows = codebook.correlate(np.column_stack([atoms[step], projected @ coeffs.conj().T]))
                gram_rows[step] = rows[0]
                projections = rows[1:]
            else:
                gram_rows[step] = codebook.correlate(atoms[step])

    estimate = codebook.columns(support) @ coeffs
    return EstimationResult(support, coeffs, estimate, residual_norms)


#: Columns scored, or rescored, at once, so that neither the scores of all
#: columns nor a wide tie ever forms a large block.
_RESCORE_CHUNK = 4096


def _score_chunks(shape) -> list:
    """Column bounds of the chunks `_chunked_scores` scores an (M, G) base in.

    Chunks start at multiples of `_RESCORE_CHUNK` and the last ends at G, so
    BLAS and `einsum` meet every column at the same place within their
    vector blocks as in one M x G call. A last chunk of one column joins the
    one before it: numpy would send it through GEMV, and `einsum` would sum
    it in another order. With M = 1, numpy sends the update through GEMV,
    whose bits depend on where the call starts, so the scores are formed in
    one piece, which is then only G wide.
    """
    m, g = shape
    if m == 1:
        return [0, g]
    bounds = list(range(0, g, _RESCORE_CHUNK)) + [g]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return bounds


def _score_scratch(base):
    """Flat buffers for the widest chunk of `_chunked_scores`: (complex, float)."""
    size = base.shape[0] * max(np.diff(_score_chunks(base.shape)))
    return np.empty(size, dtype=np.complex128), np.empty(size)


def _chunked_scores(base, coeffs, gram_rows, out, scratch):
    """out[j] = sum_k |base - coeffs^H gram_rows|_kj^2, chunk by chunk.

    Bit for bit the scores of the whole M x G expression: each chunk goes
    through the same GEMM, subtraction, `abs` and `einsum` on contiguous
    (M, width) views of `scratch`, so only chunk-sized memory is touched.
    `coeffs` is None at the first step, where the scores are |base|^2.
    """
    m = base.shape[0]
    weights = None if coeffs is None else coeffs.conj().T
    bounds = _score_chunks(base.shape)
    for start, stop in zip(bounds[:-1], bounds[1:]):
        size = m * (stop - start)
        gamma = base[:, start:stop]
        if weights is not None:
            update = scratch[0][:size].reshape(m, -1)
            np.matmul(weights, gram_rows[:, start:stop], out=update)
            gamma = np.subtract(gamma, update, out=update)
        magnitude = np.abs(gamma, out=scratch[1][:size].reshape(m, -1))
        np.einsum("ij,ij->j", magnitude, magnitude, out=out[start:stop])


def _pruned_scores(root, projections, coeffs, gram_rows, blocked, slack, out):
    """Score the unblocked columns a triangle bound cannot rule out.

    With b(j) column j of the first term (A^H Y)^H W, g(j) its t Gram
    entries and C = `coeffs`, the score is ||b(j) - C^H g(j)||^2, and
    root[j] = ||b(j)||. By the triangle inequality
    |sqrt(score(j)) - root[j]| <= ||C^H g(j)|| = ||R g(j)||, with R the
    triangular factor of C^H = Q R (Elkan, ICML 2003, bounds k-means
    distances the same way). Only Gram rows are read to form this shift.
    One pass finds the largest lower bound (root - shift)^2 of an unblocked
    column and keeps every shift. A second pass, over the chunks whose
    largest upper bound reaches it, scores each unblocked column whose
    out[j] is still negative and whose upper bound (root + shift)^2 reaches
    that lower bound minus `slack`, as

        root[j]^2 - 2 Re(g(j)^H P(j)) + shift[j]^2,  clamped at 0,

    from P(j) = C b(j), column j of `projections`. Every other column keeps
    its out[j]. The expression rounds at ~1e-16 of root[j]^2 + shift[j]^2,
    far inside `slack`.

    A column left out scores below the best lower bound minus `slack`, so
    below the rescoring window of the best column, and the exact argmax is
    the same as when every column is scored.
    """
    factor = np.linalg.qr(coeffs.conj().T, mode="r")
    edges = list(range(0, root.size, _RESCORE_CHUNK)) + [root.size]
    bounds = list(zip(edges[:-1], edges[1:]))
    best_lower = 0.0
    reach = []  # the largest upper bound in each chunk
    shift = np.empty(root.size)
    for start, stop in bounds:
        shift[start:stop] = _bound_shift(factor, gram_rows[:, start:stop])
        lower = root[start:stop] - shift[start:stop]
        best_lower = max(best_lower, float(np.max(lower, where=~blocked[start:stop], initial=0.0)))
        reach.append(float(np.max(root[start:stop] + shift[start:stop])))
    cut = best_lower * best_lower - slack
    for (start, stop), top in zip(bounds, reach):
        if top * top < cut:
            continue
        upper = root[start:stop] + shift[start:stop]
        wanted = np.flatnonzero((upper * upper >= cut) & ~blocked[start:stop] & (out[start:stop] < 0.0))
        cols = start + wanted
        cross = np.einsum("ij,ij->j", gram_rows[:, cols].conj(), projections[:, cols]).real
        score = root[cols] ** 2 - 2.0 * cross + shift[cols] ** 2
        out[cols] = np.maximum(score, 0.0)


def _bound_shift(factor, gram_rows) -> np.ndarray:
    """||R g(j)|| of each column j of `gram_rows`, for R upper triangular.

    Formed row by row of R with elementwise products, which on these thin
    shapes beat both `einsum` and BLAS.
    """
    magnitudes = []
    for i in range(factor.shape[0]):
        row = factor[i, i] * gram_rows[i]
        for j in range(i + 1, factor.shape[1]):
            row += factor[i, j] * gram_rows[j]
        magnitudes.append(np.abs(row))
    if len(magnitudes) == 1:
        return magnitudes[0]
    total = sum(magnitude * magnitude for magnitude in magnitudes)
    return np.sqrt(total, out=total)


def _exact_scores(codebook, projected, atoms, coeffs, idx) -> np.ndarray:
    """S-SOMP scores of columns idx, from their exact columns."""
    scores = np.empty(idx.size)
    for start in range(0, idx.size, _RESCORE_CHUNK):
        columns = codebook.columns(idx[start : start + _RESCORE_CHUNK])
        gamma = projected.conj().T @ columns
        if coeffs is not None:
            gamma -= coeffs.conj().T @ (atoms.conj() @ columns)
        magnitude = np.abs(gamma)
        scores[start : start + _RESCORE_CHUNK] = np.einsum("ij,ij->j", magnitude, magnitude)
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
    geom = UcaGeometry.from_config(config)
    basis = np.column_stack(
        [
            near_field_steering(
                p.distance_m, p.elevation_rad, p.azimuth_rad, geom, config.wavelength_m
            )
            for p in paths
        ]
    )
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
    """Single-realisation normalised error ||H - H_hat||_F^2 / ||H||_F^2."""
    h = _entries_of(truth)
    h_hat = _entries_of(estimate)
    if h.shape != h_hat.shape:
        raise ValueError(f"shape mismatch: {h.shape} vs {h_hat.shape}")
    denom = float(np.linalg.norm(h) ** 2)
    if denom == 0.0:
        raise ValueError("NMSE is undefined for an all-zero ground truth")
    return float(np.linalg.norm(h - h_hat) ** 2) / denom


def nmse_db(value: float) -> float:
    """Linear NMSE to decibels; 0 maps to -inf."""
    if value < 0.0:
        raise ValueError("NMSE cannot be negative")
    return 10.0 * math.log10(value) if value > 0.0 else -math.inf
