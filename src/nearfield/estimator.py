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
from .numerics import lstsq_minimum_norm


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

    def slot_block(self, slot: int) -> np.ndarray:
        start = slot * self.num_rf_chains
        return self.entries[start : start + self.num_rf_chains]


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
    sparse_coeffs; `nmse_db` is filled in by callers that know the truth.
    """

    support: list
    sparse_coeffs: np.ndarray = field(repr=False)
    channel_estimate: np.ndarray = field(repr=False)
    residual_norms: list
    nmse_db: float | None = None


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

    so the M x G first term is formed once, and each chosen atom w_i adds
    one Gram row (A^H A w_i)^H W; the row after the last iteration is never
    read and is not formed. W is thus read in place num_iterations times
    (once for the first term, once per Gram row) and never copied. The
    largest temporaries are M x G and (num_iterations - 1) x G: nothing
    P N_RF x G is allocated. Only the selected columns pass through A, for
    the least-squares step and the residual.
    """
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
    a_h = a.conj().T
    base = (a_h @ y).conj().T @ w
    gram_rows = np.empty((num_iterations - 1, w.shape[1]), dtype=np.complex128)

    support: list = []
    residual_norms: list = []
    # Scores of consumed / rejected columns are parked below any attainable
    # correlation energy so argmax never revisits them.
    blocked = np.zeros(w.shape[1], dtype=bool)

    for step in range(num_iterations):
        if step == 0:
            gamma = base
        else:
            gamma = coeffs.conj().T @ gram_rows[:step]
            np.subtract(base, gamma, out=gamma)
        magnitude = np.abs(gamma)
        scores = np.einsum("ij,ij->j", magnitude, magnitude)
        scores[blocked] = -1.0
        while True:
            best = int(np.argmax(scores))
            if scores[best] < 0.0:
                raise RuntimeError("dictionary exhausted before num_iterations")
            # Formed as (W_S^T A^T)^T: BLAS then takes its general GEMM path,
            # whose columns equal those of a full A @ W product bit for bit
            # (A @ W_S with a few columns takes a small-matrix kernel).
            sub = (w[:, support + [best]].T @ a.T).T
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
        support.append(best)
        blocked[best] = True
        coeffs = solution
        residual_norms.append(float(np.linalg.norm(y - sub @ coeffs)))
        if step < num_iterations - 1:
            gram_rows[step] = (a_h @ sub[:, -1]).conj() @ w

    estimate = w[:, support] @ coeffs
    return EstimationResult(support, coeffs, estimate, residual_norms)


def ls_estimate(measurements: MeasurementSet, combining: CombiningMatrix) -> np.ndarray:
    """Minimum-norm least-squares channel estimate argmin ||Y - A H||_F."""
    solution, _ = lstsq_minimum_norm(combining.entries, measurements.observations)
    return solution


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
