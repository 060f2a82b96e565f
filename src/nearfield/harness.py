"""Seeded Monte Carlo experiment driver: SNR and pilot-length sweeps over
all estimators, with CSV emission of the per-method mean NMSE."""

import math
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import estimator
from .channel import ConfigurationError, SystemConfig, generate_channel, sample_paths
from .codebook import (
    SphericalCodebook,
    build_angular_codebook,
    build_polar_codebook,
    build_spherical_codebook,
)

METHOD_S_SOMP = "s-somp"
METHOD_P_SOMP = "p-somp"
METHOD_ANGULAR = "angular-somp"
METHOD_LS = "ls"
METHOD_ORACLE = "oracle"
METHODS = (METHOD_S_SOMP, METHOD_P_SOMP, METHOD_ANGULAR, METHOD_LS, METHOD_ORACLE)

CSV_HEADER = "sweep_value,method,nmse_linear,nmse_db,trials,wall_time_s"


@dataclass(frozen=True)
class RunSpec:
    """Everything needed to reproduce one experiment campaign."""

    system: SystemConfig
    delta: float = 0.55
    r_min_m: float = 0.5
    num_paths: int = 3
    num_iterations: int | None = None  # SOMP iterations; defaults to num_paths
    distance_range: tuple = (4.0, 25.0)
    elevation_range: tuple = (0.0, 0.5 * math.pi)
    azimuth_range: tuple = (-0.5 * math.pi, 0.5 * math.pi)
    methods: tuple = METHODS
    trials: int = 100
    master_seed: int = 0
    snr_list_db: tuple | None = None
    pilot_lengths: tuple | None = None
    snr_db: float | None = None  # fixed SNR for pilot sweeps and single trials
    workers: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigurationError("trials must be >= 1")
        if not self.methods:
            raise ConfigurationError("at least one method is required")
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ConfigurationError(
                f"unknown methods {sorted(unknown)}; choose from {METHODS}"
            )
        for name in ("snr_list_db", "pilot_lengths"):
            values = getattr(self, name)
            if values is not None:
                if len(values) == 0:
                    raise ConfigurationError(f"{name} must not be empty")
                if list(values) != sorted(values):
                    raise ConfigurationError(f"{name} must be sorted ascending")
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")

    @property
    def effective_iterations(self) -> int:
        return self.num_iterations if self.num_iterations is not None else self.num_paths


@dataclass(frozen=True)
class SweepRow:
    sweep_value: float
    method: str
    nmse_linear: float
    nmse_db: float
    trials: int
    wall_time_s: float


@dataclass
class SweepResult:
    kind: str  # "snr" or "pilot"
    rows: list


@dataclass
class CodebookBank:
    """Codebooks shared across every trial of a sweep (read-only once built)."""

    spherical: SphericalCodebook | None = None
    polar: SphericalCodebook | None = None
    angular: SphericalCodebook | None = None


def desk_profile(**overrides) -> RunSpec:
    """Small geometry that keeps a full five-method sweep under a minute.

    Users are drawn from elevations in (0.3 pi, pi/2): at N = 128 the
    coplanar and angular baselines are both hopeless for near-zenith
    sources, so admitting them would wash out the distinction between the
    baselines that the method-ordering checks rely on.
    """
    system = SystemConfig(
        carrier_freq_hz=30e9,
        bandwidth_hz=100e6,
        num_subcarriers=16,
        num_antennas=128,
        antenna_spacing_m=0.005,
        num_rf_chains=4,
        num_pilot_slots=16,
    )
    spec = RunSpec(
        system=system,
        r_min_m=0.5,
        elevation_range=(0.3 * math.pi, 0.5 * math.pi),
        snr_list_db=(0.0, 5.0, 10.0, 15.0, 20.0),
        pilot_lengths=(8, 16, 32, 64),
        snr_db=5.0,
    )
    return replace(spec, **overrides) if overrides else spec


def paper_profile(**overrides) -> RunSpec:
    """Full-scale geometry (N = 512, P = 32). Slow; gate behind --slow."""
    system = SystemConfig(
        carrier_freq_hz=30e9,
        bandwidth_hz=100e6,
        num_subcarriers=16,
        num_antennas=512,
        antenna_spacing_m=0.005,
        num_rf_chains=4,
        num_pilot_slots=32,
    )
    spec = RunSpec(
        system=system,
        r_min_m=4.0,
        snr_list_db=(0.0, 5.0, 10.0, 15.0, 20.0),
        pilot_lengths=(8, 16, 32, 64),
        snr_db=5.0,
    )
    return replace(spec, **overrides) if overrides else spec


PROFILES = {"desk": desk_profile, "paper": paper_profile}


def build_codebooks(spec: RunSpec) -> CodebookBank:
    """Build only the codebooks the selected methods need."""
    bank = CodebookBank()
    if METHOD_S_SOMP in spec.methods:
        bank.spherical = build_spherical_codebook(spec.system, spec.delta, spec.r_min_m)
    if METHOD_P_SOMP in spec.methods:
        bank.polar = build_polar_codebook(spec.system, spec.delta, spec.r_min_m)
    if METHOD_ANGULAR in spec.methods:
        bank.angular = build_angular_codebook(spec.system)
    return bank


def _sweep_key(kind: str, sweep_value) -> int:
    # Stable non-negative integer encoding of the sweep coordinate.
    if kind == "pilot":
        return int(sweep_value)
    value = float(sweep_value)
    if math.isinf(value):
        return 1 << 62  # noiseless sentinel
    return (1 << 31) + int(round(value * 1000.0))


def trial_seeds(master_seed: int, kind: str, sweep_value, trial_index: int):
    """Deterministic, order-independent seeds for one trial.

    The channel seed depends only on the trial index, so a given trial sees
    the same channel at every sweep point; combiner and noise seeds also key
    on the sweep value.
    """
    key = _sweep_key(kind, sweep_value)
    channel = np.random.SeedSequence(master_seed, spawn_key=(1, trial_index))
    combining = np.random.SeedSequence(master_seed, spawn_key=(2, key, trial_index))
    noise = np.random.SeedSequence(master_seed, spawn_key=(3, key, trial_index))
    return channel, combining, noise


def _estimate(method, spec, system, bank, paths, measurements, combining):
    iterations = spec.effective_iterations
    if method == METHOD_S_SOMP:
        return estimator.s_somp(measurements, combining, bank.spherical, iterations)
    if method == METHOD_P_SOMP:
        return estimator.s_somp(measurements, combining, bank.polar, iterations)
    if method == METHOD_ANGULAR:
        return estimator.s_somp(measurements, combining, bank.angular, iterations)
    if method == METHOD_LS:
        return estimator.ls_estimate(measurements, combining)
    if method == METHOD_ORACLE:
        return estimator.oracle_estimate(measurements, combining, paths, system)
    raise ConfigurationError(f"unknown method {method!r}")


def run_trial(spec: RunSpec, sweep_value, trial_index: int, bank: CodebookBank | None = None, kind: str = "snr") -> dict:
    """One seeded trial: shared (H, A, Y), every method estimated on it.

    Returns {method: (nmse_linear, seconds)}; a method that raises is
    recorded as (nan, seconds) without aborting the others.
    """
    if bank is None:
        bank = build_codebooks(spec)
    if kind == "snr":
        system = spec.system
        snr_db = float(sweep_value)
    elif kind == "pilot":
        system = replace(spec.system, num_pilot_slots=int(sweep_value))
        if spec.snr_db is None:
            raise ConfigurationError("pilot sweeps need a fixed snr_db")
        snr_db = spec.snr_db
    else:
        raise ConfigurationError(f"unknown sweep kind {kind!r}")

    channel_seed, combining_seed, noise_seed = trial_seeds(
        spec.master_seed, kind, sweep_value, trial_index
    )
    paths = sample_paths(
        channel_seed,
        spec.num_paths,
        spec.distance_range,
        spec.elevation_range,
        spec.azimuth_range,
    )
    truth = generate_channel(paths, system)
    combining = estimator.generate_combining(
        combining_seed, system.num_pilot_slots, system.num_rf_chains, system.num_antennas
    )
    measurements = estimator.synthesize_measurements(truth, combining, snr_db, noise_seed)

    records = {}
    for method in spec.methods:
        start = time.perf_counter()
        try:
            outcome = _estimate(method, spec, system, bank, paths, measurements, combining)
            if isinstance(outcome, estimator.EstimationResult):
                value = estimator.nmse(truth, outcome.channel_estimate)
                outcome.nmse_db = estimator.nmse_db(value)
            else:
                value = estimator.nmse(truth, outcome)
        except Exception as exc:  # noqa: BLE001 - isolate per-method failures
            warnings.warn(
                f"method {method} failed on trial {trial_index} at "
                f"{kind}={sweep_value}: {exc}",
                stacklevel=2,
            )
            value = math.nan
        records[method] = (value, time.perf_counter() - start)
    return records


def _run_sweep(spec: RunSpec, kind: str, values) -> SweepResult:
    bank = build_codebooks(spec)
    rows = []
    for value in values:
        records = [None] * spec.trials
        if spec.workers > 1:
            with ThreadPoolExecutor(max_workers=spec.workers) as pool:
                futures = {
                    pool.submit(run_trial, spec, value, i, bank, kind): i
                    for i in range(spec.trials)
                }
                for future, index in futures.items():
                    records[index] = future.result()
        else:
            for i in range(spec.trials):
                records[i] = run_trial(spec, value, i, bank, kind)
        for method in spec.methods:
            samples = np.array([rec[method][0] for rec in records])
            seconds = float(sum(rec[method][1] for rec in records))
            finite = int(np.isfinite(samples).sum())
            mean = float(np.nanmean(samples)) if finite else math.nan
            rows.append(
                SweepRow(
                    sweep_value=value,
                    method=method,
                    nmse_linear=mean,
                    nmse_db=estimator.nmse_db(mean) if not math.isnan(mean) else math.nan,
                    trials=finite,
                    wall_time_s=seconds,
                )
            )
    return SweepResult(kind, rows)


def sweep_snr(spec: RunSpec) -> SweepResult:
    """Mean NMSE per method at every SNR in spec.snr_list_db."""
    if not spec.snr_list_db:
        raise ConfigurationError("sweep_snr needs a non-empty snr_list_db")
    return _run_sweep(spec, "snr", list(spec.snr_list_db))


def sweep_pilot(spec: RunSpec) -> SweepResult:
    """Mean NMSE per method at every pilot length, at the fixed spec.snr_db."""
    if not spec.pilot_lengths:
        raise ConfigurationError("sweep_pilot needs a non-empty pilot_lengths")
    if spec.snr_db is None:
        raise ConfigurationError("sweep_pilot needs a fixed snr_db")
    return _run_sweep(spec, "pilot", list(spec.pilot_lengths))


def _format_value(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.12g}"


def emit_csv(result: SweepResult, path) -> None:
    """Write one row per (sweep value, method); 12 significant digits."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(CSV_HEADER + "\n")
            for row in result.rows:
                handle.write(
                    ",".join(
                        (
                            _format_value(row.sweep_value),
                            row.method,
                            _format_value(row.nmse_linear),
                            _format_value(row.nmse_db),
                            str(row.trials),
                            _format_value(row.wall_time_s),
                        )
                    )
                    + "\n"
                )
    except OSError as exc:
        raise OSError(f"cannot write sweep CSV to {path}: {exc}") from exc


def load_csv(path) -> list:
    """Parse a file written by `emit_csv` back into SweepRow records."""
    rows = []
    with open(path, "r", encoding="utf-8") as handle:
        header = handle.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"{path}: unexpected header {header!r}")
        for line in handle:
            value, method, lin, db, trials, seconds = line.strip().split(",")
            rows.append(
                SweepRow(float(value), method, float(lin), float(db), int(trials), float(seconds))
            )
    return rows
