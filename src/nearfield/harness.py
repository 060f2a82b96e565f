"""Seeded Monte Carlo experiment driver: SNR and pilot-length sweeps over
all estimators, with CSV emission of the per-method mean NMSE."""

import math
import numbers
import struct
import time
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import estimator
from .channel import (
    ConfigurationError,
    SystemConfig,
    check_path_ranges,
    generate_channel,
    sample_paths,
)
from .codebook import (
    SphericalCodebook,
    build_angular_codebook,
    build_polar_codebook,
    build_spherical_codebook,
    parse_text_row,
)

METHOD_S_SOMP = "s-somp"
METHOD_P_SOMP = "p-somp"
METHOD_ANGULAR = "angular-somp"
METHOD_LS = "ls"
METHOD_ORACLE = "oracle"


def _somp(measurements, combining, book, spec, *_):
    return estimator.s_somp(measurements, combining, book, spec.effective_iterations).channel_estimate


# method -> (the `CodebookBank` field it searches or None, that codebook's
# build from a RunSpec, estimate(measurements, combining, codebook, spec,
# system, paths) -> channel estimate). Rows look builders and estimators up
# when called, so a patched `build_*_codebook` or `estimator.*` is the one run.
METHOD_TABLE = {
    METHOD_S_SOMP: ("spherical", lambda s: build_spherical_codebook(s.system, s.delta, s.r_min_m), _somp),
    METHOD_P_SOMP: ("polar", lambda s: build_polar_codebook(s.system, s.delta, s.r_min_m), _somp),
    METHOD_ANGULAR: ("angular", lambda s: build_angular_codebook(s.system), _somp),
    METHOD_LS: (None, None, lambda y, a, *_: estimator.ls_estimate(y, a)),
    METHOD_ORACLE: (None, None, lambda y, a, book, spec, system, paths: estimator.oracle_estimate(y, a, paths, system)),
}
METHODS = tuple(METHOD_TABLE)

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
    workers: int = 1  # must be 1: a sweep runs its trials in sequence

    def __post_init__(self):
        # A fractional or boolean count would give all-NaN rows or fail after the bank build.
        counts = {"trials": self.trials, "num_paths": self.num_paths, "num_iterations": self.effective_iterations, "master_seed": self.master_seed}
        for name, value in counts.items():
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
        if self.trials < 1:
            raise ConfigurationError("trials must be >= 1")
        if not self.methods:
            raise ConfigurationError("at least one method is required")
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ConfigurationError(f"unknown methods {sorted(unknown)}; choose from {METHODS}")
        # A CSV row per method and sweep point must mean one method.
        repeated = sorted({m for m in self.methods if self.methods.count(m) > 1})
        if repeated:
            raise ConfigurationError(f"methods named more than once: {repeated}")
        if self.master_seed < 0:
            raise ConfigurationError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.num_paths < 1:
            raise ConfigurationError(f"num_paths must be >= 1, got {self.num_paths}")
        if self.num_paths > self.system.num_antennas:
            raise ConfigurationError(
                f"num_paths={self.num_paths} exceeds num_antennas={self.system.num_antennas}"
            )
        if self.num_iterations is not None and self.num_iterations < 1:
            raise ConfigurationError(f"num_iterations must be >= 1, got {self.num_iterations}")
        # +inf is the noiseless sentinel; a NaN or -inf row would be mislabelled,
        # and one beyond the measurements' SNR limit would fail every trial.
        limit = estimator.SNR_LIMIT_DB
        for name, values in (("snr_db", (self.snr_db,)), ("snr_list_db", self.snr_list_db or ())):
            values = [v for v in values if v is not None]
            bad = [v for v in values if math.isnan(v) or v == -math.inf]
            if bad:
                raise ConfigurationError(f"{name} must be finite or +inf, got {bad}")
            bad = [v for v in values if math.isfinite(v) and abs(v) > limit]
            if bad:
                raise ConfigurationError(f"{name} must lie within +-{limit:g} dB or be +inf, got {bad}")
        # A pilot sweep runs int(value) slots, and its CSV rows carry the value.
        if self.pilot_lengths is not None:
            bad = [p for p in self.pilot_lengths if isinstance(p, bool) or not isinstance(p, numbers.Integral) or p < 1]
            if bad:
                raise ConfigurationError(f"pilot_lengths must be integers >= 1, got {bad}")
        for name in ("snr_list_db", "pilot_lengths"):
            values = getattr(self, name)
            if values is not None:
                if len(values) == 0:
                    raise ConfigurationError(f"{name} must not be empty")
                # A repeated point (0 and -0 included) wrote rows that share seeds.
                if any(b <= a for a, b in zip(values, values[1:])):
                    raise ConfigurationError(f"{name} must be strictly ascending, got {list(values)}")
                # Points that print alike wrote CSV rows that `load_csv` could not tell apart.
                printed = [_format_value(v) for v in values]
                repeated = sorted({p for p in printed if printed.count(p) > 1})
                if repeated:
                    raise ConfigurationError(f"{name} points print as one CSV value: {repeated}")
        if not (math.isfinite(self.r_min_m) and self.r_min_m > 0.0):
            raise ConfigurationError(f"r_min_m must be finite and positive, got {self.r_min_m}")
        if self.workers != 1:
            raise ConfigurationError(f"workers must be 1, got {self.workers}")
        # Ranges that fail every trial are configuration errors, not trial failures.
        check_path_ranges(self.distance_range, self.elevation_range, self.azimuth_range, self.system.radius_m)

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


def _profile(num_antennas: int, num_pilot_slots: int, **settings) -> RunSpec:
    """A RunSpec of the shared carrier, array spacing and sweeps, with the
    caller's `settings` (any RunSpec fields, `system` too) over them."""
    system = SystemConfig(
        carrier_freq_hz=30e9,
        bandwidth_hz=100e6,
        num_subcarriers=16,
        num_antennas=num_antennas,
        antenna_spacing_m=0.005,
        num_rf_chains=4,
        num_pilot_slots=num_pilot_slots,
    )
    shared = {"system": system, "snr_list_db": (0.0, 5.0, 10.0, 15.0, 20.0), "pilot_lengths": (8, 16, 32, 64), "snr_db": 5.0}
    return RunSpec(**{**shared, **settings})


def desk_profile(**overrides) -> RunSpec:
    """Small geometry that keeps a full five-method sweep under a minute.

    Users are drawn from elevations in (0.3 pi, pi/2): at N = 128 the
    coplanar and angular baselines are both hopeless for near-zenith
    sources, so admitting them would wash out the distinction between the
    baselines that the method-ordering checks rely on.
    """
    return _profile(128, 16, **{"r_min_m": 0.5, "elevation_range": (0.3 * math.pi, 0.5 * math.pi), **overrides})


def paper_profile(**overrides) -> RunSpec:
    """Full-scale geometry (N = 512, P = 32)."""
    return _profile(512, 32, **{"r_min_m": 4.0, **overrides})


PROFILES = {"desk": desk_profile, "paper": paper_profile}


def build_codebooks(spec: RunSpec) -> CodebookBank:
    """Build only the codebooks the selected methods need, in table order."""
    bank = CodebookBank()
    for method, (book, build, _) in METHOD_TABLE.items():
        if book is not None and method in spec.methods:
            setattr(bank, book, build(spec))
    return bank


def check_rank_budget(spec: RunSpec, bank: CodebookBank, num_pilot_slots: int) -> None:
    """Raise ConfigurationError when a selected SOMP method would run more
    iterations than its rank budget min(P N_RF, G), at `num_pilot_slots` and
    the smallest selected codebook: S-SOMP would fail every such trial."""
    sizes = {book: getattr(bank, book).num_columns for m in spec.methods if (book := METHOD_TABLE[m][0])}
    if not sizes:
        return
    name = min(sizes, key=sizes.get)
    rows = num_pilot_slots * spec.system.num_rf_chains
    budget = min(rows, sizes[name])
    if spec.effective_iterations > budget:
        raise ConfigurationError(
            f"num_iterations={spec.effective_iterations} (num_paths when unset) exceeds the rank "
            f"budget {budget} = min(P N_RF = {rows} at {num_pilot_slots} pilot slots, "
            f"G = {sizes[name]} of the {name} codebook)"
        )


def _sweep_key(kind: str, sweep_value) -> int:
    # Stable non-negative integer encoding of the sweep coordinate. SNRs on
    # the 0.001 dB lattice keep their historical key 2^31 + 1000 v; any other
    # SNR is keyed on its exact float64 bits above 2^64, a range no lattice
    # key reaches for |v| < 1e15 dB, so nearby SNRs never share a stream.
    if kind == "pilot":
        return int(sweep_value)
    value = float(sweep_value)
    if math.isinf(value):
        return 1 << 62  # noiseless sentinel
    milli = value * 1000.0
    if milli.is_integer():
        return (1 << 31) + int(milli)
    return (1 << 64) + struct.unpack("<Q", struct.pack("<d", value))[0]


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


def run_trial(spec: RunSpec, sweep_value, trial_index: int, bank: CodebookBank | None = None, kind: str = "snr") -> dict:
    """One seeded trial: the channel array H, the combiner A and the
    measurements Y = A H + N, shared by every method estimated on them.

    Returns {method: (nmse_linear, seconds)}; a method that raises is
    recorded as (nan, seconds) without aborting the others. When drawing
    the paths or synthesising H, A or Y raises, no method runs, and every
    method is recorded as (nan, 0.0), each with its failure warning. With
    no `bank`, it builds one and checks the rank budget against it.
    """
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
    if bank is None:
        bank = build_codebooks(spec)
        check_rank_budget(spec, bank, system.num_pilot_slots)

    channel_seed, combining_seed, noise_seed = trial_seeds(
        spec.master_seed, kind, sweep_value, trial_index
    )
    try:
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
    except Exception as exc:  # noqa: BLE001 - isolate per-trial failures
        for method in spec.methods:
            _warn_failure(method, trial_index, kind, sweep_value, exc)
        return {method: (math.nan, 0.0) for method in spec.methods}

    records = {}
    for method in spec.methods:
        start = time.perf_counter()
        try:
            book, _, estimate = METHOD_TABLE[method]
            codebook = getattr(bank, book) if book else None
            value = estimator.nmse(truth, estimate(measurements, combining, codebook, spec, system, paths))
        except Exception as exc:  # noqa: BLE001 - isolate per-method failures
            _warn_failure(method, trial_index, kind, sweep_value, exc)
            value = math.nan
        records[method] = (value, time.perf_counter() - start)
    return records


def _warn_failure(method, trial_index, kind, sweep_value, exc) -> None:
    warnings.warn(
        f"method {method} failed on trial {trial_index} at {kind}={sweep_value}: {exc}",
        stacklevel=3,
    )


def _run_sweep(spec: RunSpec, kind: str, values) -> SweepResult:
    bank = build_codebooks(spec)
    check_rank_budget(spec, bank, spec.system.num_pilot_slots if kind == "snr" else min(values))
    rows = []
    for value in values:
        records = [run_trial(spec, value, i, bank, kind) for i in range(spec.trials)]
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
                    nmse_db=estimator.nmse_db(mean),
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


def _sweep_row(values) -> SweepRow:
    """The parsed fields of a CSV row as a SweepRow; ValueError if no sweep
    writes such a row."""
    row = SweepRow(*values)
    if row.method not in METHODS:
        raise ValueError(f"unknown method {row.method!r}")
    # `emit_csv` rounds each field to 12 significant digits, which moves the
    # dB value, or the one nmse_linear gives, by less than these tolerances.
    db = estimator.nmse_db(row.nmse_linear)  # raises if nmse_linear < 0
    if not (math.isnan(db) and math.isnan(row.nmse_db) or math.isclose(row.nmse_db, db, rel_tol=1e-11, abs_tol=1e-10)):
        raise ValueError(f"nmse_db {row.nmse_db} disagrees with nmse_linear {row.nmse_linear}")
    if row.trials < 0 or (row.trials == 0 and not math.isnan(row.nmse_linear)):
        raise ValueError(f"{row.trials} trials with nmse_linear {row.nmse_linear}")
    if not (math.isfinite(row.wall_time_s) and row.wall_time_s >= 0.0):
        raise ValueError(f"wall_time_s must be finite and >= 0, got {row.wall_time_s}")
    return row


def load_csv(path) -> list:
    """Parse a file written by `emit_csv` back into SweepRow records; a row
    that is malformed, that no sweep writes, or that repeats the sweep
    value and method of an earlier row raises ValueError naming path:line."""
    parsers = (float, str, float, float, int, float)
    rows, seen = [], set()
    with open(path, "r", encoding="utf-8") as handle:
        header = handle.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"{path}: unexpected header {header!r}")
        for number, line in enumerate(handle, 2):
            row = parse_text_row(path, number, line, parsers, _sweep_row)
            if (row.sweep_value, row.method) in seen:
                raise ValueError(f"{path}:{number}: a second row for sweep value {row.sweep_value!r} and method {row.method}")
            seen.add((row.sweep_value, row.method))
            rows.append(row)
    return rows
