"""Command-line entry point.

Subcommands: `codebook build|stats`, `sweep snr`, `sweep pilot`, and `trial`.
Each takes only the flags it reads; a config file may set any key, since one
file serves every subcommand. Configuration precedence is flag > config file
> built-in profile. Exit codes: 0 success, 2 configuration error,
3 runtime/numerical failure.
"""

import argparse
import dataclasses
import math
import sys
import time
from fractions import Fraction

from . import codebook as cb
from . import estimator, harness
from .channel import ConfigurationError, SystemConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

_SYSTEM_FIELDS = {f.name for f in dataclasses.fields(SystemConfig)}
_RANGE_FIELDS = {"distance_range", "elevation_range", "azimuth_range"}
_INT_FIELDS = {"num_paths", "num_iterations", "trials", "master_seed"}
_FLOAT_FIELDS = {"delta", "r_min_m", "snr_db"}
_LIST_FIELDS = {"snr_list_db", "pilot_lengths", "methods"}
_FLAG_KEYS = {"seed": "master_seed", "trials": "trials", "methods": "methods", "snr": "snr_db", "snr_list": "snr_list_db", "pilot_list": "pilot_lengths"}
_SNR_RULE = "nominal, ||H||_F^2/||N||_F^2 (noise variance ||H||_F^2/(P N_RF M 10^(SNR/10))); the receiver sees SNR + 10 log10(P N_RF/N) dB"


def parse_config_file(path) -> dict:
    """Read `key = value` lines; lists are comma separated, '#' comments.
    A key set on two lines is a configuration error, not the later value."""
    values, lines = {}, {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigurationError(
                        f"{path}:{lineno}: expected 'key = value', got {raw!r}"
                    )
                key, text = (part.strip() for part in line.split("=", 1))
                if key in lines:
                    raise ConfigurationError(f"{path}:{lineno}: {key} is set again, first on line {lines[key]}")
                values[key], lines[key] = text, lineno
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    return values


def _coerce(key: str, text):
    if not isinstance(text, str):
        return text
    if key in _RANGE_FIELDS or key in _LIST_FIELDS:
        items = [item.strip() for item in text.split(",") if item.strip()]
        if key == "methods":
            return tuple(items)
        values = tuple(_number(key, item, key == "pilot_lengths") for item in items)
        if key in _RANGE_FIELDS and len(values) != 2:
            raise ConfigurationError(f"{key} needs exactly two values, got {text!r}")
        return values
    integral = key in _INT_FIELDS or key in _SYSTEM_FIELDS and key.startswith("num_")
    if not (integral or key in _FLOAT_FIELDS or key in _SYSTEM_FIELDS):
        raise ConfigurationError(f"unknown config key {key!r}")
    return _number(key, text, integral)


def _number(key: str, text: str, integral: bool):
    """The value of `text` for `key`: an int when `integral`, else a float."""
    try:
        value = Fraction(text) if integral else float(text)  # a Fraction is exact
    except ValueError:
        raise ConfigurationError(f"{key} needs a number, got {text!r}") from None
    if integral and value.denominator != 1:
        raise ConfigurationError(f"{key} needs an integer, got {text!r}")
    return int(value) if integral else value


def assemble_spec(args) -> harness.RunSpec:
    """Built-in profile, overridden by config-file keys, then by flags."""
    profile_name = args.profile or "desk"
    if profile_name not in harness.PROFILES:
        raise ConfigurationError(f"unknown profile {profile_name!r}")
    spec = harness.PROFILES[profile_name]()

    overrides = {}
    if args.config:
        for key, text in parse_config_file(args.config).items():
            overrides[key] = _coerce(key, text)

    for flag, key in _FLAG_KEYS.items():
        if getattr(args, flag, None) is not None:
            overrides[key] = _coerce(key, getattr(args, flag))

    system_updates = {k: v for k, v in overrides.items() if k in _SYSTEM_FIELDS}
    spec_updates = {k: v for k, v in overrides.items() if k not in _SYSTEM_FIELDS}
    if system_updates:
        spec_updates["system"] = dataclasses.replace(spec.system, **system_updates)
    if spec_updates:
        try:
            spec = dataclasses.replace(spec, **spec_updates)
        except TypeError as exc:
            raise ConfigurationError(str(exc)) from exc
    return spec


_RUN_FLAGS = {
    "--seed": {"type": int, "help": "master seed"},
    "--trials": {"type": int, "help": "Monte Carlo trials per point"},
    "--methods": {"help": "comma list from: " + ",".join(harness.METHODS)},
}


def _add_flags(parser, *run_flags):
    """--config and --profile, which every subcommand reads, and those of
    `_RUN_FLAGS` named in `run_flags`."""
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--profile", choices=sorted(harness.PROFILES), help="built-in parameter profile (default desk)")
    for flag in run_flags:
        parser.add_argument(flag, **_RUN_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nearfield",
        description="Near-field UCA channel estimation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    book = sub.add_parser("codebook", help="build or inspect transform codebooks")
    book_sub = book.add_subparsers(dest="subcommand", required=True)

    build = book_sub.add_parser("build", help="build the spherical codebook and write its grid text")
    _add_flags(build)
    build.add_argument("--out", required=True, help="grid text file, one t,s,z,r,theta,phi row per column")

    stats = book_sub.add_parser("stats", help="print grid sizes and coherence summary")
    _add_flags(stats)
    stats.add_argument("--budget", type=int, default=2000, help="random pair sample size")

    sweep = sub.add_parser("sweep", help="Monte Carlo NMSE sweeps")
    sweep_sub = sweep.add_subparsers(dest="subcommand", required=True)

    snr = sweep_sub.add_parser("snr", help="NMSE versus SNR")
    _add_flags(snr, "--seed", "--trials", "--methods")
    snr.add_argument("--snr-list", help="comma list of SNR points in dB, " + _SNR_RULE)
    snr.add_argument("--out", required=True, help="output CSV path")

    pilot = sweep_sub.add_parser("pilot", help="NMSE versus pilot length")
    _add_flags(pilot, "--seed", "--trials", "--methods")
    pilot.add_argument("--pilot-list", help="comma list of pilot lengths")
    pilot.add_argument("--snr", type=float, help="fixed SNR in dB, " + _SNR_RULE)
    pilot.add_argument("--out", required=True, help="output CSV path")

    trial = sub.add_parser("trial", help="single seeded trial (debug)")
    _add_flags(trial, "--seed", "--methods")
    trial.add_argument("--snr", type=float, help="SNR in dB (default: profile snr_db), " + _SNR_RULE)
    trial.add_argument("--trial-index", type=int, default=0)

    return parser


def _build_spherical(spec) -> cb.SphericalCodebook:
    """Build the spherical codebook and report what it holds, the size of its
    dense matrix (from N x G, without building it) and the build time."""
    start = time.perf_counter()
    book = cb.build_spherical_codebook(spec.system, spec.delta, spec.r_min_m)
    seconds = time.perf_counter() - start
    n, g = book.num_antennas, book.num_columns
    print(f"codebook {n} x {g} holds {book.describe()} (dense: {16 * n * g} bytes), built in {seconds:.3f} s")
    return book


def _cmd_codebook_build(args) -> int:
    spec = assemble_spec(args)
    book = _build_spherical(spec)
    cb.export_grid_text(book, args.out)
    print(f"wrote {book.num_columns} grid points to {args.out}")
    return EXIT_OK


def _describe_pairs(label: str, stats: cb.PairStats) -> str:
    if stats.count == 0:
        return f"  {label:<18} (no pairs)"
    return (
        f"  {label:<18} n={stats.count:<7d} max={stats.max:.4f} "
        f"mean={stats.mean:.4f} median={stats.median:.4f} q90={stats.q90:.4f}"
    )


def _cmd_codebook_stats(args) -> int:
    spec = assemble_spec(args)
    if args.budget < 1:
        raise ConfigurationError(f"--budget must be >= 1, got {args.budget}")
    book = _build_spherical(spec)
    azimuths, rings, _, _, pairs = cb.adjacent_pair_sizes(book.layout)
    print(f"columns G = {book.num_columns} over {book.num_antennas} antennas")
    print(f"elevation levels: {azimuths.size} (t = 0..{azimuths.size - 1})")
    print(f"azimuth samples per elevation: min {azimuths.min()}, max {azimuths.max()}")
    print(f"distance rings per elevation (far field included): min {rings.min()}, max {rings.max()}")
    # The walk below fills every column: at N = 4096 it ran for minutes unannounced.
    elevation, azimuth, distance = (int(size.sum()) for size in pairs)
    print(f"adjacent pairs to correlate: elevation {elevation}, azimuth {azimuth}, distance {distance}", flush=True)
    summary = cb.coherence_stats(book, args.budget)
    print("column correlations:")
    print(_describe_pairs("adjacent elevation", summary.adjacent_elevation))
    print(_describe_pairs("adjacent azimuth", summary.adjacent_azimuth))
    print(_describe_pairs("adjacent distance", summary.adjacent_distance))
    print(_describe_pairs("random pairs", summary.random_pairs))
    return EXIT_OK


def _cmd_sweep(args, kind: str) -> int:
    spec = assemble_spec(args)
    result = harness.sweep_snr(spec) if kind == "snr" else harness.sweep_pilot(spec)
    harness.emit_csv(result, args.out)
    print(f"wrote {len(result.rows)} rows to {args.out}")
    return EXIT_OK


def _cmd_trial(args) -> int:
    spec = assemble_spec(args)
    if args.trial_index < 0:
        raise ConfigurationError(f"--trial-index must be >= 0, got {args.trial_index}")
    records = harness.run_trial(spec, spec.snr_db, args.trial_index, kind="snr")
    print(f"trial {args.trial_index} at {spec.snr_db:g} dB (seed {spec.master_seed}):")
    for method, (value, seconds) in records.items():
        if math.isnan(value):
            print(f"  {method:<14} failed")
        else:
            print(f"  {method:<14} NMSE {estimator.nmse_db(value):8.3f} dB   ({seconds:.3f} s)")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "codebook" and args.subcommand == "build":
            return _cmd_codebook_build(args)
        if args.command == "codebook" and args.subcommand == "stats":
            return _cmd_codebook_stats(args)
        if args.command == "sweep":
            return _cmd_sweep(args, args.subcommand)
        if args.command == "trial":
            return _cmd_trial(args)
        parser.error(f"unhandled command {args.command!r}")
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
