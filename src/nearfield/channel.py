"""UCA geometry, spherical-wave propagation distances, steering vectors,
and multipath OFDM channel synthesis."""

import cmath
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

# Propagation speed convention. 3e8 m/s keeps the default carrier's
# half-wavelength spacing at exactly d = 0.005 m (lambda = 0.01 m at 30 GHz),
# which the grid-size constants of the codebook design rely on.
C_LIGHT = 3.0e8


class ConfigurationError(ValueError):
    """A system or run parameter violates its documented constraints."""


def uca_radius(spacing_m: float, num_antennas: int) -> float:
    """Radius of a UCA whose adjacent-antenna chord equals `spacing_m`.

    R = d / (2 sin(pi/N)): the N antennas sit on a circle and consecutive
    ones are exactly one chord of length d apart.
    """
    if num_antennas < 3:
        raise ConfigurationError(
            f"a circular array needs at least 3 antennas, got {num_antennas}"
        )
    if spacing_m <= 0.0:
        raise ConfigurationError(f"antenna spacing must be positive, got {spacing_m}")
    return spacing_m / (2.0 * math.sin(math.pi / num_antennas))


@dataclass(frozen=True)
class SystemConfig:
    """Carrier, array, and pilot parameters defining one experiment."""

    carrier_freq_hz: float
    bandwidth_hz: float
    num_subcarriers: int
    num_antennas: int
    antenna_spacing_m: float
    num_rf_chains: int
    num_pilot_slots: int

    def __post_init__(self):
        for name, least in (("num_antennas", 3), ("num_subcarriers", 1), ("num_pilot_slots", 1), ("num_rf_chains", 1)):
            value = getattr(self, name)
            # A fractional count built both codebooks and then failed every trial.
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ConfigurationError(f"{name} must be >= {least}")
        for name in ("carrier_freq_hz", "bandwidth_hz", "antenna_spacing_m"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ConfigurationError(f"{name} must be finite and strictly positive, got {value}")

    @property
    def wavelength_m(self) -> float:
        return C_LIGHT / self.carrier_freq_hz

    @property
    def radius_m(self) -> float:
        return uca_radius(self.antenna_spacing_m, self.num_antennas)

    @property
    def aperture_m(self) -> float:
        return 2.0 * self.radius_m


@dataclass(frozen=True, eq=False)
class UcaGeometry:
    """Antenna ring: radius plus the angular position of every element."""

    radius_m: float
    antenna_azimuths_rad: np.ndarray = field(repr=False)

    @classmethod
    def from_config(cls, config: SystemConfig) -> "UcaGeometry":
        return cls.from_layout(config.num_antennas, config.antenna_spacing_m)

    @classmethod
    def from_layout(cls, num_antennas: int, spacing_m: float) -> "UcaGeometry":
        radius = uca_radius(spacing_m, num_antennas)
        azimuths = 2.0 * math.pi * np.arange(num_antennas) / num_antennas
        return cls(radius, azimuths)

    @property
    def num_antennas(self) -> int:
        return self.antenna_azimuths_rad.size


@dataclass(frozen=True)
class PathParams:
    """One propagation path: spherical position of the source plus complex gain.

    Every field must be finite. Azimuth is stored wrapped into [0, 2pi).
    Elevation 0 is the zenith, where every antenna is equidistant from the
    source and the azimuth has no effect. Callers are responsible for
    keeping the source outside the array (distance_m > radius).
    """

    distance_m: float
    elevation_rad: float
    azimuth_rad: float
    gain: complex

    def __post_init__(self):
        for name in ("distance_m", "elevation_rad", "azimuth_rad", "gain"):
            if not cmath.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.distance_m <= 0.0:
            raise ValueError(f"path distance must be positive, got {self.distance_m}")
        if not 0.0 <= self.elevation_rad <= 0.5 * math.pi:
            raise ValueError(
                f"elevation must lie in [0, pi/2], got {self.elevation_rad}"
            )
        azimuth = self.azimuth_rad % (2.0 * math.pi)  # a tiny negative one rounds to 2 pi
        object.__setattr__(self, "azimuth_rad", azimuth if azimuth < 2.0 * math.pi else 0.0)


def subcarrier_frequencies(config: SystemConfig) -> np.ndarray:
    """f_m = f_c + (2m - M) B / (2M) for m = 1..M."""
    m = np.arange(1, config.num_subcarriers + 1)
    offset = (2 * m - config.num_subcarriers) * config.bandwidth_hz
    return config.carrier_freq_hz + offset / (2.0 * config.num_subcarriers)


def azimuth_cosines(phis, geom: UcaGeometry) -> np.ndarray:
    """cos(phi_s - psi_n) as an (S, N) array, one row per azimuth in `phis`."""
    out = np.subtract(np.asarray(phis, dtype=np.float64)[:, None], geom.antenna_azimuths_rad)
    return np.cos(out, out=out)


def ring_steering(r, theta, cosines, geom: UcaGeometry, wavelength_m: float, out):
    """Write the unit-norm steering vectors towards (r_s, theta_s, phi_s) into
    `out` (N x S), the one kernel every steering vector comes from.

    Row s of `cosines` holds cos(phi_s - psi_n) (see `azimuth_cosines`); r
    and theta hold one value per column, and a scalar serves every column.
    Entry n is exp(-j k (r^(n) - r_s)) / sqrt(N), k = 2pi/lambda, r^(n) the
    exact distance, and its phase k (r_s - r^(n)) = v / (sqrt(1/4 - v / (2 k r_s)) + 1/2)
    with v = k R (x - R / (2 r_s)), x = sin(theta_s) cos(phi_s - psi_n): no
    cancellation at large r_s, and at r_s = inf the plane wave's k R x.
    """
    radius = geom.radius_m
    wavenumber = 2.0 * math.pi / wavelength_m
    r = np.asarray(r, dtype=np.float64).reshape(-1, 1)
    sin = np.sin(np.asarray(theta, dtype=np.float64).reshape(-1, 1))
    if (r <= radius).any():
        raise ValueError(f"near-field source must lie outside the array: r={r.min()} <= R={radius}")
    # Every step is elementwise in the order of the per-column formula, so each
    # column's bits do not depend on which columns share the call. The halves
    # keep v and the root's 1/2 exact at r = inf, even where k R x is subnormal.
    # The root is held in the first S N floats of `out`, contiguous.
    phase = np.multiply(wavenumber * radius * sin, cosines)
    np.subtract(phase, wavenumber * radius * (radius / r) * 0.5, out=phase)
    root = out.ravel(order="K").view(np.float64)[: phase.size].reshape(phase.shape)
    np.multiply(0.5 / (wavenumber * r), phase, out=root)
    np.subtract(0.25, root, out=root)
    np.sqrt(root, out=root)
    np.add(root, 0.5, out=root)
    np.divide(phase, root, out=phase)
    entries = np.multiply(1j, phase, out=out.T)
    np.exp(entries, out=entries)
    np.divide(entries, math.sqrt(geom.num_antennas), out=entries)
    return out


def path_steering(paths, geom: UcaGeometry, wavelength_m: float) -> np.ndarray:
    """The C-ordered (N, L) steering vectors of L paths, one column per path,
    from one `ring_steering` call."""
    r, theta, phi = np.array([(p.distance_m, p.elevation_rad, p.azimuth_rad) for p in paths]).T
    out = np.empty((geom.num_antennas, len(paths)), dtype=np.complex128)
    return ring_steering(r, theta, azimuth_cosines(phi, geom), geom, wavelength_m, out)


def generate_channel(paths, config: SystemConfig) -> np.ndarray:
    """Superpose L spherical-wave paths into the channel H, a C-ordered
    (N, M) complex128 array whose column m belongs to subcarrier m.

    Column m is sqrt(N/L) sum_l g_l exp(-j k_m r_l) b(r_l, theta_l, phi_l)
    with k_m = 2 pi f_m / c; the steering vectors use the centre wavelength.
    """
    paths = list(paths)
    num_paths = len(paths)
    if num_paths == 0:
        raise ValueError("at least one propagation path is required")
    if num_paths > config.num_antennas:
        raise ValueError(
            f"path count {num_paths} exceeds antenna count {config.num_antennas}"
        )
    geom = UcaGeometry.from_config(config)
    for p in paths:
        if p.distance_m <= geom.radius_m:
            raise ValueError(
                f"path at r={p.distance_m} lies inside the array (R={geom.radius_m})"
            )
    steering = path_steering(paths, geom, config.wavelength_m)
    wavenumbers = 2.0 * math.pi * subcarrier_frequencies(config) / C_LIGHT
    distances = np.array([p.distance_m for p in paths])
    gains = np.array([p.gain for p in paths], dtype=np.complex128)
    coeffs = gains[:, None] * np.exp(-1j * np.outer(distances, wavenumbers))
    scale = math.sqrt(config.num_antennas / num_paths)
    return scale * (steering @ coeffs)


def check_path_ranges(distance_range, theta_range, phi_range, radius_m: float = 0.0) -> None:
    """Raise ConfigurationError unless paths drawn from these (low, high)
    ranges are valid: finite, low < high, every distance beyond `radius_m` (the
    array's, to keep sources outside it), and elevations within [0, pi/2]."""
    for name, (lo, hi) in (
        ("distance_range", distance_range),
        ("elevation_range", theta_range),
        ("azimuth_range", phi_range),
    ):
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ConfigurationError(f"{name} must be finite with low < high, got ({lo}, {hi})")
    if not distance_range[0] > radius_m:
        raise ConfigurationError(
            f"distance range must start beyond {radius_m} m, got {distance_range[0]}"
        )
    if not (0.0 <= theta_range[0] and theta_range[1] <= 0.5 * math.pi):
        raise ConfigurationError("theta range must lie within [0, pi/2]")


def sample_paths(rng_seed, num_paths, distance_range, theta_range, phi_range):
    """Draw `num_paths` uniformly distributed paths with CN(0, 1) gains.

    Distances, elevations, and azimuths are independent uniforms over the
    given (low, high) ranges; the complex gain is circularly-symmetric
    standard normal. Deterministic for a fixed seed.
    """
    if num_paths < 1:
        raise ValueError("num_paths must be >= 1")
    check_path_ranges(distance_range, theta_range, phi_range)
    rng = np.random.default_rng(rng_seed)
    r = rng.uniform(*distance_range, size=num_paths)
    theta = rng.uniform(*theta_range, size=num_paths)
    phi = rng.uniform(*phi_range, size=num_paths)
    gains = (rng.standard_normal(num_paths) + 1j * rng.standard_normal(num_paths))
    gains /= math.sqrt(2.0)
    return [
        PathParams(r[i], theta[i], phi[i], complex(gains[i])) for i in range(num_paths)
    ]
