"""Per-column steering vectors, kept as the oracle for the ring kernel,
and the per-point helpers that only tests read.

`near_field_column` and `far_field_column` compute one N-vector per call,
from scratch: the plane wave as the earlier body of `far_field_steering`,
the spherical wave in the cancellation-free form of `ring_steering`'s
docstring. `ring_steering` and `phase_modes.ring_columns`, which fills
every column and matrix of a ring-built codebook from it, must reproduce
them bit for bit. `law_of_cosines_column` is the earlier spherical-wave
body, exp(-j k (r^(n) - r)) with r^(n) from the law of cosines, whose
phase loses about k r eps to cancellation; it is a cross-check within that
bound, not a bitwise oracle.

`exact_distance`, `approx_distance` and `column_correlation` are the
per-antenna distances and the column correlation the codebook design is
derived from. `near_field_steering` and `far_field_steering` are not
oracles: they are one-column wrappers of `ring_steering`, the kernel under
test.
"""

import math

import numpy as np

from nearfield.channel import UcaGeometry, azimuth_cosines, ring_steering


def _check_outside(r, geom):
    if r <= geom.radius_m:
        raise ValueError(
            f"near-field source must lie outside the array: r={r} <= R={geom.radius_m}"
        )


def near_field_column(r, theta, phi, geom, wavelength_m):
    _check_outside(r, geom)
    psi = geom.antenna_azimuths_rad
    radius = geom.radius_m
    wavenumber = 2.0 * math.pi / wavelength_m
    reach = wavenumber * radius
    half = reach * np.sin(theta) * np.cos(phi - psi) - reach * (radius / r) * 0.5
    phase = half / (np.sqrt(0.25 - 0.5 / (wavenumber * r) * half) + 0.5)
    return np.exp(1j * phase) / math.sqrt(geom.num_antennas)


def law_of_cosines_column(r, theta, phi, geom, wavelength_m):
    _check_outside(r, geom)
    psi = geom.antenna_azimuths_rad
    radius = geom.radius_m
    projected = 2.0 * radius * r * np.sin(theta) * np.cos(phi - psi)
    dist = np.sqrt(r * r + radius * radius - projected)
    return np.exp(-2j * math.pi / wavelength_m * (dist - r)) / math.sqrt(geom.num_antennas)


def far_field_column(theta, phi, geom, wavelength_m):
    psi = geom.antenna_azimuths_rad
    n = geom.num_antennas
    phase = 2.0 * math.pi / wavelength_m * geom.radius_m * np.sin(theta) * np.cos(phi - psi)
    return np.exp(1j * phase) / math.sqrt(n)


def oracle_column(point, geom, wavelength_m):
    """The steering column of one codebook grid point (r, theta, phi)."""
    r, theta, phi = point
    if math.isinf(r):
        return far_field_column(theta, phi, geom, wavelength_m)
    return near_field_column(r, theta, phi, geom, wavelength_m)


def oracle_matrix(layout, geom, wavelength_m):
    """A codebook matrix rebuilt one column at a time from its ring layout."""
    _, _, _, *coords = layout.locate(np.arange(layout.num_columns))
    points = np.column_stack(coords).tolist()
    return np.column_stack([oracle_column(point, geom, wavelength_m) for point in points])


def exact_distance(r, theta, phi, antenna_index, geom: UcaGeometry):
    """Euclidean distance from antenna n to the point (r, theta, phi).

    Law of cosines on the triangle (origin, antenna, source):
    sqrt(r^2 + R^2 - 2 R r sin(theta) cos(phi - psi_n)). Broadcasts over
    `antenna_index`.
    """
    if np.any(np.asarray(r) <= 0.0):
        raise ValueError("source distance must be positive")
    psi = np.asarray(geom.antenna_azimuths_rad)[antenna_index]
    radius = geom.radius_m
    projected = 2.0 * radius * r * np.sin(theta) * np.cos(phi - psi)
    return np.sqrt(r * r + radius * radius - projected)


def approx_distance(r, theta, phi, antenna_index, geom: UcaGeometry):
    """Second-order Taylor expansion of `exact_distance` in R/r.

    r - R sin(theta) cos(phi - psi_n) + R^2/(2r) (1 - sin^2 cos^2). Kept for
    validation of the codebook derivation; channel synthesis always uses the
    exact distance.
    """
    psi = np.asarray(geom.antenna_azimuths_rad)[antenna_index]
    radius = geom.radius_m
    cross = np.sin(theta) * np.cos(phi - psi)
    return r - radius * cross + radius * radius / (2.0 * r) * (1.0 - cross * cross)


def near_field_steering(r, theta, phi, geom: UcaGeometry, wavelength_m: float) -> np.ndarray:
    """Unit-norm spherical-wave steering vector for a source at (r, theta, phi).

    A one-column wrapper of `ring_steering`, not an oracle: entry n is
    exp(-j 2pi/lambda (r^(n) - r)) / sqrt(N), with r^(n) the exact
    per-antenna distance; r = inf gives the plane wave (`far_field_steering`).
    """
    out = np.empty((geom.num_antennas, 1), dtype=np.complex128)
    return ring_steering(r, theta, azimuth_cosines([phi], geom), geom, wavelength_m, out)[:, 0]


def far_field_steering(theta, phi, geom: UcaGeometry, wavelength_m: float) -> np.ndarray:
    """Plane-wave (r -> infinity) limit of the steering vector, the
    r = inf column of the `ring_steering` wrapper `near_field_steering`.

    Entry n is exp(+j 2pi/lambda R sin(theta) cos(phi - psi_n)) / sqrt(N).
    """
    return near_field_steering(math.inf, theta, phi, geom, wavelength_m)


def column_correlation(b1: np.ndarray, b2: np.ndarray) -> float:
    """|b1^H b2| for two unit-norm columns."""
    b1 = np.asarray(b1)
    b2 = np.asarray(b2)
    if b1.shape != b2.shape:
        raise ValueError(f"length mismatch: {b1.shape} vs {b2.shape}")
    return float(abs(np.vdot(b1, b2)))
