"""Per-column steering vectors, kept as the oracle for the ring kernel.

`near_field_column` and `far_field_column` compute one N-vector per call,
from scratch: the plane wave as the earlier body of `far_field_steering`,
the spherical wave in the cancellation-free form of `ring_steering`'s
docstring. `ring_steering` and `phase_modes.ring_columns`, which fills
every column and matrix of a ring-built codebook from it, must reproduce
them bit for bit. `law_of_cosines_column` is the earlier spherical-wave
body, exp(-j k (r^(n) - r)) with r^(n) from the law of cosines, whose
phase loses about k r eps to cancellation; it is a cross-check within that
bound, not a bitwise oracle.
"""

import math

import numpy as np


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


def oracle_matrix(grid, geom, wavelength_m):
    """A codebook matrix rebuilt one column at a time from its grid."""
    return np.column_stack(
        [oracle_column(point, geom, wavelength_m) for point in grid.coords.tolist()]
    )
