"""Per-column steering vectors, kept as the oracle for the ring kernel.

`near_field_column` and `far_field_column` are the earlier bodies of
`near_field_steering` and `far_field_steering` (with `exact_distance`
inlined): one N-vector per call, computed from scratch. `ring_steering`
and `phase_modes.ring_columns`, which fills every column and matrix of a
ring-built codebook from it, must reproduce them bit for bit.
"""

import math

import numpy as np


def near_field_column(r, theta, phi, geom, wavelength_m):
    if r <= geom.radius_m:
        raise ValueError(
            f"near-field source must lie outside the array: r={r} <= R={geom.radius_m}"
        )
    n = geom.num_antennas
    psi = np.asarray(geom.antenna_azimuths_rad)[np.arange(n)]
    radius = geom.radius_m
    projected = 2.0 * radius * r * np.sin(theta) * np.cos(phi - psi)
    dist = np.sqrt(r * r + radius * radius - projected)
    return np.exp(-2j * math.pi / wavelength_m * (dist - r)) / math.sqrt(n)


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
