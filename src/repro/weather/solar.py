"""A simple clear-sky solar radiation model.

EnergyPlus computes solar gains from detailed TMY3 irradiance columns.  Here we
use a standard reduced model: solar elevation from latitude, declination and
hour angle, and a clear-sky global horizontal irradiance proportional to the
sine of the elevation with an atmospheric attenuation factor.  Cloud cover
(stochastic, from the climate profile) multiplies the clear-sky value in the
weather generator.

Every function takes scalars or arrays of days and hours (broadcast together)
and returns a float for scalar inputs, a float64 array otherwise; the weather
generator evaluates a whole trace in one call.  Element for element the
result is the same bits as a scalar call: numpy's ``sin``, ``cos``,
``arcsin`` and ``clip`` agree between arrays and scalars, while numpy's
vectorised ``np.power`` does not agree with the C library's ``pow`` in the
last bits on AVX-512 machines.  The two powers of the attenuation term
therefore run on Python floats (which call ``pow``), one daytime element at a
time.
"""

from __future__ import annotations

from typing import Union

import numpy as np

SOLAR_CONSTANT_W_M2 = 1361.0
#: Broad-band clear-sky transmittance of the atmosphere (dimensionless).
CLEAR_SKY_TRANSMITTANCE = 0.72

#: A scalar or an array of days, hours or angles.
FloatOrArray = Union[float, np.ndarray]


def _scalar_or_array(values: np.ndarray) -> FloatOrArray:
    return float(values) if np.ndim(values) == 0 else values


def solar_declination_rad(day_of_year: FloatOrArray) -> FloatOrArray:
    """Solar declination angle (radians) for a given day of the year (0-based)."""
    return np.deg2rad(23.45) * np.sin(2.0 * np.pi * (284.0 + day_of_year + 1.0) / 365.0)


def solar_elevation_angle(
    latitude_deg: float, day_of_year: FloatOrArray, hour_of_day: FloatOrArray
) -> FloatOrArray:
    """Solar elevation angle in radians (negative below the horizon)."""
    lat = np.deg2rad(latitude_deg)
    decl = solar_declination_rad(day_of_year)
    hour_angle = np.deg2rad(15.0 * (hour_of_day - 12.0))
    sin_elev = np.sin(lat) * np.sin(decl) + np.cos(lat) * np.cos(decl) * np.cos(hour_angle)
    return _scalar_or_array(np.arcsin(np.clip(sin_elev, -1.0, 1.0)))


def clear_sky_radiation(
    latitude_deg: float, day_of_year: FloatOrArray, hour_of_day: FloatOrArray
) -> FloatOrArray:
    """Clear-sky global horizontal irradiance in W/m^2 (0 at night)."""
    elevation = np.asarray(solar_elevation_angle(latitude_deg, day_of_year, hour_of_day))
    radiation = np.zeros(elevation.shape)
    daytime = elevation > 0.0
    sin_elev = np.sin(elevation[daytime])
    air_mass = 1.0 / np.maximum(sin_elev, 1e-3)
    attenuation = np.array(
        [CLEAR_SKY_TRANSMITTANCE ** (m ** 0.678) for m in air_mass.tolist()], dtype=float
    )
    horizontal = SOLAR_CONSTANT_W_M2 * attenuation * sin_elev
    # Add a small diffuse fraction so overcast mornings are not exactly zero.
    diffuse = 0.1 * SOLAR_CONSTANT_W_M2 * sin_elev
    radiation[daytime] = np.maximum(horizontal + diffuse, 0.0)
    return _scalar_or_array(radiation)
